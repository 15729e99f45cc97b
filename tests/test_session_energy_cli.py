"""FineTuningSession, the energy model, the CLI, and report rendering."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import vision_source, vision_task
from repro.devices import (estimate_energy, get_device, local_vs_cloud,
                           transmission_energy_mj)
from repro.models import build_model, paper_scheme
from repro.report import ratio, render_series, render_table
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import bias_only, full_update
from repro.train import Adam, FineTuningSession
from repro.train import SGD


class TestFineTuningSession:
    def test_pretrain_then_compare(self):
        forward = build_model("mobilenetv2_micro", batch=8, num_classes=10)
        session = FineTuningSession(forward, optimizer=Adam(3e-3))
        source = vision_source(n_train=128)
        rng = np.random.default_rng(0)
        loss = session.pretrain(source.batches(8, rng, 60))
        assert np.isfinite(loss)
        assert session.checkpoint is not None

        task = vision_task("pets", n_train=96, n_test=48)
        results = session.compare(
            {"full": full_update(forward), "bias": bias_only(forward)},
            batch_factory=lambda: task.batches(
                8, np.random.default_rng(1), 40),
            eval_data=(task.x_test, task.y_test),
        )
        assert results["bias"].num_nodes < results["full"].num_nodes
        assert results["bias"].peak_transient_bytes \
            < results["full"].peak_transient_bytes
        for r in results.values():
            assert 0.0 <= r.accuracy <= 1.0
            assert len(r.losses) == 40

    def test_checkpoint_not_mutated_by_finetune(self):
        forward = build_model("mobilenetv2_micro", batch=4, num_classes=10)
        session = FineTuningSession(forward, optimizer=Adam(5e-3))
        source = vision_source(n_train=64, n_test=16)
        session.pretrain(source.batches(4, np.random.default_rng(0), 20))
        snapshot = {k: v.copy() for k, v in session.checkpoint.items()}
        task = vision_task("vww", n_train=32, n_test=16, resolution=16)
        session.finetune(full_update(forward),
                         task.batches(4, np.random.default_rng(1), 10))
        for key, value in snapshot.items():
            np.testing.assert_array_equal(session.checkpoint[key], value)


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def program(self):
        forward = build_model("mcunet_micro", batch=1)
        return compile_training(
            forward, optimizer=SGD(0.01),
            options=CompileOptions(materialize_state=False))

    def test_energy_positive_and_additive(self, program):
        device = get_device("stm32f746")
        report = estimate_energy(program.graph, program.schedule, device)
        assert report.compute_mj > 0 and report.memory_mj > 0
        assert report.total_mj == pytest.approx(
            report.compute_mj + report.memory_mj)

    def test_sparse_uses_less_energy(self):
        forward = build_model("mcunet_micro", batch=1)
        device = get_device("stm32f746")
        opts = CompileOptions(materialize_state=False)
        full = compile_training(forward, optimizer=SGD(0.01), options=opts)
        sparse = compile_training(forward, optimizer=SGD(0.01),
                                  scheme=paper_scheme(forward), options=opts)
        e_full = estimate_energy(full.graph, full.schedule, device)
        e_sparse = estimate_energy(sparse.graph, sparse.schedule, device)
        assert e_sparse.total_mj < e_full.total_mj

    def test_transmission_energy_linear(self):
        assert transmission_energy_mj(2_000_000) == pytest.approx(
            2 * transmission_energy_mj(1_000_000))

    def test_local_vs_cloud_paper_motivation(self, program):
        """Paper §1: transmission is much more expensive than computation —
        for a tiny model, local training beats uploading raw images."""
        device = get_device("stm32f746")
        image_bytes = 3 * 128 * 128  # one int8 camera frame
        verdict = local_vs_cloud(program.graph, program.schedule, device,
                                 steps=100, bytes_per_step=image_bytes)
        assert verdict["upload_mj"] > 0
        assert verdict["ratio"] > 0.05  # comparable order of magnitude


class TestCLI:
    def test_features(self, capsys):
        assert cli_main(["features"]) == 0
        out = capsys.readouterr().out
        assert "PockEngine" in out and "PyTorch" in out

    def test_devices(self, capsys):
        assert cli_main(["devices"]) == 0
        assert "stm32f746" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert cli_main([
            "simulate", "--model", "mcunet_micro",
            "--device", "raspberry_pi_4", "--sparse",
            "--frameworks", "pytorch", "pockengine",
        ]) == 0
        out = capsys.readouterr().out
        assert "pockengine" in out

    def test_simulate_unavailable_framework_marked(self, capsys):
        assert cli_main([
            "simulate", "--model", "mcunet_micro",
            "--device", "snapdragon_dsp",
            "--frameworks", "pytorch", "pockengine",
        ]) == 0
        assert "unavailable" in capsys.readouterr().out

    def test_memory(self, capsys):
        assert cli_main(["memory", "--model", "mcunet_micro",
                         "--sparse"]) == 0
        out = capsys.readouterr().out
        assert "static slab" in out and "schedule's peak estimate" in out
        # one count of the plan's bytes: nothing left to reconcile
        assert "slab / plan peak" not in out

    def test_memory_explains_the_peak(self, capsys):
        """Under the summary: what the plan holds at its peak instruction,
        the next two moments down (what removing the peak would buy), then
        what the forward pass keeps for the backward, by producing op —
        all read off the intervals planlint rebuilds the plan's peak
        from."""
        assert cli_main(["memory", "--model", "mcunet_micro", "--sparse",
                         "--batch", "2"]) == 0
        tables = capsys.readouterr().out.split("\n\n")
        assert len(tables) == 5
        # nothing on a CNN qualifies for recomputation
        assert tables[4] == "recomputed for the backward: 0 values, 0 bytes\n"

        def parse(table):
            title, header, _, *rows = table.splitlines()
            split = lambda line: [c.strip() for c in line.split("|")]  # noqa
            return title, split(header), [split(row) for row in rows]

        summary = dict(row for row in parse("\n" + tables[0])[2])
        # the slab sits on the floor of any placement, and the plan's peak
        # a few alignment bytes under it
        assert summary["live-load bound"] == "96.6KB"
        assert summary["slab / live-load bound"] == "1.000"
        assert summary["plan peak transient"] == "96.5KB"

        title, header, live = parse(tables[1])
        assert header == ["value", "producer", "shape", "dtype", "bytes",
                          "born-dies", "share"]
        # the block-2 forward stride-2 depthwise conv, the first to need a
        # buffer beside its input: input, output, the two residuals kept
        # for the backward adds (the first in the buffer of the conv it
        # was added onto, born at instruction 2), three expand relu6 bit
        # masks and the labels
        assert title == ("live at the plan's peak: instruction 12 of 74 "
                         "(conv2d), 98832 bytes")
        assert [(row[1], row[3], row[4]) for row in live] == [
            ("conv2d", "float32", "49152"), ("add", "float32", "16384"),
            ("add", "float32", "16384"), ("conv2d", "float32", "12288"),
            ("range_mask", "uint8", "1536"), ("range_mask", "uint8", "1536"),
            ("range_mask", "uint8", "1536"), ("feed", "int64", "16")]
        assert live[0][2] == "2x24x16x16" and live[0][5] == "10-12"
        assert live[1][5] == "2-72" and live[7][0] == "labels"
        assert live[3][2] == "2x24x8x8" and live[3][5] == "12-14"
        assert sum(int(row[4]) for row in live) == 98832
        for row in live:
            assert row[6] == f"{int(row[4]) / 98832:.1%}"

        title, header, moments = parse(tables[2])
        assert title == "the peak and the next two moments"
        assert header == ["instr", "kernel", "bytes", "of peak",
                          "peak without"]
        # distinct levels, highest first, each with the level under it:
        # removing the peak buys 12 bytes — its backward conv2d_dx holds
        # as much — and only under both is there a drop
        assert [row[:3] + row[4:] for row in moments] == [
            ["12", "conv2d", "98832", "98820"],
            ["64", "conv2d_dx", "98820", "86544"],
            ["11", "range_mask", "86544", "85860"]]

        title, header, held = parse(tables[3])
        assert header == ["producer", "values", "bytes", "share"]
        assert title.startswith("held for backward")
        by_op = {row[0]: (int(row[1]), int(row[2])) for row in held}
        assert by_op["range_mask"] == (8, 7680)
        assert by_op["total"] == (sum(n for op, (n, _) in by_op.items()
                                      if op != "total"),
                                  sum(b for op, (_, b) in by_op.items()
                                      if op != "total"))
        assert "step" not in by_op  # no float mask is kept

    def test_memory_marks_what_is_recomputed(self, capsys):
        """On distilbert_micro full at batch 2 the plan's peak is the last
        block's down-projection weight gradient, beside the GELU output
        recomputed for it: the listing marks that row, and the last line
        counts both blocks' clones."""
        assert cli_main(["memory", "--model", "distilbert_micro",
                         "--batch", "2"]) == 0
        tables = capsys.readouterr().out.split("\n\n")
        rows = [[cell.strip() for cell in line.split("|")]
                for line in tables[1].splitlines()[3:]]
        marked = [row for row in rows if row[1].endswith("(recomputed)")]
        assert [(row[1], row[2], row[4]) for row in marked] == [
            ("gelu (recomputed)", "2x16x64", "8192")]
        assert marked[0][0].endswith(".recompute")
        assert tables[4] == ("recomputed for the backward: 2 values, "
                             f"{2 * 2 * 16 * 64 * 4} bytes\n")

    def test_memory_names_what_a_buffer_holds_then(self, capsys):
        """An in-place reuse chain is one buffer holding several values
        over its life; each table names the one in it at the instruction
        it shows. On llama_micro's full update every FFN block's
        up-projection output, which the forward keeps for the backward,
        is the buffer the backward's ``g·up`` and then its ``silu_grad``
        write over, so a buffer named after its chain's last value would
        count a backward op as held for the backward."""
        assert cli_main(["memory", "--model", "llama_micro",
                         "--batch", "2"]) == 0
        tables = capsys.readouterr().out.split("\n\n")
        title = tables[1].splitlines()[0]
        assert title == ("live at the plan's peak: instruction 112 of 372 "
                         "(pick), 420480 bytes")
        *rows, total = [[cell.strip() for cell in line.split("|")]
                        for line in tables[3].splitlines()[3:]]
        held = {row[0]: int(row[2]) for row in rows}
        assert total[0] == "total" and int(total[2]) == 401476
        # no silu output: the gate's adjoints read the two projections; no
        # swiglu output either: the down projection's weight gradient reads
        # one recomputed from them beside it
        assert "silu" not in held and "swiglu" not in held
        assert tables[4] == ("recomputed for the backward: 4 values, "
                             f"{4 * 2 * 24 * 64 * 4} bytes\n")
        assert "silu_grad" not in held and "mul" in held
        # every producer runs by the loss: forward ops, the rule-emitted
        # ops the schedule starts there (RMSNorm's reciprocal, the
        # cross-entropy adjoint) and the loss itself
        forward = build_model("llama_micro", batch=2)
        program = compile_training(
            forward, optimizer=SGD(0.01), scheme=full_update(forward),
            options=CompileOptions(materialize_state=False))
        loss_at = next(i for i, node in enumerate(program.schedule)
                       if program.meta["loss"] in node.outputs)
        assert set(held) - {"feed"} <= {
            node.op_type for node in program.schedule[:loss_at + 1]}

    def test_scheme(self, capsys):
        assert cli_main(["scheme", "--model", "bert_micro"]) == 0
        out = capsys.readouterr().out
        assert "attention" in out or "bias" in out

    def test_profile(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert cli_main(["profile", "--model", "mcunet_micro",
                         "--device", "stm32f746", "--sparse",
                         "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "share" in out
        assert trace.exists()
        import json
        assert json.loads(trace.read_text())["traceEvents"]

    def test_deploy(self, capsys, tmp_path):
        out_dir = tmp_path / "artifact"
        assert cli_main(["deploy", "--model", "mcunet_micro",
                         "--out", str(out_dir), "--sparse"]) == 0
        out = capsys.readouterr().out
        assert "kernels linked" in out
        assert (out_dir / "manifest.json").exists()

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "--model", "nope",
                      "--device", "raspberry_pi_4"])


class TestReportRendering:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xx", None]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # equal widths
        assert "-" in lines[-1]  # None renders as dash

    def test_render_series(self):
        text = render_series("losses", [1.0, 0.5, 0.25])
        assert text.count("#") >= 3

    def test_ratio(self):
        assert ratio(10.0, 2.0) == "5.0x"
        assert ratio(None, 2.0) == "-"
        assert ratio(1.0, 0.0) == "-"
