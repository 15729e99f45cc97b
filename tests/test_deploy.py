"""Deployment artifacts and the binary-size model."""

import json

import numpy as np
import pytest

from repro.deploy import (FRAMEWORK_BINARY_BYTES, RUNTIME_CORE_BYTES,
                          estimate_binary_size, load_artifact, save_artifact)
from repro.errors import GraphError
from repro.models import build_model
from repro.quant import collect_ranges, quantize_inference_graph
from repro.runtime import Executor, Program
from repro.runtime.compiler import compile_inference, compile_training
from repro.train import SGD

from conftest import make_mlp_graph


@pytest.fixture
def training_artifact(tmp_path):
    forward = build_model("mcunet_micro", batch=2, num_classes=3)
    program = compile_training(forward, optimizer=SGD(0.05))
    save_artifact(program, tmp_path / "model")
    return forward, program, tmp_path / "model"


class TestArtifactRoundTrip:
    def test_training_step_identical_after_reload(self, training_artifact,
                                                  rng):
        forward, program, path = training_artifact
        deployed = load_artifact(path)
        feeds = {
            forward.inputs[0]: rng.standard_normal(
                forward.spec(forward.inputs[0]).shape).astype(np.float32),
            program.meta["labels"]: rng.integers(0, 3, 2).astype(np.int64),
        }
        want = Executor(program).run(feeds)[program.meta["loss"]]
        got = deployed.run(feeds)[deployed.meta["loss"]]
        np.testing.assert_allclose(want, got, rtol=1e-6)

    def test_schedule_order_preserved(self, training_artifact):
        _, program, path = training_artifact
        deployed = load_artifact(path)
        assert [n.name for n in deployed.program.schedule] \
            == [n.name for n in program.schedule]

    def test_manifest_lists_used_kernels_only(self, training_artifact):
        _, program, path = training_artifact
        manifest = json.loads((path / "manifest.json").read_text())
        assert set(manifest["kernels"]) \
            == {n.op_type for n in program.schedule}

    def test_arena_offsets_serialized(self, training_artifact):
        _, _, path = training_artifact
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["arena"]["bytes"] > 0
        assert manifest["arena"]["offsets"]

    def test_inference_artifact(self, tmp_path, rng):
        builder, _ = make_mlp_graph()
        program = compile_inference(builder.graph)
        save_artifact(program, tmp_path / "mlp")
        deployed = load_artifact(tmp_path / "mlp")
        x = rng.standard_normal((4, 5)).astype(np.float32)
        want = Executor(program).run({"x": x})
        got = deployed.run({"x": x})
        for name in program.outputs:
            np.testing.assert_allclose(want[name], got[name], rtol=1e-6)

    def test_int8_artifact_round_trips(self, tmp_path, rng):
        forward = build_model("mcunet_micro", batch=2, num_classes=3)
        feeds = {forward.inputs[0]: rng.standard_normal(
            forward.spec(forward.inputs[0]).shape).astype(np.float32)}
        int8 = quantize_inference_graph(
            forward, collect_ranges(forward, [feeds]))
        program = Program.from_graph(int8)
        save_artifact(program, tmp_path / "int8")
        deployed = load_artifact(tmp_path / "int8")
        want = Executor(program).run(feeds)[program.outputs[0]]
        got = deployed.run(feeds)[deployed.program.outputs[0]]
        np.testing.assert_array_equal(want, got)


ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")


class TestZooArtifactsVerifyOnLoad:
    @pytest.mark.parametrize("scheme_name", ["paper_scheme", "full_update"])
    @pytest.mark.parametrize("model", ZOO_MODELS)
    def test_saved_artifact_loads_with_verification(self, tmp_path, model,
                                                    scheme_name):
        """save -> load(verify=True) for every zoo model: the manifest must
        carry every attr back exactly (``pad`` is a tuple of tuples), or the
        loader's plan verifier cannot re-infer the schemas."""
        from repro.models import paper_scheme
        from repro.sparse import full_update
        from repro.train import Adam

        forward = build_model(model, batch=2)
        scheme, optimizer = (paper_scheme, SGD(0.05)) \
            if scheme_name == "paper_scheme" else (full_update, Adam(1e-3))
        program = compile_training(forward, optimizer=optimizer,
                                   scheme=scheme(forward))
        save_artifact(program, tmp_path / "model")
        deployed = load_artifact(tmp_path / "model", verify=True)
        assert deployed.program.plan_spec() == program.plan_spec()
        for want, got in zip(program.schedule, deployed.program.schedule):
            assert got.attrs == want.attrs, want.name


class TestArtifactErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(GraphError, match="manifest"):
            load_artifact(tmp_path)

    def test_garbled_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(GraphError, match="garbled"):
            load_artifact(tmp_path)

    def test_wrong_version(self, training_artifact):
        _, _, path = training_artifact
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match="version"):
            load_artifact(path)

    def test_unknown_schedule_node(self, training_artifact):
        _, _, path = training_artifact
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schedule"][0] = "no_such_node"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match="unknown node"):
            load_artifact(path)

    def test_missing_kernel(self, training_artifact):
        _, _, path = training_artifact
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["kernels"].append("warp_drive")
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match="warp_drive"):
            load_artifact(path)


class TestBinarySize:
    def test_counts_each_kernel_once(self):
        builder, _ = make_mlp_graph()
        report = estimate_binary_size(builder.graph)
        # matmul appears twice in the graph but links once.
        assert report.kernel_bytes.get("matmul", 0) > 0
        assert report.num_kernels == len(
            {n.op_type for n in builder.graph.nodes})

    def test_views_cost_no_code(self):
        builder, _ = make_mlp_graph()
        report = estimate_binary_size(builder.graph)
        assert report.kernel_bytes.get("reshape", 0) == 0

    def test_total_includes_core_and_weights(self):
        builder, _ = make_mlp_graph()
        g = builder.graph
        report = estimate_binary_size(g)
        weights = sum(a.nbytes for a in g.initializers.values())
        assert report.weight_bytes == weights
        assert report.total_bytes \
            == report.code_bytes + report.weight_bytes
        assert report.code_bytes >= RUNTIME_CORE_BYTES

    def test_training_binary_is_slim_vs_frameworks(self):
        forward = build_model("mcunet_micro", batch=2, num_classes=3)
        program = compile_training(forward, optimizer=SGD(0.05))
        report = estimate_binary_size(program.graph, program.schedule)
        # The paper's point: a full *training* binary in tens of KB of
        # code, versus hundreds of MB of framework.
        assert report.code_bytes < 256 * 1024
        assert report.code_bytes * 1000 < FRAMEWORK_BINARY_BYTES["pytorch"]

    def test_int8_weights_shrink_binary(self, rng):
        forward = build_model("mcunet_micro", batch=2, num_classes=3)
        feeds = {forward.inputs[0]: rng.standard_normal(
            forward.spec(forward.inputs[0]).shape).astype(np.float32)}
        int8 = quantize_inference_graph(
            forward, collect_ranges(forward, [feeds]))
        fp = estimate_binary_size(forward)
        q = estimate_binary_size(int8)
        assert q.weight_bytes < fp.weight_bytes / 2
