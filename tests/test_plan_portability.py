"""Portable execution plans: spec round-trips, artifact v2, fresh-process
loads.

The tentpole invariant: a plan serialized into a deployment artifact and
reloaded — in this process or a fresh one — executes byte-identically to
the in-process plan, and the load path never touches the compiler.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.deploy import load_artifact, save_artifact
from repro.deploy.artifact import MANIFEST_VERSION
from repro.errors import ExecutionError, GraphError
from repro.models import build_model, paper_scheme
from repro.runtime import Executor, PlanSpec, bind_plan, build_plan_spec
from repro.runtime.compiler import compile_training
from repro.train import SGD

from conftest import make_mlp_graph


def _mlp_program(seed=0):
    builder, _ = make_mlp_graph(seed=seed)
    return compile_training(builder.graph, optimizer=SGD(0.05))


def _mcunet_program(seed=0):
    forward = build_model("mcunet_micro", batch=2, num_classes=3)
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward))


def _mlp_feeds(program, rng):
    return {"x": rng.standard_normal((4, 5)).astype(np.float32),
            program.meta["labels"]: rng.integers(0, 3, 4).astype(np.int64)}


def _mcunet_feeds(program, rng):
    graph = program.graph
    name = [n for n in graph.inputs if n != program.meta["labels"]][0]
    return {name: rng.standard_normal(graph.spec(name).shape)
            .astype(np.float32),
            program.meta["labels"]: rng.integers(0, 3, 2).astype(np.int64)}


class TestPlanSpecRoundTrip:
    def test_spec_survives_json(self):
        program = _mlp_program()
        spec = build_plan_spec(program)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert PlanSpec.from_dict(doc) == spec

    def test_rebound_spec_executes_byte_identically(self, rng):
        reference = _mlp_program()
        rebound = _mlp_program()
        doc = json.loads(json.dumps(build_plan_spec(rebound).to_dict()))
        rebound.attach_plan_spec(PlanSpec.from_dict(doc))
        ex_ref = Executor(reference)
        ex_re = Executor(rebound)
        for _ in range(3):
            feeds = _mlp_feeds(reference, rng)
            want = ex_ref.run(feeds)
            got = ex_re.run(dict(feeds))
            for name in want:
                assert want[name].tobytes() == got[name].tobytes()
        assert ex_ref.peak_transient_bytes == ex_re.peak_transient_bytes
        for name in reference.state:
            assert reference.state[name].tobytes() \
                == rebound.state[name].tobytes()

    def test_version_mismatch_rejected(self):
        doc = build_plan_spec(_mlp_program()).to_dict()
        doc["plan_version"] = 999
        with pytest.raises(ExecutionError, match="version"):
            PlanSpec.from_dict(doc)

    def test_garbled_instruction_rejected(self):
        doc = build_plan_spec(_mlp_program()).to_dict()
        del doc["instructions"][0]["kernel"]
        with pytest.raises(ExecutionError, match="garbled"):
            PlanSpec.from_dict(doc)

    def test_bind_rejects_unknown_node(self):
        program = _mlp_program()
        spec = build_plan_spec(program)
        with pytest.raises(ExecutionError, match="unknown node"):
            bind_plan(spec, {})

    def test_bind_rejects_kernel_mismatch(self):
        program = _mlp_program()
        doc = build_plan_spec(program).to_dict()
        doc["instructions"][0]["kernel"] = "relu" \
            if doc["instructions"][0]["kernel"] != "relu" else "matmul"
        spec = PlanSpec.from_dict(doc)
        nodes = {node.name: node for node in program.schedule}
        with pytest.raises(ExecutionError, match="binds kernel"):
            bind_plan(spec, nodes)

    def test_required_kernels_lists_variants(self):
        spec = build_plan_spec(_mcunet_program())
        needed = spec.required_kernels()
        assert "conv2d" in needed
        # The sparse training step donates dying gradient buffers to the
        # in-place SGD apply and uses out= elementwise variants somewhere.
        variants = set().union(*needed.values())
        assert "base" in variants


class TestArtifactPlanRoundTrip:
    """Satellite: save/load then execute — byte-identical everything."""

    def test_mcunet_sparse_step_byte_identical(self, tmp_path, rng):
        program = _mcunet_program()
        save_artifact(program, tmp_path / "model")
        deployed = load_artifact(tmp_path / "model")
        # The loader must not re-lower: the plan is already bound.
        assert deployed.program.meta.get("__plan__") is not None
        ex_ref = Executor(program)
        ex_dep = Executor(deployed.program)
        for _ in range(3):
            feeds = _mcunet_feeds(program, rng)
            want = ex_ref.run(feeds)
            got = ex_dep.run(dict(feeds))
            for name in want:
                assert want[name].tobytes() == got[name].tobytes()
            assert ex_ref.peak_transient_bytes == ex_dep.peak_transient_bytes
        for name in program.state:
            assert program.state[name].tobytes() \
                == deployed.program.state[name].tobytes()

    def test_loaded_spec_equals_built_spec(self, tmp_path):
        program = _mcunet_program()
        save_artifact(program, tmp_path / "model")
        deployed = load_artifact(tmp_path / "model")
        assert deployed.program.plan_spec() == program.plan_spec()

    def test_manifest_is_v2_with_plan(self, tmp_path):
        program = _mlp_program()
        save_artifact(program, tmp_path / "mlp")
        manifest = json.loads((tmp_path / "mlp" / "manifest.json").read_text())
        assert manifest["format_version"] == MANIFEST_VERSION == 2
        assert manifest["plan"]["num_slots"] > 0
        assert manifest["plan"]["instructions"]
        assert manifest["kernel_variants"]

    def test_v1_manifest_is_refused_and_recompiled(self, tmp_path, rng):
        """Pre-plan artifacts are no longer read: a typed refusal, which
        the program cache answers by recompiling over the artifact."""
        from repro.serve import ProgramCache

        cache = ProgramCache(capacity=2, cache_dir=tmp_path)
        cache.get_or_build("mlp", _mlp_program)
        path = tmp_path / "mlp" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        del manifest["plan"]
        del manifest["kernel_variants"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match="unsupported artifact version"):
            load_artifact(tmp_path / "mlp")

        fresh = ProgramCache(capacity=2, cache_dir=tmp_path)
        entry = fresh.get_or_build("mlp", _mlp_program)
        assert not entry.from_disk and fresh.stats.compiles == 1
        assert fresh.stats.corrupt_entries == 1
        assert json.loads(path.read_text())["format_version"] \
            == MANIFEST_VERSION
        feeds = _mlp_feeds(entry.program, rng)
        assert np.isfinite(Executor(entry.program).run(feeds)[
            entry.program.meta["loss"]])

    def test_corrupted_plan_rejected(self, tmp_path):
        """A tampered plan is caught by the static verifier before binding.

        PlanVerifyError (not a generic GraphError) so callers can tell
        "decodable but unsafe to execute" apart from bit rot; the program
        cache quarantines both.
        """
        from repro.errors import PlanVerifyError

        program = _mlp_program()
        save_artifact(program, tmp_path / "mlp")
        path = tmp_path / "mlp" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["instructions"][0]["node"] = "no_such_node"
        path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVerifyError, match="unknown-node"):
            load_artifact(tmp_path / "mlp")

    def test_plan_version_mismatch_distinguishable(self, tmp_path):
        """Version skew must stay distinguishable from corruption so the
        program cache can recompile instead of failing the request."""
        from repro.errors import PlanVersionError

        program = _mlp_program()
        save_artifact(program, tmp_path / "mlp")
        path = tmp_path / "mlp" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["plan_version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(PlanVersionError, match="version"):
            load_artifact(tmp_path / "mlp")

    def test_v2_without_plan_rejected(self, tmp_path):
        program = _mlp_program()
        save_artifact(program, tmp_path / "mlp")
        path = tmp_path / "mlp" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["plan"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match="lacks an embedded plan"):
            load_artifact(tmp_path / "mlp")


class TestFreshProcessLoad:
    """Acceptance: a fresh process executes the artifact byte-identically
    with zero imports from the compiler or autodiff."""

    def test_fresh_process_byte_identical_no_compiler(self, tmp_path, rng):
        program = _mcunet_program()
        save_artifact(program, tmp_path / "model")
        feeds = _mcunet_feeds(program, rng)
        executor = Executor(program)
        want = executor.run({k: v.copy() for k, v in feeds.items()})
        loss_name = program.meta["loss"]
        np.save(tmp_path / "x.npy", feeds[[k for k in feeds
                                           if k != program.meta["labels"]][0]])
        np.save(tmp_path / "y.npy", feeds[program.meta["labels"]])
        np.save(tmp_path / "loss.npy", want[loss_name])

        src_root = Path(repro.__file__).resolve().parents[1]
        script = tmp_path / "fresh_load.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from repro.deploy import load_artifact\n"
            "from repro.runtime import Executor\n"
            f"d = {str(tmp_path)!r}\n"
            "dep = load_artifact(d + '/model')\n"
            "x = np.load(d + '/x.npy'); y = np.load(d + '/y.npy')\n"
            "data = [n for n in dep.graph.inputs\n"
            "        if n != dep.meta['labels']][0]\n"
            "ex = Executor(dep.program)\n"
            "out = ex.run({data: x, dep.meta['labels']: y})\n"
            "want = np.load(d + '/loss.npy')\n"
            "assert out[dep.meta['loss']].tobytes() == want.tobytes()\n"
            "bad = [m for m in sys.modules if m == 'repro.runtime.compiler'\n"
            "       or m.startswith(('repro.autodiff', 'repro.passes'))]\n"
            "assert not bad, bad\n"
            f"print('peak', ex.peak_transient_bytes)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep \
            + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, str(script)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert f"peak {executor.peak_transient_bytes}" in result.stdout
