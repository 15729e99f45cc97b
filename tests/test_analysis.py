"""Static analysis: plan verifier mutation harness + concurrency lint.

The plan verifier's contract has two halves, and both are tested here:

* **soundness** — every class of miscompile the mutation harness can
  inject into a valid :class:`PlanSpec` (swapped slots, truncated
  free-lists, dropped state writes, widened dtypes, lying byte
  accounting, premature frees, bad donations, phantom nodes) is caught;
* **zero false positives** — every plan the real compiler produces, for
  every model and pass configuration exercised here, verifies clean.
  (The whole tier-1 suite reinforces this: conftest exports
  ``REPRO_VERIFY_PLANS=1``, so every compile in every test re-verifies.)
"""

from __future__ import annotations

import dataclasses
import json
import os
import textwrap

import numpy as np
import pytest

from repro.analysis import (check_plan, lint_module, lint_tree,
                            lint_worker_imports, parse_waivers, report_for,
                            verify_plan_spec)
from repro.deploy import load_artifact, save_artifact
from repro.errors import PlanVerifyError
from repro.runtime.compiler import CompileOptions, compile_inference, \
    compile_training
from repro.serve import ProgramCache
from repro.train import SGD

from conftest import make_mlp_graph


def _program(seed=0, passes="default"):
    builder, _ = make_mlp_graph(seed=seed)
    return compile_training(builder.graph, optimizer=SGD(0.05),
                            options=CompileOptions(plan_passes=passes))


def _mcunet_program():
    from repro.models import build_model, paper_scheme

    forward = build_model("mcunet_micro", batch=2, num_classes=3)
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward))


def _rules(spec, program):
    return {f.rule for f in verify_plan_spec(spec, program)}


def _mutate_instr(spec, idx, **changes):
    instrs = list(spec.instructions)
    instrs[idx] = dataclasses.replace(instrs[idx], **changes)
    return dataclasses.replace(spec, instructions=tuple(instrs))


class TestVerifierZeroFalsePositives:
    """Valid compiler output must verify clean — no exceptions."""

    @pytest.mark.parametrize("passes", ["default", "none"])
    def test_mlp_training_plans_clean(self, passes):
        program = _program(passes=passes)
        assert verify_plan_spec(program.plan_spec(), program) == []

    def test_mlp_inference_plan_clean(self):
        builder, _ = make_mlp_graph()
        program = compile_inference(builder.graph)
        assert verify_plan_spec(program.plan_spec(), program) == []

    def test_mcunet_sparse_plan_clean(self):
        """The hardest real plan: fusion, precompute, donations, views."""
        program = _mcunet_program()
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        # Make sure this plan actually exercises the interesting machinery
        # — a clean pass over a trivial plan would prove nothing.
        assert any(i.fused for i in spec.instructions)
        assert any(i.donate_slot >= 0 for i in spec.instructions)
        assert spec.precomputed

    def test_roundtripped_spec_clean(self):
        program = _program()
        from repro.runtime import PlanSpec

        doc = json.loads(json.dumps(program.plan_spec().to_dict()))
        assert verify_plan_spec(PlanSpec.from_dict(doc), program) == []


class TestMutationHarness:
    """Each injected miscompile class must surface a precise finding."""

    @pytest.fixture(scope="class")
    def victim(self):
        program = _program()
        return program, program.plan_spec()

    def test_swapped_input_slots(self, victim):
        program, spec = victim
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if len(set(ins.input_slots)) >= 2 and not ins.fused)
        swapped = tuple(reversed(spec.instructions[idx].input_slots))
        bad = _mutate_instr(spec, idx, input_slots=swapped)
        assert "input-slot-mismatch" in _rules(bad, program)

    def test_truncated_free_list(self, victim):
        program, spec = victim
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.frees)
        bad = _mutate_instr(spec, idx, frees=())
        rules = _rules(bad, program)
        # The leak is caught directly, and the byte ledger disagrees too.
        assert "missing-free" in rules
        assert rules & {"final-bytes-mismatch", "arena-caps-mismatch",
                        "clear-slots-mismatch", "missing-free"}

    def test_dropped_state_write(self, victim):
        """Deleting the optimizer apply = weights silently stop training."""
        program, spec = victim
        mutable_slots = {slot for slot, name in spec.state_bindings
                         if name in program.mutable_state_names()}
        # State writes are in-place (fresh_outputs == 0) instructions
        # reading a mutable state slot — the SGD apply.
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.fresh_outputs == 0 and not ins.use_out
                   and mutable_slots & set(ins.input_slots))
        instrs = spec.instructions[:idx] + spec.instructions[idx + 1:]
        bad = dataclasses.replace(spec, instructions=instrs)
        rules = _rules(bad, program)
        assert "missing-instruction" in rules
        assert "state-not-written" in rules

    def test_widened_dtype(self, victim):
        program, spec = victim
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.out_dtype == "float32")
        bad = _mutate_instr(spec, idx, out_dtype="float64")
        assert "out-spec-mismatch" in _rules(bad, program)

    def test_lying_arena_caps(self, victim):
        program, spec = victim
        assert spec.arena_caps
        key, count = spec.arena_caps[0]
        caps = ((key, count + 1),) + spec.arena_caps[1:]
        bad = dataclasses.replace(spec, arena_caps=caps)
        assert "arena-caps-mismatch" in _rules(bad, program)

    def test_lying_peak_bytes(self, victim):
        program, spec = victim
        bad = dataclasses.replace(
            spec, peak_transient_bytes=spec.peak_transient_bytes - 1)
        assert "peak-bytes-mismatch" in _rules(bad, program)

    def test_use_after_free(self, victim):
        """A free hoisted above the buffer's last reader."""
        program, spec = victim
        last_read: dict[int, int] = {}
        for i, ins in enumerate(spec.instructions):
            for slot in ins.input_slots:
                last_read[slot] = i
        state_slots = {slot for slot, _ in spec.state_bindings}
        idx, slot = next(
            (i, s) for i, ins in enumerate(spec.instructions)
            for s in ins.input_slots
            if s not in state_slots and last_read[s] > i)
        old = spec.instructions[idx].frees
        bad = _mutate_instr(spec, idx, frees=old + ((slot, None),))
        assert "use-after-free" in _rules(bad, program)

    def test_phantom_node(self, victim):
        program, spec = victim
        bad = _mutate_instr(spec, 0, node="no_such_node")
        assert "unknown-node" in _rules(bad, program)

    def test_bad_donation(self, victim):
        """Donating a buffer that is still alive aliases live data."""
        program, spec = victim
        state_slots = {slot for slot, _ in spec.state_bindings}
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.use_out and ins.donate_slot < 0
                   and any(s not in state_slots for s in ins.input_slots))
        ins = spec.instructions[idx]
        slot = next(s for s in ins.input_slots if s not in state_slots)
        bad = _mutate_instr(spec, idx, donate_slot=slot)
        rules = _rules(bad, program)
        assert rules & {"donation-not-freed", "donation-unsafe",
                        "donation-alias-unsafe", "donation-shape-mismatch"}

    def test_redirected_output_slot(self, victim):
        program, spec = victim
        name, slot = spec.output_slots[0]
        other = next(s for _, s in spec.feed_specs if s != slot)
        outs = ((name, other),) + spec.output_slots[1:]
        bad = dataclasses.replace(spec, output_slots=outs)
        assert "output-slot-mismatch" in _rules(bad, program)

    def test_check_plan_raises_with_rule_names(self, victim):
        program, spec = victim
        bad = _mutate_instr(spec, 0, node="no_such_node")
        with pytest.raises(PlanVerifyError, match="unknown-node"):
            check_plan(bad, program, stage="mutation harness")

    def test_stale_precomputed_layout(self):
        """A slot declaring the pre-v4 ``(O, I, 4, 4)`` Winograd layout —
        same bytes, so the byte ledger alone would pass it — is refused:
        the declared shape must be what the registered transform emits."""
        program = _mcunet_program()
        spec = program.plan_spec()
        idx, entry = next((i, e) for i, e in enumerate(spec.precomputed)
                          if e.transform == "winograd_weight")
        sixteen, cout, cin = entry.shape
        assert sixteen == 16
        stale = dataclasses.replace(entry, shape=(cout, cin, 4, 4))
        assert stale.nbytes == entry.nbytes
        pre = spec.precomputed[:idx] + (stale,) + spec.precomputed[idx + 1:]
        bad = dataclasses.replace(spec, precomputed=pre)
        assert "precompute-shape" in _rules(bad, program)


class TestTunedVariantMutations:
    """A lying ``tuned_variants`` table must not verify: every claim in
    it (node exists, kernel matches, the chosen variant is registered and
    is what the instruction actually binds, costs are sane) is checked."""

    @pytest.fixture(scope="class")
    def victim(self):
        from repro.models import build_model, paper_scheme

        forward = build_model("mcunet_micro", batch=2, num_classes=3)
        program = compile_training(
            forward, optimizer=SGD(0.05), scheme=paper_scheme(forward),
            options=CompileOptions(autotune="cost"))
        spec = program.plan_spec()
        assert spec.tuned_variants, "fixture lost its tuning decisions"
        return program, spec

    def _mutate_tuned(self, spec, idx=0, *, append=None, **changes):
        tuned = list(spec.tuned_variants)
        if append is not None:
            tuned.append(append)
        else:
            tuned[idx] = dataclasses.replace(tuned[idx], **changes)
        return dataclasses.replace(spec, tuned_variants=tuple(tuned))

    def test_autotuned_plan_verifies_clean(self, victim):
        program, spec = victim
        assert verify_plan_spec(spec, program) == []
        assert any(t.variant != "base" for t in spec.tuned_variants)

    def test_unknown_node(self, victim):
        program, spec = victim
        bad = self._mutate_tuned(spec, node="no_such_node")
        assert "tuned-unknown-node" in _rules(bad, program)

    def test_kernel_mismatch(self, victim):
        program, spec = victim
        bad = self._mutate_tuned(spec, kernel="matmul")
        assert "tuned-kernel-mismatch" in _rules(bad, program)

    def test_unregistered_variant(self, victim):
        program, spec = victim
        bad = self._mutate_tuned(spec, variant="turbo_v2")
        assert "tuned-unregistered-variant" in _rules(bad, program)

    def test_variant_disagrees_with_instruction(self, victim):
        """Claiming a registered variant the instruction does not bind:
        the decision table and the stream must tell one story."""
        program, spec = victim
        idx = next(i for i, t in enumerate(spec.tuned_variants)
                   if t.variant == "im2col_precomputed")
        bad = self._mutate_tuned(spec, idx, variant="winograd_precomputed")
        assert "tuned-variant-mismatch" in _rules(bad, program)

    def test_duplicate_decision(self, victim):
        program, spec = victim
        bad = self._mutate_tuned(spec, append=spec.tuned_variants[0])
        assert "tuned-duplicate" in _rules(bad, program)

    def test_bad_source(self, victim):
        program, spec = victim
        bad = self._mutate_tuned(spec, source="vibes")
        assert "tuned-source" in _rules(bad, program)

    def test_invalid_costs(self, victim):
        program, spec = victim
        for changes in ({"predicted_us": float("nan")},
                        {"predicted_us": -1.0},
                        {"measured_us": float("nan")}):
            bad = self._mutate_tuned(spec, **changes)
            assert "tuned-cost-invalid" in _rules(bad, program), changes


class TestArtifactAndCacheIntegration:
    def test_lint_collects_findings_without_raising(self, tmp_path):
        """``verify=False`` + report_for: the lint-plan CLI path."""
        program = _program()
        save_artifact(program, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["peak_transient_bytes"] += 64
        path.write_text(json.dumps(manifest))
        deployed = load_artifact(tmp_path / "m", verify=False)
        report = report_for(deployed.program.plan_spec(), deployed.program,
                            target="m")
        assert not report.ok
        assert any(f.rule == "peak-bytes-mismatch" for f in report.findings)

    def test_cache_quarantines_verify_failures(self, tmp_path):
        """A persisted artifact that fails verification is a counted,
        quarantined miss — the service recompiles instead of serving a
        miscompile, and the bad artifact never gets loaded again."""
        ProgramCache(capacity=4, cache_dir=tmp_path).get_or_build(
            "k1", _program)
        path = tmp_path / "k1" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["instructions"][0]["node"] = "no_such_node"
        path.write_text(json.dumps(manifest))

        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _program)
        assert not entry.from_disk
        assert fresh.stats.verify_rejects == 1
        assert fresh.stats.compiles == 1
        # The rebuild overwrote the quarantined artifact with a good one.
        repaired = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert repaired.get_or_build(
            "k1", lambda: pytest.fail("must load from disk")).from_disk
        assert repaired.stats.verify_rejects == 0

    def test_compile_path_verifies_before_persist(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = cache.get_or_build("k1", _program)
        assert entry.program.meta.get("__plan__") is not None
        assert cache.stats.verify_rejects == 0


def _lint(source):
    return lint_module(textwrap.dedent(source), filename="mod.py")


class TestAsyncLint:
    def test_blocking_call_in_async_flagged(self):
        findings = _lint("""
            import time

            async def handler():
                time.sleep(1)
        """)
        assert [f.rule for f in findings] == ["blocking-call"]
        assert "time.sleep" in findings[0].message

    def test_awaited_primitive_not_flagged(self):
        assert _lint("""
            async def handler(conn):
                await conn.wait()
        """) == []

    def test_sync_helper_reachability(self):
        findings = _lint("""
            import time

            def helper():
                time.sleep(1)

            async def handler():
                helper()
        """)
        assert len(findings) == 1
        assert "via helper" in findings[0].message

    def test_self_method_reachability(self):
        findings = _lint("""
            class Gateway:
                async def handle(self):
                    self._send()

                def _send(self):
                    open("/tmp/x")
        """)
        assert len(findings) == 1
        assert "Gateway._send" in findings[0].message

    def test_nested_def_is_executor_thunk(self):
        assert _lint("""
            import time

            async def handler(loop):
                def thunk():
                    time.sleep(1)
                await loop.run_in_executor(None, thunk)
        """) == []

    def test_sync_context_not_flagged(self):
        assert _lint("""
            import time

            def main():
                time.sleep(1)
        """) == []

    def test_str_join_not_flagged(self):
        assert _lint("""
            async def render(lines):
                return "\\r\\n".join(lines) + f"{lines}".join([])
        """) == []

    def test_waiver_suppresses_but_keeps_finding(self):
        findings = _lint("""
            import time

            async def probe():
                time.sleep(0.01)  # repro-lint: allow[blocking-call] probe off the hot path
        """)
        assert len(findings) == 1
        assert findings[0].waived
        assert "probe off the hot path" in findings[0].waive_reason

    def test_waiver_must_name_the_rule(self):
        findings = _lint("""
            import time

            async def probe():
                time.sleep(0.01)  # repro-lint: allow[some-other-rule] nope
        """)
        assert len(findings) == 1
        assert not findings[0].waived

    def test_parse_waivers(self):
        waivers = parse_waivers(
            "x = 1  # repro-lint: allow[blocking-call] because reasons\n")
        assert waivers == {1: ("blocking-call", "because reasons")}


class TestWorkerImportGraph:
    def _tree(self, tmp_path, worker_body, util_body=""):
        pkg = tmp_path / "app"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "worker.py").write_text(textwrap.dedent(worker_body))
        (pkg / "util.py").write_text(textwrap.dedent(util_body))
        (pkg / "compiler.py").write_text("")
        return str(tmp_path)

    def test_entry_lazy_import_counts(self, tmp_path):
        root = self._tree(tmp_path, """
            def run():
                from . import compiler
        """)
        findings = lint_worker_imports(root, entry="app.worker",
                                       forbidden=("app.compiler",))
        assert len(findings) == 1
        assert "app.compiler <- app.worker" in findings[0].message

    def test_transitive_module_level_import_counts(self, tmp_path):
        root = self._tree(tmp_path, "from . import util\n",
                          util_body="from . import compiler\n")
        findings = lint_worker_imports(root, entry="app.worker",
                                       forbidden=("app.compiler",))
        assert len(findings) == 1
        assert "<- app.util <- app.worker" in findings[0].message

    def test_non_entry_lazy_import_does_not_count(self, tmp_path):
        root = self._tree(tmp_path, "from . import util\n", util_body="""
            def later():
                from . import compiler
        """)
        assert lint_worker_imports(root, entry="app.worker",
                                   forbidden=("app.compiler",)) == []


class TestRealTreeIsClean:
    """Satellite: the shipped serving stack passes its own lint."""

    def test_serve_package_has_no_unwaived_blockers(self):
        import repro.serve

        root = repro.serve.__path__[0]
        report = lint_tree(root)
        assert report.unwaived == [], report.render()

    def test_step_worker_import_closure_compiler_free(self):
        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        assert lint_worker_imports(src_root) == []
