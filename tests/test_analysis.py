"""Static analysis: plan verifier mutation harness + concurrency lint.

The plan verifier's contract has two halves, and both are tested here:

* **soundness** — every class of miscompile the mutation harness can
  inject into a valid :class:`PlanSpec` (swapped slots, truncated
  free-lists, dropped state writes, widened dtypes, lying byte
  accounting, premature frees, bad donations, phantom nodes, reordered
  instructions) is caught;
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
from repro.kernels import OUT_ALIAS_RULES
from repro.runtime.compiler import CompileOptions, compile_inference, \
    compile_training
from repro.serve import ProgramCache
from repro.sparse import UpdateScheme
from repro.train import SGD

from conftest import make_mlp_graph
from test_arena_safety import random_forward


def _program(seed=0, passes="default", loss="softmax_ce"):
    builder, _ = make_mlp_graph(seed=seed)
    return compile_training(builder.graph, loss=loss, optimizer=SGD(0.05),
                            options=CompileOptions(plan_passes=passes))


def _sparse_program(model="mcunet_micro"):
    from repro.models import build_model, paper_scheme

    forward = build_model(model, batch=2, num_classes=3)
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward))


def _rules(spec, program):
    return {f.rule for f in verify_plan_spec(spec, program)}


def _mutate_instr(spec, idx, **changes):
    instrs = list(spec.instructions)
    instrs[idx] = instrs[idx]._replace(**changes)
    return dataclasses.replace(spec, instructions=tuple(instrs))


def _mutate_slot(spec, slot, **changes):
    table = tuple(entry._replace(**changes) if entry.slot == slot else entry
                  for entry in spec.slab_slots)
    return dataclasses.replace(spec, slab_slots=table)


def _llama_program():
    from repro.models import build_model

    return compile_training(build_model("llama_micro"),
                            optimizer=SGD(0.05))


def _direct_lifetimes(spec):
    """slot -> [first, last] instruction reading or writing it directly
    (aliases are born at their ``at``)."""
    life = {}
    for alias in spec.aliases:
        life[alias.slot] = [alias.at, alias.at]
    for idx, ins in enumerate(spec.instructions):
        for slot in ins.output_slots:
            life[slot] = [idx, idx]
        for slot in ins.input_slots:
            if slot in life:
                life[slot][1] = idx
    return life


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
        """The paper's plan: precompute, in-place reuse, bind-time views.
        (Its one fused chain was the loss's; the folded ``log_softmax``
        adjoint took its place.)"""
        program = _sparse_program()
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        # Make sure this plan actually exercises the interesting machinery
        # — a clean pass over a trivial plan would prove nothing.
        assert any(i.reuse_slot >= 0 for i in spec.instructions)
        assert spec.precomputed and spec.aliases

    def test_resnet_sparse_plan_clean(self):
        """... and one with fused chains besides (residual adds)."""
        program = _sparse_program("resnet_micro")
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        assert any(i.fused for i in spec.instructions)
        assert any(i.reuse_slot >= 0 for i in spec.instructions)
        assert spec.precomputed and spec.aliases

    @pytest.mark.parametrize("model", ["mcunet_micro", "mobilenetv2_micro"])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_depthwise_convs_in_place_clean(self, model, batch):
        """The sparse MBConv plans, whose frozen stride-1 depthwise convs
        and their conv2d_dx write over input 0."""
        from repro.models import build_model, paper_scheme

        forward = build_model(model, batch=batch)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        reusing = {ins.kernel for ins in spec.instructions
                   if ins.reuse_slot >= 0
                   and ins.reuse_slot == ins.input_slots[0]}
        assert {"conv2d", "conv2d_dx"} <= reusing

    @pytest.mark.parametrize("ratio,seed", [
        (1.0, 22), (1.0, 122), (1.0, 163), (1.0, 288),
        (0.5, 34), (0.5, 72), (0.5, 83), (0.5, 122)])
    def test_random_plans_run_in_schedule_order(self, ratio, seed):
        """Graphs on which fusion once moved an instruction down to its
        consumer: their plans now run every node, fused links included,
        in the order the scheduler profiled, and verify clean."""
        b = random_forward(np.random.default_rng(seed))
        program = compile_training(
            b.graph, loss="mse", optimizer=SGD(0.01, momentum=0.9),
            scheme=UpdateScheme("w", {"w": ratio}))
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        position = {node.name: idx
                    for idx, node in enumerate(program.schedule)}
        ran = [position[name] for ins in spec.instructions
               for name in ([link.node for link in ins.fused]
                            if ins.fused else [ins.node])]
        assert ran == sorted(set(ran))

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
        # The leak is caught directly.
        assert "missing-free" in rules

    def test_dropped_state_write(self, victim):
        """Deleting the optimizer apply = weights silently stop training."""
        program, spec = victim
        mutable_slots = {slot for slot, name in spec.state_bindings
                         if name in program.mutable_state_names()}
        # State writes are in-place instructions reading a mutable state
        # slot — the SGD apply.
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.kernel.startswith("apply_")
                   and mutable_slots & set(ins.input_slots))
        instrs = spec.instructions[:idx] + spec.instructions[idx + 1:]
        bad = dataclasses.replace(spec, instructions=instrs)
        rules = _rules(bad, program)
        assert "missing-instruction" in rules
        assert "state-not-written" in rules

    def test_widened_dtype(self, victim):
        program, spec = victim
        entry = next(e for e in spec.slab_slots if e.dtype == "float32")
        bad = _mutate_slot(spec, entry.slot, dtype="float64")
        assert "slab-layout" in _rules(bad, program)

    def test_overlapping_live_buffers(self, victim):
        """slab-overlap: two buffers live together on the same bytes."""
        program, spec = victim
        life = _direct_lifetimes(spec)
        owners = [e for e in spec.slab_slots if len(e.shape) == 2]
        a, b = next(
            (a, b) for a in owners for b in owners
            if a.offset != b.offset and life[a.slot][0] < life[b.slot][0]
            and life[b.slot][0] <= life[a.slot][1])
        bad = _mutate_slot(spec, b.slot, offset=a.offset)
        assert "slab-overlap" in _rules(bad, program)

    def test_slot_outside_the_slab(self, victim):
        program, spec = victim
        entry = spec.slab_slots[0]
        bad = _mutate_slot(spec, entry.slot, offset=spec.slab_bytes)
        assert "slab-overlap" in _rules(bad, program)

    def test_strided_owner(self, victim):
        """slab-layout: an into-form's output slot must be declared the
        C-contiguous array its kernel writes."""
        program, spec = victim
        entry = next(e for e in spec.slab_slots
                     if len(e.shape) == 2 and min(e.shape) > 1)
        rows, cols = entry.shape
        item = np.dtype(entry.dtype).itemsize
        bad = _mutate_slot(spec, entry.slot, strides=(item, item * rows))
        assert "slab-layout" in _rules(bad, program)

    def test_into_form_over_a_strided_input(self):
        """slab-layout: every ``out=`` input is declared C-contiguous. An
        elementwise op over a transposed view must keep its base kernel."""
        from repro.ir import GraphBuilder
        from repro.runtime import Program

        b = GraphBuilder("g")
        x = b.input("x", (3, 4))
        h = b.emit("tanh", [x])
        t = b.emit("transpose", [h], {"perm": (1, 0)})
        b.mark_output(b.emit("relu", [t]))
        program = Program.from_graph(b.graph)
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        idx, relu = next((i, ins) for i, ins in enumerate(spec.instructions)
                         if ins.kernel == "relu")
        assert relu.mode == "base" and len(spec.aliases) == 1
        # pretend the result were a C-contiguous slab slot
        donor = next(e for e in spec.slab_slots
                     if e.slot == spec.aliases[0].slot)
        table = spec.slab_slots + (donor._replace(
            slot=relu.output_slots[0], offset=spec.slab_bytes,
            strides=(12, 4)),)
        bad = dataclasses.replace(
            _mutate_instr(spec, idx, mode="out"), slab_slots=table,
            slab_bytes=spec.slab_bytes + 64)
        assert "slab-layout" in _rules(bad, program)

    def test_alias_with_made_up_strides(self):
        """slab-layout: a view's declared strides are numpy's."""
        program = _sparse_program()
        spec = program.plan_spec()
        alias = spec.aliases[0]
        entry = next(e for e in spec.slab_slots if e.slot == alias.slot)
        bad = _mutate_slot(spec, alias.slot,
                           strides=tuple(2 * s for s in entry.strides))
        assert "slab-layout" in _rules(bad, program)

    def test_alias_before_its_base(self):
        """alias-lifetime: a view cannot precede the value it views."""
        program = _sparse_program()
        spec = program.plan_spec()
        alias = spec.aliases[0]
        assert alias.at > 0
        bad = dataclasses.replace(
            spec, aliases=(alias._replace(at=0),) + spec.aliases[1:])
        assert "alias-lifetime" in _rules(bad, program)

    def test_bytes_reused_under_a_live_view(self):
        """alias-lifetime: a base outlives its views. The base is read for
        the last time, its view is not — and another buffer moves in."""
        program = _llama_program()
        spec = program.plan_spec()
        life = _direct_lifetimes(spec)
        by_slot = {e.slot: e for e in spec.slab_slots}
        aliased = {a.slot for a in spec.aliases}
        nbytes = lambda e: int(np.prod(e.shape)) \
            * np.dtype(e.dtype).itemsize  # noqa: E731
        found = None
        for alias in spec.aliases:
            if alias.base in aliased:
                continue
            base_dies, view_dies = life[alias.base][1], life[alias.slot][1]
            for entry in spec.slab_slots:
                if entry.slot in aliased or entry.slot == alias.base:
                    continue
                born, dies = life[entry.slot]
                if base_dies < born and dies <= view_dies \
                        and 0 < nbytes(entry) <= nbytes(by_slot[alias.base]):
                    found = (entry, by_slot[alias.base])
                    break
            if found:
                break
        assert found, "no view outliving its base in llama_micro?"
        squatter, base = found
        bad = _mutate_slot(spec, squatter.slot, offset=base.offset)
        rules = _rules(bad, program)
        assert "alias-lifetime" in rules and "slab-overlap" not in rules

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
        in_slab = {entry.slot for entry in spec.slab_slots}
        idx, slot = next(
            (i, s) for i, ins in enumerate(spec.instructions)
            for s in ins.input_slots
            if s not in state_slots | in_slab and last_read[s] > i)
        old = spec.instructions[idx].frees
        bad = _mutate_instr(spec, idx, frees=old + (slot,))
        assert "use-after-free" in _rules(bad, program)

    def test_phantom_node(self, victim):
        program, spec = victim
        bad = _mutate_instr(spec, 0, node="no_such_node")
        assert "unknown-node" in _rules(bad, program)

    def test_bad_donation(self, victim):
        """Writing over an input that is still alive aliases live data."""
        program, spec = victim
        state_slots = {slot for slot, _ in spec.state_bindings}
        idx = next(i for i, ins in enumerate(spec.instructions)
                   if ins.mode == "out" and ins.reuse_slot < 0
                   and any(s not in state_slots for s in ins.input_slots))
        ins = spec.instructions[idx]
        slot = next(s for s in ins.input_slots if s not in state_slots)
        bad = _mutate_instr(spec, idx, reuse_slot=slot)
        rules = _rules(bad, program)
        assert rules & {"donation-not-freed", "donation-unsafe",
                        "donation-alias-unsafe", "donation-shape-mismatch"}

    def test_dense_conv_writing_over_its_input(self, monkeypatch):
        """resnet_micro's dense 3x3 convs (Winograd, weight hoisted)
        lowered as if their output could take over their dying input:
        offsets, lifetimes and the peak all agree with that — only the
        kernel may not, and that is the one finding."""
        with monkeypatch.context() as patched:
            patched.setitem(OUT_ALIAS_RULES,
                            ("conv2d", "winograd_precomputed"),
                            lambda attrs, out_shape: True)
            program = _sparse_program("resnet_micro")
            spec = program.plan_spec()
            assert verify_plan_spec(spec, program) == []
        nodes = {node.name: node for node in program.schedule}
        reusing = [ins for ins in spec.instructions
                   if ins.kernel == "conv2d" and ins.reuse_slot >= 0]
        assert reusing
        for ins in reusing:
            weight = program.graph.spec(nodes[ins.node].inputs[1])
            assert weight.shape[2:] == (3, 3) \
                and nodes[ins.node].attrs.get("groups", 1) == 1
        findings = verify_plan_spec(spec, program)
        assert [f.rule for f in findings] \
            == ["donation-alias-unsafe"] * len(reusing)

    def test_depthwise_dx_writing_over_another_input(self):
        """A masked depthwise conv2d_dx may write over its gradient (input
        0), never its mask. No input but 0 can have dx's shape (the weight
        of a conv with groups > 1 never does, the mask is packed uint8), so
        the mask's shape and the overlap it makes come along."""
        program = _sparse_program()
        spec = program.plan_spec()
        idx, ins = next((i, ins) for i, ins in enumerate(spec.instructions)
                        if ins.kernel == "conv2d_dx"
                        and len(ins.input_slots) == 3
                        and ins.reuse_slot == ins.input_slots[0])
        bad = _mutate_instr(spec, idx, reuse_slot=ins.input_slots[2])
        assert _rules(bad, program) == {"donation-alias-unsafe",
                                        "donation-shape-mismatch",
                                        "slab-overlap"}

    def test_fused_link_misreads_its_inputs(self):
        # the squared error's chain: the cross-entropy loss fuses nothing
        program = _program(loss="mse")
        spec = program.plan_spec()
        idx, ins = next((i, ins) for i, ins in enumerate(spec.instructions)
                        if ins.fused and len(ins.input_slots) >= 2)
        from repro.runtime import FusedLinkSpec

        first = ins.fused[0]
        swapped = FusedLinkSpec(first.node, first.kernel,
                                tuple(reversed(first.args)))
        if swapped != first:
            bad = _mutate_instr(spec, idx, fused=(swapped,) + ins.fused[1:])
            assert _rules(bad, program) & {"fused-arg-mismatch",
                                           "input-slot-mismatch"}
        headless = FusedLinkSpec(first.node, first.kernel,
                                 (None,) + first.args[1:])
        bad = _mutate_instr(spec, idx, fused=(headless,) + ins.fused[1:])
        assert "fused-chain-break" in _rules(bad, program)
        bad = _mutate_instr(spec, idx, const_args=((99, "nope"),))
        assert {"const-arg-position", "const-arg-source"} \
            <= _rules(bad, program)

    def test_swapped_independent_instructions(self):
        """Two adjacent zoo instructions with no dataflow between them,
        swapped: ``schedule-order`` flags every such swap, and is the
        only rule that sees some of them."""
        program = _sparse_program()
        spec = program.plan_spec()
        found = []
        for idx in range(len(spec.instructions) - 1):
            first, second = spec.instructions[idx:idx + 2]
            if set(first.output_slots) & set(second.input_slots):
                continue
            instrs = list(spec.instructions)
            instrs[idx:idx + 2] = [second, first]
            rules = _rules(dataclasses.replace(
                spec, instructions=tuple(instrs)), program)
            assert "schedule-order" in rules, idx
            found.append(rules)
        assert {"schedule-order"} in found

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
        program = _sparse_program()
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
        """Claiming the base kernel where the instruction binds a variant:
        the decision table and the stream must tell one story."""
        program, spec = victim
        idx = next(i for i, t in enumerate(spec.tuned_variants)
                   if t.variant == "winograd_precomputed")
        for claim in ("base", "pretransposed_b"):  # matmul's: not bound
            bad = self._mutate_tuned(spec, idx, variant=claim)
            assert "tuned-variant-mismatch" in _rules(bad, program), claim

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
