"""In-process workloads: two training loops and the compile zoo.

``train_cnn_sparse`` and ``train_llm_full`` drive ``Executor(program).run``
over a seeded pool of batches; ``compile_zoo`` sweeps ``build_model ->
compile_training -> program.plan()`` over twelve programs. The program under
test only ever sees the generated arrays.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.models import build_model, paper_scheme
from repro.runtime import Executor
from repro.runtime.compiler import compile_training
from repro.sparse import full_update
from repro.train import SGD, Adam

import layers
from common import SUT_CPUS, RunResult, run_on, self_rss_mb
from spans import Tracer
from stats import Chunk, Sample, chunk_p50_ms, geomean, pooled_p95_ms

SCHEMES = {"paper_scheme": paper_scheme, "full_update": full_update}

#: batches in a training workload's seeded pool
POOL = 64
#: steps whose kernel spans go into the Chrome trace (aggregates use all)
KEEP_KERNEL_STEPS = 48

ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")
#: the zoo compiles each model under both update schemes, with the
#: optimizer the matching training workload uses
ZOO_PROGRAMS = tuple((model, scheme) for model in ZOO_MODELS
                     for scheme in SCHEMES)


def optimizer_for(scheme: str):
    return SGD(0.05) if scheme == "paper_scheme" else Adam(1e-3)


def compile_program(model: str, scheme: str, tracer: Tracer,
                    probe: layers.CompileProbe | None = None, **kwargs):
    """One compile op: build_model -> compile_training -> program.plan()."""
    with tracer.span("compile", "runtime.compiler",
                     op_id=f"{model}/{scheme}"):
        with tracer.span("frontend.trace", "frontend"):
            forward = build_model(model, **kwargs)
        if probe is not None:
            probe.count_forward(forward)
        program = compile_training(
            forward, optimizer=optimizer_for(scheme),
            scheme=SCHEMES[scheme](forward))
        program.plan()
    return program


def make_feeds(program, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One seeded batch for every graph input of ``program``."""
    graph = program.graph
    labels = program.meta["labels"]
    feeds = {}
    for name in graph.inputs:
        spec = graph.spec(name)
        if np.issubdtype(spec.dtype.np, np.integer):
            if name == labels:
                bound = graph.spec(program.meta["logits"]).shape[-1]
            else:  # token ids: bounded by the embedding table they index
                bound = min(
                    (graph.spec(node.inputs[0]).shape[0]
                     for node in graph.nodes
                     if node.op_type == "embedding"
                     and name in node.inputs[1:]), default=2)
            feeds[name] = rng.integers(0, bound, spec.shape) \
                .astype(spec.dtype.np)
        else:
            feeds[name] = rng.standard_normal(spec.shape) \
                .astype(spec.dtype.np)
    return feeds


def fresh_copy(program, passes=None):
    """``program`` over private copies of its state; ``passes`` re-lowers
    it under another plan-pass selection without sharing the cached plan."""
    if passes is not None:
        meta = {k: v for k, v in program.meta.items()
                if k not in ("__plan__", "__plan_spec__")}
        meta["plan_passes"] = passes
        program = dataclasses.replace(program, meta=meta)
    return program.with_state(
        {name: array.copy() for name, array in program.state.items()})


def oracle_mismatches(program, batches, label: str) -> list[str]:
    """Three steps on the default plan against the interpreter oracle.

    Both start from copies of the same state; the loss of every step and
    every mutable state tensor afterwards must be byte-identical.
    """
    dut = Executor(fresh_copy(program))
    ref = Executor(fresh_copy(program, passes="none"), backend="interpreter")
    loss = program.meta["loss"]
    found = []
    for step, feeds in enumerate(batches[:3]):
        got, want = dut.run(feeds)[loss], ref.run(feeds)[loss]
        if not np.isfinite(got).all():
            found.append(f"{label}: step {step} loss is not finite")
        if np.asarray(got).tobytes() != np.asarray(want).tobytes():
            found.append(f"{label}: step {step} loss differs from oracle")
    for name in sorted(program.mutable_state_names()):
        if dut.program.state[name].tobytes() \
                != ref.program.state[name].tobytes():
            found.append(f"{label}: state {name!r} differs from oracle")
    return found


def timed_steps(executor: Executor, pool, loss: str, seconds: float
                ) -> tuple[list[tuple[float, float]], int]:
    """Closed loop of training steps; returns (ended, seconds) and the
    number of steps whose loss was not finite."""
    run, raw, bad, i = executor.run, [], 0, 0
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        if began >= deadline:
            return raw, bad
        value = float(run(pool[i % len(pool)])[loss])
        ended = perf_counter()
        raw.append((ended, ended - began))
        bad += not math.isfinite(value)
        i += 1


class TrainWorkload:
    """``Executor(program).run(feeds)`` over a seeded pool of batches."""

    #: steps are sequential, so a few make a chunk's rate and median
    min_chunk_ops = 8
    chunk_align = 1

    def __init__(self, name: str, model: str, batch: int, scheme: str,
                 tracer: Tracer, probe: layers.CompileProbe | None) -> None:
        self.name, self.model, self.batch, self.scheme = \
            name, model, batch, scheme
        self.tracer, self.probe = tracer, probe

    def setup(self, seed: int) -> None:
        run_on(SUT_CPUS)
        self.program = compile_program(self.model, self.scheme, self.tracer,
                                       self.probe, batch=self.batch)
        if self.probe is not None:
            self.probe.end_round()
        rng = np.random.default_rng(seed)
        self.pool = [make_feeds(self.program, rng) for _ in range(POOL)]
        self.loss = self.program.meta["loss"]
        self.executor = Executor(fresh_copy(self.program))
        for feeds in self.pool[:16]:
            self.executor.run(feeds)
        self.attempted = self.failed = 0

    def gate(self) -> list[str]:
        return oracle_mismatches(self.program, self.pool, self.name)

    def run(self, seconds: float) -> RunResult:
        began = perf_counter()
        raw = self._steps(seconds)
        return RunResult([Sample(e, s) for e, s in raw], began)

    def _steps(self, seconds: float) -> list[tuple[float, float]]:
        raw, bad = timed_steps(self.executor, self.pool, self.loss, seconds)
        self.attempted += len(raw)
        self.failed += bad
        return raw

    def verify(self) -> list[str]:
        return []

    def peak_transient_bytes(self) -> int:
        return self.program.plan_spec().peak_transient_bytes

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def close(self) -> None:
        pass

    # -- traced pass ---------------------------------------------------------

    def trace(self, seconds: float, out_dir: Path) -> dict[str, float]:
        tracer, probe = self.tracer, self.probe
        for _ in range(4):  # setup compiled once; five rounds in all
            compile_program(self.model, self.scheme, tracer, probe,
                            batch=self.batch)
            probe.end_round()
        metrics = probe.metrics()
        metrics["kernels.gemm_peak_gflops"] = peak = gemm_peak_gflops()
        metrics.update(self._trace_steps(seconds * 0.5, peak))
        metrics.update(self._trace_oracles(seconds * 0.25))
        if self.scheme == "paper_scheme":
            metrics["sparse.step_time_ratio"] = \
                self._sparse_vs_full(seconds * 0.2)
        return metrics

    def _trace_steps(self, seconds: float, peak_gflops: float
                     ) -> dict[str, float]:
        """Alternate untraced and observed chunks of steps."""
        executor, pool, loss, tracer = \
            self.executor, self.pool, self.loss, self.tracer
        plan = self.program.plan()
        group_of = {id(i): layers.kernel_group(i) for i in plan.instructions}
        flops = defaultdict(float)
        for instr in plan.instructions:
            kind, count = layers.instruction_flops(instr, self.program.graph)
            if kind:
                flops[kind] += count
        events: list = []

        def observer(instr, t0, t1):
            events.append((instr, t0, t1))

        group_s: dict[str, float] = defaultdict(float)
        step_ms, kernel_ms, allocs = [], [], []
        plain_rate, traced_rate, plain_s = [], [], []
        takes0, misses0 = executor.arena.takes, executor.arena.misses
        rounds = max(2, int(seconds / 1.0))
        chunk = seconds / rounds / 2
        i = 0
        for _ in range(rounds):
            began_chunk = perf_counter()
            raw = self._steps(chunk)
            plain_rate.append(len(raw) / (raw[-1][0] - began_chunk))
            plain_s += [took for _, took in raw]
            executor.instr_observer = observer
            began_chunk = perf_counter()
            steps = 0
            while perf_counter() - began_chunk < chunk:
                events.clear()
                with tracer.span("runtime.run", "runtime",
                                 op_id=f"step:{i}") as span:
                    value = float(executor.run(pool[i % POOL])[loss])
                self.attempted += 1
                self.failed += not math.isfinite(value)
                kernels = 0.0
                keep = i < KEEP_KERNEL_STEPS
                for instr, t0, t1 in events:
                    group = group_of[id(instr)]
                    group_s[group] += t1 - t0
                    kernels += t1 - t0
                    if keep:
                        tracer.add(f"kernels.{group}", "kernels", t0, t1,
                                   parent=span, op_id=instr.node.name)
                step_ms.append(tracer.ms(span))
                kernel_ms.append(kernels * 1e3)
                allocs.append(executor.last_step_fresh_allocs)
                i += 1
                steps += 1
            executor.instr_observer = None
            traced_rate.append(steps / (perf_counter() - began_chunk))
        steps = len(step_ms)
        dispatch = [s - k for s, k in zip(step_ms, kernel_ms)]
        takes = executor.arena.takes - takes0
        misses = executor.arena.misses - misses0
        conv_s = sum(group_s[g] for g in
                     ("conv2d", "conv2d_dx", "conv2d_dw", "winograd"))
        out = {
            "runtime.run_ms_p50": statistics.median(step_ms),
            "runtime.kernel_ms_per_step": statistics.median(kernel_ms),
            "runtime.dispatch_ms_per_step": statistics.median(dispatch),
            "runtime.dispatch_share":
                statistics.median(dispatch) / statistics.median(step_ms),
            "runtime.instructions_per_step": len(plan.instructions),
            "runtime.fresh_allocs_per_step": statistics.fmean(allocs),
            "runtime.arena_hit_ratio":
                takes / (takes + misses) if takes + misses else 0.0,
            "runtime.arena_retained_bytes": executor.arena.retained_bytes(),
            "runtime.step_alloc_peak_bytes": self._step_alloc_peak(),
            "kernels.calls_per_step": len(plan.instructions),
            "kernels.conv_gflops":
                flops["conv"] * steps / conv_s / 1e9 if conv_s else 0.0,
            "kernels.matmul_gflops":
                flops["matmul"] * steps / group_s["matmul"] / 1e9
                if group_s["matmul"] else 0.0,
            "obs.trace_overhead_share": 1 - statistics.median(traced_rate)
                / statistics.median(plain_rate),
            "op_ms_p50": statistics.median(plain_s) * 1e3,
            "op_ms_p95": pooled_p95_ms(plain_s),
        }
        out["kernels.conv_roofline_share"] = \
            out["kernels.conv_gflops"] / peak_gflops
        for group in layers.KERNEL_GROUPS:
            out[f"kernels.{group}_ms"] = group_s[group] * 1e3 / steps
        return out

    def _step_alloc_peak(self) -> int:
        """tracemalloc peak over one warm step (numpy reports its buffers
        to tracemalloc), to read beside the plan's static peak."""
        tracemalloc.start()
        try:
            self.executor.run(self.pool[0])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self.executor.run(self.pool[1])
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def _trace_oracles(self, seconds: float) -> dict[str, float]:
        """What the pass pipeline is worth: default plan against the
        ``passes="none"`` plan and the interpreter, in interleaved chunks."""
        executors = {
            "plan": Executor(fresh_copy(self.program)),
            "none": Executor(fresh_copy(self.program, passes="none")),
            "interp": Executor(fresh_copy(self.program, passes="none"),
                               backend="interpreter"),
        }
        ratios = interleaved_ratios(executors, self.pool, seconds)
        return {"runtime.plan_vs_interp_ratio": ratios["interp"],
                "runtime.plan_vs_none_ratio": ratios["none"]}

    def _sparse_vs_full(self, seconds: float) -> float:
        """The paper's headline: sparse step time as a share of the full
        update's, same model and optimizer, interleaved."""
        forward = build_model(self.model, batch=self.batch)
        full = compile_training(forward, optimizer=optimizer_for(self.scheme),
                                scheme=full_update(forward))
        executors = {"full": Executor(fresh_copy(full)),
                     "sparse": Executor(fresh_copy(self.program))}
        return interleaved_ratios(executors, self.pool, seconds,
                                  base="full")["sparse"]


def interleaved_ratios(executors: dict[str, Executor], pool, seconds: float,
                       base: str = "plan", steps: int = 10
                       ) -> dict[str, float]:
    """Median over rounds of wall(name) / wall(base) for ``steps`` steps
    each. Every round runs every executor, in an order that rotates from
    round to round, so neither load drift nor position favours one."""
    for executor in executors.values():
        for feeds in pool[:steps]:
            executor.run(feeds)
    ratios: dict[str, list[float]] = defaultdict(list)
    deadline = perf_counter() + seconds
    order = list(executors.items())
    rounds = 0
    while rounds < 3 or perf_counter() < deadline:
        order.append(order.pop(0))
        walls = {}
        for name, executor in order:
            began = perf_counter()
            for feeds in pool[:steps]:
                executor.run(feeds)
            walls[name] = perf_counter() - began
        for name, wall in walls.items():
            ratios[name].append(wall / walls[base])
        rounds += 1
    return {name: statistics.median(v) for name, v in ratios.items()}


def gemm_peak_gflops(size: int = 256, repeats: int = 20) -> float:
    """Host ceiling for the conv/matmul kernels: best numpy sgemm rate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size)).astype(np.float32)
    b = rng.standard_normal((size, size)).astype(np.float32)
    out = np.empty((size, size), np.float32)
    best = math.inf
    for _ in range(repeats):
        began = perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, perf_counter() - began)
    return 2 * size ** 3 / best / 1e9


class CompileZoo:
    """Sweeps of twelve compiles, order reshuffled per sweep by the seed."""

    #: a chunk is one whole sweep: every program once
    min_chunk_ops = len(ZOO_PROGRAMS)
    chunk_align = len(ZOO_PROGRAMS)
    name = "compile_zoo"

    def __init__(self, tracer: Tracer,
                 probe: layers.CompileProbe | None) -> None:
        self.tracer, self.probe = tracer, probe

    def setup(self, seed: int) -> None:
        run_on(SUT_CPUS)
        self.rng = np.random.default_rng(seed)
        self.programs = {}
        for model, scheme in ZOO_PROGRAMS:  # also the warm-up sweep
            self.programs[model, scheme] = compile_program(
                model, scheme, self.tracer, self.probe)
        if self.probe is not None:
            self.probe.end_round()
        self.attempted = self.failed = 0

    def gate(self) -> list[str]:
        found = []
        for (model, scheme), program in self.programs.items():
            batches = [make_feeds(program, self.rng) for _ in range(3)]
            found += oracle_mismatches(program, batches, f"{model}/{scheme}")
        return found

    def sweep(self, raw: list) -> None:
        for index in self.rng.permutation(len(ZOO_PROGRAMS)):
            model, scheme = ZOO_PROGRAMS[index]
            began = perf_counter()
            compile_program(model, scheme, self.tracer, self.probe)
            ended = perf_counter()
            raw.append(Sample(ended, ended - began, (model, scheme)))
        self.attempted += len(ZOO_PROGRAMS)

    def run(self, seconds: float) -> RunResult:
        raw: list[Sample] = []
        began = perf_counter()
        while perf_counter() - began < seconds:
            self.sweep(raw)
        return RunResult(raw, began)

    def verify(self) -> list[str]:
        return []

    def peak_transient_bytes(self) -> int:
        return sum(p.plan_spec().peak_transient_bytes
                   for p in self.programs.values())

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def close(self) -> None:
        pass

    # -- traced pass ---------------------------------------------------------

    def trace(self, seconds: float, out_dir: Path) -> dict[str, float]:
        tracer, probe = self.tracer, self.probe
        plain_rate, traced_rate, plain = [], [], []
        deadline = perf_counter() + seconds * 0.9
        while len(traced_rate) < 2 or perf_counter() < deadline:
            for rates, enabled in ((plain_rate, False), (traced_rate, True)):
                tracer.enabled = enabled
                raw: list[Sample] = []
                began = perf_counter()
                self.sweep(raw)
                rates.append(len(raw) / (perf_counter() - began))
                if enabled:
                    probe.end_round()
                else:
                    plain += raw
        metrics = probe.metrics()
        metrics["op_ms_p50"] = chunk_p50_ms(Chunk(0.0, 0.0, tuple(plain)))
        metrics["op_ms_p95"] = pooled_p95_ms([s.seconds for s in plain])
        metrics["obs.trace_overhead_share"] = \
            1 - statistics.median(traced_rate) / statistics.median(plain_rate)
        metrics.update(self._nodes_ratio())
        metrics.update(self._analysis_and_deploy(out_dir / "zoo-artifacts"))
        return metrics

    def _nodes_ratio(self) -> dict[str, float]:
        """Sparse / full training-graph nodes right after autodiff,
        geometric mean over the six models."""
        sizes = {}
        nodes = self.probe.graph_nodes_after_backward
        mark = len(nodes)
        self.tracer.enabled = True
        for model, scheme in ZOO_PROGRAMS:
            compile_program(model, scheme, self.tracer, self.probe)
            if len(nodes) > mark:
                sizes[model, scheme] = nodes[-1]
                mark = len(nodes)
        self.probe.end_round()
        if len(sizes) != len(ZOO_PROGRAMS):
            return {"sparse.backward_node_ratio": 0.0}
        return {"sparse.backward_node_ratio": geomean([
            sizes[m, "paper_scheme"] / sizes[m, "full_update"]
            for m in ZOO_MODELS])}

    def _analysis_and_deploy(self, scratch: Path) -> dict[str, float]:
        """Off the default compile path: the plan verifier and the
        artifact round trip, summed over the twelve programs."""
        from repro.analysis.planlint import verify_program
        from repro.deploy.artifact import load_artifact, save_artifact

        out = defaultdict(float)
        try:
            for (model, scheme), program in self.programs.items():
                with self.tracer.span("analysis.planlint", "analysis",
                                      op_id=f"{model}/{scheme}") as span:
                    findings = verify_program(program)
                out["analysis.planlint_ms"] += self.tracer.ms(span)
                out["analysis.planlint_findings"] += len(findings)
                path = scratch / f"{model}-{scheme}"
                with self.tracer.span("deploy.save", "deploy",
                                      op_id=f"{model}/{scheme}") as span:
                    save_artifact(program, path)
                out["deploy.save_ms"] += self.tracer.ms(span)
                out["deploy.artifact_bytes"] += sum(
                    f.stat().st_size for f in path.rglob("*") if f.is_file())
                with self.tracer.span("deploy.load_bind", "deploy",
                                      op_id=f"{model}/{scheme}") as span:
                    # verify=False: on this commit the loader's default
                    # verification rejects the bert_micro/paper_scheme
                    # artifact (a tuple-valued `pad` attribute does not
                    # survive the manifest); planlint is timed above on
                    # the in-memory programs instead
                    load_artifact(path, verify=False)
                out["deploy.load_bind_ms"] += self.tracer.ms(span)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return dict(out)
