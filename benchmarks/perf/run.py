"""The repository's benchmark: one workload per invocation.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` installs the span wrappers and prints the per-layer metrics.
The last line of standard output is one JSON object (see ``BENCHMARK.json``
and ``README.md``). ``suite.py`` runs every workload both ways.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_BEGAN = time.perf_counter()

# One BLAS thread in this process and in every server it starts, and none of
# the repo's own benchmark/verification switches: set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
for _name in ("REPRO_VERIFY_PLANS", "REPRO_BENCH_FAST"):
    os.environ.pop(_name, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes: traces, server scratch, temp artifacts
OUT = ROOT / ".bench_perf"
sys.path[:0] = [str(HERE), str(SRC)]

import stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: fresh processes timed from spawn to "ready" for ``setup_s``: at least
#: three, and more (up to eight) while they fit into the budget
SETUP_REPEATS = (3, 8)
SETUP_BUDGET_S = 4.0
READY = "ready"
#: share of the run that settles before the first chunk
SETTLE_SHARE = 1 / 16
#: the least a chunk spans: long enough to hold a workload's ``min_chunk_ops``
#: at any speed seen here, short enough to fit in a gap of the host's
#: interference (see ``stats.best_of_chunks``)
CHUNK_SECONDS = 0.05


def build(name: str, tracer, probe, scratch: Path):
    """The workload object; imports only what that workload needs, since
    imports are part of ``setup_s`` and ``peak_rss_mb``."""
    if name.startswith("serve_"):
        import serving

        if name == "serve_http_tenants":
            return serving.ServeHttpTenants(tracer, SRC, scratch)
        return serving.ServeInprocBatched(tracer, probe)
    import engine

    if name == "train_cnn_sparse":
        return engine.TrainWorkload(name, "mcunet_micro", 2, "paper_scheme",
                                    tracer, probe)
    if name == "train_llm_full":
        return engine.TrainWorkload(name, "llama_micro", 2, "full_update",
                                    tracer, probe)
    return engine.CompileZoo(tracer, probe)


def host_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    from common import LOAD_CPUS, SUT_CPUS

    return {"nproc": os.cpu_count(), "cpus_under_test": sorted(SUT_CPUS),
            "cpus_load_generator": sorted(LOAD_CPUS),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": 1,
            "repro_env_cleared": ["REPRO_VERIFY_PLANS", "REPRO_BENCH_FAST"]}


def measure_setup(args) -> tuple[float, list[float]]:
    """``setup_s``: fresh processes, each timed from spawn until it has
    imported, built, compiled, booted and warmed everything the workload
    needs before its first timed op. The quickest of the repeats: set-up
    is pure computation, which a busy sibling thread only ever slows."""
    least, most = SETUP_REPEATS
    took: list[float] = []
    started = time.perf_counter()
    while len(took) < least or (
            len(took) < most and
            time.perf_counter() - started + min(took) < SETUP_BUDGET_S):
        began = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", str(len(took))],
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            took.append(time.perf_counter() - began)
            child.stdout.read()
        finally:
            child.stdout.close()
            if child.wait(timeout=120) != 0 or line.strip() != READY:
                raise SystemExit(f"setup repeat {len(took)} failed")
    return min(took), took


class Phases:
    """Wall seconds per phase of a run, printed beside the metrics so the
    run-time cap can be checked from any result."""

    def __init__(self) -> None:
        self.walls: dict[str, float] = {}
        self._last = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.walls[name] = round(now - self._last, 2)
        self._last = now


def end_to_end(workload, args, mismatches: list[str], phases: Phases
               ) -> tuple[dict, dict]:
    setup_s, setup_runs = measure_setup(args)
    phases.done("setup_repeats")
    workload.setup(args.seed)
    phases.done("setup")
    mismatches += workload.gate()
    phases.done("gate")
    result = workload.run(args.seconds)
    phases.done("run")
    mismatches += workload.verify()
    samples, began = stats.after_settling(
        result.samples, result.began + args.seconds * SETTLE_SHARE,
        workload.chunk_align)
    chunks = stats.cut_chunks(
        samples, began, min_seconds=CHUNK_SECONDS,
        min_ops=workload.min_chunk_ops, align=workload.chunk_align)
    if not chunks:
        raise SystemExit(f"{args.workload}: {len(result.samples)} ops in "
                         f"{args.seconds}s do not fill one chunk")
    p95, p95_how = stats.tail_ms(chunks)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": stats.best_of_chunks(
            [c.ops_per_s for c in chunks], "higher"),
        "peak_transient_bytes": workload.peak_transient_bytes(),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    rates = sorted(c.ops_per_s for c in chunks)
    notes = {
        "samples": len(result.samples), "chunks": len(chunks),
        "chunk_ops": statistics.median(len(c.samples) for c in chunks),
        # latencies are not bounded metrics (they do not hold a bound on a
        # shared host); the per-layer list carries them
        "op_ms_p50": round(stats.best_of_chunks(
            [stats.chunk_p50_ms(c) for c in chunks], "lower"), 4),
        "op_ms_p95": round(p95, 4), "p95": p95_how,
        "setup_runs_s": [round(t, 4) for t in setup_runs],
        "chunk_ops_per_s_quartiles": [
            round(stats.percentile(rates, q), 1) for q in (0.25, 0.5, 0.75)],
    }
    return metrics, notes


def per_layer(workload, args, tracer, mismatches: list[str], phases: Phases
              ) -> tuple[dict, dict]:
    workload.setup(args.seed)
    phases.done("setup")
    mismatches += workload.gate()
    phases.done("gate")
    measured = workload.trace(args.seconds, OUT)
    phases.done("trace")
    mismatches += workload.verify()
    violations = tracer.nesting_violations()
    if violations:
        mismatches.append(f"{violations} span(s) shorter than their children")
    coverage = measured.get("serve.service.span_coverage")
    if coverage is not None and coverage < 0.95:
        mismatches.append(f"server spans cover {coverage:.3f} of a request")
    if measured.get("analysis.planlint_findings"):
        mismatches.append("plan verifier reported findings")
    trace_file = OUT / f"trace-{args.workload}.json"
    tracer.write_chrome(trace_file)
    print(f"# {'span':<34} {'count':>8} {'total ms':>12} {'self ms':>12}")
    for name, (count, total, own) in sorted(tracer.totals().items()):
        print(f"# {name:<34} {count:>8} {total * 1e3:>12.3f} "
              f"{own * 1e3:>12.3f}")
    measured["mismatches"] = len(mismatches)
    measured["failed_share"] = workload.failed / max(1, workload.attempted)
    unknown = sorted(set(measured) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    notes = {"spans": len(tracer.spans), "trace_file": str(trace_file),
             "missing_targets": tracer.missing,
             "measured_here": sorted(measured)}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="N", default=None,
                        help="internal: set the workload up, print "
                             f"{READY!r}, tear down")
    args = parser.parse_args(argv)

    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    probe = None
    if args.trace:
        probe = layers.CompileProbe(tracer)
        probe.install()
    tag = f"{args.workload}-{os.getpid()}"
    scratch = OUT / f"scratch-{tag}"
    workload = build(args.workload, tracer, probe, scratch)
    mismatches: list[str] = []
    phases = Phases()
    try:
        if args.setup_only is not None:
            workload.setup(args.seed)
            print(READY, flush=True)
            return 0
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} host={json.dumps(host_facts())}",
              file=sys.stderr)
        if args.trace:
            metrics, notes = per_layer(workload, args, tracer, mismatches,
                                       phases)
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(workload, args, mismatches, phases)
            units = END_TO_END
    finally:
        try:
            workload.close()
        finally:
            tracer.unwrap_all()
            shutil.rmtree(scratch, ignore_errors=True)
            phases.done("close")

    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>18.10g} {units[name]}")
    print(f"# {json.dumps(notes)}")
    print(f"# wall {time.perf_counter() - _PROCESS_BEGAN:.1f}s "
          f"{json.dumps(phases.walls)}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
