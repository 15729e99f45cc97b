"""Run every workload: untraced for the end-to-end numbers, then traced.

    python3 benchmarks/perf/suite.py --out DIR [--seeds 0-9] [--trace 0|1|both]

Each ``run.py`` invocation's result line is stored as one JSON file in
``DIR`` (a *set* of runs, the unit ``compare.py`` works on), and the medians
and run-to-run spreads of the set are printed per workload and metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(rc={proc.returncode})")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, seconds=seconds,
                  wall_s=time.perf_counter() - began,
                  notes=[line[2:] for line in lines[:-1]
                         if line.startswith("# ")])
    return result


def load_set(directory: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> the set's values, one per run."""
    out: dict[tuple[str, int], dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        metrics = out.setdefault((doc["workload"], doc["trace"]), {})
        for name, entry in doc["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def print_set(directory: Path) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for (workload, trace), metrics in sorted(load_set(directory).items()):
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(next(iter(metrics.values())))} run(s))")
        for name, values in metrics.items():
            line = f"{name:<40} {statistics.median(values):>16.6g} " \
                   f"{units.get(name, ''):<8} n={len(values)}"
            if len(values) >= 4:
                spread = stats.spread(values)
                line += f" spread={spread:.4f}"
                bound = bounds.get(name)
                if bound is not None and name != "setup_s":
                    line += f" ({spread / bound:.2f} of bound {bound})"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    for trace in traces:
        # seeds outermost, so that slow drift of the host spreads over
        # every workload instead of landing on one
        for seed in parse_seeds(args.seeds):
            for workload in args.workloads:
                result = run_once(workload, seed, args.seconds, trace)
                name = f"{workload}.seed{seed}.trace{trace}.json"
                (args.out / name).write_text(json.dumps(result, indent=1))
                print(f"{workload} seed={seed} trace={trace} "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)
    print_set(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
