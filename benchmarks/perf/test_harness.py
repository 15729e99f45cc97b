"""Self-tests of the harness's statistics on synthetic data.

    python -m pytest benchmarks/perf -q

No ``conftest.py`` here on purpose: tier-1 collection (``testpaths = tests``)
must stay untouched.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from compare import verdict  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import Sample  # noqa: E402


# -- percentile rule: at least ten samples beyond --------------------------

def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.5) == 50
    assert stats.percentile(ordered, 0.95) == 95
    assert stats.percentile(ordered, 1.0) == 100
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize("n, q, ok", [
    (200, 0.95, True),    # exactly ten beyond
    (199, 0.95, False),   # nine beyond
    (220, 0.95, True),
    (1000, 0.99, True),
    (999, 0.99, False),
    (20, 0.5, True),
    (19, 0.5, False),
])
def test_supported_needs_ten_samples_beyond(n, q, ok):
    assert stats.supported(n, q) is ok
    assert (stats.samples_beyond(n, q) >= 10) is ok


# -- chunking and best-of-chunks -----------------------------------------

def steady(rate: float, seconds: float, began: float = 0.0, key=None):
    step = 1.0 / rate
    return [Sample(began + (i + 1) * step, step, key)
            for i in range(int(seconds * rate))]


def test_chunks_need_both_ops_and_seconds():
    samples = steady(100.0, 10.0)
    by_ops = stats.cut_chunks(samples, 0.0, min_seconds=0.5, min_ops=220)
    assert [len(c.samples) for c in by_ops] == [220] * 4  # tail dropped
    by_time = stats.cut_chunks(samples, 0.0, min_seconds=2.5, min_ops=10)
    assert [len(c.samples) for c in by_time] == [250] * 4
    assert all(math.isclose(c.ops_per_s, 100.0) for c in by_ops + by_time)


def test_chunks_align_to_whole_sweeps():
    chunks = stats.cut_chunks(steady(29.0, 10.0), 0.0, min_seconds=1.0,
                              min_ops=24, align=12)
    assert chunks and all(len(c.samples) % 12 == 0 for c in chunks)


def test_chunks_do_not_end_inside_a_burst_of_completions():
    # batches of eight acks that resolve together, one batch per 10 ms
    samples = [Sample(0.010 * (1 + i // 8) + 1e-6 * (i % 8), 0.030)
               for i in range(800)]
    chunks = stats.cut_chunks(samples, 0.0, min_seconds=0.05, min_ops=20)
    assert chunks and all(len(c.samples) % 8 == 0 for c in chunks)
    assert all(math.isclose(c.ops_per_s, 800.0, rel_tol=1e-3)
               for c in chunks)


def test_best_of_chunks_survives_a_majority_disturbance():
    # thirteen seconds at 100 ops/s, ten of them stalled to 25 ops/s
    samples = steady(100.0, 1.5) + steady(25.0, 10.0, began=1.5) \
        + steady(100.0, 1.5, began=11.5)
    chunks = stats.cut_chunks(samples, 0.0, min_seconds=1.0, min_ops=25)
    rates = [c.ops_per_s for c in chunks]
    assert statistics.median(rates) < 30          # the median does not hold
    assert statistics.quantiles(rates, n=4)[2] < 60    # nor a quartile
    assert 99 < stats.best_of_chunks(rates, "higher") < 101
    latencies = [stats.chunk_p50_ms(c) for c in chunks]
    assert 9.9 < stats.best_of_chunks(latencies, "lower") < 10.1


def test_short_chunks_fit_into_the_gaps_of_a_busy_neighbour():
    # 5 ms ops that a neighbour slows to 8 ms except for 120 ms every 2 s
    samples, now = [], 0.0
    while now < 20.0:
        took = 0.005 if now % 2.0 < 0.12 else 0.008
        now += took
        samples.append(Sample(now, took))
    short = stats.cut_chunks(samples, 0.0, min_seconds=0.05, min_ops=8)
    long = stats.cut_chunks(samples, 0.0, min_seconds=1.0, min_ops=220)
    assert stats.best_of_chunks([c.ops_per_s for c in short], "higher") > 199
    assert stats.best_of_chunks([c.ops_per_s for c in long], "higher") < 135


def test_best_of_chunks_moves_with_a_real_change():
    before = [c.ops_per_s for c in stats.cut_chunks(
        steady(100.0, 10.0), 0.0, min_seconds=1.0, min_ops=50)]
    after = [c.ops_per_s for c in stats.cut_chunks(
        steady(90.0, 10.0), 0.0, min_seconds=1.0, min_ops=50)]
    ratio = stats.best_of_chunks(after, "higher") \
        / stats.best_of_chunks(before, "higher")
    assert math.isclose(ratio, 0.9, rel_tol=1e-6)


def test_settling_drops_whole_sweeps_from_the_front():
    samples = steady(12.0, 5.0)              # one 12-op sweep per second
    kept, began = stats.after_settling(samples, 0.45, align=12)
    assert len(kept) == 48 and math.isclose(began, 1.0)
    kept, began = stats.after_settling(samples, 0.45)
    assert len(kept) == 54 and math.isclose(began, 0.5)
    assert stats.after_settling(samples, 99.0) == ([], 99.0)


def test_tail_is_pooled_over_the_chunks_and_says_when_it_cannot_hold():
    chunks = stats.cut_chunks(steady(29.0, 20.0), 0.0, min_seconds=1.0,
                              min_ops=24, align=12)
    assert not stats.supported(len(chunks[0].samples), 0.95)
    value, how = stats.tail_ms(chunks)
    assert how == "pooled" and math.isclose(value, 1e3 / 29.0)
    assert stats.tail_ms(chunks[:2])[1] == "unsupported"
    with pytest.raises(ValueError):
        stats.tail_ms([])


# -- geomean ----------------------------------------------------------------

def test_geomean():
    assert math.isclose(stats.geomean([1.0, 100.0]), 10.0)
    assert math.isclose(stats.geomean([7.0]), 7.0)
    for bad in ([], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValueError):
            stats.geomean(bad)


def test_keyed_p50_is_geomean_of_per_key_medians():
    fast = [Sample(i, 0.010, "fast") for i in range(30)]
    slow = [Sample(i, 0.090, "slow") for i in range(3)]
    keyed = stats.Chunk(0.0, 30.0, tuple(fast + slow))
    assert math.isclose(stats.chunk_p50_ms(keyed), 30.0)  # sqrt(10 * 90)
    plain = stats.Chunk(0.0, 5.0,
                        tuple(Sample(i, 0.010) for i in range(5)))
    assert math.isclose(stats.chunk_p50_ms(plain), 10.0)


def test_spread_is_iqr_over_median():
    values = [98, 99, 100, 100, 100, 100, 101, 102, 100, 100]
    assert 0.0 < stats.spread(values) < 0.02
    assert stats.spread([5.0] * 10) == 0.0


# -- compare.py verdicts ------------------------------------------------------

TIGHT_A = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_verdict_same_and_worse_in_both_directions():
    assert verdict(TIGHT_A, shifted(TIGHT_A, 1.03), "lower", 0.07) == "same"
    assert verdict(TIGHT_A, shifted(TIGHT_A, 1.10), "lower", 0.07) == "worse"
    assert verdict(TIGHT_A, shifted(TIGHT_A, 0.90), "lower", 0.07) == "same"
    assert verdict(TIGHT_A, shifted(TIGHT_A, 0.90), "higher", 0.07) == "worse"
    assert verdict(TIGHT_A, shifted(TIGHT_A, 1.10), "higher", 0.07) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    assert verdict(noisy, shifted(noisy, 1.02), "lower", 0.07) == "unresolved"
    # ... unless every run of B reads better than every run of A
    assert verdict(noisy, shifted(noisy, 0.5), "lower", 0.07) == "same"
    # ... or every run of B reads worse, beyond the bound
    assert verdict(noisy, shifted(noisy, 2.0), "lower", 0.07) == "worse"


def test_verdict_exact_counts():
    assert verdict([1442116] * 10, [1442116] * 10, "lower", 0.02) == "same"
    assert verdict([1442116] * 10, [1600000] * 10, "lower", 0.02) == "worse"


# -- spans --------------------------------------------------------------------

def test_self_time_and_nesting_check():
    tracer = Tracer()
    parent = tracer.add("step", "runtime", 0.0, 10.0)
    tracer.add("kernel", "kernels", 1.0, 4.0, parent=parent)
    tracer.add("kernel", "kernels", 5.0, 9.0, parent=parent)
    totals = tracer.totals()
    assert totals["step"] == (1, 10.0, 3.0)      # self = 10 - (3 + 4)
    assert totals["kernel"] == (2, 7.0, 7.0)
    assert tracer.nesting_violations() == 0
    tracer.add("kernel", "kernels", 0.0, 8.0, parent=parent)
    assert tracer.nesting_violations() == 1


def test_missing_wrap_target_is_reported_not_raised(capsys):
    tracer = Tracer()
    assert not tracer.wrap("json", "no_such_function", "x", "x")
    assert not tracer.wrap("no_such_module_anywhere", "f", "x", "x")
    assert not tracer.wrap({}, "gone", "x", "x")
    assert len(tracer.missing) == 3
    assert "not found" in capsys.readouterr().err


def test_wrap_records_nested_spans_and_restores():
    import json as target

    tracer = Tracer()
    original = target.dumps
    assert tracer.wrap(target, "dumps", "dumps", "json")
    with tracer.span("outer", "test") as outer:
        target.dumps({})
    tracer.unwrap_all()
    assert target.dumps is original
    inner = [s for s in tracer.spans if s[0] == "dumps"]
    assert len(inner) == 1 and inner[0][4] == outer


def test_chrome_trace_is_loadable(tmp_path):
    tracer = Tracer()
    root = tracer.add("request", "serve.client", 1.0, 2.0, op_id="tenant0:1")
    tracer.add("execute", "serve.service", 1.2, 1.8, parent=root,
               op_id="tenant0:1")
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["request", "execute"]
    assert events[1]["args"]["parent"] == 0 and events[0]["ts"] == 0.0


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_contract():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert len(spec["workloads"]) == 5
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 9) <= 3420  # set-up and teardown
