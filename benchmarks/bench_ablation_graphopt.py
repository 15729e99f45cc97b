"""Ablation: training-graph optimizations (paper §2.4/§3.2, "up to 1.2x").

Switches each optimization off in isolation on the PockEngine profile and
measures the latency regression on Raspberry Pi: operator fusion,
kernel selection (Winograd for frozen convs), layout selection, and the
memory effect of operator reordering (bench_ablation_reorder_memory covers
the memory side in detail).

Batch 1, the paper's small-batch regime: reordering saves memory only
where held gradients are the peak ("in small batch training with sparse
backpropagation, the cost of storing parameter gradients is close to peak
memory usage", §3.2). Since the ReLU masks shrank to bits the ResNet-50
sparse peak at batch 8 is a forward-pass moment — holding every gradient
to the end costs 0 bytes there (188.98 MB either way) — while at batch 1
the last stage's weight gradients outweigh the activations and "no
reorder" costs 13%. Fusion saves memory at either batch: unfused, each
conv's pre-activation and each ``conv2d_dx``'s unmasked gradient exist
beside the value that replaces them.
"""

import dataclasses

from repro.baselines import FRAMEWORKS, simulate_training
from repro.devices import get_device
from repro.models import build_model, paper_scheme
from repro.report import render_table
from repro.sparse import full_update
from repro.train import SGD

from _helpers import banner


BATCH = 1


def run():
    device = get_device("raspberry_pi_4")
    forward = build_model("resnet50", batch=BATCH)
    scheme = paper_scheme(forward)
    pe = FRAMEWORKS["pockengine"]

    variants = {
        "all optimizations": pe,
        "no fusion": dataclasses.replace(pe, fusion=False),
        "no winograd": dataclasses.replace(pe, winograd=False),
        "no layout": dataclasses.replace(pe, layout=False),
        "no reorder": dataclasses.replace(pe, reorder=False,
                                          holds_all_grads=True),
    }
    out = {}
    for name, profile in variants.items():
        result = simulate_training(forward, profile, device, scheme=scheme,
                                   optimizer=SGD(0.01))
        out[name] = result
    return out


def run_parallel_fusion():
    """QKV merging on a transformer, enabled by the frozen sparse prefix."""
    from repro.devices import estimate_latency
    from repro.runtime.compiler import CompileOptions, compile_training

    device = get_device("jetson_nano")
    forward = build_model("bert", batch=8, seq_len=128)
    scheme = paper_scheme(forward)
    out = {}
    for label, enabled in (("with QKV fusion", True),
                           ("without QKV fusion", False)):
        program = compile_training(
            forward, optimizer=SGD(0.01), scheme=scheme,
            options=CompileOptions(parallel_fusion=enabled,
                                   materialize_state=False, device=device))
        latency = estimate_latency(program.graph, program.schedule, device)
        stats = program.meta["report"].pass_stats.get("parallel_fusion", {})
        out[label] = (latency.total_ms, latency.num_kernels,
                      stats.get("groups", 0))
    return out


def test_graph_optimization_ablation(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Ablation — training-graph optimizations on ResNet-50 "
           f"(Raspberry Pi, sparse scheme, batch {BATCH})")
    base = results["all optimizations"]
    rows = []
    for name, r in results.items():
        rows.append([
            name, f"{r.latency_ms:.0f}ms",
            f"{r.latency_ms / base.latency_ms:.3f}x",
            f"{r.memory_mb:.0f}MB", r.num_kernels,
        ])
    print(render_table(
        ["Variant", "latency", "slowdown vs full-opt", "memory",
         "kernels"], rows))

    assert results["no fusion"].latency_ms > base.latency_ms
    assert results["no fusion"].memory_mb > base.memory_mb
    assert results["no winograd"].latency_ms > base.latency_ms
    assert results["no layout"].latency_ms > base.latency_ms
    # Reordering is a memory optimization: latency ~unchanged, memory up.
    assert results["no reorder"].memory_mb > base.memory_mb
    # Paper: graph optimizations together buy up to ~1.2x.
    combined = dataclasses.replace(
        FRAMEWORKS["pockengine"], fusion=False, winograd=False,
        layout=False)
    device = get_device("raspberry_pi_4")
    forward = build_model("resnet50", batch=BATCH)
    none = simulate_training(forward, combined, device,
                             scheme=paper_scheme(forward),
                             optimizer=SGD(0.01))
    speedup = none.latency_ms / base.latency_ms
    assert 1.05 < speedup < 3.0, speedup


def test_parallel_fusion_ablation(benchmark):
    results = benchmark.pedantic(run_parallel_fusion, rounds=1, iterations=1)
    banner("Ablation — parallel-linear (QKV) fusion on BERT "
           "(Jetson Nano, sparse scheme's frozen prefix)")
    rows = [[name, f"{ms:.1f}ms", kernels, groups]
            for name, (ms, kernels, groups) in results.items()]
    print(render_table(
        ["Variant", "latency", "kernels", "merged groups"], rows))
    on = results["with QKV fusion"]
    off = results["without QKV fusion"]
    assert on[2] > 0, "sparse scheme should freeze mergeable QKV groups"
    assert on[1] < off[1], "fusion should reduce kernel launches"
    assert on[0] <= off[0] * 1.01
