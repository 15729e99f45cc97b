"""Training under 320 KB of SRAM: the paper's microcontroller story.

Compiles MCUNet training for the STM32F746 budget and prints the static
arena plan per update scheme — full backprop does not fit; bias-only and
the paper's sparse scheme do. Also shows the simulated latency comparison
against projected TF-Lite-Micro (paper Figure 9c).

Run:  python examples/mcu_training.py
"""

from repro.baselines import (FRAMEWORKS, simulate_inference_projection,
                             simulate_training)
from repro.devices import get_device
from repro.memory import profile_memory
from repro.models import build_model, paper_scheme
from repro.report import render_table
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import bias_only, full_update
from repro.train import SGD


def main():
    mcu = get_device("stm32f746")
    sram_bytes = int(mcu.ram_mb * 1024 * 1024)
    forward = build_model("mcunet_micro", batch=1)

    print(f"Target: {mcu.name} - {sram_bytes // 1024} KB SRAM\n")
    rows = []
    for name, scheme in (("Full BP", full_update(forward)),
                         ("Bias only", bias_only(forward)),
                         ("Sparse BP", paper_scheme(forward))):
        program = compile_training(
            forward, optimizer=SGD(0.05), scheme=scheme,
            options=CompileOptions(materialize_state=False))
        # The plan's slab is the activation arena: every intermediate at
        # its compile-time offset (the input batch sits beside it).
        arena_bytes = program.plan_spec().slab_bytes + sum(
            program.graph.spec(name).nbytes for name in program.graph.inputs)
        profile = profile_memory(program.graph, program.schedule)
        total = arena_bytes + profile.resident_bytes
        rows.append([
            name,
            f"{arena_bytes / 1024:.1f}KB",
            f"{profile.resident_bytes / 1024:.1f}KB",
            f"{total / 1024:.1f}KB",
            "yes" if total <= sram_bytes else "NO (OOM)",
            len(program.graph.nodes),
        ])
    print(render_table(
        ["Scheme", "activation arena", "weights+state", "total",
         "fits in SRAM?", "nodes"], rows,
        title="Static arena planning per update scheme"))

    print("\nSimulated training throughput (paper Figure 9c):")
    projected = simulate_inference_projection(
        forward, FRAMEWORKS["tflite_micro"], mcu)
    pe = FRAMEWORKS["pockengine"]
    full = simulate_training(forward, pe, mcu, scheme=full_update(forward))
    sparse = simulate_training(forward, pe, mcu,
                               scheme=paper_scheme(forward))
    print(render_table(
        ["Engine", "images/sec"],
        [["TF-Lite Micro (projected)", f"{projected.throughput_per_s:.3f}"],
         ["PockEngine full-BP", f"{full.throughput_per_s:.3f}"],
         ["PockEngine sparse-BP", f"{sparse.throughput_per_s:.3f}"]]))


if __name__ == "__main__":
    main()
