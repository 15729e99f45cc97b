"""Ablation: int8 execution and quantization-aware scaling.

The paper's vendor backends run integer models (SNPE on the Hexagon DSP,
TinyEngine on microcontrollers); PockEngine "easily extends [SNPE] with
training capability" and trains int8 graphs on MCUs. This bench quantifies
what the int8 path buys on our simulated devices, and reproduces the QAS
finding of reference [41] (On-Device Training Under 256KB Memory) that
int8-grid weights do not train without gradient-scale compensation.

Two parts:

1. MCUNet int8 vs fp32 inference on STM32F746 and the Hexagon DSP —
   latency (int8 MAC throughput + 4x fewer bytes moved) and peak memory.
2. Loss curves for int8-grid training with and without QAS against the
   fp32 reference (numeric runs through the executor).

Part 1 runs the full-size MCUNet in fast mode too. ``REPRO_BENCH_FAST=1``
used to swap in ``mcunet_micro``, and on the DSP that read int8 *slower*
(0.49 ms against 0.45 ms). ``devices/cost.py`` is not wrong about it: a
launch costs ``kernel_launch_us`` (22 us on the Hexagon) whatever the
dtype, and the int8 graph really has two kernels more — the quantize at
its input and the dequantize at its output, as an SNPE deployment does.
The model had no work in it: 20 launches are 440 us, all its arithmetic
and memory traffic 9 us, so two launches outweigh everything int8 can
save. At full size there is work to save (fp32 265 us of compute and
traffic, int8 84) and calibration still takes under two seconds, so
nothing is swapped; fast mode only shortens part 2.
"""

import numpy as np

from repro.devices import estimate_latency, get_device
from repro.ir import GraphBuilder
from repro.memory import profile_memory
from repro.models import build_model
from repro.quant import (apply_qas, collect_ranges, insert_fake_quant,
                         int8_grid_training_graph, quantize_inference_graph)
from repro.report import render_series, render_table
from repro.runtime import Executor
from repro.runtime.compiler import (CompileOptions, compile_inference,
                                    compile_training)
from repro.train import SGD

from _helpers import banner, fast_mode


def _deploy_comparison():
    rng = np.random.default_rng(0)
    model = "mcunet"
    # Materialized weights: calibration actually runs the network.
    forward = build_model(model, batch=1, num_classes=2, lazy=False)
    res = forward.spec(forward.inputs[0]).shape
    batches = [{forward.inputs[0]:
                rng.standard_normal(res).astype(np.float32)}
               for _ in range(2)]
    ranges = collect_ranges(forward, batches)
    int8 = quantize_inference_graph(forward, ranges)

    rows = []
    speedups = {}
    for device_key in ("stm32f746", "snapdragon_dsp"):
        device = get_device(device_key)
        options = CompileOptions(device=device, materialize_state=False,
                                 winograd=False)
        for label, graph in (("fp32", forward), ("int8", int8)):
            program = compile_inference(graph, options=options)
            latency = estimate_latency(program.graph, program.schedule,
                                       device)
            memory = profile_memory(program.graph, program.schedule)
            rows.append([
                device.name.split(" (")[0], label,
                f"{latency.total_ms:.2f}ms",
                f"{memory.peak_total_bytes / 1024:.0f}KB",
                latency.num_kernels,
            ])
            speedups.setdefault(device_key, {})[label] = (
                latency.total_ms, memory.peak_total_bytes)
    return model, rows, speedups


def _qas_curves(steps: int):
    rng = np.random.default_rng(1)
    b = GraphBuilder("mlp")
    x = b.input("x", (8, 16))
    w1 = b.initializer("w1", (rng.standard_normal((16, 32)) * 0.3)
                       .astype(np.float32), trainable=True)
    h = b.emit("relu", [b.matmul(x, w1)])
    w2 = b.initializer("w2", (rng.standard_normal((32, 4)) * 0.3)
                       .astype(np.float32), trainable=True)
    b.mark_output(b.matmul(h, w2))
    forward = b.graph

    batches = [{"x": rng.standard_normal((8, 16)).astype(np.float32)}
               for _ in range(3)]
    qat = insert_fake_quant(forward, collect_ranges(forward, batches))
    grid = int8_grid_training_graph(qat)
    X = rng.standard_normal((8, 16)).astype(np.float32)
    Y = rng.integers(0, 4, size=8).astype(np.int64)

    def curve(graph, use_qas):
        program = compile_training(graph, optimizer=SGD(0.1))
        if use_qas:
            apply_qas(program.graph)
        executor = Executor(program)
        return [float(executor.run(
            {"x": X, program.meta["labels"]: Y})[program.meta["loss"]])
            for _ in range(steps)]

    return {
        "fp32 QAT reference": curve(qat, False),
        "int8-grid, no QAS": curve(grid, False),
        "int8-grid, with QAS": curve(grid, True),
    }


def run():
    model, rows, speedups = _deploy_comparison()
    curves = _qas_curves(steps=12 if fast_mode() else 30)
    return model, rows, speedups, curves


def test_int8_and_qas_ablation(benchmark):
    model, rows, speedups, curves = benchmark.pedantic(
        run, rounds=1, iterations=1)

    banner(f"Ablation — int8 deployment of {model} (SNPE/TinyEngine path)")
    print(render_table(
        ["Device", "precision", "latency", "peak memory", "kernels"], rows))
    for device_key, entry in speedups.items():
        lat32, mem32 = entry["fp32"]
        lat8, mem8 = entry["int8"]
        print(f"{device_key}: int8 {lat32 / lat8:.2f}x faster, "
              f"{mem32 / mem8:.2f}x smaller")

    banner("Ablation — QAS on int8-grid training (paper ref [41])")
    for name, losses in curves.items():
        print(render_series(name, losses[:: max(1, len(losses) // 10)]))

    for device_key, entry in speedups.items():
        lat32, mem32 = entry["fp32"]
        lat8, mem8 = entry["int8"]
        assert lat8 < lat32, f"int8 should be faster on {device_key}"
        assert mem8 < mem32 / 2, f"int8 should be <half memory {device_key}"

    no_qas = curves["int8-grid, no QAS"]
    with_qas = curves["int8-grid, with QAS"]
    ref = curves["fp32 QAT reference"]
    assert no_qas[-1] > no_qas[0] * 0.9, "grid training should stall"
    assert with_qas[-1] < with_qas[0] * 0.7, "QAS should restore learning"
    assert abs(with_qas[-1] - ref[-1]) < 0.35 * ref[0]
