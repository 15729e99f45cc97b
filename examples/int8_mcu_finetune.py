"""Int8 on-device fine-tuning: the full TinyEngine-style MCU pipeline.

Walks the complete integer training story the paper's MCU backend relies
on (§4.3 "Microcontrollers", building on reference [41]):

1. calibrate activation ranges on a few representative batches,
2. quantization-aware training with weights stored on the int8 grid —
   which stalls until QAS rescales the gradients,
3. convert the tuned model to a pure int8 deployment graph,
4. check the int8 model agrees with the float one and measure what int8
   buys on the STM32F746 (latency via the device cost model, memory via
   the static arena planner).

Run:  python examples/int8_mcu_finetune.py
"""

import numpy as np

from repro.data import vision_task
from repro.devices import estimate_latency, get_device
from repro.memory import profile_memory
from repro.models import build_model
from repro.quant import (apply_qas, collect_ranges, insert_fake_quant,
                         int8_grid_training_graph, quantize_inference_graph)
from repro.report import render_table
from repro.runtime import Executor
from repro.runtime.compiler import (CompileOptions, compile_inference,
                                    compile_training)
from repro.train import SGD

STEPS = 150
BATCH = 8


def accuracy(program, feeds_name, images, labels):
    executor = Executor(program)
    logits = executor.run({feeds_name: images})[program.outputs[0]]
    return float((logits.argmax(1) == labels).mean())


def main():
    rng = np.random.default_rng(0)
    mcu = get_device("stm32f746")
    forward = build_model("mcunet_micro", batch=BATCH, num_classes=2)
    x_name = forward.inputs[0]
    resolution = forward.spec(x_name).shape[-1]
    task = vision_task("vww", resolution=resolution,
                       n_train=BATCH * 48, n_test=128)

    # -- 1. calibrate ------------------------------------------------------
    calib = [{x_name: images}
             for images, _ in task.batches(BATCH, rng, steps=4)]
    ranges = collect_ranges(forward, calib)
    print(f"Calibrated {len(ranges)} activation ranges "
          f"on {len(calib)} batches")

    # -- 2. int8-grid QAT with QAS ----------------------------------------
    qat = insert_fake_quant(forward, ranges)
    grid = int8_grid_training_graph(qat)
    program = compile_training(grid, optimizer=SGD(0.08))
    n_scaled = apply_qas(program.graph)
    print(f"QAS rescaled {n_scaled} int8-grid parameters")
    executor = Executor(program)
    losses = []
    for images, labels in task.batches(BATCH, rng, steps=STEPS):
        out = executor.run({x_name: images,
                            program.meta["labels"]: labels})
        losses.append(float(out[program.meta["loss"]]))
    print(f"QAT loss: {losses[0]:.3f} -> {losses[-1]:.3f} "
          f"over {len(losses)} steps")

    # -- 3. deploy as pure int8 -------------------------------------------
    tuned = forward.clone()
    for name in tuned.trainable:
        if name in program.state:
            value = program.state[name]
            if name in grid.metadata["int8_grid_params"]:
                # grid weights store W/s (per-channel); undo with the
                # same scale constant the training graph used
                value = value * program.state[f"{name}.scale"]
            tuned.initializers[name] = value.astype(np.float32)
    ranges_tuned = collect_ranges(tuned, calib)
    int8 = quantize_inference_graph(tuned, ranges_tuned)

    test_x, test_y = task.x_test, task.y_test
    float_prog = compile_inference(
        tuned, options=CompileOptions(materialize_state=True))
    # the int8 graph expects the train batch size; evaluate in chunks
    accs = {"fp32": [], "int8": []}
    int8_prog = compile_inference(
        int8, options=CompileOptions(materialize_state=True))
    for start in range(0, len(test_y) - BATCH + 1, BATCH):
        chunk = slice(start, start + BATCH)
        accs["fp32"].append(accuracy(
            float_prog, x_name, test_x[chunk], test_y[chunk]))
        accs["int8"].append(accuracy(
            int8_prog, int8.inputs[0], test_x[chunk], test_y[chunk]))
    print(f"Test accuracy — fp32: {np.mean(accs['fp32']):.2%}, "
          f"int8: {np.mean(accs['int8']):.2%}")

    # -- 4. what int8 buys on the MCU -------------------------------------
    rows = []
    for label, graph in (("fp32", tuned), ("int8", int8)):
        prog = compile_inference(graph, options=CompileOptions(
            device=mcu, materialize_state=False, winograd=False))
        latency = estimate_latency(prog.graph, prog.schedule, mcu)
        arena_bytes = prog.plan_spec().slab_bytes + sum(
            prog.graph.spec(name).nbytes for name in prog.graph.inputs)
        resident = profile_memory(prog.graph, prog.schedule).resident_bytes
        rows.append([
            label, f"{latency.total_ms:.1f}ms",
            f"{arena_bytes / 1024:.1f}KB",
            f"{resident / 1024:.1f}KB",
            "yes" if arena_bytes + resident <= mcu.ram_bytes
            else "NO (OOM)",
        ])
    print()
    print(render_table(
        ["Precision", "latency", "activation arena", "weights",
         "fits 320KB?"], rows,
        title=f"MCUNet-micro inference on {mcu.name} (batch {BATCH})"))


if __name__ == "__main__":
    main()
