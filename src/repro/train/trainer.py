"""Training loop over compiled programs.

The trainer owns a compiled training Program and a weight-sharing inference
Program for evaluation: parameters are numpy arrays mutated in place by the
``apply_*`` kernels, so the evaluation program sees updates immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import ExecutionError
from ..ir import Graph
from ..runtime import Executor, Program
from .metrics import RunningMean, accuracy


def snapshot_weights(program: Program, forward: Graph) -> dict[str, np.ndarray]:
    """Copy the model parameters out of a (trained) program's state."""
    return {
        name: program.state[name].copy()
        for name in forward.initializers
        if name in program.state
    }


def load_checkpoint(forward: Graph, checkpoint: dict[str, np.ndarray]) -> None:
    """Install parameter values into a forward graph **before** compiling.

    Compilation may constant-fold subgraphs that depend only on *frozen*
    weights (paper §3.2: the compiler knows which tensors the scheme
    updates). Folding bakes the weight values in, so checkpoints must be
    loaded into the forward graph prior to ``compile_training`` — loading
    into a compiled program's state would leave stale folded constants.
    """
    for name, value in checkpoint.items():
        if name in forward.initializers:
            forward.initializers[name] = np.array(value, copy=True)


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class Trainer:
    """Step/evaluate driver for a compiled training program."""

    def __init__(self, train_program: Program, forward: Graph,
                 input_name: str | None = None) -> None:
        self.program = train_program
        self.executor = Executor(train_program)
        self.loss_name = train_program.meta["loss"]
        self.labels_name = train_program.meta["labels"]
        data_inputs = [
            name for name in train_program.graph.inputs
            if name != self.labels_name
        ]
        if input_name is None:
            if len(data_inputs) != 1:
                raise ExecutionError(
                    f"cannot infer the data input among {data_inputs}; "
                    "pass input_name"
                )
            input_name = data_inputs[0]
        self.input_name = input_name
        self.history = TrainHistory()

        # Evaluation program sharing the training parameters, compiled
        # knowing which ones training updates. (Imported lazily: the
        # compiler module depends on this package for losses.)
        from ..runtime.compiler import compile_inference

        eval_program = compile_inference(
            forward, updated=train_program.mutable_state_names())
        for name in eval_program.state:
            if name in train_program.state:
                eval_program.state[name] = train_program.state[name]
        self._eval_program = eval_program
        self._eval_executor = Executor(eval_program)
        self._eval_output = eval_program.outputs[0]

    # -- training ------------------------------------------------------------

    def step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimizer step; returns the loss."""
        out = self.executor.run({self.input_name: x, self.labels_name: y})
        loss = float(out[self.loss_name])
        self.history.losses.append(loss)
        return loss

    def fit(self, batches: Iterator[tuple[np.ndarray, np.ndarray]],
            max_steps: int | None = None) -> float:
        """Run through ``batches``; returns the mean loss."""
        mean = RunningMean()
        for step, (x, y) in enumerate(batches):
            if max_steps is not None and step >= max_steps:
                break
            mean.update(self.step(x, y))
        return mean.mean

    # -- evaluation ----------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = self._eval_executor.run({self.input_name: x})
        return out[self._eval_output]

    def evaluate(self, x: np.ndarray, y: np.ndarray,
                 batch_size: int | None = None) -> float:
        """Top-1 accuracy over a dataset."""
        expected = self._eval_program.graph.spec(self.input_name).shape
        batch_size = batch_size or expected[0]
        correct = 0
        total = 0
        for begin in range(0, len(x), batch_size):
            xb = x[begin:begin + batch_size]
            yb = y[begin:begin + batch_size]
            if len(xb) < batch_size:  # pad the tail batch
                pad = batch_size - len(xb)
                xb = np.concatenate([xb, np.repeat(xb[-1:], pad, axis=0)])
            logits = self.predict(xb)[:len(yb)]
            correct += (logits.argmax(axis=-1) == yb).sum()
            total += len(yb)
        acc = float(correct / total) if total else float("nan")
        self.history.eval_accuracy.append(acc)
        return acc

    def mean_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Evaluate the training loss without updating (for loss curves)."""
        # Run the train program on a state copy so apply ops don't move
        # the weights.
        snapshot = {k: v.copy() for k, v in self.program.state.items()}
        out = self.executor.run({self.input_name: x, self.labels_name: y})
        loss = float(out[self.loss_name])
        for key, value in snapshot.items():
            np.copyto(self.program.state[key], value)
        return loss
