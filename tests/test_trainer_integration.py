"""End-to-end integration: trainers on micro models, transfer-learning
ordering (full ~ sparse > bias-only), instruction tuning, scheme search."""

import numpy as np
import pytest

from repro.data import instruction_batches, vision_source, vision_task
from repro.models import build_model, paper_scheme
from repro.runtime.compiler import compile_training
from repro.sparse import UpdateScheme, bias_only, full_update
from repro.train import (SGD, Adam, Trainer, load_checkpoint,
                         perplexity, snapshot_weights)


def _train(forward, scheme, task, steps=60, lr=3e-3, seed=0):
    program = compile_training(forward, optimizer=Adam(lr), scheme=scheme)
    trainer = Trainer(program, forward)
    rng = np.random.default_rng(seed)
    trainer.fit(task.batches(8, rng, steps))
    return trainer


class TestVisionTransfer:
    @pytest.fixture(scope="class")
    def setup(self):
        forward = build_model("mcunet_micro", batch=8, num_classes=10)
        source = vision_source(n_train=192)
        trainer = _train(forward, full_update(forward), source, steps=200)
        return forward, snapshot_weights(trainer.program, forward)

    def _finetune(self, forward, pretrained, scheme, task, steps=320):
        load_checkpoint(forward, pretrained)
        program = compile_training(forward, optimizer=Adam(3.5e-3),
                                   scheme=scheme)
        trainer = Trainer(program, forward)
        rng = np.random.default_rng(1)
        trainer.fit(task.batches(8, rng, steps))
        return trainer.evaluate(task.x_test, task.y_test)

    def test_transfer_ordering_full_sparse_bias(self, setup):
        """The paper's core accuracy claim: sparse ~ full > bias-only.

        Micro-scale models have less redundancy than the paper's, so the
        sparse-vs-full gap is wider than the paper's <1 point; the ordering
        and the bias-only capacity ceiling are the reproduction target.
        """
        forward, pretrained = setup
        task = vision_task("cifar", n_train=256, n_test=128)
        acc_full = self._finetune(forward, pretrained, full_update(forward),
                                  task)
        acc_sparse = self._finetune(forward, pretrained,
                                    paper_scheme(forward), task)
        acc_bias = self._finetune(forward, pretrained, bias_only(forward),
                                  task)
        assert acc_full > 0.6
        assert acc_sparse >= acc_bias - 0.02
        assert acc_sparse >= acc_full - 0.30

    def test_training_reduces_loss_on_every_scheme(self, setup):
        forward, pretrained = setup
        task = vision_task("pets", n_train=96, n_test=48)
        for scheme in (full_update(forward), paper_scheme(forward),
                       bias_only(forward)):
            load_checkpoint(forward, pretrained)
            program = compile_training(forward, optimizer=Adam(2e-3),
                                       scheme=scheme)
            trainer = Trainer(program, forward)
            rng = np.random.default_rng(2)
            losses = [trainer.step(x, y)
                      for x, y in task.batches(8, rng, 30)]
            assert np.mean(losses[-5:]) < np.mean(losses[:5]), scheme.name


class TestTrainerMechanics:
    def test_eval_program_shares_weights(self):
        forward = build_model("mobilenetv2_micro", batch=4, num_classes=4)
        program = compile_training(forward, optimizer=SGD(0.1))
        trainer = Trainer(program, forward)
        x = np.random.default_rng(0).standard_normal((4, 3, 16, 16)) \
            .astype(np.float32)
        before = trainer.predict(x).copy()
        trainer.step(x, np.zeros(4, np.int64))
        after = trainer.predict(x)
        assert not np.allclose(before, after)

    @pytest.mark.parametrize("model", ["mcunet_micro", "mobilenetv2_micro",
                                       "resnet_micro", "bert_micro",
                                       "distilbert_micro", "llama_micro"])
    def test_eval_after_training_equals_a_fresh_inference_compile(
            self, model):
        """After a few sparse steps, the trainer's eval program reads the
        updated weights exactly as a fresh ``compile_inference`` of the
        updated model does: no frozen-weight rewrite of the eval compile
        (a merged Q/K/V weight, a folded constant, a Winograd stem) keeps
        a stale copy of a weight that training moves."""
        from repro.runtime import Executor
        from repro.runtime.compiler import compile_inference

        forward = build_model(model, batch=2)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        labels = program.meta["labels"]
        (name,) = [n for n in program.graph.inputs if n != labels]
        trainer = Trainer(program, forward, input_name=name)
        spec = program.graph.spec(name)
        classes = program.graph.spec(program.meta["logits"]).shape[-1]
        rng = np.random.default_rng(5)

        def batch():
            if spec.dtype.is_float:
                return rng.standard_normal(spec.shape).astype(np.float32)
            return rng.integers(0, classes, spec.shape)

        for _ in range(3):
            trainer.step(batch(), rng.integers(
                0, classes, program.graph.spec(labels).shape))
        x = batch()
        got = trainer.predict(x)
        updated = build_model(model, batch=2)
        load_checkpoint(updated, snapshot_weights(program, forward))
        fresh = compile_inference(updated)
        want = Executor(fresh).run({name: x})[fresh.outputs[0]]
        assert got.tobytes() == want.tobytes()

    def test_evaluate_handles_ragged_tail(self):
        forward = build_model("mobilenetv2_micro", batch=4, num_classes=4)
        program = compile_training(forward, optimizer=SGD(0.1))
        trainer = Trainer(program, forward)
        x = np.zeros((6, 3, 16, 16), np.float32)  # not a multiple of 4
        y = np.zeros(6, np.int64)
        acc = trainer.evaluate(x, y)
        assert 0.0 <= acc <= 1.0

    def test_mean_loss_does_not_move_weights(self):
        forward = build_model("mobilenetv2_micro", batch=4, num_classes=4)
        program = compile_training(forward, optimizer=SGD(0.5))
        trainer = Trainer(program, forward)
        w = program.state["stem.weight"].copy()
        trainer.mean_loss(np.zeros((4, 3, 16, 16), np.float32),
                          np.zeros(4, np.int64))
        np.testing.assert_array_equal(program.state["stem.weight"], w)

    def test_history_tracks_losses(self):
        forward = build_model("mobilenetv2_micro", batch=4, num_classes=4)
        program = compile_training(forward, optimizer=SGD(0.1))
        trainer = Trainer(program, forward)
        trainer.step(np.zeros((4, 3, 16, 16), np.float32),
                     np.zeros(4, np.int64))
        assert len(trainer.history.losses) == 1


class TestInstructionTuning:
    def test_llama_micro_perplexity_drops(self):
        forward = build_model("llama_micro", batch=4, seq_len=24)
        tok, batches, (x_test, y_test) = instruction_batches(
            seq_len=24, batch_size=4, steps=120, seed=0)
        program = compile_training(forward, optimizer=Adam(2e-3),
                                   scheme=full_update(forward))
        trainer = Trainer(program, forward, input_name="ids")

        def heldout_nll():
            total, count = 0.0, 0
            for i in range(0, len(x_test) - 3, 4):
                total += trainer.mean_loss(x_test[i:i + 4], y_test[i:i + 4])
                count += 1
            return total / count

        before = perplexity(heldout_nll())
        trainer.fit(batches)
        after = perplexity(heldout_nll())
        assert after < before * 0.8

    def test_sparse_llama_close_to_full_from_pretrained(self):
        """From a pre-trained checkpoint, sparse fine-tuning tracks full
        fine-tuning (paper Table 5: losses 0.768 vs 0.779)."""
        forward = build_model("llama_micro", batch=4, seq_len=24)
        # "Pre-train" with full BP on the corpus.
        tok, batches, (x_test, y_test) = instruction_batches(
            seq_len=24, batch_size=4, steps=150, seed=0)
        pre = compile_training(forward, optimizer=Adam(2e-3),
                               scheme=full_update(forward))
        pre_tr = Trainer(pre, forward, input_name="ids")
        pre_tr.fit(batches)
        checkpoint = snapshot_weights(pre, forward)

        results = {}
        for name, scheme in (("full", full_update(forward)),
                             ("sparse", paper_scheme(forward))):
            _, more, _ = instruction_batches(seq_len=24, batch_size=4,
                                             steps=60, seed=1)
            load_checkpoint(forward, checkpoint)
            program = compile_training(forward, optimizer=Adam(1e-3),
                                       scheme=scheme)
            trainer = Trainer(program, forward, input_name="ids")
            trainer.fit(more)
            results[name] = trainer.mean_loss(x_test[:4], y_test[:4])
        assert results["sparse"] < results["full"] * 1.35
