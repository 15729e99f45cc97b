"""Optimizer apply kernels: math vs reference, in-place and sliced updates."""

import numpy as np
import pytest

from repro.kernels import run_op


class TestSGD:
    def test_plain(self):
        p = np.array([1.0, 2.0], np.float32)
        g = np.array([0.5, -1.0], np.float32)
        run_op("apply_sgd", [p, g], {"lr": 0.1})
        np.testing.assert_allclose(p, [0.95, 2.1], atol=1e-6)

    def test_momentum(self):
        p = np.zeros(2, np.float32)
        m = np.zeros(2, np.float32)
        g = np.ones(2, np.float32)
        run_op("apply_sgd", [p, g, m], {"lr": 0.1, "momentum": 0.9})
        run_op("apply_sgd", [p, g, m], {"lr": 0.1, "momentum": 0.9})
        # v1 = 1, v2 = 1.9 -> p = -(0.1 + 0.19)
        np.testing.assert_allclose(p, [-0.29, -0.29], atol=1e-6)

    def test_weight_decay(self):
        p = np.array([10.0], np.float32)
        g = np.zeros(1, np.float32)
        run_op("apply_sgd", [p, g], {"lr": 0.1, "weight_decay": 0.1})
        np.testing.assert_allclose(p, [10.0 - 0.1 * 1.0], atol=1e-6)

    def test_inplace(self):
        p = np.zeros(3, np.float32)
        [out] = run_op("apply_sgd", [p, np.ones(3, np.float32)], {"lr": 1.0})
        assert out is p

    def test_slice_update_touches_only_prefix(self):
        p = np.zeros((4, 2), np.float32)
        g = np.ones((2, 2), np.float32)
        run_op("apply_sgd", [p, g], {"lr": 1.0, "slice_k": 2,
                                     "slice_axis": 0})
        assert (p[:2] == -1).all()
        assert (p[2:] == 0).all()

    def test_slice_axis1_for_conv(self):
        p = np.zeros((3, 4, 1, 1), np.float32)
        g = np.ones((3, 2, 1, 1), np.float32)
        run_op("apply_sgd", [p, g], {"lr": 1.0, "slice_k": 2,
                                     "slice_axis": 1})
        assert (p[:, :2] == -1).all() and (p[:, 2:] == 0).all()


class TestAdam:
    def test_first_step_equals_lr_sign(self):
        p = np.zeros(2, np.float32)
        g = np.array([3.0, -7.0], np.float32)
        m = np.zeros(2, np.float32)
        v = np.zeros(2, np.float32)
        t = np.zeros(1, np.float32)
        run_op("apply_adam", [p, g, m, v, t],
               {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8})
        # With bias correction, first Adam step is ~ -lr * sign(g).
        np.testing.assert_allclose(p, [-0.01, 0.01], atol=1e-4)
        assert t[0] == 1.0

    def test_matches_reference_over_steps(self, rng):
        p = rng.standard_normal(5).astype(np.float32)
        ref_p = p.copy().astype(np.float64)
        m = np.zeros(5, np.float32)
        v = np.zeros(5, np.float32)
        t = np.zeros(1, np.float32)
        ref_m = np.zeros(5)
        ref_v = np.zeros(5)
        for step in range(1, 6):
            g = rng.standard_normal(5).astype(np.float32)
            run_op("apply_adam", [p, g, m, v, t],
                   {"lr": 0.1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8})
            ref_m = 0.9 * ref_m + 0.1 * g
            ref_v = 0.999 * ref_v + 0.001 * g * g
            mh = ref_m / (1 - 0.9 ** step)
            vh = ref_v / (1 - 0.999 ** step)
            ref_p -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p, ref_p, atol=1e-4)


class TestLion:
    def test_sign_update(self):
        p = np.zeros(3, np.float32)
        g = np.array([5.0, -0.1, 0.0], np.float32)
        m = np.zeros(3, np.float32)
        run_op("apply_lion", [p, g, m], {"lr": 0.1, "beta1": 0.9,
                                         "beta2": 0.99})
        np.testing.assert_allclose(p, [-0.1, 0.1, 0.0], atol=1e-6)

    def test_momentum_update(self):
        p = np.zeros(1, np.float32)
        g = np.ones(1, np.float32)
        m = np.zeros(1, np.float32)
        run_op("apply_lion", [p, g, m], {"lr": 0.1, "beta1": 0.9,
                                         "beta2": 0.99})
        np.testing.assert_allclose(m, [0.01], atol=1e-7)

    def test_single_state_buffer_vs_adam_two(self):
        from repro.train import Adam, Lion

        assert Lion().state_slots == 1
        assert Adam().state_slots == 2


def _state(op, shape, accum_steps=1):
    """Zeroed optimizer state in kernel input order (after param, grad)."""
    state = [np.zeros(shape, np.float32)
             for _ in range(2 if op == "apply_adam" else 1)]
    if op == "apply_adam":
        state.append(np.zeros(1, np.float32))
    if accum_steps > 1:
        state += [np.zeros(shape, np.float32), np.zeros(1, np.float32)]
    return state


def _reference_run(op, hyper, shape, steps=50, seed=0):
    """Run ``op`` for ``steps`` random gradients next to a float64
    textbook implementation; returns (kernel param, reference param)."""
    rng = np.random.default_rng(seed)
    k, axis = hyper.get("slice_k"), hyper.get("slice_axis", 0)
    gshape = list(shape)
    index = [slice(None)] * len(shape)
    if k is not None:
        gshape[axis] = k
        index[axis] = slice(0, k)
    index = tuple(index)
    n = hyper.get("accum_steps", 1)
    lr, wd = hyper["lr"], hyper.get("weight_decay", 0.0)
    b1, b2 = hyper["beta1"], hyper["beta2"]

    p = rng.standard_normal(shape).astype(np.float32)
    ref = p.astype(np.float64)
    frozen = p.copy()
    state = _state(op, gshape, n)
    ref_m, ref_v, t = np.zeros(gshape), np.zeros(gshape), 0
    pending = []
    for _ in range(steps):
        g = rng.standard_normal(gshape).astype(np.float32)
        [out] = run_op(op, [p, g, *state], dict(hyper))
        assert out is p
        pending.append(g.astype(np.float64))
        if len(pending) < n:
            continue
        grad = sum(pending) / n
        pending = []
        t += 1
        if op == "apply_adam":
            grad = grad + wd * ref[index]  # L2; Lion's decay is decoupled
            ref_m = b1 * ref_m + (1 - b1) * grad
            ref_v = b2 * ref_v + (1 - b2) * grad * grad
            mhat, vhat = ref_m / (1 - b1 ** t), ref_v / (1 - b2 ** t)
            ref[index] -= lr * mhat / (np.sqrt(vhat) + hyper["eps"])
        else:
            update = np.sign(b1 * ref_m + (1 - b1) * grad)
            ref[index] -= lr * (update + wd * ref[index])
            ref_m = b2 * ref_m + (1 - b2) * grad
    if k is not None:
        # the rest of the parameter is frozen: not one bit may change
        untouched = np.ones(shape, bool)
        untouched[index] = False
        assert p[untouched].tobytes() == frozen[untouched].tobytes()
    if op == "apply_adam":
        assert state[2][0] == t
    return p, ref


ADAM = {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
LION = {"lr": 0.01, "beta1": 0.9, "beta2": 0.99}
VARIANTS = [
    {}, {"weight_decay": 0.1}, {"accum_steps": 3},
    {"slice_k": 3, "slice_axis": 0}, {"slice_k": 2, "slice_axis": 1},
    {"slice_k": 2, "slice_axis": 1, "weight_decay": 0.05, "accum_steps": 3},
]


class TestAgainstFloat64Reference:
    @pytest.mark.parametrize("extra", VARIANTS)
    def test_adam(self, extra):
        p, ref = _reference_run("apply_adam", {**ADAM, **extra}, (6, 5))
        np.testing.assert_allclose(p, ref, rtol=0, atol=2e-5)

    @pytest.mark.parametrize("extra", VARIANTS)
    def test_lion(self, extra):
        p, ref = _reference_run("apply_lion", {**LION, **extra}, (6, 5))
        np.testing.assert_allclose(p, ref, rtol=0, atol=2e-5)

    @pytest.mark.parametrize("wd", [0.0, 0.1])
    def test_lion_keeps_the_textbook_bits(self, rng, wd):
        p = rng.standard_normal((7, 3)).astype(np.float32)
        m = rng.standard_normal((7, 3)).astype(np.float32)
        g = rng.standard_normal((7, 3)).astype(np.float32)
        want_p, want_m = p.copy(), m.copy()
        update = np.sign(0.9 * want_m + (1 - 0.9) * g)
        if wd:
            update = update + wd * want_p
        want_p -= 0.01 * update
        want_m *= 0.99
        want_m += (1 - 0.99) * g
        run_op("apply_lion", [p, g, m], {**LION, "weight_decay": wd})
        assert p.tobytes() == want_p.tobytes()
        assert m.tobytes() == want_m.tobytes()


class TestScratchBudget:
    """Temporaries live in gradient-shaped scratch that is reused, not in
    a fresh array per arithmetic op."""

    SHAPE = (256, 256)

    def _peak_arrays(self, op, attrs):
        import tracemalloc

        rng = np.random.default_rng(0)
        p = rng.standard_normal(self.SHAPE).astype(np.float32)
        g = rng.standard_normal(self.SHAPE).astype(np.float32)
        state = _state(op, self.SHAPE)
        run_op(op, [p, g, *state], attrs)  # warm: imports, caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_op(op, [p, g, *state], attrs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / g.nbytes

    def test_adam_uses_one_scratch_buffer(self):
        assert 0.9 < self._peak_arrays("apply_adam", ADAM) < 1.1

    def test_adam_weight_decay_adds_the_decayed_gradient(self):
        peak = self._peak_arrays("apply_adam",
                                 {**ADAM, "weight_decay": 0.1})
        assert 1.9 < peak < 2.1

    @pytest.mark.parametrize("wd", [0.0, 0.1])
    def test_lion_uses_two(self, wd):
        # the interpolation and its sign: np.sign written over its own
        # input leaves numpy's vectorised loop
        peak = self._peak_arrays("apply_lion",
                                 {**LION, "weight_decay": wd})
        assert 1.9 < peak < 2.1


class TestHalfPrecisionCounters:
    """float16 cannot count past 2048 (2048 + 1 == 2048): the step and
    micro-step counters are float32 whatever the state dtype."""

    def _graph(self, spec):
        from repro.ir import GraphBuilder
        from repro.train.optim import attach_optimizer

        b = GraphBuilder("g")
        b.initializer("w", np.zeros((4, 2), np.float16), trainable=True)
        b.initializer("w_grad", np.ones((4, 2), np.float16))
        attach_optimizer(b, {"w": "w_grad"}, spec)
        return b.graph.initializers

    def test_counters_are_declared_float32(self):
        from repro.train import SGD, Adam

        state = self._graph(Adam(accum_steps=3))
        assert state["w.m"].dtype == state["w.v"].dtype == np.float16
        assert state["w.accum"].dtype == np.float16
        assert state["w.t"].dtype == state["w.tick"].dtype == np.float32
        state = self._graph(SGD(0.1, momentum=0.9, accum_steps=2))
        assert state["w.momentum"].dtype == np.float16
        assert state["w.tick"].dtype == np.float32

    def test_adam_step_counts_past_2048(self):
        from repro.train import Adam

        state = self._graph(Adam())
        p = np.zeros((4, 2), np.float16)
        g = np.ones((4, 2), np.float16)
        m, v = state["w.m"].copy(), state["w.v"].copy()
        t = state["w.t"].copy()
        t[0] = 2047
        for _ in range(3):
            run_op("apply_adam", [p, g, m, v, t], ADAM)
        assert t[0] == 2050

    def test_accumulation_gate_keeps_opening_past_2048(self):
        from repro.train import SGD

        state = self._graph(SGD(0.5, accum_steps=3))
        p = np.zeros((4, 2), np.float16)
        g = np.ones((4, 2), np.float16)
        accum, tick = state["w.accum"].copy(), state["w.tick"].copy()
        tick[0] = 2046  # a multiple of 3: the accumulator starts empty
        applied = []
        for _ in range(6):
            run_op("apply_sgd", [p, g, accum, tick],
                   {"lr": 0.5, "accum_steps": 3})
            applied.append(float(p[0, 0]))
        # ticks 2047..2052: the gate opens at 2049 and at 2052
        assert tick[0] == 2052
        assert applied == [0, 0, -0.5, -0.5, -0.5, -1.0]
