"""Cross-cutting property-based tests on compiler invariants.

These pin down the invariants everything else relies on:

* any valid schedule of the same graph computes the same outputs,
* the memory-aware schedule never exceeds the naive schedule's peak,
* full serialization round-trips random graphs exactly,
* reordering the optimizer applies does not change the trained weights,
* pruned-sparse and masked-sparse training move shared parameters
  identically (the paper's correctness premise for graph pruning).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import GraphBuilder, graph_from_dict, graph_to_dict, \
    validate_graph
from repro.memory import profile_memory
from repro.passes import default_schedule, memory_aware_schedule
from repro.runtime import Executor, Program
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import UpdateScheme
from repro.train import SGD

from conftest import make_mlp_graph
from test_plan import fork, shares_no_bytes


def random_dag(seed: int, trained: bool = False) -> tuple:
    """A random elementwise/matmul DAG over a (4, 6) input: tanh, add,
    matmul, sigmoid, silu and gelu. ``trained`` roots it at ``x @ w_in``
    instead of ``x``, so every value has a trainable weight behind it."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("g")
    x = b.input("x", (4, 6))
    pool = [x]
    if trained:
        w_in = b.initializer("w_in", rng.standard_normal((6, 6)).astype(
            np.float32) * 0.3, trainable=True)
        pool = [b.matmul(x, w_in)]
    for i in range(int(rng.integers(3, 10))):
        pick = pool[int(rng.integers(len(pool)))]
        kind = rng.integers(0, 6)
        if kind == 0:
            pool.append(b.emit("tanh", [pick]))
        elif kind == 4:
            pool.append(b.emit("silu", [pick]))
        elif kind == 5:
            pool.append(b.emit("gelu", [pick]))
        elif kind == 1:
            other = pool[int(rng.integers(len(pool)))]
            pool.append(b.add(pick, other))
        elif kind == 2:
            w = b.initializer(f"w{i}", rng.standard_normal(
                (6, 6)).astype(np.float32) * 0.3, trainable=True)
            pool.append(b.matmul(pick, w))
        else:
            pool.append(b.emit("sigmoid", [pick]))
    b.mark_output(pool[-1])
    feed = rng.standard_normal((4, 6)).astype(np.float32)
    return b.graph, feed


@given(st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_any_valid_schedule_computes_same_outputs(seed):
    graph, feed = random_dag(seed)
    out_name = graph.outputs[0]
    baseline = Executor(Program.from_graph(graph)).run({"x": feed})[out_name]
    smart = memory_aware_schedule(graph)
    program = Program.from_graph(graph, smart)
    program.validate_schedule()
    result = Executor(program).run({"x": feed})[out_name]
    np.testing.assert_allclose(result, baseline, atol=1e-6)


@given(st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_memory_aware_schedule_never_worse(seed):
    graph, _ = random_dag(seed)
    naive = profile_memory(graph, default_schedule(graph))
    smart = profile_memory(graph, memory_aware_schedule(graph))
    assert smart.peak_transient_bytes <= naive.peak_transient_bytes


@given(st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_serialization_roundtrip_random_graphs(seed):
    graph, feed = random_dag(seed)
    back = graph_from_dict(graph_to_dict(graph))
    validate_graph(back)
    out = graph.outputs[0]
    a = Executor(Program.from_graph(graph)).run({"x": feed})[out]
    c = Executor(Program.from_graph(back)).run({"x": feed})[out]
    np.testing.assert_allclose(a, c, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reordering_does_not_change_training_result(seed):
    """Applying each gradient immediately vs holding all gradients until a
    final optimizer phase must produce identical weights: the gradients are
    all computed from the same (pre-update) forward pass either way."""
    feeds = {
        "x": np.random.default_rng(seed).standard_normal(
            (4, 5)).astype(np.float32),
        "labels": np.array([0, 1, 2, 0], np.int64),
    }
    states = {}
    for reorder in (True, False):
        b, _ = make_mlp_graph(seed=seed)
        program = compile_training(
            b.graph, optimizer=SGD(0.1, momentum=0.9),
            options=CompileOptions(reorder=reorder,
                                   applies_last=not reorder))
        ex = Executor(program)
        for _ in range(5):
            ex.run(feeds)
        states[reorder] = program.state
    for key in states[True]:
        np.testing.assert_allclose(states[True][key], states[False][key],
                                   atol=1e-5, err_msg=key)


@pytest.mark.parametrize("scheme_updates", [
    {"w2": 1.0, "b2": 1.0},
    {"b1": 1.0, "b2": 1.0},
    {"w1": 1.0, "b1": 1.0, "w2": 1.0, "b2": 1.0},
])
def test_pruned_equals_masked_on_shared_params(scheme_updates):
    """Graph pruning is purely an efficiency transform: the parameters a
    scheme updates receive exactly the gradients masked (full-compute)
    training would give them."""
    feeds = {
        "x": np.random.default_rng(7).standard_normal(
            (4, 5)).astype(np.float32),
        "labels": np.array([1, 0, 2, 1], np.int64),
    }
    scheme = UpdateScheme("s", scheme_updates)
    results = {}
    for masked in (False, True):
        b, _ = make_mlp_graph(seed=3)
        program = compile_training(
            b.graph, optimizer=SGD(0.2), scheme=scheme,
            options=CompileOptions(masked_sparse=masked))
        ex = Executor(program)
        for _ in range(3):
            ex.run(feeds)
        results[masked] = program.state
    for param in scheme_updates:
        np.testing.assert_allclose(results[False][param],
                                   results[True][param], atol=1e-5,
                                   err_msg=param)


@given(st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_executor_peak_matches_profiler_on_random_graphs(seed):
    """The interpreter replicates the analytic profiler byte-exactly, and
    so does the unoptimized plan when no value of it shares bytes; the
    plan's peak can only be lower otherwise — an alias or an in-place
    reuse is counted once, and fused chains drop intermediates the
    profiler still sees."""
    from repro.runtime import build_plan_spec

    graph, feed = random_dag(seed)
    schedule = memory_aware_schedule(graph)
    program = Program.from_graph(graph, schedule)
    ex_int = Executor(program, backend="interpreter")
    ex_int.run({"x": feed})
    profile = profile_memory(graph, schedule)
    assert ex_int.peak_transient_bytes == profile.peak_transient_bytes
    baseline = build_plan_spec(program, passes="none")
    if shares_no_bytes(baseline):
        assert baseline.peak_transient_bytes == profile.peak_transient_bytes
    else:
        assert baseline.peak_transient_bytes <= profile.peak_transient_bytes
    ex_plan = Executor(program)
    ex_plan.run({"x": feed})
    assert ex_plan.peak_transient_bytes <= profile.peak_transient_bytes


@given(st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_trained_plan_equals_interpreter_on_random_graphs(seed):
    """Trained through whatever the generator drew — the silu and gelu
    adjoints among it — the optimized plan and the interpreter step to
    the same bytes."""
    graph, feed = random_dag(seed, trained=True)
    program = compile_training(graph, loss="mse",
                               optimizer=SGD(0.1, momentum=0.9),
                               scheme=UpdateScheme("w_in", {"w_in": 1.0}))
    labels = program.meta["labels"]
    rng = np.random.default_rng(seed)
    plan = Executor(fork(program))
    interp = Executor(fork(program), backend="interpreter")
    for _ in range(2):
        feeds = {"x": feed, labels: rng.standard_normal(
            program.graph.spec(labels).shape).astype(np.float32)}
        got, want = plan.run(feeds), interp.run(feeds)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
    for name in program.state:
        assert plan.program.state[name].tobytes() \
            == interp.program.state[name].tobytes(), name


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_artifact_roundtrip_random_graphs(seed):
    """save_artifact/load_artifact preserves outputs for arbitrary DAGs."""
    import tempfile

    from repro.deploy import load_artifact, save_artifact

    graph, feed = random_dag(seed)
    program = Program.from_graph(graph)
    with tempfile.TemporaryDirectory() as root:
        save_artifact(program, root)
        deployed = load_artifact(root)
        want = Executor(program).run({"x": feed})
        got = deployed.run({"x": feed})
        for name in program.outputs:
            np.testing.assert_allclose(want[name], got[name], rtol=1e-6)


@given(st.integers(0, 1000), st.floats(0.4, 0.95))
@settings(max_examples=10, deadline=None)
def test_remat_equivalence_on_random_graphs(seed, fraction):
    """Rematerialization preserves outputs on arbitrary DAGs too, not
    just on training graphs."""
    from repro.memory import rematerialize

    graph, feed = random_dag(seed)
    schedule = graph.topological_order()
    base = profile_memory(graph, schedule)
    result = rematerialize(graph, schedule,
                           int(base.peak_total_bytes * fraction))
    validate_graph(result.graph)
    want = Executor(Program.from_graph(graph, schedule)).run({"x": feed})
    got = Executor(Program.from_graph(result.graph, result.schedule)) \
        .run({"x": feed})
    for name in graph.outputs:
        np.testing.assert_allclose(want[name], got[name], rtol=1e-5)


@given(st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_arena_plan_never_overlaps_random_graphs(seed):
    from repro.analysis import verify_program

    graph, _ = random_dag(seed)
    schedule = memory_aware_schedule(graph)
    program = Program.from_graph(graph, schedule)
    # slab-overlap / slab-layout / alias-lifetime among the rules
    assert verify_program(program) == []
    peak = profile_memory(graph, schedule).peak_transient_bytes
    # The slab pads for alignment but stays near what is live at once.
    assert 0 <= program.plan_spec().slab_bytes <= max(4 * peak, 1024)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_keras_dense_stack_shapes_match_trace(units1, units2, batch):
    """Layer-spec shape inference always agrees with traced-graph shapes."""
    from repro.frontend.keras_like import Dense, build_sequential

    graph = build_sequential([Dense(units1, activation="relu"),
                              Dense(units2)], (batch, 7))
    assert graph.spec(graph.outputs[0]).shape == (batch, units2)
    validate_graph(graph)


@given(st.integers(0, 500))
@settings(max_examples=10, deadline=None)
def test_rewrite_pass_preserves_random_dag_outputs(seed):
    from repro.passes import AlgebraicRewritePass, PassContext

    graph, feed = random_dag(seed)
    want = Executor(Program.from_graph(graph)).run({"x": feed})
    AlgebraicRewritePass().run(graph, PassContext())
    validate_graph(graph)
    got = Executor(Program.from_graph(graph)).run({"x": feed})
    for name in graph.outputs:
        np.testing.assert_allclose(want[name], got[name], rtol=1e-5)
