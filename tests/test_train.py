from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import qgns.executor as executor
import qgns.train as train
from qgns import (DataItem, Dataset, EdgeConvention, Graph, ModelSpec, TrainConfig, accuracy,
                  encode_features, fit, gradient, initial_model, load_dataset, loss,
                  params_of, save_dataset, to_edge_list, toy_node_dataset, with_params)
from qgns.executor import (compile_circuit, draw_readouts, exact_readouts, gate_program,
                           param_rows)

from helpers import (FINITE, graphs, item_grad_oracle, layer_params, layered_circuit_oracle,
                     model_circuit, pshift_gradient_oracle, random_graph, rotated_p1,
                     row_losses_oracle, zz_oracle)

PI = math.pi


def edgeless_model(n: int, theta_row=None) -> ModelSpec:
    g = Graph(n)
    theta = np.zeros((1, n)) if theta_row is None else np.array([theta_row])
    return ModelSpec(g, 1, theta, np.zeros((1, 0)))


def test_loss_zero_on_perfect_mse_predictions():
    # features (0, 1) angle-encode to |0>, |1>: Z-basis p1 hits the labels exactly
    model = edgeless_model(2)
    ds = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (0, 1)),), node_basis="Z")
    cfg = TrainConfig(loss="mse")
    assert loss(model, ds, cfg) == pytest.approx(0.0, abs=1e-20)


def test_loss_ln2_at_maximal_uncertainty():
    # constant features encode to pi/2 (|+>), so Z readout sits at p1 = 1/2
    model = edgeless_model(2)
    ds = Dataset("node", (DataItem(Graph(2), [0.4, 0.4], (0, 1)),), node_basis="Z")
    assert loss(model, ds, TrainConfig()) == pytest.approx(math.log(2.0))


def test_loss_single_node_closed_form():
    # one qubit at total angle pi/2 + t: p1 = (1 - cos(pi/2 + t))/2, label 1
    t = 0.8
    model = edgeless_model(1, [t])
    ds = Dataset("node", (DataItem(Graph(1), [0.3], (1,)),), node_basis="Z")
    p1 = (1.0 - math.cos(PI / 2 + t)) / 2.0
    assert loss(model, ds, TrainConfig()) == pytest.approx(-math.log(p1))


def test_loss_edge_task_mse():
    g = Graph.from_edges(2, [(0, 1)])
    model = initial_model(g)
    ds = Dataset("edge", (DataItem(g, [0.2, 0.9], (0.25,)),))
    s = model_circuit(model, np.array([0.2, 0.9]))
    from qgns import edge_readout
    expected = (edge_readout(s, 0, 1) - 0.25) ** 2
    assert loss(model, ds, TrainConfig()) == pytest.approx(expected)


def test_loss_graph_task_with_prototypes():
    g = Graph.from_edges(2, [(0, 1)])
    items = (DataItem(g, [0.1, 0.9], 0), DataItem(g, [0.9, 0.1], 1))
    ds = Dataset("graph", items)
    model = initial_model(g)
    value = loss(model, ds, TrainConfig())
    assert math.isfinite(value) and value > 0
    protos = train.class_prototypes(ds)
    assert len(protos) == 2


def test_class_prototypes_require_every_class():
    g = Graph(2)
    ds = Dataset("graph", (DataItem(g, [0.1, 0.2], 1),))
    with pytest.raises(ValueError, match="class 0"):
        train.class_prototypes(ds)


def test_graph_mismatch_rejected(k2):
    ds = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (0, 1)),))
    with pytest.raises(ValueError, match="graph"):
        loss(initial_model(k2), ds, TrainConfig())


def test_label_arity_checked(k2):
    with pytest.raises(ValueError, match="labels"):
        Dataset("node", (DataItem(k2, [0.0, 1.0], (0, 1, 1)),))
    with pytest.raises(ValueError, match="targets"):
        Dataset("edge", (DataItem(k2, [0.0, 1.0], (0.1, 0.2)),))
    with pytest.raises(ValueError, match="class index"):
        Dataset("graph", (DataItem(k2, [0.0, 1.0], (1,)),))


def test_node_labels_must_lie_in_the_unit_interval(k2):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for labels, bad in [((5, -2, 1), "items[1].labels[0]"), ((0, 1.5, None), "labels[1]"),
                        ((None, 0, math.nan), "labels[2]")]:
        items = (DataItem(g, [0.1, 0.2, 0.3], (0, 1, None)), DataItem(g, [0.3, 0.2, 0.1], labels))
        with pytest.raises(ValueError, match=re.escape(bad) + r" must be in \[0, 1\]"):
            Dataset("node", items, node_basis="Z")
    Dataset("node", (DataItem(g, [0.1, 0.2, 0.3], (0, 0.25, 1.0)),))
    Dataset("edge", (DataItem(k2, [0.1, 0.2], (5.0,)),))  # edge targets are any reals


def test_a_bool_is_never_a_label(k2):
    for task, labels, bad in [("node", (True, 0), "items[0].labels[0] must be a number"),
                              ("edge", (False,), "items[0].labels[0] must be a number"),
                              ("graph", True, "items[0].labels must be a nonnegative class")]:
        with pytest.raises(ValueError, match=re.escape(bad)):
            Dataset(task, (DataItem(k2, [0.1, 0.2], labels),))


def test_node_basis_must_be_y_or_z(k2):
    # checked for every task: the dataset file writes the field for each one
    for task, labels in [("node", (0, 1)), ("edge", (0.5,)), ("graph", 0)]:
        for basis in ("X", "Q", "z", None):
            with pytest.raises(ValueError, match=f"node_basis must be 'Y' or 'Z', got {basis!r}"):
                Dataset(task, (DataItem(k2, [0.1, 0.2], labels),), node_basis=basis)
        for basis in ("Y", "Z"):
            assert Dataset(task, (DataItem(k2, [0.1, 0.2], labels),), node_basis=basis)


def test_gradient_zero_for_unused_parameter():
    # only node 0 is labeled on an edgeless graph, so theta[0, 1] is inert
    model = edgeless_model(2, [0.3, 1.1])
    ds = Dataset("node", (DataItem(Graph(2), [0.2, 0.8], (1, None)),), node_basis="Z")
    for method in ("fd", "pshift"):
        grad = gradient(model, ds, TrainConfig(grad=method))
        assert abs(grad[1]) < 1e-9


def test_analytic_expectation_derivative():
    # total Ry angle pi/3 on one qubit: d<Z>/dtheta = -sin(pi/3); the shift
    # rule on the p1 readout gives dp1 = -dE/2
    target = PI / 3
    model = edgeless_model(1, [target - PI / 2])  # constant feature adds pi/2
    ds = Dataset("node", (DataItem(Graph(1), [0.5], (1,)),), node_basis="Z")
    assert model.theta[0, 0] + encode_features(ds.items[0].features)[0] == \
        pytest.approx(target)
    rows = np.tile(params_of(model), (2, 1))
    rows[:, 0] += [PI / 2, -PI / 2]
    circuit = compile_circuit(model, ds)
    values = draw_readouts(exact_readouts(circuit, param_rows(circuit.program, rows)),
                           circuit)[0]
    dp1 = 0.5 * (values[0, 0] - values[1, 0])
    d_expectation = -2.0 * dp1
    assert d_expectation == pytest.approx(-math.sin(target), abs=1e-8)


@pytest.mark.parametrize("task", ["node", "edge"])
def test_param_shift_matches_finite_differences(rng, task):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for _ in range(4):
        theta = rng.uniform(-1.5, 1.5, (2, 4))
        weights = rng.uniform(0.0, 2 * PI, (2, 4))
        model = ModelSpec(g, 2, theta, weights)
        feats = rng.uniform(0.0, 1.0, 4)
        if task == "node":
            labels = tuple(int(b) for b in rng.integers(0, 2, 4))
        else:
            labels = tuple(float(t) for t in rng.uniform(-1, 1, 4))
        ds = Dataset(task, (DataItem(g, feats, labels),))
        g_fd = gradient(model, ds, TrainConfig(grad="fd"))
        g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
        assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_param_shift_shared_weights(rng):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    model = ModelSpec(g, 2, rng.uniform(-1, 1, (2, 3)),
                      rng.uniform(0, 3, (1, 2)), shared_weights=True)
    ds = Dataset("node", (DataItem(g, rng.uniform(0, 1, 3), (1, 0, 1)),))
    g_fd = gradient(model, ds, TrainConfig(grad="fd"))
    g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
    assert g_fd.size == model.theta.size + 2
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_param_shift_ising_convention(rng):
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    model = ModelSpec(g, 1, rng.uniform(-1, 1, (1, 3)),
                      rng.uniform(0, 3, (1, 2)), convention=EdgeConvention.ISING_ZZ)
    ds = Dataset("node", (DataItem(g, rng.uniform(0, 1, 3), (0, 1, 0)),))
    g_fd = gradient(model, ds, TrainConfig(grad="fd"))
    g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 2),
       shared=st.booleans(), convention=st.sampled_from(list(EdgeConvention)),
       readout=st.sampled_from(["Y", "Z", "ZZ"]))
def test_model_values_run_the_models_own_convention(seed, n, m, shared, convention, readout):
    # the convention is a model field: model_values, given nothing else, reads
    # the circuit whose entanglers are that convention's gates
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max(n, 2) if readout == "ZZ" else n, weighted=True, p_edge=0.7)
    if readout == "ZZ" and not g.n_edges:
        g = Graph.from_edges(g.n_vertices, [(0, 1, 0.4)])
    n, e = g.n_vertices, g.n_edges
    model = ModelSpec(g, m, rng.uniform(-PI, PI, (m, n)),
                      rng.uniform(0.0, 2 * PI, (1 if shared else m, e)), shared_weights=shared,
                      convention=convention)
    items = tuple(DataItem(g, rng.uniform(0, 1, n),
                           tuple(rng.uniform(-1, 1, e)) if readout == "ZZ" else (1,) * n)
                  for _ in range(2))
    ds = Dataset("edge" if readout == "ZZ" else "node", items,
                 node_basis="Z" if readout == "Z" else "Y")
    values = train.model_values(model, ds, TrainConfig(), picks=[slice(None)] * len(items))
    angles, weights = layer_params(model, params_of(model)[None])
    for item, vals in zip(items, values):
        total = angles[0].copy()
        total[0] += encode_features(item.features)
        s = layered_circuit_oracle(g, total, weights[0], convention)
        expected = ([zz_oracle(s, u, v) for u, v, _ in g.edges] if readout == "ZZ"
                    else [rotated_p1(s, v, readout) for v in range(n)])
        assert np.max(np.abs(vals[0] - expected)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 3),
       shared=st.booleans(), convention=st.sampled_from(list(EdgeConvention)),
       readout=st.sampled_from(["Y", "Z", "ZZ"]))
def test_gate_program_slots_and_the_shift_rule_it_drives(seed, n, m, shared, convention,
                                                         readout):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weighted=True)
    e = g.n_edges
    model = ModelSpec(g, m, rng.uniform(-1.5, 1.5, (m, n)),
                      rng.uniform(0.0, 2 * PI, (1 if shared else m, e)), shared_weights=shared,
                      convention=convention)
    program = gate_program(model)
    # run order: per layer, Ry on every vertex, then each edge's entangler
    layers = [program[i * (n + e):(i + 1) * (n + e)] for i in range(m)]
    assert len(program) == m * (n + e)
    for layer in layers:
        assert [(kind, qubits) for kind, qubits, _ in layer] == (
            [("Ry", (v,)) for v in range(n)]
            + [(convention.kind, (u, v)) for u, v, _ in g.edges])
    slots = [slot for _, _, slot in program]
    assert sorted(set(slots)) == list(range(params_of(model).size))
    edge_slots = [[slot for _, _, slot in layer[n:]] for layer in layers]
    if shared:
        assert all(row == edge_slots[0] for row in edge_slots)
    else:
        assert len(set(slots)) == len(slots)
    # squared error: near BCE's clip, central differences lose the 1e-5 agreement
    if readout == "ZZ" and e:
        ds = Dataset("edge", (DataItem(g, rng.uniform(0, 1, n), tuple(rng.uniform(-1, 1, e))),))
    else:
        ds = Dataset("node", (DataItem(g, rng.uniform(0, 1, n),
                                       tuple(int(b) for b in rng.integers(0, 2, n))),),
                     node_basis="Y" if readout == "Y" else "Z")
    g_fd = gradient(model, ds, TrainConfig(grad="fd", loss="mse"))
    g_ps = gradient(model, ds, TrainConfig(grad="pshift", loss="mse"))
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 2),
       items=st.integers(2, 4), shared=st.booleans(),
       convention=st.sampled_from(list(EdgeConvention)))
def test_param_shift_matches_fd_on_the_graph_task(seed, n, m, items, shared, convention):
    # the swap-test p0 is the expectation of a fixed observable, so the shift
    # rule holds; models with a score near the BCE clip are skipped, where
    # central differences are known to miss the exact gradient
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weighted=True, p_edge=0.6)
    ds = Dataset("graph", tuple(DataItem(g, rng.uniform(0, 1, n), k % 2)
                                for k in range(items)))
    model = initial_model(g, m, shared_weights=shared, convention=convention)
    model = with_params(model, rng.uniform(-PI, PI, params_of(model).size))
    scores = np.concatenate(train.model_values(model, ds, TrainConfig()), axis=1)
    assume(np.all((scores >= 0.05) & (scores <= 0.95)))
    g_fd = gradient(model, ds, TrainConfig(grad="fd"))
    g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_fd_gradient_matches_manual_recomputation():
    model = edgeless_model(2, [0.3, -0.4])
    ds = Dataset("node", (DataItem(Graph(2), [0.2, 0.8], (1, 0)),), node_basis="Z")
    cfg = TrainConfig(grad="fd")
    grad = gradient(model, ds, cfg)
    base = params_of(model)
    for k in range(base.size):
        up, down = base.copy(), base.copy()
        up[k] += train._EPS
        down[k] -= train._EPS
        manual = (loss(with_params(model, up), ds, cfg)
                  - loss(with_params(model, down), ds, cfg)) / (2 * train._EPS)
        assert grad[k] == manual  # same formula, same evaluations


def test_clipped_readout_gets_zero_gradient():
    # total angle 0 puts p1 = 0 below the 1e-7 clip for a label-1 node, and
    # p1 ~ 2.5e-11 at +-eps stays there: the clipped loss is flat, so both
    # rules give exactly 0 rather than a push toward the label
    model = edgeless_model(1, [-PI / 2])  # constant feature adds pi/2
    ds = Dataset("node", (DataItem(Graph(1), [0.3], (1,)),), node_basis="Z")
    assert loss(model, ds, TrainConfig()) == pytest.approx(-math.log(1e-7))
    for method in ("fd", "pshift"):
        assert np.array_equal(gradient(model, ds, TrainConfig(grad=method)), [0.0])


def test_fit_zero_learning_rate_is_a_no_op(k2):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    model = initial_model(k2)
    result = fit(model, ds, TrainConfig(learning_rate=0.0, epochs=5))
    assert np.array_equal(params_of(result.model), params_of(model))
    assert len(set(result.history)) == 1


def test_fit_one_qubit_convex_descent():
    # drive p1 -> 1 on a single qubit: loss strictly decreases
    model = edgeless_model(1, [0.2])
    ds = Dataset("node", (DataItem(Graph(1), [0.5], (1,)),), node_basis="Z")
    result = fit(model, ds, TrainConfig(learning_rate=0.1, epochs=50))
    assert all(a > b for a, b in zip(result.history, result.history[1:]))
    assert result.history[-1] < 0.2


def test_fit_toy_task_reaches_90_percent():
    ds = toy_node_dataset()
    result = fit(initial_model(ds.items[0].graph), ds,
                 TrainConfig(learning_rate=0.1, epochs=200, seed=7))
    assert result.accuracies[-1] >= 0.9
    assert all(a > b for a, b in zip(result.history[:10], result.history[1:10]))


def test_fit_reproducible_and_exact_mode_deterministic(k2):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    cfg = TrainConfig(learning_rate=0.2, epochs=8, seed=3)
    r1 = fit(initial_model(k2), ds, cfg)
    r2 = fit(initial_model(k2), ds, cfg)
    assert r1.history == r2.history
    assert np.array_equal(params_of(r1.model), params_of(r2.model))
    assert loss(r1.model, ds, cfg) == loss(r1.model, ds, cfg)


def test_fit_shot_mode_seeded(k2):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    cfg = TrainConfig(learning_rate=0.1, epochs=3, seed=11, shots=256)
    r1 = fit(initial_model(k2), ds, cfg)
    r2 = fit(initial_model(k2), ds, cfg)
    assert r1.history == r2.history


def test_fit_aborts_on_non_finite_loss(monkeypatch, k2):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    # fit scores its epoch loss through the loss kernel, not through train.loss
    monkeypatch.setattr(train, "_row_losses", lambda *a, **k: np.array([np.nan]))
    with pytest.raises(RuntimeError, match="epoch 0"):
        train.fit(initial_model(k2), ds, TrainConfig(epochs=2))


def test_accuracy_definitions(k2):
    model = edgeless_model(2)
    ds = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (0, 1)),), node_basis="Z")
    assert accuracy(model, ds, TrainConfig()) == 1.0
    flipped = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (1, 0)),), node_basis="Z")
    assert accuracy(model, flipped, TrainConfig()) == 0.0


def test_config_validation():
    for rate in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(grad="adam")
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge")


def test_dataset_json_roundtrip(tmp_path):
    ds = toy_node_dataset()
    path = tmp_path / "toy.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.task == ds.task and loaded.node_basis == ds.node_basis
    assert len(loaded.items) == len(ds.items)
    for a, b in zip(loaded.items, ds.items):
        assert a.graph == b.graph
        assert np.array_equal(a.features, b.features)
        assert a.labels == b.labels


@st.composite
def datasets(draw) -> Dataset:
    """Any dataset of 1-3 items, each on its own graph: finite features whose
    span max - min is finite too (Dataset refuses others), and node labels mixing null, 0/1 ints and floats in [0, 1], edge floats or
    ints, or class indices."""
    task = draw(st.sampled_from(["node", "edge", "graph"]))
    items = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(graphs(max_vertices=6))
        n, e = g.n_vertices, g.n_edges
        if task == "node":
            labels = tuple(draw(st.lists(st.one_of(st.none(), st.integers(0, 1),
                                                   st.floats(0.0, 1.0)),
                                         min_size=n, max_size=n)))
        elif task == "edge":
            labels = tuple(draw(st.lists(st.one_of(FINITE, st.integers(-3, 3)),
                                         min_size=e, max_size=e)))
        else:
            labels = draw(st.integers(0, 4))
        features = st.lists(FINITE, min_size=n, max_size=n).filter(
            lambda xs: math.isfinite(max(xs) - min(xs)))
        items.append(DataItem(g, draw(features), labels))
    return Dataset(task, tuple(items), draw(st.sampled_from(["Y", "Z"])))


@settings(max_examples=150, deadline=None)
@given(ds=datasets())
def test_dataset_json_roundtrip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("data") / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.task == ds.task and loaded.node_basis == ds.node_basis
    assert len(loaded.items) == len(ds.items)
    for a, b in zip(loaded.items, ds.items):
        assert a.graph == b.graph
        assert [w.hex() for *_, w in a.graph.edges] == [w.hex() for *_, w in b.graph.edges]
        assert a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels == b.labels
        labels = a.labels if ds.task != "graph" else (a.labels,)
        expected = b.labels if ds.task != "graph" else (b.labels,)
        assert [type(lab) for lab in labels] == [type(lab) for lab in expected]


def test_dataset_graph_by_path_and_inline_text(tmp_path, k2):
    (tmp_path / "k2.qg").write_text(to_edge_list(k2), encoding="utf-8")
    payload = {
        "task": "node",
        "items": [
            {"graph": "k2.qg", "features": [0.1, 0.9], "labels": [1, 0]},
            {"graph": to_edge_list(k2), "features": [0.3, 0.7], "labels": [0, None]},
        ],
    }
    import json
    (tmp_path / "ds.json").write_text(json.dumps(payload), encoding="utf-8")
    ds = load_dataset(tmp_path / "ds.json")
    assert ds.items[0].graph == k2 and ds.items[1].graph == k2
    assert ds.items[1].labels == (0, None)


def test_toy_dataset_shape():
    ds = toy_node_dataset()
    assert ds.task == "node" and ds.node_basis == "Y"
    assert all(item.labels == (1, 0, 1, 0, 1) for item in ds.items)
    assert ds.items[0].graph.n_vertices == 5


@pytest.mark.parametrize("grad", ["fd", "pshift"])
def test_fit_encodes_each_item_once(monkeypatch, grad):
    ds = toy_node_dataset()
    calls = []

    def counting(features):
        calls.append(features)
        return encode_features(features)

    # only the executor encodes; an encode per epoch would show here
    monkeypatch.setattr(executor, "encode_features", counting)
    train.fit(initial_model(ds.items[0].graph), ds, TrainConfig(epochs=3, grad=grad))
    assert len(calls) == len(ds.items)


# readouts that hit the BCE clip, sit beyond it or fall outside [0, 1] (shot
# estimates of <ZZ> reach -1; swap scores and p1 reach 0 and 1)
_SPECIAL_READOUTS = [0.0, 1.0, 0.5, 1e-7, 1.0 - 1e-7, 1e-9, 1.0 - 1e-9, -1.0, -0.25, 1.25]


@settings(max_examples=300, deadline=None)
@given(task=st.sampled_from(["node", "edge", "graph"]), loss_kind=st.sampled_from(["bce", "mse"]),
       n=st.integers(2, 10), n_items=st.integers(1, 4), rows=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_losses_equal_the_scalar_loop(task, loss_kind, n, n_items, rows, seed, data):
    # the array-form loss has the bits of the one-readout-at-a-time loop:
    # fractional node targets, unequal label counts per item, bce and mse.
    # Readouts are uniform draws (numpy's log and square differ from Python's
    # on a fraction of a percent of them) with special values mixed in.
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    n_classes = data.draw(st.integers(1, 4))
    items, targets = [], []
    for _ in range(n_items):
        if task == "node":
            label = st.one_of(st.none(), st.sampled_from([0, 1]), st.floats(0.0, 1.0))
            labels = data.draw(st.lists(label, min_size=n, max_size=n)
                               .filter(lambda labs: any(lab is not None for lab in labs)))
            item_targets = [float(lab) for lab in labels if lab is not None]
        elif task == "edge":
            labels = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))
            item_targets = labels
        else:
            labels = data.draw(st.integers(0, n_classes - 1))
            item_targets = [1.0 if c == labels else 0.0 for c in range(n_classes)]
        items.append(DataItem(g, np.zeros(n), tuple(labels) if task != "graph" else labels))
        targets.append(item_targets)
    ds = Dataset(task, tuple(items))
    rng = np.random.default_rng(seed)
    values = []
    for item_targets in targets:
        vals = rng.uniform(-1.0, 1.5, (rows, len(item_targets)))
        special = rng.random(vals.shape) < 0.2
        vals[special] = rng.choice(_SPECIAL_READOUTS, int(special.sum()))
        values.append(vals)
    squared = task == "edge" or (task == "node" and loss_kind == "mse")
    expected = row_losses_oracle(values, targets, squared)
    table = (np.array([t for ts in targets for t in ts]), np.array([len(ts) for ts in targets]))
    if task != "graph" or max(item.labels for item in items) == n_classes - 1:
        # the dataset's own table, where its classes span the drawn readouts
        built = train._target_table(ds)
        assert built[0].tolist() == table[0].tolist() and built[1].tolist() == table[1].tolist()
    assert train._row_losses(values, table, squared).tolist() == expected


@pytest.mark.parametrize("task, loss_kind, target", [
    ("node", "bce", 1), ("node", "bce", 0.3), ("node", "mse", 0.7), ("edge", "mse", -0.4),
    ("graph", "bce", 0),
])
def test_row_losses_keep_the_bits_of_every_term(task, loss_kind, target):
    # one readout per row, so each row's loss is one term and no sum can
    # round a last-bit difference away: numpy's log and square differ from
    # Python's on a fraction of a percent of these 20000 readouts
    g = Graph.from_edges(2, [(0, 1)])
    labels = {"node": (target, None), "edge": (target,), "graph": target}[task]
    ds = Dataset(task, (DataItem(g, np.zeros(2), labels),))
    vals = np.random.default_rng(7).uniform(-1.0 if task == "edge" else 0.0, 1.0, (20000, 1))
    expected = row_losses_oracle([vals], [[1.0 if task == "graph" else float(target)]],
                                 loss_kind == "mse")
    assert train._row_losses([vals], train._target_table(ds), loss_kind == "mse").tolist() \
        == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), task=st.sampled_from(["Y", "Z", "edge", "graph"]),
       grad=st.sampled_from(["fd", "pshift"]), shots=st.sampled_from([0, 40]),
       convention=st.sampled_from(list(EdgeConvention)), m=st.integers(1, 2),
       epochs=st.integers(1, 3))
def test_fit_equals_the_manual_loss_accuracy_gradient_sequence(seed, task, grad, shots,
                                                               convention, m, epochs):
    # one executor call per epoch must score exactly as the public loss,
    # accuracy and gradient do one after the other, sharing one rng
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    g = Graph.from_edges(n, [(v, v + 1, float(rng.uniform(0, 2 * PI))) for v in range(n - 1)])
    items = []
    for k in range(3):
        if task == "edge":
            labels = tuple(rng.uniform(-1, 1, n - 1))
        elif task == "graph":
            labels = k % 2
        else:
            labels = tuple(None if v == k else int(rng.integers(0, 2)) for v in range(n))
        items.append(DataItem(g, rng.uniform(0, 1, n), labels))
    ds = Dataset("node" if task in "YZ" else task, tuple(items),
                 node_basis=task if task in "YZ" else "Y")
    model = initial_model(g, m, convention=convention)
    model = with_params(model, rng.uniform(-1.0, 1.0, params_of(model).size))
    cfg = TrainConfig(learning_rate=0.3, epochs=epochs, seed=seed, shots=shots, grad=grad)
    result = fit(model, ds, cfg)

    shot_rng = np.random.default_rng(seed) if shots else None
    current, params, history, accuracies = model, params_of(model), [], []
    for _ in range(epochs):
        history.append(loss(current, ds, cfg, rng=shot_rng))
        accuracies.append(accuracy(current, ds, cfg, rng=shot_rng))
        params = params - cfg.learning_rate * gradient(current, ds, cfg, rng=shot_rng)
        current = with_params(current, params)
    assert result.history == tuple(history)
    assert result.accuracies == tuple(accuracies)
    assert np.array_equal(params_of(result.model), params)


@pytest.mark.parametrize("grad", ["fd", "pshift"])
def test_fit_makes_one_executor_call_per_epoch(monkeypatch, grad):
    ds = toy_node_dataset()
    stacks = []

    def counting(circuit, rows):
        stacks.append(rows.shape[0])
        return executor.exact_readouts(circuit, rows)

    monkeypatch.setattr(train, "exact_readouts", counting)
    model = initial_model(ds.items[0].graph)
    train.fit(model, ds, TrainConfig(epochs=3, grad=grad))
    # the toy model has 11 parameters and 11 gates: the base row, then 2 per shift
    assert stacks == [2 * params_of(model).size + 1] * 3


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("grad", ["fd", "pshift"])
@pytest.mark.parametrize("epochs", [1, 4])
def test_fit_compiles_once_and_builds_one_model(monkeypatch, task, grad, epochs):
    if task == "node":
        ds = toy_node_dataset()
    else:
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        ds = Dataset("graph", tuple(DataItem(g, [0.1 * k, 0.9, 0.3 * k], k % 2)
                                    for k in range(1, 5)))
    calls = {"gate_program": 0, "encode_features": 0, "class_prototypes": 0}
    built = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_spec(*args, **kwargs):
        built.append(ModelSpec(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(executor, "gate_program", counting("gate_program", gate_program))
    monkeypatch.setattr(executor, "encode_features",
                        counting("encode_features", encode_features))
    monkeypatch.setattr(executor, "class_prototypes",
                        counting("class_prototypes", executor.class_prototypes))
    model = initial_model(ds.items[0].graph)
    monkeypatch.setattr(train, "ModelSpec", counting_spec)
    result = fit(model, ds, TrainConfig(epochs=epochs, grad=grad))
    # every item once, and each of the graph task's two class means once
    assert calls == {"gate_program": 1, "encode_features": len(ds.items) + 2 * (task == "graph"),
                     "class_prototypes": int(task == "graph")}
    assert len(built) == 1 and built[0] is result.model


# readouts at 0 and 1, at and just inside the BCE clip, and NaN: the slope
# is 0 where the loss is clipped flat and NaN propagates through the formula
_SLOPE_READOUTS = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 2e-7, 1.0 - 2e-7, 0.5, -0.5, 1.5, math.nan]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 4),
       squared=st.booleans(), fractional=st.booleans())
def test_loss_slopes_equal_the_scalar_derivative(seed, n_items, squared, fractional):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, n_items)
    if squared:
        targets = [rng.uniform(-1.0, 1.0, c) for c in counts]
    elif fractional:
        targets = [rng.uniform(0.0, 1.0, c) for c in counts]
    else:
        targets = [rng.integers(0, 2, c).astype(float) for c in counts]
    vals = rng.uniform(-0.25, 1.25, int(counts.sum()))
    special = rng.random(vals.shape) < 0.4
    vals[special] = rng.choice(_SLOPE_READOUTS, int(special.sum()))
    expected = np.concatenate([item_grad_oracle(v.tolist(), t.tolist(), squared)
                               for v, t in zip(np.split(vals, np.cumsum(counts)[:-1]), targets)])
    got = train._loss_slopes(vals, (np.concatenate(targets), counts), squared)
    assert np.array_equal(got, expected, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 3),
       shared=st.booleans(), convention=st.sampled_from(list(EdgeConvention)),
       readout=st.sampled_from(["Y", "Z", "ZZ"]), loss_kind=st.sampled_from(["bce", "mse"]),
       shots=st.sampled_from([0, 30]), special=st.booleans())
def test_pshift_gradient_equals_the_per_gate_loop(seed, n, m, shared, convention, readout,
                                                  loss_kind, shots, special):
    # the batched shift terms have the bits of one float(dvals @ col) per
    # (item, gate), added into repeated slots (shared weights) in program order
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max(n, 2) if readout == "ZZ" else n, weighted=True, p_edge=0.7)
    if readout == "ZZ" and not g.n_edges:
        g = Graph.from_edges(g.n_vertices, [(0, 1, 0.4)])
    n, e = g.n_vertices, g.n_edges
    model = ModelSpec(g, m, rng.uniform(-1.5, 1.5, (m, n)),
                      rng.uniform(0.0, 2 * PI, (1 if shared else m, e)), shared_weights=shared,
                      convention=convention)
    items = []
    for k in range(int(rng.integers(1, 4))):
        if readout == "ZZ":
            labels = tuple(rng.uniform(-1, 1, e))
        else:
            labels = [None if rng.random() < 0.3 else float(rng.choice([0, 1, rng.random()]))
                      for _ in range(n)]
            labels[k % n] = 1
        items.append(DataItem(g, rng.uniform(0, 1, n), tuple(labels)))
    ds = Dataset("edge" if readout == "ZZ" else "node", tuple(items),
                 node_basis="Z" if readout == "Z" else "Y")
    cfg = TrainConfig(grad="pshift", loss=loss_kind, shots=shots)
    circuit = compile_circuit(model, ds)
    exact = exact_readouts(circuit, train._gradient_rows(circuit, params_of(model), cfg))
    if special:
        # shot draws need probabilities, so NaN only goes into exact readouts
        mask = rng.random(exact.shape) < 0.3
        pool = _SLOPE_READOUTS[:7] if shots else _SLOPE_READOUTS
        exact[mask] = rng.choice(pool, int(mask.sum()))
    draws = [np.random.default_rng(seed) if shots else None for _ in range(2)]
    got = train._gradient_of(exact, circuit, params_of(model).size, train._target_table(ds),
                             cfg, draws[0])
    values = draw_readouts(exact, circuit, shots, draws[1], item_major=True)
    targets = [[float(lab) for lab in item.labels if lab is not None] for item in ds.items]
    squared = readout == "ZZ" or loss_kind == "mse"
    expected = pshift_gradient_oracle(values, targets, gate_program(model),
                                      train._SHIFTS, params_of(model).size, squared)
    assert np.array_equal(got, expected, equal_nan=True)
    if not special:
        shot_rng = np.random.default_rng(seed) if shots else None
        assert np.array_equal(gradient(model, ds, cfg, rng=shot_rng), expected)
