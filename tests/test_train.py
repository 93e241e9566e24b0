from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgns.executor as executor
import qgns.train as train
from qgns import (DataItem, Dataset, EdgeConvention, Formalism, Graph, LayerStep, ModelSpec,
                  TrainConfig, accuracy, encode_features, fit, gradient, initial_model,
                  load_dataset, loss, model_circuit, params_of, save_dataset, to_edge_list,
                  toy_node_dataset, with_params)
from qgns.executor import gate_program, param_rows, readout_values
from qgns.graphstate import edge_kind

from helpers import random_graph

PI = math.pi


def edgeless_model(n: int, theta_row=None) -> ModelSpec:
    g = Graph(n)
    theta = np.zeros((1, n)) if theta_row is None else np.array([theta_row])
    return ModelSpec(g, 1, Formalism.SEQUENTIAL, theta, np.zeros((1, 0)))


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
    assert model.theta[0, 0] + executor.feature_angles(ds.items[0].features)[0] == \
        pytest.approx(target)
    rows = np.tile(params_of(model), (2, 1))
    rows[:, 0] += [PI / 2, -PI / 2]
    values = readout_values(model, ds, param_rows(model, rows),
                            EdgeConvention.CONTROLLED_PHASE, None)[0]
    dp1 = 0.5 * (values[0, 0] - values[1, 0])
    d_expectation = -2.0 * dp1
    assert d_expectation == pytest.approx(-math.sin(target), abs=1e-8)


@pytest.mark.parametrize("task", ["node", "edge"])
def test_param_shift_matches_finite_differences(rng, task):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for _ in range(4):
        theta = rng.uniform(-1.5, 1.5, (2, 4))
        weights = rng.uniform(0.0, 2 * PI, (2, 4))
        model = ModelSpec(g, 2, Formalism.SEQUENTIAL, theta, weights)
        feats = rng.uniform(0.0, 1.0, 4)
        if task == "node":
            labels = tuple(int(b) for b in rng.integers(0, 2, 4))
        else:
            labels = tuple(float(t) for t in rng.uniform(-1, 1, 4))
        ds = Dataset(task, (DataItem(g, feats, labels),))
        g_fd = gradient(model, ds, TrainConfig(grad="fd", eps=1e-5))
        g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
        assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_param_shift_shared_weights(rng):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    model = ModelSpec(g, 2, Formalism.SEQUENTIAL, rng.uniform(-1, 1, (2, 3)),
                      rng.uniform(0, 3, (1, 2)), shared_weights=True)
    ds = Dataset("node", (DataItem(g, rng.uniform(0, 1, 3), (1, 0, 1)),))
    g_fd = gradient(model, ds, TrainConfig(grad="fd", eps=1e-5))
    g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
    assert g_fd.size == model.theta.size + 2
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_param_shift_ising_convention(rng):
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    model = ModelSpec(g, 1, Formalism.SEQUENTIAL, rng.uniform(-1, 1, (1, 3)),
                      rng.uniform(0, 3, (1, 2)))
    ds = Dataset("node", (DataItem(g, rng.uniform(0, 1, 3), (0, 1, 0)),))
    g_fd = gradient(model, ds, TrainConfig(grad="fd", eps=1e-5), EdgeConvention.ISING_ZZ)
    g_ps = gradient(model, ds, TrainConfig(grad="pshift"), EdgeConvention.ISING_ZZ)
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 3),
       shared=st.booleans(), convention=st.sampled_from(list(EdgeConvention)),
       readout=st.sampled_from(["Y", "Z", "ZZ"]))
def test_gate_program_slots_and_the_shift_rule_it_drives(seed, n, m, shared, convention,
                                                         readout):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weighted=True)
    e = g.n_edges
    model = ModelSpec(g, m, Formalism.SEQUENTIAL, rng.uniform(-1.5, 1.5, (m, n)),
                      rng.uniform(0.0, 2 * PI, (1 if shared else m, e)), shared_weights=shared)
    program = gate_program(model, convention)
    # run order: per layer, Ry on every vertex, then each edge's entangler
    layers = [program[i * (n + e):(i + 1) * (n + e)] for i in range(m)]
    assert len(program) == m * (n + e)
    for layer in layers:
        assert [(kind, qubits) for kind, qubits, _ in layer] == (
            [("Ry", (v,)) for v in range(n)]
            + [(edge_kind(convention), (u, v)) for u, v, _ in g.edges])
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
    g_fd = gradient(model, ds, TrainConfig(grad="fd", eps=1e-5, loss="mse"), convention)
    g_ps = gradient(model, ds, TrainConfig(grad="pshift", loss="mse"), convention)
    assert np.max(np.abs(g_fd - g_ps)) < 1e-5


def test_param_shift_graph_task_falls_back_with_warning():
    g = Graph.from_edges(2, [(0, 1)])
    ds = Dataset("graph", (DataItem(g, [0.1, 0.9], 0), DataItem(g, [0.9, 0.1], 1)))
    model = initial_model(g)
    with pytest.warns(UserWarning, match="finite differences"):
        g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
    g_fd = gradient(model, ds, TrainConfig(grad="fd"))
    assert np.array_equal(g_ps, g_fd)


def test_fd_gradient_matches_manual_recomputation():
    model = edgeless_model(2, [0.3, -0.4])
    ds = Dataset("node", (DataItem(Graph(2), [0.2, 0.8], (1, 0)),), node_basis="Z")
    cfg = TrainConfig(grad="fd", eps=1e-5)
    grad = gradient(model, ds, cfg)
    base = params_of(model)
    for k in range(base.size):
        up, down = base.copy(), base.copy()
        up[k] += cfg.eps
        down[k] -= cfg.eps
        manual = (loss(with_params(model, up), ds, cfg)
                  - loss(with_params(model, down), ds, cfg)) / (2 * cfg.eps)
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


@pytest.mark.parametrize("formalism", [Formalism.SUPERPOSED, Formalism.REGISTERED])
def test_non_sequential_formalism_is_rejected(k2, formalism):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    model = initial_model(k2, formalism=formalism)
    with pytest.raises(ValueError, match=formalism.value):
        loss(model, ds, TrainConfig())
    with pytest.raises(ValueError, match=formalism.value):
        model_circuit(model)


def test_schedule_is_rejected(k2):
    ds = Dataset("node", (DataItem(k2, [0.2, 0.8], (1, 0)),))
    base = initial_model(k2)
    model = ModelSpec(k2, 1, Formalism.SEQUENTIAL, base.theta, base.weights,
                      schedule=(LayerStep.message(0, 0.5),))
    for method in ("fd", "pshift"):
        with pytest.raises(ValueError, match="schedule"):
            gradient(model, ds, TrainConfig(grad=method))


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
    monkeypatch.setattr(train, "loss", lambda *a, **k: float("nan"))
    with pytest.raises(RuntimeError, match="epoch 0"):
        train.fit(initial_model(k2), ds, TrainConfig(epochs=2))


def test_accuracy_definitions(k2):
    model = edgeless_model(2)
    ds = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (0, 1)),), node_basis="Z")
    assert accuracy(model, ds, TrainConfig()) == 1.0
    flipped = Dataset("node", (DataItem(Graph(2), [0.0, 1.0], (1, 0)),), node_basis="Z")
    assert accuracy(model, flipped, TrainConfig()) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(eps=0.0)
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


def test_bundled_toy_file_matches_builder():
    from qgns import toy_dataset_path
    bundled = load_dataset(toy_dataset_path())
    built = toy_node_dataset()
    assert bundled.task == built.task and bundled.node_basis == built.node_basis
    for a, b in zip(bundled.items, built.items):
        assert a.graph == b.graph and a.labels == b.labels
        assert np.array_equal(a.features, b.features)


@pytest.mark.parametrize("grad", ["fd", "pshift"])
def test_fit_encodes_each_item_once(monkeypatch, grad):
    ds = toy_node_dataset()
    calls = []

    def counting(features, method="angle"):
        calls.append(method)
        return encode_features(features, method)

    monkeypatch.setattr(executor, "encode_features", counting)
    train.fit(initial_model(ds.items[0].graph), ds, TrainConfig(epochs=3, grad=grad))
    assert len(calls) == len(ds.items)
