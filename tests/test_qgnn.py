from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (EdgeConvention, Graph, ModelSpec, StateVector, apply_interlayer,
                  build_graph_state, build_registered, build_superposed, encode_features,
                  layer_state, message_pass, model_circuit, model_from_dict, model_to_dict,
                  new_state, periodic_readout, pool_crot, pool_measure, pool_phase)

from helpers import FINITE, cp_matrix, cry_4x4, dense_apply, encode_features_oracle, graphs

PI = math.pi


def k2_model(m=1, weights=None):
    g = Graph.from_edges(2, [(0, 1)])
    if weights is None:
        weights = np.full((m, 1), PI)
    return ModelSpec(g, m, np.full((m, 2), PI / 2), np.asarray(weights))


def plus_model(g: Graph, m: int = 1) -> ModelSpec:
    """|+>-producing angles (pi/2) and the graph's own edge phases."""
    weights = np.tile([w for _, _, w in g.edges], (m, 1))
    return ModelSpec(g, m, np.full((m, g.n_vertices), PI / 2), weights)


# -- encoding -----------------------------------------------------------------

def test_encode_angle_examples():
    angles = encode_features([0.0, 1.0])
    assert isinstance(angles, np.ndarray) and angles.tolist() == pytest.approx([0.0, PI])
    s = build_graph_state(Graph(2), angles=angles)
    assert np.allclose(s.amps, [0, 0, 1, 0], atol=1e-15)  # |0> (x) |1> = index 2

    const = encode_features([3.3, 3.3])
    assert const.tolist() == pytest.approx([PI / 2, PI / 2])


_FEATURE = st.floats(-1e6, 1e6, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.lists(_FEATURE, min_size=1, max_size=12),
                   st.lists(st.sampled_from([0.0, -0.0, 1e-320, 3.3, -1e300, 1e300]),
                            min_size=1, max_size=6)))
def test_encode_features_equals_the_tuple_encoding(x):
    # the array has the bits of the ("ry", [pi * t for t in scaled]) spec it replaced
    angles = encode_features(x)
    tag, expected = encode_features_oracle(x)
    assert tag == "ry" and angles.shape == (len(x),)
    assert np.array_equal(angles, np.array(expected), equal_nan=True)


def test_encode_errors():
    with pytest.raises(ValueError, match="empty"):
        encode_features([])
    with pytest.raises(ValueError, match="finite"):
        encode_features([float("inf"), 0.0])


# -- superposed ---------------------------------------------------------------

def test_superposed_single_layer_is_the_layer_state():
    model = k2_model(m=1)
    s = build_superposed(model)
    assert s.n_qubits == 2
    assert np.allclose(s.amps, layer_state(model, 0).amps)


def test_superposed_identical_layers_factor():
    model = k2_model(m=2)
    s = build_superposed(model)
    factored = np.kron(np.array([1, 1]) / math.sqrt(2), layer_state(model, 0).amps)
    assert np.max(np.abs(s.amps - factored)) <= 1e-12


def test_superposed_two_distinct_layers():
    model = k2_model(m=2, weights=[[PI], [PI / 2]])
    s = build_superposed(model)
    assert s.norm() == pytest.approx(1.0)
    assert s.amps[3] == pytest.approx(-1 / (2 * math.sqrt(2)))
    # direct construction of the full 8-dim vector
    expected = np.concatenate([layer_state(model, 0).amps,
                               layer_state(model, 1).amps]) / math.sqrt(2)
    assert np.allclose(s.amps, expected, atol=1e-14)


def test_superposed_qubit_cap():
    g = Graph(23)
    model = plus_model(g, m=4)
    with pytest.raises(ValueError, match="cap"):
        build_superposed(model)


# -- registered ---------------------------------------------------------------

def test_registered_edgeless_plus():
    g = Graph(2)
    model = ModelSpec(g, 2, np.full((2, 2), PI / 2), np.zeros((2, 0)))
    s = build_registered(model)
    assert np.allclose(s.amps, new_state(4, "plus").amps)


def test_registered_k2_product_amplitude():
    model = k2_model(m=2)
    s = build_registered(model)
    assert s.amps[0b1111] == pytest.approx(0.25)
    assert np.allclose(s.amps, np.kron(layer_state(model, 1).amps,
                                       layer_state(model, 0).amps), atol=1e-14)


def test_interlayer_coupling_against_dense_oracle():
    model = k2_model(m=2)
    s = build_registered(model)
    expected = s.amps.copy()
    apply_interlayer(s, model, 1, PI)
    expected = dense_apply(cp_matrix(PI), (0, 2), 4, expected)
    expected = dense_apply(cp_matrix(PI), (1, 3), 4, expected)
    assert np.allclose(s.amps, expected, atol=1e-13)
    with pytest.raises(ValueError, match="interlayer"):
        apply_interlayer(s, model, 0, PI)


# -- the layered circuit ---------------------------------------------------------

def test_sequential_entangle_equals_direct_build():
    # one layer at |+>-producing angles and the graph's own phases is the graph state
    g = Graph.from_edges(3, [(0, 1, 1.1), (1, 2, 2.3)])
    state = model_circuit(plus_model(g)).amps
    # bitwise equal along the shared Ry-init path, 1e-12 against the direct fill
    assert np.array_equal(state, build_graph_state(g, angles=[PI / 2] * 3).amps)
    assert np.max(np.abs(state - build_graph_state(g).amps)) <= 1e-12


def test_schedule_validation():
    # a checkpoint's formalism is "sequential" and its schedule empty
    d = model_to_dict(k2_model())
    assert (d["formalism"], d["schedule"]) == ("sequential", [])
    assert model_from_dict(d).m == 1
    for key, value in [("schedule", [{"kind": "message", "qubits": [0], "phase": 0.1}]),
                       ("schedule", None), ("formalism", "superposed"),
                       ("formalism", "registered"), ("formalism", None)]:
        with pytest.raises(ValueError, match=f"checkpoint field '{key}' must be"):
            model_from_dict({**d, key: value})
    assert model_from_dict({key: value for key, value in d.items() if key != "schedule"}).m == 1
    with pytest.raises(ValueError, match="missing the field 'formalism'"):
        model_from_dict({key: value for key, value in d.items() if key != "formalism"})


# -- message passing ----------------------------------------------------------

def test_message_pass_examples(k2, demo5):
    s = new_state(3, "plus")
    message_pass(s, Graph(3), 1, PI)
    assert np.allclose(s.amps, new_state(3, "plus").amps)

    s = new_state(2, "plus")
    message_pass(s, k2, 0, PI)
    assert np.allclose(s.amps, build_graph_state(k2).amps)

    s = new_state(5, "plus")
    message_pass(s, demo5, 0, PI / 2)
    expected = new_state(5, "plus").amps
    for v in (1, 3, 4):
        expected = dense_apply(cp_matrix(PI / 2), (0, v), 5, expected)
    assert np.allclose(s.amps, expected, atol=1e-13)


def test_sequential_message_on_isolated_vertex():
    s = new_state(3, "plus")
    message_pass(s, Graph(3), 1, 0.7)
    assert np.allclose(s.amps, new_state(3, "plus").amps)


def test_message_pass_zero_phase_is_identity(rng):
    for _ in range(5):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        from qgns import StateVector
        s = StateVector(4, vec.copy())
        message_pass(s, g, int(rng.integers(4)), 0.0)
        assert np.max(np.abs(s.amps - vec)) <= 1e-12


# -- pooling ------------------------------------------------------------------

def test_pool_measure_examples(rng, k2):
    outcomes, records = pool_measure(new_state(3, "zero"), range(3), rng)
    assert outcomes == [1, 1, 1]
    assert [r.probability for r in records] == [pytest.approx(1.0)] * 3

    s = StateVector(2, np.array([0, 1, 0, 1]) / math.sqrt(2))  # |1> on qubit 0, |+> on qubit 1
    outcomes, _ = pool_measure(s, (0,), rng)
    assert outcomes == [-1]
    assert np.allclose(np.abs(s.amps) ** 2, [0, 0.5, 0, 0.5], atol=1e-12)

    joint = {}
    for seed in range(10_000):
        state = build_graph_state(k2)
        o, _ = pool_measure(state, (0, 1), np.random.default_rng(seed))
        joint[tuple(o)] = joint.get(tuple(o), 0) + 1
    for count in joint.values():
        assert abs(count / 10_000 - 0.25) < 0.02


def test_pool_measure_duplicate_group(rng):
    with pytest.raises(ValueError, match="duplicate"):
        pool_measure(new_state(2), (0, 0), rng)


def test_neighborhood_groups_default(demo5):
    from qgns import neighborhood_groups
    groups = neighborhood_groups(demo5)
    assert groups[0] == (0, 1, 3, 4)
    assert groups[2] == (1, 2, 3)
    assert len(groups) == 5


def test_pool_phase_examples(k2):
    s = new_state(2, "plus")
    p0, est = pool_phase(s, Graph(2), (0, 1), 1.3)  # no internal edges
    assert p0 == pytest.approx(1.0) and est == pytest.approx(1.0)

    ones = StateVector(2, [0, 0, 0, 1])  # |11>, eigenstate of CP(w)
    for w in (0.4, 2.0):
        p0, est = pool_phase(ones, k2, (0, 1), w)
        assert p0 == pytest.approx((1 + math.cos(w)) / 2)

    p0, est = pool_phase(build_graph_state(k2), k2, (0, 1), PI / 2)
    assert (p0, est) == (pytest.approx(7 / 8), pytest.approx(3 / 4))

    with pytest.raises(ValueError, match="nonempty"):
        pool_phase(s, k2, (), 0.1)


def test_pool_phase_bounds(rng, demo5):
    from qgns import StateVector
    for _ in range(10):
        vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        vec /= np.linalg.norm(vec)
        p0, est = pool_phase(StateVector(5, vec), demo5,
                             rng.choice(5, size=3, replace=False), rng.uniform(0, 2 * PI))
        assert 0.0 <= p0 <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= est <= 1.0 + 1e-12


def test_pool_crot_examples(k2):
    s = new_state(2, "plus")
    pool_crot(s, (0,), 1, 0.0)
    assert np.allclose(s.amps, new_state(2, "plus").amps)

    s = StateVector(2, [0, 1, 0, 0])  # control |1>, target |0>
    pool_crot(s, (0,), 1, PI)
    assert np.allclose(s.amps, [0, 0, 0, 1], atol=1e-15)  # target flipped to |1>

    from qgns import tensor
    s = tensor(build_graph_state(k2), new_state(1, "zero"))
    expected = s.amps.copy()
    pool_crot(s, (0, 1), 2, PI / 2)
    expected = dense_apply(cry_4x4(PI / 2), (2, 0), 3, expected)
    expected = dense_apply(cry_4x4(PI / 2), (2, 1), 3, expected)
    assert np.allclose(s.amps, expected, atol=1e-13)

    with pytest.raises(ValueError, match="target"):
        pool_crot(s, (0, 2), 2, 0.3)


def test_periodic_readout():
    assert periodic_readout(0.0) == pytest.approx(1.0)
    assert periodic_readout(PI) == pytest.approx(0.0, abs=1e-15)
    assert periodic_readout(PI / 2) == pytest.approx(0.5)
    assert periodic_readout(0.0, post="step") == 1.0
    assert periodic_readout(PI, post="step") == 0.0
    assert periodic_readout(0.0, post="sigmoid") == pytest.approx(1 / (1 + math.exp(-1)))
    with pytest.raises(ValueError):
        periodic_readout(0.0, post="relu")


# -- formalism coincidences ------------------------------------------------------

def test_one_layer_formalisms_agree():
    g = Graph.from_edges(3, [(0, 1, 0.8), (1, 2, 2.1)])
    model = ModelSpec(g, 1, np.array([[0.3, 1.2, 2.0]]), np.array([[0.8, 2.1]]))
    sup = build_superposed(model)
    reg = build_registered(model)
    seq = model_circuit(model)  # the executor's state
    assert np.max(np.abs(sup.amps - reg.amps)) <= 1e-12
    assert np.max(np.abs(sup.amps - seq.amps)) <= 1e-12


def test_two_layer_registered_vs_sequential_identity_updates():
    # identical layers, no interlayer coupling: the registered state factors
    # into two copies of the one-layer circuit's state
    model = k2_model(m=2)
    reg = build_registered(model)
    seq = model_circuit(ModelSpec(model.graph, 1, model.theta[:1], model.weights[:1]))
    assert np.max(np.abs(reg.amps - np.kron(seq.amps, seq.amps))) <= 1e-12


# -- model spec and checkpoints -----------------------------------------------------

def test_model_validation():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="theta"):
        ModelSpec(g, 1, np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="weights"):
        ModelSpec(g, 2, np.zeros((2, 2)), np.zeros((1, 1)))
    shared = ModelSpec(g, 2, np.zeros((2, 2)), np.zeros((1, 1)),
                       shared_weights=True)
    assert np.array_equal(shared.layer_weights(0), shared.layer_weights(1))


def test_checkpoint_roundtrip(tmp_path, demo5):
    from qgns import load_model, save_model
    model = plus_model(demo5, m=2)
    path = tmp_path / "model.json"
    save_model(model, path, seed=7)
    loaded, convention = load_model(path)
    assert convention is EdgeConvention.CONTROLLED_PHASE
    assert loaded.graph == model.graph
    assert loaded.m == model.m
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.weights, model.weights)


@st.composite
def models(draw) -> ModelSpec:
    """Any model on up to 5 vertices: finite angles and phases, shared
    weights or not."""
    g = draw(graphs(max_vertices=5))
    n, e, m, shared = g.n_vertices, g.n_edges, draw(st.integers(1, 3)), draw(st.booleans())
    rows = 1 if shared else m
    theta = draw(st.lists(FINITE, min_size=m * n, max_size=m * n))
    weights = draw(st.lists(FINITE, min_size=rows * e, max_size=rows * e))
    return ModelSpec(g, m, np.reshape(np.array(theta, dtype=float), (m, n)),
                     np.reshape(np.array(weights, dtype=float), (rows, e)), shared)


@settings(max_examples=150, deadline=None)
@given(model=models(), seed=st.integers(0, 2**31 - 1), convention=st.sampled_from(EdgeConvention))
def test_checkpoint_json_roundtrip_property(tmp_path_factory, model, seed, convention):
    # ModelSpec compares by identity (eq=False), so compare field by field
    from qgns import load_model, save_model
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_model(model, path, seed=seed, convention=convention)
    loaded, loaded_convention = load_model(path)
    assert loaded_convention is convention
    assert loaded.graph == model.graph
    assert [w.hex() for *_, w in loaded.graph.edges] == [w.hex() for *_, w in model.graph.edges]
    assert loaded.m == model.m
    for field in ("theta", "weights"):
        got, want = getattr(loaded, field), getattr(model, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert loaded.shared_weights is model.shared_weights
    saved = model_to_dict(model, seed, convention)
    assert (saved["formalism"], saved["schedule"]) == ("sequential", [])
    assert model_to_dict(loaded, seed, loaded_convention) == saved


def test_a_checkpoint_without_a_convention_loads_without_one(tmp_path):
    from qgns import load_model
    d = model_to_dict(k2_model(), seed=1)
    assert d["convention"] == "cp"
    del d["convention"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    model, convention = load_model(path)
    assert convention is None and model.m == 1


@pytest.mark.parametrize("value", ["CP", "zz", None, 1, ["cp"]])
def test_a_malformed_checkpoint_convention_is_refused(tmp_path, value):
    from qgns import load_model
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**model_to_dict(k2_model()), "convention": value}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="checkpoint field 'convention' must be"):
        load_model(path)


def test_checkpoint_version_guard():
    with pytest.raises(ValueError, match="version"):
        model_from_dict({"version": "other"})


def test_model_dict_contains_contract_fields(demo5):
    d = model_to_dict(plus_model(demo5), seed=3)
    assert d["version"] == "qgns-1"
    assert set(d) >= {"version", "graph", "m", "formalism", "theta", "weights",
                      "schedule", "seed"}
    assert d["seed"] == 3
