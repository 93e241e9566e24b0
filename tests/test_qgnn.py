from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (EdgeConvention, Graph, ModelSpec, build_graph_state, encode_features,
                  model_from_dict, model_to_dict)

from helpers import (FINITE, build_superposed, encode_features_oracle, graph_state_oracle,
                     graphs, layer_state, model_circuit)

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
    s = graph_state_oracle(Graph(2), EdgeConvention.CONTROLLED_PHASE, angles)
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


# -- the superposed oracle (tests/helpers.py) -----------------------------------

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


# -- the layered circuit ---------------------------------------------------------

def test_sequential_entangle_equals_direct_build():
    # one layer at |+>-producing angles and the graph's own phases is the graph state
    g = Graph.from_edges(3, [(0, 1, 1.1), (1, 2, 2.3)])
    state = model_circuit(plus_model(g)).amps
    # bitwise equal to the gate-by-gate Ry init, 1e-12 against the direct fill
    ry_init = graph_state_oracle(g, EdgeConvention.CONTROLLED_PHASE, [PI / 2] * 3)
    assert np.array_equal(state, ry_init.amps)
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


# -- formalism coincidences ------------------------------------------------------

def test_one_layer_formalisms_agree():
    g = Graph.from_edges(3, [(0, 1, 0.8), (1, 2, 2.1)])
    model = ModelSpec(g, 1, np.array([[0.3, 1.2, 2.0]]), np.array([[0.8, 2.1]]))
    sup = build_superposed(model)
    seq = model_circuit(model)  # the executor's state
    assert np.max(np.abs(sup.amps - seq.amps)) <= 1e-12


# -- model spec and checkpoints -----------------------------------------------------

def test_model_validation():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="theta"):
        ModelSpec(g, 1, np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="weights"):
        ModelSpec(g, 2, np.zeros((2, 2)), np.zeros((1, 1)))
    shared = ModelSpec(g, 2, np.zeros((2, 2)), np.zeros((1, 1)),
                       shared_weights=True)
    assert shared.weights.shape == (1, g.n_edges)    # one row that every layer reads
    unshared = ModelSpec(g, 2, np.zeros((2, 2)), np.array([[0.5], [1.5]]))
    assert np.array_equal(unshared.weights[1], [1.5])


def test_checkpoint_roundtrip(tmp_path, demo5):
    from qgns import load_model, save_model
    model = plus_model(demo5, m=2)
    path = tmp_path / "model.json"
    save_model(model, path, seed=7)
    loaded = load_model(path)
    assert loaded.convention is EdgeConvention.CONTROLLED_PHASE
    assert loaded.graph == model.graph
    assert loaded.m == model.m
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.weights, model.weights)


@st.composite
def models(draw) -> ModelSpec:
    """Any model on up to 5 vertices: finite angles and phases, shared
    weights or not, either edge convention."""
    g = draw(graphs(max_vertices=5))
    n, e, m, shared = g.n_vertices, g.n_edges, draw(st.integers(1, 3)), draw(st.booleans())
    rows = 1 if shared else m
    theta = draw(st.lists(FINITE, min_size=m * n, max_size=m * n))
    weights = draw(st.lists(FINITE, min_size=rows * e, max_size=rows * e))
    return ModelSpec(g, m, np.reshape(np.array(theta, dtype=float), (m, n)),
                     np.reshape(np.array(weights, dtype=float), (rows, e)), shared,
                     draw(st.sampled_from(EdgeConvention)))


@settings(max_examples=150, deadline=None)
@given(model=models(), seed=st.integers(0, 2**31 - 1))
def test_checkpoint_json_roundtrip_property(tmp_path_factory, model, seed):
    # ModelSpec compares by identity (eq=False), so compare field by field
    from qgns import load_model, save_model
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_model(model, path, seed=seed)
    loaded = load_model(path)
    assert loaded.convention is model.convention
    assert loaded.graph == model.graph
    assert [w.hex() for *_, w in loaded.graph.edges] == [w.hex() for *_, w in model.graph.edges]
    assert loaded.m == model.m
    for field in ("theta", "weights"):
        got, want = getattr(loaded, field), getattr(model, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert loaded.shared_weights is model.shared_weights
    saved = model_to_dict(model, seed)
    assert (saved["formalism"], saved["schedule"]) == ("sequential", [])
    assert model_to_dict(loaded, seed) == saved


@settings(max_examples=100, deadline=None)
@given(model=models())
def test_saving_a_loaded_checkpoint_rewrites_it_byte_for_byte(tmp_path_factory, model):
    # the convention travels with the model, so an ising checkpoint stays ising
    from qgns import load_model, save_model
    first, second = (tmp_path_factory.mktemp("ckpt") / name for name in ("p.json", "q.json"))
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(second.read_text(encoding="utf-8"))["convention"] == model.convention.value


def test_a_checkpoint_without_a_convention_loads_without_one(tmp_path):
    from qgns import load_model
    d = model_to_dict(k2_model(), seed=1)
    assert d["convention"] == "cp"
    del d["convention"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    model = load_model(path)  # under the fallback it is given, cp by default
    assert model.convention is EdgeConvention.CONTROLLED_PHASE and model.m == 1
    assert load_model(path, EdgeConvention.ISING_ZZ).convention is EdgeConvention.ISING_ZZ
    d["convention"] = "cp"  # a recorded convention wins over the fallback
    path.write_text(json.dumps(d), encoding="utf-8")
    assert load_model(path, EdgeConvention.ISING_ZZ).convention is (
        EdgeConvention.CONTROLLED_PHASE)


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
