"""The batched circuit executor of the trainer against the one-circuit-at-a-time path.

Every (parameter row, item) circuit of a batch must match the circuit built
gate by gate with apply_gate and read out from rotated clones, and must not
depend on the other rows in its batch.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (DataItem, Dataset, EdgeConvention, Graph, ModelSpec,
                  StateVector, class_prototypes, encode_features, swap_test_overlap)
import qgns.executor as executor
from qgns.executor import compile_circuit, draw_readouts, exact_readouts, param_rows
from qgns.sim import run_program

from helpers import (cp_matrix, dense_apply, ising_matrix, layer_params,
                     layered_circuit_oracle, random_graph, random_state, rotated_p1,
                     swap_circuit_p0, zz_oracle)

READOUTS = ("Y", "Z", "ZZ")


def _case(seed: int, n: int, m: int, items: int, shared: bool, readout: str):
    """A random model, a dataset of `items` items read out by `readout`, and
    the model's flat parameter count."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weighted=True)
    if readout == "ZZ" and g.n_edges == 0:
        g = Graph.from_edges(n, [(0, n - 1, float(rng.uniform(0.0, 2 * math.pi)))])
    rows = 1 if shared else m
    model = ModelSpec(g, m, rng.uniform(-math.pi, math.pi, (m, n)),
                      rng.uniform(0.0, 2 * math.pi, (rows, g.n_edges)), shared_weights=shared)
    if readout == "ZZ":
        data = tuple(DataItem(g, rng.uniform(0, 1, n), tuple(rng.uniform(-1, 1, g.n_edges)))
                     for _ in range(items))
        ds = Dataset("edge", data)
    else:
        data = tuple(DataItem(g, rng.uniform(0, 1, n), (1,) * n) for _ in range(items))
        ds = Dataset("node", data, node_basis=readout)
    return rng, model, ds


def _values(model, ds, params, convention, prototypes=None, shots=0, rng=None):
    """Readout values of every (flat parameter row, item) circuit."""
    circuit = compile_circuit(model, ds, convention, prototypes)
    return draw_readouts(exact_readouts(circuit, param_rows(circuit.program, params)), circuit,
                         shots, rng)


CASES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 3),
             rows=st.integers(1, 4), items=st.integers(1, 3),
             convention=st.sampled_from(list(EdgeConvention)), shared=st.booleans(),
             readout=st.sampled_from(READOUTS))


@settings(max_examples=80, deadline=None)
@given(**CASES)
def test_every_row_matches_the_gate_by_gate_circuit(seed, n, m, rows, items, convention,
                                                     shared, readout):
    if readout == "ZZ" and n == 1:
        n = 2
    rng, model, ds = _case(seed, n, m, items, shared, readout)
    params = rng.uniform(-math.pi, math.pi, (rows, model.theta.size + model.weights.size))
    angles, weights = layer_params(model, params)
    values = _values(model, ds, params, convention)
    for i, item in enumerate(ds.items):
        assert values[i].shape[0] == rows
        for b in range(rows):
            total = angles[b].copy()
            total[0] += encode_features(item.features)
            s = layered_circuit_oracle(model.graph, total, weights[b], convention)
            if readout == "ZZ":
                expected = [zz_oracle(s, u, v) for u, v, _ in model.graph.edges]
            else:
                expected = [rotated_p1(s, v, readout) for v in range(n)]
            assert np.max(np.abs(values[i][b] - expected)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_rows_do_not_depend_on_the_batch(seed, n, m, rows, items, convention, shared,
                                         readout):
    if readout == "ZZ" and n == 1:
        n = 2
    rng, model, ds = _case(seed, n, m, items, shared, readout)
    params = rng.uniform(-math.pi, math.pi, (rows, model.theta.size + model.weights.size))
    batched = _values(model, ds, params, convention)
    for b in range(rows):
        alone = _values(model, ds, params[b:b + 1], convention)
        for i in range(len(ds.items)):
            assert np.array_equal(batched[i][b], alone[i][0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), rows=st.integers(1, 4),
       kind=st.sampled_from(["Ry", "CP", "IsingZZ"]))
def test_row_kernels_match_the_dense_gate_per_row(seed, n, rows, kind):
    rng = np.random.default_rng(seed)
    if kind != "Ry" and n == 1:
        n = 2
    qubits = tuple(int(q) for q in rng.choice(n, 1 if kind == "Ry" else 2, replace=False))
    params = rng.uniform(-2 * math.pi, 2 * math.pi, rows)
    start = np.array([random_state(rng, n) for _ in range(rows)])
    amps = start.copy()
    run_program(amps, ((kind, qubits, 0),), params[:, None])
    for b in range(rows):
        if kind == "Ry":
            c, s = math.cos(params[b] / 2), math.sin(params[b] / 2)
            mat = np.array([[c, -s], [s, c]], dtype=complex)
        else:
            mat = (cp_matrix if kind == "CP" else ising_matrix)(params[b])
        assert np.allclose(amps[b], dense_apply(mat, qubits, n, start[b]), atol=1e-12)


@pytest.mark.parametrize("readout", ["Y", "ZZ", "graph"])
@pytest.mark.parametrize("shots", [0, 50])
@pytest.mark.parametrize("budget", [100, 16 * 16, 3 * 16 * 16, 7 * 16 * 16])
def test_chunked_circuits_match_one_stack(monkeypatch, budget, shots, readout):
    # 5 parameter rows x 3 items of 16 amplitudes; the budgets hold less than
    # one circuit, one, one parameter row's three, and seven (chunks that cut
    # across parameter rows)
    if readout == "graph":
        rng, model, _ = _case(7, 4, 2, 3, False, "Y")
        ds = Dataset("graph", tuple(DataItem(model.graph, rng.uniform(0, 1, 4), k % 2)
                                    for k in range(3)))
        protos = class_prototypes(ds, EdgeConvention.CONTROLLED_PHASE)
    else:
        rng, model, ds = _case(7, 4, 2, 3, False, readout)
        protos = None
    params = rng.uniform(-math.pi, math.pi, (5, model.theta.size + model.weights.size))
    conv = EdgeConvention.CONTROLLED_PHASE
    whole = _values(model, ds, params, conv, protos, shots, np.random.default_rng(3))
    stack_bytes = []

    def recording(amps, *args):
        stack_bytes.append(amps.nbytes)
        return readouts(amps, *args)

    readouts = executor._readouts
    monkeypatch.setattr(executor, "_readouts", recording)
    monkeypatch.setattr(executor, "_STACK_BYTES", budget)
    chunked = _values(model, ds, params, conv, protos, shots, np.random.default_rng(3))
    for a, b in zip(whole, chunked):
        np.testing.assert_array_equal(a, b)
    assert sum(stack_bytes) == 15 * 16 * 16
    assert max(stack_bytes) <= max(budget, 16 * 16)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), rows=st.integers(1, 3),
       items=st.integers(2, 4), convention=st.sampled_from(list(EdgeConvention)))
def test_graph_scores_match_the_swap_circuit_and_draw_in_row_prototype_order(
        seed, n, rows, items, convention):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weighted=True)
    model = ModelSpec(g, 1, rng.uniform(-math.pi, math.pi, (1, n)),
                      rng.uniform(0.0, 2 * math.pi, (1, g.n_edges)))
    ds = Dataset("graph", tuple(DataItem(g, rng.uniform(0, 1, n), k % 2)
                                for k in range(items)))
    protos = class_prototypes(ds, convention)
    params = rng.uniform(-math.pi, math.pi, (rows, model.theta.size + model.weights.size))
    exact = _values(model, ds, params, convention, protos)
    shots = _values(model, ds, params, convention, protos, 200, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    offsets = np.array([encode_features(item.features) for item in ds.items])
    program = executor.gate_program(model, convention)
    total = np.repeat(param_rows(program, params), items, axis=0)
    total[:, :n] += np.tile(offsets, (rows, 1))
    states = executor.circuit_states(program, n, total)
    for r, amps in enumerate(states):
        b, i = divmod(r, items)
        for c, proto in enumerate(protos):
            s = StateVector(n, amps)
            assert abs(exact[i][b, c] - (2 * swap_circuit_p0(s, proto) - 1)) <= 1e-12
            assert shots[i][b, c] == swap_test_overlap(s, proto, 200, draws)[1]


def test_layer_zero_is_prepared_without_ry_passes(monkeypatch):
    rng, model, ds = _case(11, 5, 1, 2, False, "Y")
    calls = []

    def recording(amps, program, rows):
        calls.extend(kind for kind, _, _ in program)
        return run_program(amps, program, rows)

    monkeypatch.setattr(executor, "run_program", recording)
    params = rng.uniform(-math.pi, math.pi, (3, model.theta.size + model.weights.size))
    _values(model, ds, params, EdgeConvention.CONTROLLED_PHASE)
    assert model.graph.n_edges and calls == ["CP"] * model.graph.n_edges
