from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (EdgeConvention, Graph, PauliString, StateVector, build_graph_state,
                  constraint_round, decomposition_amplitude, new_state, stabilizer_of,
                  verify_stabilizers)
import qgns.graphstate as graphstate
import qgns.sim as sim

from helpers import (FINITE, cp_matrix, dense_apply, graph_state_amp_oracle, graph_state_oracle,
                     graphs, permute_qubits, random_graph, random_state, stabilizer_residuals)

SQ2 = math.sqrt(2.0)


def test_k2_cz_state(k2):
    s = build_graph_state(k2)
    assert np.allclose(s.amps, np.array([1, 1, 1, -1]) / 2.0, atol=1e-15)


def test_edgeless_graph_is_plain_plus():
    s = build_graph_state(Graph(3))
    assert np.allclose(s.amps, new_state(3, "plus").amps)


def test_weighted_k2_against_dense_oracle():
    g = Graph.from_edges(2, [(0, 1, math.pi / 3)])
    s = build_graph_state(g)
    expected = dense_apply(cp_matrix(math.pi / 3), (0, 1), 2, np.full(4, 0.5, dtype=complex))
    assert np.allclose(s.amps, expected, atol=1e-14)
    assert s.amps[3] == pytest.approx(cmath.exp(1j * math.pi / 3) / 2)


def test_build_with_ry_and_product_inits(k2):
    via_ry = build_graph_state(k2, angles=[math.pi / 2, math.pi / 2])
    assert np.allclose(via_ry.amps, build_graph_state(k2).amps, atol=1e-15)
    # Ry(2 atan2(0.8, 0.6))|0> = 0.6|0> + 0.8|1>, Ry(0)|0> = |0>
    via_product = build_graph_state(k2, angles=[2.0 * math.atan2(0.8, 0.6), 0.0])
    # |x0> = 0.6|0> + 0.8|1>, |x1> = |0>: no 11 component, so CZ acts trivially
    assert np.allclose(via_product.amps, [0.6, 0.8, 0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=10),
       convention=st.sampled_from(list(EdgeConvention)))
def test_build_matches_the_gate_by_gate_oracle_bit_for_bit(data, g, convention):
    # the plus or the Ry start, with the graph's weights or an override
    n, e = g.n_vertices, g.n_edges
    angles = data.draw(st.one_of(st.none(), st.lists(st.floats(-4 * math.pi, 4 * math.pi),
                                                     min_size=n, max_size=n)))
    weights = data.draw(st.one_of(st.none(), st.lists(FINITE, min_size=e, max_size=e)))
    built = build_graph_state(g, convention, angles, weights)
    np.testing.assert_array_equal(built.amps,
                                  graph_state_oracle(g, convention, angles, weights).amps)


def test_build_init_errors(k2):
    with pytest.raises(ValueError, match="angles"):
        build_graph_state(k2, angles=[0.1])
    with pytest.raises(ValueError, match="weights"):
        build_graph_state(k2, weights=[0.1, 0.2])


def test_stabilizer_of_k2_and_fixture(k2, demo5):
    assert stabilizer_of(k2, 0).as_dict() == {0: "X", 1: "Z"}
    assert stabilizer_of(demo5, 0).as_dict() == {0: "X", 1: "Z", 3: "Z", 4: "Z"}
    assert stabilizer_of(Graph(2), 1).as_dict() == {1: "X"}
    with pytest.raises(ValueError):
        stabilizer_of(k2, 5)


def test_verify_k2_and_fixture_pass(k2, demo5):
    for g in (k2, demo5):
        report = verify_stabilizers(g, build_graph_state(g))
        assert report.passed
        assert report.max_residual < 1e-10
        assert len(report.residuals) == g.n_vertices


def test_verify_rejects_non_graph_state(k2):
    report = verify_stabilizers(k2, new_state(2, "zero"))
    assert not report.passed
    # X0 Z1 |00> = |01>, orthogonal to |00>: residual sqrt(2)
    assert report.residuals[0] == pytest.approx(SQ2)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       p_edge=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
       state=st.sampled_from(["random", "unnormalized", "graph", "weighted"]))
def test_verify_matches_the_clone_oracle(seed, n, p_edge, state):
    # low edge probabilities leave isolated vertices, whose stabilizer is X_v
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p_edge=p_edge)
    if state in ("random", "unnormalized"):
        scale = 1.0 if state == "random" else float(rng.uniform(0.1, 3.0))
        s = StateVector(n, scale * random_state(rng, n))
    elif state == "graph":
        s = build_graph_state(g)
    else:
        # a weighted graph's state, checked against the Paulis of its edges
        weighted = random_graph(rng, n, weighted=True, p_edge=p_edge)
        g = Graph.from_edges(n, [(u, v) for u, v, _ in weighted.edges])
        s = build_graph_state(weighted)
    amps = s.amps.copy()
    report = verify_stabilizers(g, s)
    oracle = stabilizer_residuals(g, s)
    np.testing.assert_allclose(report.residuals, oracle, rtol=0, atol=1e-13)
    assert report.passed == (max(oracle) < report.tol)
    np.testing.assert_array_equal(s.amps, amps)  # the state is left as it was


def test_verify_uses_no_clone_and_no_gate(monkeypatch):
    g = Graph.from_edges(12, [(v, (v + 1) % 12) for v in range(12)] + [(0, 6), (3, 9)])
    s = build_graph_state(g)

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_stabilizers cloned the state or applied a gate")

    monkeypatch.setattr(sim.StateVector, "clone", refuse)
    monkeypatch.setattr(sim, "apply_gate", refuse)
    monkeypatch.setattr(graphstate, "apply_gate", refuse)
    report = verify_stabilizers(g, s)
    assert report.passed and len(report.residuals) == 12


def test_verify_qubit_count_mismatch(k2):
    with pytest.raises(ValueError, match="vertices"):
        verify_stabilizers(k2, new_state(3, "plus"))


def test_decomposition_examples(k2):
    assert decomposition_amplitude(k2, 3) == pytest.approx(-0.5)
    g = random_graph(np.random.default_rng(0), 4, weighted=True)
    assert decomposition_amplitude(g, 0) == pytest.approx(1 / 4.0)
    g7 = Graph.from_edges(2, [(0, 1, 0.7)])
    assert decomposition_amplitude(g7, 3) == pytest.approx(cmath.exp(0.7j) / 2)
    assert decomposition_amplitude(g7, 3) == pytest.approx(build_graph_state(g7).amps[3])
    with pytest.raises(ValueError, match="range"):
        decomposition_amplitude(k2, 4)


def test_random_unweighted_suite_stabilizers(rng):
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(2, 9)))
        report = verify_stabilizers(g, build_graph_state(g))
        assert report.passed, report.residuals


def test_random_weighted_suite_decomposition(rng):
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(2, 7)), weighted=True)
        s = build_graph_state(g)
        for idx in range(s.dim):
            assert abs(s.amps[idx] - decomposition_amplitude(g, idx)) < 1e-10
            # second, independent oracle: phase = sum of w over edges inside W
            assert abs(s.amps[idx] - graph_state_amp_oracle(g, idx)) < 1e-10


def test_edge_order_invariance(rng):
    for _ in range(6):
        g = random_graph(rng, 6, weighted=True)
        edges = list(g.edges)
        rng.shuffle(edges)
        shuffled = Graph.from_edges(6, edges)
        a = build_graph_state(g).amps
        b = build_graph_state(shuffled).amps
        assert np.max(np.abs(a - b)) <= 1e-12


def test_vertex_relabeling_matches_qubit_permutation(rng):
    for _ in range(6):
        n = 5
        g = random_graph(rng, n, weighted=True)
        perm = rng.permutation(n)
        relabeled = Graph.from_edges(
            n, [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges])
        direct = build_graph_state(relabeled).amps
        permuted = permute_qubits(build_graph_state(g).amps, perm)
        assert np.max(np.abs(direct - permuted)) <= 1e-12


def test_constraint_round_examples(k2, demo5):
    for seed in range(10):
        assert constraint_round(k2, 0, np.random.default_rng(seed)).product == 1
    # isolated vertex: the |+> factor gives m_x = +1 with no neighbors
    lone = Graph(2)
    for seed in range(5):
        round_ = constraint_round(lone, 1, np.random.default_rng(seed))
        assert round_.records[0].outcome == 1
        assert round_.product == 1
    for seed in range(20):
        v = seed % 5
        assert constraint_round(demo5, v, np.random.default_rng(seed)).product == 1


def test_constraint_round_requires_unweighted():
    g = Graph.from_edges(2, [(0, 1, 0.4)])
    with pytest.raises(ValueError, match="unweighted"):
        constraint_round(g, 0, np.random.default_rng(0))


def test_ising_convention_k2():
    g = Graph.from_edges(2, [(0, 1, 0.9)])
    s = build_graph_state(g, EdgeConvention.ISING_ZZ)
    expected = np.array([cmath.exp(-0.9j), cmath.exp(0.9j),
                         cmath.exp(0.9j), cmath.exp(-0.9j)]) / 2.0
    assert np.allclose(s.amps, expected, atol=1e-14)


def test_pauli_string_sign():
    flipped = PauliString(((0, "X"),), sign=-1).apply_to(new_state(1, "plus"))
    assert np.allclose(flipped.amps, -new_state(1, "plus").amps)
