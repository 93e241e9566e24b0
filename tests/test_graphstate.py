from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (DataItem, Dataset, EdgeConvention, Graph, StateVector, build_graph_state,
                  class_prototypes, constraint_round, decomposition_amplitude, new_state,
                  pool_measure, verify_stabilizers)
import qgns.graphstate as graphstate
import qgns.sim as sim

from helpers import (cp_matrix, dense_apply, graph_state_amp_oracle, graph_state_oracle,
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
    # the Ry-product init of a graph state is a class prototype's: a
    # constant feature vector encodes to Ry(pi/2)|0> = |+> on every vertex
    def prototype(features):
        return class_prototypes(Dataset("graph", (DataItem(k2, features, 0),)))[0]

    assert np.allclose(prototype([1.0, 1.0]), build_graph_state(k2).amps, atol=1e-15)
    # [1, 0] encodes to Ry(pi)|0> = |1> on vertex 0 and |0> on vertex 1: no 11
    # component, so CZ acts trivially
    assert np.allclose(prototype([1.0, 0.0]), [0.0, 1.0, 0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(g=graphs(max_vertices=10), convention=st.sampled_from(list(EdgeConvention)))
def test_build_matches_the_gate_by_gate_oracle_bit_for_bit(g, convention):
    np.testing.assert_array_equal(build_graph_state(g, convention).amps,
                                  graph_state_oracle(g, convention).amps)


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
    # graphstate binds no apply_gate of its own; refuse one if it ever does
    monkeypatch.setattr(graphstate, "apply_gate", refuse, raising=False)
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


def test_ising_convention_k2():
    g = Graph.from_edges(2, [(0, 1, 0.9)])
    s = build_graph_state(g, EdgeConvention.ISING_ZZ)
    expected = np.array([cmath.exp(-0.9j), cmath.exp(0.9j),
                         cmath.exp(0.9j), cmath.exp(-0.9j)]) / 2.0
    assert np.allclose(s.amps, expected, atol=1e-14)
