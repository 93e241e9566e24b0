"""Node, edge, and graph-level readouts.

All estimators are exact when shots = 0 and otherwise emulate repeated
preparation: the exact Born probability is computed once and the shot
record is drawn binomially from it. Input states are never modified.

The readouts are closed forms on amplitudes: node_p1, edge_zz and
swap_tests read whole stacks of states without rotated copies or a 2n+1
qubit swap register, and the single-state readouts apply them to one state.
edge_phase_estimate reads its Hadamard test from the diagonal of the edge
entangler, without a transformed copy of the state.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph
from .graphstate import EdgeConvention, edge_program
from .sim import _SQRT2_INV, StateVector, _check_qubits, diagonal_expectation

_READOUT_BASES = ("Y", "Z")


def binomial_estimate(p, shots: int, rng: np.random.Generator | None):
    """Shot estimate Binomial(shots, p) / shots of a probability, or of an
    array of them drawn in C order (the same draws as one call per entry)."""
    if rng is None:
        raise ValueError("shot-based estimation needs an rng")
    return rng.binomial(shots, np.clip(p, 0.0, 1.0)) / shots


def sign_estimate(expectation, shots: int, rng: np.random.Generator | None):
    """Shot estimate of the expectation of a +-1-valued observable, from the
    probability (1 + expectation) / 2 of the +1 outcome."""
    return 2.0 * binomial_estimate(0.5 * (1.0 + expectation), shots, rng) - 1.0


def _summed_sq(x: np.ndarray) -> np.ndarray:
    """sum |x|^2 over the last two axes. The pairwise sums of each row are
    the same whatever the leading (batch) axes are."""
    return (np.abs(x) ** 2).sum(axis=(-2, -1))


def node_p1(amps: np.ndarray, qubit: int, basis: str = "Y") -> np.ndarray:
    """Probability of the -1 outcome on one qubit, for every state of a
    (..., 2^n) amplitude stack.

    With (a0, a1) the amplitude pairs that differ only in the qubit's bit,
    the Z-basis p1 is sum |a1|^2 and the Y-basis p1 is sum |a0 + i a1|^2 / 2,
    the Z read after the Sdg, H basis change. The 1/2 enters as a rounded
    1/sqrt(2) on each term, as applying H rounds it, so p1 agrees bit for
    bit with the gate path and seeded shot draws at p1 ~ 1/2 do too.
    """
    if basis not in _READOUT_BASES:
        raise ValueError(f"node readout basis must be Y or Z, got {basis!r}")
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << qubit))
    if basis == "Z":
        return _summed_sq(pairs[..., 1, :])
    rotated = pairs[..., 1, :] * 1j
    rotated *= _SQRT2_INV
    rotated += pairs[..., 0, :] * _SQRT2_INV
    return _summed_sq(rotated)


def edge_zz(amps: np.ndarray, u: int, v: int) -> np.ndarray:
    """<Z_u Z_v> for every state of a contiguous (..., 2^n) amplitude stack:
    the basis probabilities summed with the sign (-1)^(bit u + bit v)."""
    hi, lo = max(u, v), min(u, v)
    # squares of the interleaved real and imaginary parts, 2 floats per amplitude
    sq = amps.view(np.float64) ** 2
    view = sq.reshape(amps.shape[:-1] + (-1, 2, 1 << (hi - lo - 1), 2, 2 << lo))
    view[..., 0, :, 1, :] *= -1.0
    view[..., 1, :, 0, :] *= -1.0
    return sq.sum(axis=-1)


def node_readout(s: StateVector, qubit: int, basis: str = "Y", shots: int = 0,
                 rng: np.random.Generator | None = None) -> tuple[float, int]:
    """Probability of the -1 outcome on one qubit, plus the thresholded bit.

    Returns (p1, class_bit) with class_bit = 1 iff p1 > 0.5. Multi-class
    readouts use several qubits per node, one call each.
    """
    s.require_normalized()
    _check_qubits(s, (qubit,))
    p1 = float(node_p1(s.amps, qubit, basis))
    if shots > 0:
        p1 = float(binomial_estimate(p1, shots, rng))
    return p1, int(p1 > 0.5)


def edge_readout(s: StateVector, u: int, v: int, shots: int = 0,
                 rng: np.random.Generator | None = None) -> float:
    """Estimate of <Z_u Z_v>, exact when shots = 0."""
    s.require_normalized()
    _check_qubits(s, (u, v))
    exact = float(edge_zz(s.amps, u, v))
    if shots == 0:
        return exact
    return float(sign_estimate(exact, shots, rng))


def edge_phase_estimate(s: StateVector, g: Graph, u: int, v: int, shots: int = 0,
                        rng: np.random.Generator | None = None,
                        convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> float:
    """Hadamard-test estimate of Re<s|Uz(u,v,w_uv)|s> for an existing edge,
    from the closed form of a diagonal U (sim.diagonal_expectation)."""
    w = g.weight(u, v)  # raises for a missing edge
    re = diagonal_expectation(s, edge_program([(u, v, w)], convention), [w])
    if shots == 0:
        return re
    return float(sign_estimate(re, shots, rng))


def swap_tests(a: np.ndarray, b: np.ndarray, shots: int = 0,
               rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(p0, overlap_sq) of the swap tests between every state of an (R, 2^n)
    stack a and every state of a (C, 2^n) stack b, as (R, C) arrays.

    The ancilla-H / CSWAP / H circuit leaves its ancilla in |0> with p0 =
    (|a|^2 |b|^2 + |<a|b>|^2) / 2 (Buhrman et al. 2001); shots draw in C
    order. overlap_sq = 2*p0 - 1 clamped to [0, 1] (the raw shot estimator
    can dip slightly negative). Each <a|b> is its own dot product, so an
    entry never depends on the other states of its stack."""
    norms = np.outer(*[(np.abs(x) ** 2).sum(axis=-1) for x in (a, b)])
    inner = np.array([[np.vdot(y, x) for y in b] for x in a]).reshape(norms.shape)
    p0 = 0.5 * (norms + np.abs(inner) ** 2)
    if shots > 0:
        p0 = binomial_estimate(p0, shots, rng)
    return p0, np.clip(2.0 * p0 - 1.0, 0.0, 1.0)


def swap_test_overlap(s1: StateVector, s2: StateVector, shots: int = 0,
                      rng: np.random.Generator | None = None) -> tuple[float, float]:
    """(p0, overlap_sq) of the swap test between two equal-size states."""
    if s1.n_qubits != s2.n_qubits:
        raise ValueError(f"states differ in size: {s1.n_qubits} vs {s2.n_qubits} qubits")
    p0, overlap_sq = swap_tests(s1.amps[None], s2.amps[None], shots, rng)
    return float(p0[0, 0]), float(overlap_sq[0, 0])


def classify_graph(s: StateVector, class_states, shots: int = 0,
                   rng: np.random.Generator | None = None) -> tuple[list[float], int]:
    """Swap-test s against each class state; prediction is the argmax score.

    Ties break toward the lowest class index.
    """
    class_states = list(class_states)
    if not class_states:
        raise ValueError("need at least one class state")
    scores = [swap_test_overlap(s, c, shots, rng)[1] for c in class_states]
    best = int(np.argmax(scores))
    return scores, best
