"""Node, edge, and graph-level readouts.

All estimators are exact when shots = 0 and otherwise emulate repeated
preparation: the exact Born probability is computed once and the shot
record is drawn binomially from it. Input states are never modified.

The readouts are closed forms on amplitudes: node_p1, edge_zzs and
swap_tests read whole stacks of states without rotated copies or a 2n+1
qubit swap register, and the single-state readouts apply them to one state.
edge_phase_estimate reads its Hadamard test from the diagonal of the edge
entangler, without a transformed copy of the state.

edge_zzs squares a stack once and reads every edge from shared sums of
aligned blocks of 128 floats. numpy's float64 sum is pairwise and splits
every power-of-two run above 128 values into exact halves, so the
adjacent-pairs tree of those block sums has the bits of one np.sum over the
whole signed array; an edge endpoint above the block bits only negates
whole block sums, and negation commutes exactly with rounded addition.
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


# numpy adds float64 pairwise: a run of at most 128 values is one unrolled
# loop, a longer one the sum of its two halves (split at a multiple of 8). So
# the sum of 2^k values is the adjacent-pairs tree of the sums of its aligned
# blocks of 2^j >= 128 values. The guard test in tests/test_tasks.py fails
# first if a numpy release changes this.
_PAIRWISE_LEAF = 128
_SLICE_FLOATS = 1 << 15   # 256 KiB: a cache-sized slice of signed blocks


def _pairwise_tree(sums: np.ndarray) -> np.ndarray:
    """Add the last axis (a power-of-two length) in adjacent pairs until one
    value is left: the top levels of numpy's pairwise sum over the blocks."""
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def _signed_row_sums(rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The sum of each row of rows * signs, for a contiguous (R, L) array,
    taken over slices of rows so that each signed copy stays cache-sized
    rather than a second stack-sized array."""
    step = max(1, _SLICE_FLOATS // rows.shape[-1])
    return np.concatenate([(rows[k:k + step] * signs).sum(axis=-1)
                           for k in range(0, len(rows), step)])


def _parity_signs(index: np.ndarray, bits) -> np.ndarray:
    """(-1)^(sum of the given bits of each index), as floats."""
    signs = np.ones(index.size)
    for b in bits:
        signs *= 1 - 2 * ((index >> b) & 1)
    return signs


def node_p1(amps: np.ndarray, qubits, basis: str = "Y") -> np.ndarray:
    """Probability of the -1 outcome on each of the qubits, for every state
    of a (..., 2^n) amplitude stack, as a (..., Q) array.

    With (a0, a1) the amplitude pairs that differ only in a qubit's bit, the
    Z-basis p1 is sum |a1|^2 and the Y-basis p1 is sum |a0 + i a1|^2 / 2,
    the Z read after the Sdg, H basis change. The 1/2 enters as a rounded
    1/sqrt(2) on each term, as applying H rounds it. The Y-basis goldens pin
    this form's bits; the Sdg, H gate path rounds differently in the last
    bits and agrees with it within 1e-14.
    """
    if basis not in _READOUT_BASES:
        raise ValueError(f"node readout basis must be Y or Z, got {basis!r}")
    lead = amps.shape[:-1]
    out = np.empty(lead + (len(qubits),))
    for k, q in enumerate(qubits):
        pairs = amps.reshape(lead + (-1, 2, 1 << q))
        if basis == "Z":
            out[..., k] = _summed_sq(pairs[..., 1, :])
            continue
        rotated = pairs[..., 1, :] * 1j
        rotated *= _SQRT2_INV
        rotated += pairs[..., 0, :] * _SQRT2_INV
        out[..., k] = _summed_sq(rotated)
    return out


def edge_zzs(amps: np.ndarray, pairs) -> np.ndarray:
    """<Z_u Z_v> of every (u, v) in pairs, for every state of a contiguous
    (..., 2^n) amplitude stack, as a (..., E) array: the basis probabilities
    summed with the sign (-1)^(bit u + bit v).

    The interleaved real and imaginary parts are squared once and cut into
    aligned blocks of _PAIRWISE_LEAF floats. Edges whose endpoints inside a
    block are the same (none, u, or u and v) share one signed sum per block;
    an endpoint above the block bits only signs whole blocks. Negation is
    exact and (-x) + (-y) = -(x + y) in rounded arithmetic, so the pairwise
    tree of the signed block sums has the bits of summing the signed squares
    in one pass.
    """
    lead = amps.shape[:-1]
    # squares of the interleaved real and imaginary parts, 2 floats per amplitude
    rows = (amps.view(np.float64) ** 2).reshape(-1, min(_PAIRWISE_LEAF, 2 * amps.shape[-1]))
    inner = rows.shape[-1].bit_length() - 2     # qubits below this lie inside a block
    offsets = np.arange(rows.shape[-1]) >> 1     # amplitude index within a block
    index = np.arange(2 * amps.shape[-1] // rows.shape[-1])    # block index within a state
    columns_of, sums, columns, signs = {}, [], [], []
    for pair in pairs:
        low = tuple(sorted(q for q in pair if q < inner))
        if low not in columns_of:
            columns_of[low] = len(sums)
            sums.append((_signed_row_sums(rows, _parity_signs(offsets, low)) if low
                         else rows.sum(axis=-1)).reshape(lead + (-1,)))
        columns.append(columns_of[low])
        signs.append(_parity_signs(index, [q - inner for q in pair if q >= inner]))
    if not columns:
        return np.zeros(lead + (0,))
    del rows    # the signed block sums below take the squares' place
    return _pairwise_tree(np.stack(sums, axis=-2)[..., columns, :] * np.array(signs))


def node_readout(s: StateVector, qubit: int, basis: str = "Y", shots: int = 0,
                 rng: np.random.Generator | None = None) -> tuple[float, int]:
    """Probability of the -1 outcome on one qubit, plus the thresholded bit.

    Returns (p1, class_bit) with class_bit = 1 iff p1 > 0.5. Multi-class
    readouts use several qubits per node, one call each.
    """
    s.require_normalized()
    _check_qubits(s, (qubit,))
    p1 = float(node_p1(s.amps, [qubit], basis)[0])
    if shots > 0:
        p1 = float(binomial_estimate(p1, shots, rng))
    return p1, int(p1 > 0.5)


def edge_readout(s: StateVector, u: int, v: int, shots: int = 0,
                 rng: np.random.Generator | None = None) -> float:
    """Estimate of <Z_u Z_v>, exact when shots = 0."""
    s.require_normalized()
    _check_qubits(s, (u, v))
    exact = float(edge_zzs(s.amps, [(u, v)])[0])
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
