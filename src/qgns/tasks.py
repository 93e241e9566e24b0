"""Node, edge, and graph-level readouts.

All estimators are exact when shots = 0 and otherwise emulate repeated
preparation: the exact Born probability is computed once and the shot
record is drawn binomially from it. Input states are never modified.

The readouts are closed forms on amplitudes: node_p1, edge_zzs and
swap_tests read whole stacks of states without rotated copies or a 2n+1
qubit swap register, and the single-state readouts apply them to one state.

The readouts sum aligned blocks of sim.PAIRWISE_LEAF values and add the
block sums with sim.pairwise_tree, which has the bits of one np.sum. edge_zzs
squares a stack once and reads every edge from shared block sums; an edge
endpoint above the block bits only negates whole block sums, and negation
commutes exactly with rounded addition.
"""
from __future__ import annotations

import numpy as np

from .sim import (PAIRWISE_LEAF, _SQRT2_INV, StateVector, _check_qubits, block_sums,
                  pairwise_tree, qubit_pairs, run_parts, split_parts)

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


_SLICE_FLOATS = 1 << 15   # 256 KiB: a cache-sized slice of signed blocks


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

    Each of the sim.split_parts parts squares its run of every qubit's pairs
    into buffers allocated here and sums them in aligned blocks, and the
    pairwise tree of all the blocks gives the bits of one np.sum.
    """
    if basis not in _READOUT_BASES:
        raise ValueError(f"node readout basis must be Y or Z, got {basis!r}")
    qubits = list(qubits)
    lead = amps.shape[:-1]
    parts = split_parts(amps.shape[-1])
    run = lead + (amps.shape[-1] // 2 // parts,)       # each part's pairs per state
    squares = np.empty((parts,) + run)
    rotated, scaled = np.empty((2, parts) + run, complex) if basis == "Y" else (None, None)
    sums = np.empty(lead + (len(qubits), parts, -(-run[-1] // PAIRWISE_LEAF)))

    def part(p):
        mine, mine_sums = squares[p], sums[..., p, :]
        turned = (rotated[p], scaled[p]) if basis == "Y" else ()
        for k, q in enumerate(qubits):
            pairs = qubit_pairs(amps, q, parts, p)
            half = pairs[..., 1, :]
            if turned:
                half = np.multiply(half, 1j, out=turned[0].reshape(half.shape))
                half *= _SQRT2_INV
                half += np.multiply(pairs[..., 0, :], _SQRT2_INV, out=turned[1].reshape(half.shape))
            np.abs(half, out=mine.reshape(half.shape))
            block_sums(np.square(mine, out=mine), mine_sums[..., k, :])

    run_parts(part, parts)
    return pairwise_tree(sums.reshape(sums.shape[:-2] + (sums.shape[-2] * sums.shape[-1],)))


def edge_zzs(amps: np.ndarray, pairs) -> np.ndarray:
    """<Z_u Z_v> of every (u, v) in pairs, for every state of a contiguous
    (..., 2^n) amplitude stack, as a (..., E) array: the basis probabilities
    summed with the sign (-1)^(bit u + bit v).

    The interleaved real and imaginary parts are squared once and cut into
    aligned blocks of PAIRWISE_LEAF floats. Edges whose endpoints inside a
    block are the same (none, u, or u and v) share one signed sum per block;
    an endpoint above the block bits only signs whole blocks. Negation is
    exact and (-x) + (-y) = -(x + y) in rounded arithmetic, so the pairwise
    tree of the signed block sums has the bits of summing the signed squares
    in one pass. The blocks of the whole stack are cut into sim.split_parts
    runs, each squared and summed by one part.
    """
    lead = amps.shape[:-1]
    floats = amps.reshape(-1).view(np.float64)
    width = min(PAIRWISE_LEAF, 2 * amps.shape[-1])
    inner = width.bit_length() - 2               # qubits below this lie inside a block
    offsets = np.arange(width) >> 1              # amplitude index within a block
    index = np.arange(2 * amps.shape[-1] // width)    # block index within a state
    lows, columns, signs = [], [], []
    for pair in pairs:
        low = tuple(sorted(q for q in pair if q < inner))
        if low not in lows:
            lows.append(low)
        columns.append(lows.index(low))
        signs.append(_parity_signs(index, [q - inner for q in pair if q >= inner]))
    if not columns:
        return np.zeros(lead + (0,))
    low_signs = [_parity_signs(offsets, low) if low else None for low in lows]
    parts = split_parts(amps.shape[-1])
    blocks = floats.reshape(parts, -1, width)
    squares = np.empty(blocks.shape)
    step = max(1, _SLICE_FLOATS // width)
    scratch = np.empty((parts, min(step, blocks.shape[1]), width))
    sums = np.empty((len(lows),) + blocks.shape[:2])

    def part(p):
        rows = np.square(blocks[p], out=squares[p])
        for k, low_sign in enumerate(low_signs):
            if low_sign is None:
                np.add.reduce(rows, axis=-1, out=sums[k, p])
                continue
            # signed copies of cache-sized slices, not of the whole run
            for start in range(0, len(rows), step):
                chunk = rows[start:start + step]
                signed = np.multiply(chunk, low_sign, out=scratch[p, :len(chunk)])
                np.add.reduce(signed, axis=-1, out=sums[k, p, start:start + len(chunk)])

    run_parts(part, parts)
    del squares, scratch    # the signed block sums below take the squares' place
    sums = sums.reshape((len(lows),) + lead + (-1,))
    return pairwise_tree(np.moveaxis(sums, 0, -2)[..., columns, :] * np.array(signs))


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


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<b|a> of every state a of an (R, 2^n) stack and every state b of a
    (C, 2^n) stack, as an (R, C) array.

    Re <b|a> is the sum of the products of the interleaved real and
    imaginary parts of b and a, and Im <b|a> the same sum with i b in b's
    place. Every (a, b) pair's products of one slice are formed in one
    multiply into buffers allocated here and summed in aligned blocks, and
    the pairwise tree of a row's blocks has the bits of one np.sum of its
    products. The rows are cut into sim.split_parts runs, each made of
    cache-sized slices; no BLAS call, so no thread count, enters the sums.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    fa = a.view(np.float64)[:, None, :]
    fb = b.view(np.float64)
    cols, floats = fb.shape
    parts = split_parts(floats // 2)
    span = floats // parts
    step = min(span, _SLICE_FLOATS)
    width = min(PAIRWISE_LEAF, step)
    turned = np.empty((parts, cols, step // 2), complex)      # i b, one slice
    products = np.empty((parts, len(a), cols, 2, step))       # with b, with i b
    sums = np.empty((len(a), cols, 2, floats // width))

    def part(p):
        mine = products[p]
        for start in range(p * span, (p + 1) * span, step):
            stop = start + step
            np.multiply(fa[..., start:stop], fb[:, start:stop], out=mine[..., 0, :])
            np.multiply(b[:, start // 2:stop // 2], 1j, out=turned[p])
            np.multiply(fa[..., start:stop], turned[p].view(np.float64), out=mine[..., 1, :])
            block_sums(mine, sums[..., start // width:stop // width])

    run_parts(part, parts)
    return pairwise_tree(sums).view(complex)[..., 0]   # (Re, Im) pairs as complex


def swap_tests(a: np.ndarray, b: np.ndarray, shots: int = 0,
               rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(p0, overlap_sq) of the swap tests between every state of an (R, 2^n)
    stack a and every state of a (C, 2^n) stack b, as (R, C) arrays.

    The ancilla-H / CSWAP / H circuit leaves its ancilla in |0> with p0 =
    (|a|^2 |b|^2 + |<a|b>|^2) / 2 (Buhrman et al. 2001); shots draw in C
    order. overlap_sq = 2*p0 - 1 clamped to [0, 1] (the raw shot estimator
    can dip slightly negative). Each <a|b> is its own sum (_overlaps), so an
    entry never depends on the other states of its stack."""
    norms = np.outer(*[(np.abs(x) ** 2).sum(axis=-1) for x in (a, b)])
    p0 = 0.5 * (norms + np.abs(_overlaps(a, b)) ** 2)
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
