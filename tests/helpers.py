"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against the basis-index definition
(explicit loops, kron products) rather than the package's vectorized
kernels, so the two paths never share a bug. The exceptions are the last
groups: the tuple feature encoding and the scalar training loss and
shift-rule loop that qgns.qgnn and qgns.train compute as arrays, the
one-circuit-at-a-time path (apply_gate per gate, a rotated
clone per node readout, a Pauli-flipped clone per edge readout) that the
batched trainer executor and the graph-state builder must reproduce bit for
bit, the one-pass-per-edge <ZZ> that the shared block sums of qgns.tasks
must reproduce bit for bit, and the simulated circuits (the CSWAP swap
test, the dense LCU select operator, the stabilizer applied to a clone, the
Hadamard test on a transformed clone) whose closed forms the package
computes instead.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from qgns import (GateOp, Graph, StateVector, apply_gate, expectation_pauli, new_state,
                  pad_matrix, stabilizer_of, tensor)
from qgns.filters import select_powers_operator
from qgns.graphstate import edge_kind


def dense_apply(mat: np.ndarray, targets, n: int, vec: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the target qubits by explicit index loops.

    Operator bit j corresponds to targets[j]; qubit q is bit q of the index.
    """
    targets = list(targets)
    out = np.zeros_like(np.asarray(vec, dtype=complex))
    for idx in range(len(vec)):
        row = 0
        for j, q in enumerate(targets):
            row |= ((idx >> q) & 1) << j
        for col in range(mat.shape[0]):
            src = idx
            for j, q in enumerate(targets):
                bit = (col >> j) & 1
                src = (src & ~(1 << q)) | (bit << q)
            out[idx] += mat[row, col] * vec[src]
    return out


def cp_matrix(w: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * w)])


def ising_matrix(w: float) -> np.ndarray:
    return np.diag([np.exp(-1j * w), np.exp(1j * w), np.exp(1j * w), np.exp(-1j * w)])


def cry_4x4(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = [[c, -s], [s, c]]
    return m


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


def random_graph(rng: np.random.Generator, n: int, weighted: bool = False,
                 p_edge: float = 0.5) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                if weighted:
                    edges.append((u, v, float(rng.uniform(0.0, 2.0 * np.pi))))
                else:
                    edges.append((u, v))
    return Graph.from_edges(n, edges)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, max_vertices: int = 8) -> Graph:
    """Hypothesis strategy: a graph on 1..max_vertices vertices whose edges,
    in drawn order, carry any finite weight or the default pi."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.one_of(st.none(), FINITE), min_size=len(chosen),
                            max_size=len(chosen)))
    return Graph.from_edges(n, [(u, v) if w is None else (u, v, w)
                                for (u, v), w in zip(chosen, weights)])


def permute_qubits(amps: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits: bit q of the input becomes bit perm[q] of the output."""
    n = len(perm)
    out = np.zeros_like(amps)
    for idx in range(len(amps)):
        tgt = 0
        for q in range(n):
            tgt |= ((idx >> q) & 1) << perm[q]
        out[tgt] = amps[idx]
    return out


def graph_state_amp_oracle(g: Graph, idx: int) -> complex:
    """Closed-form amplitude from the edge sum: the quadratic form reduces to
    sum of w_uv over edges with both endpoint bits set."""
    phase = 0.0
    for u, v, w in g.edges:
        if (idx >> u) & 1 and (idx >> v) & 1:
            phase += w
    return np.exp(1j * phase) / np.sqrt(1 << g.n_vertices)


_CLIP = 1e-7  # the BCE clip of the trained loss


def bce_oracle(p: float, y: float) -> float:
    """Binary cross-entropy of one readout, p clipped to [1e-7, 1 - 1e-7]."""
    q = min(max(p, _CLIP), 1.0 - _CLIP)
    return -(y * math.log(q) + (1.0 - y) * math.log(1.0 - q))


def item_loss_oracle(values, targets, squared: bool) -> float:
    """An item's mean loss, one readout at a time in Python floats."""
    total = 0.0
    for p, y in zip(values, targets):
        total += (p - y) ** 2 if squared else bce_oracle(p, y)
    return total / len(values)


def row_losses_oracle(values, targets, squared: bool) -> list[float]:
    """Mean per-item loss of each row of per-item (B, L_i) value arrays,
    summed item by item: the scalar loop the trainer computed before its
    loss was formed as arrays."""
    losses = [0.0] * values[0].shape[0]
    for vals, item_targets in zip(values, targets):
        for b, row in enumerate(vals.tolist()):
            losses[b] += item_loss_oracle(row, item_targets, squared)
    return [total / len(values) for total in losses]


def encode_features_oracle(x) -> tuple[str, list[float]]:
    """The ("ry", angles) init spec that feature encoding returned before it
    returned a plain array: min-max scaled x, times pi entry by entry in
    Python floats (pi/2 everywhere for a constant vector)."""
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    scaled = np.full(x.shape, 0.5) if hi - lo < 1e-300 else (x - lo) / (hi - lo)
    return ("ry", [math.pi * float(t) for t in scaled])


def bce_dp_oracle(p: float, y: float) -> float:
    """d(BCE)/dp of one readout: 0 where the loss is clipped flat."""
    if p <= _CLIP or p >= 1.0 - _CLIP:
        return 0.0
    return (p - y) / (p * (1.0 - p))


def item_grad_oracle(values, targets, squared: bool) -> np.ndarray:
    """Gradient of an item's mean loss with respect to its readout values."""
    grad = [2.0 * (p - y) if squared else bce_dp_oracle(p, y)
            for p, y in zip(values, targets)]
    return np.array(grad) / len(values)


def pshift_gradient_oracle(values, targets, program, shifts, n_params: int,
                           squared: bool) -> np.ndarray:
    """The shift-rule gradient one (item, gate) pair at a time: values holds
    each item's (2G + 1, L_i) readouts (base row, then gate j's +shift and
    -shift rows at 2j + 1, 2j + 2), targets its readout targets, program the
    (kind, qubits, slot) gates and shifts the (shift, prefactor) per kind."""
    grad = np.zeros(n_params)
    for vals, item_targets in zip(values, targets):
        base = vals[0].tolist()
        dvals = item_grad_oracle(base, item_targets, squared)
        for j, (kind, _, slot) in enumerate(program):
            col = shifts[kind][1] * (vals[2 * j + 1] - vals[2 * j + 2])
            grad[slot] += float(dvals @ col)
    return grad / len(values)


def layer_params(model, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat parameter vectors (B, P) in the layout layered_circuit_oracle
    reads: angles (B, m, n) and edge weights (B, m, e), a shared weight row
    repeated for every layer."""
    rows, nt = params.shape[0], model.theta.size
    angles = params[:, :nt].reshape((rows,) + model.theta.shape)
    weights = params[:, nt:].reshape((rows,) + model.weights.shape)
    if model.shared_weights:
        weights = np.repeat(weights, model.m, axis=1)
    return angles, weights


def layered_circuit_oracle(g: Graph, angles: np.ndarray, weights: np.ndarray,
                           convention) -> StateVector:
    """The trainer's layered circuit for one item, one apply_gate call per gate:
    per layer, Ry(angles[i, v]) on every vertex, then each edge's entangler
    with phase weights[i, k]."""
    s = new_state(g.n_vertices)
    for i in range(angles.shape[0]):
        for v in range(g.n_vertices):
            apply_gate(s, GateOp("Ry", (v,), angles[i, v]))
        for k, (u, v, _) in enumerate(g.edges):
            apply_gate(s, GateOp(edge_kind(convention), (u, v), weights[i, k]))
    return s


def graph_state_oracle(g: Graph, convention, angles=None, weights=None) -> StateVector:
    """build_graph_state one apply_gate call per gate: |+>^n, or Ry(angles[v])
    on |0> for every vertex v, then each edge's entangler with its weight
    (or weights[k] for edge k)."""
    if angles is None:
        s = new_state(g.n_vertices, "plus")
    else:
        s = new_state(g.n_vertices)
        for v, theta in enumerate(angles):
            apply_gate(s, GateOp("Ry", (v,), theta))
    for k, (u, v, w) in enumerate(g.edges):
        apply_gate(s, GateOp(edge_kind(convention), (u, v), w if weights is None else weights[k]))
    return s


def hadamard_test(s: StateVector, gates) -> complex:
    """<s|U|s>, U the product of gates in order, against a transformed clone
    of s: the exact Hadamard-test expectations as real and imaginary parts."""
    transformed = s.clone()
    for g in gates:
        apply_gate(transformed, g)
    return complex(np.vdot(s.amps, transformed.amps))


def rotated_p1(s: StateVector, qubit: int, basis: str) -> float:
    """Node p1 by rotating a clone into the Z basis (Sdg then H for Y) and
    summing |a1|^2 over the qubit's 1 half."""
    work = s.clone()
    if basis == "Y":
        apply_gate(work, GateOp("Sdg", (qubit,)))
        apply_gate(work, GateOp("H", (qubit,)))
    view = work.amps.reshape(-1, 2, 1 << qubit)
    return float(np.sum(np.abs(view[:, 1, :]) ** 2))


def edge_zz_oracle(amps: np.ndarray, u: int, v: int) -> np.ndarray:
    """<Z_u Z_v> for every state of a contiguous (..., 2^n) stack, one pass
    per edge: square the interleaved floats, flip the signs of the odd-parity
    ones in place and sum them all."""
    hi, lo = max(u, v), min(u, v)
    sq = amps.view(np.float64) ** 2
    view = sq.reshape(amps.shape[:-1] + (-1, 2, 1 << (hi - lo - 1), 2, 2 << lo))
    view[..., 0, :, 1, :] *= -1.0
    view[..., 1, :, 0, :] *= -1.0
    return sq.sum(axis=-1)


def zz_oracle(s: StateVector, u: int, v: int) -> float:
    """<Z_u Z_v> as <s| Z_u Z_v |s> on a Z-flipped clone."""
    return expectation_pauli(s, {u: "Z", v: "Z"})


# CSWAP on operator bits (u, v, control): within control = 1, swap the
# patterns u=1,v=0 and u=0,v=1
CSWAP_MATRIX = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]


def swap_circuit_p0(s1: StateVector, s2: StateVector) -> float:
    """Ancilla-|0> probability of the simulated swap test: s1 on qubits
    0..n-1, s2 on n..2n-1, the ancilla on 2n; H, CSWAP(ancilla, i, n+i) for
    every i (an 8x8 LinOp), H, then sum |amp|^2 over the ancilla's 0 half."""
    n = s1.n_qubits
    ancilla = 2 * n
    full = tensor(tensor(s1, s2), new_state(1, "zero"))
    apply_gate(full, GateOp("H", (ancilla,)))
    for i in range(n):
        apply_gate(full, GateOp("LinOp", (i, n + i, ancilla), matrix=CSWAP_MATRIX))
    apply_gate(full, GateOp("H", (ancilla,)))
    view = full.amps.reshape(-1, 2, 1 << ancilla)
    return float(np.sum(np.abs(view[:, 0, :]) ** 2))


def dense_lcu_filter(x, L, w) -> tuple[np.ndarray, float]:
    """apply_filter_lcu through the dense select operator: kron the signed
    coefficient amplitudes with x, apply sum_j |j><j| (x) L^j as one matrix,
    and project the index register onto the uniform state."""
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    d = len(x)
    lp = pad_matrix(L)
    p = lp.shape[0]
    a = max(w.size - 1, 0).bit_length()
    x_pad, w_pad = np.zeros(p), np.zeros(1 << a)
    x_pad[:d], w_pad[:w.size] = x, w
    state = select_powers_operator(lp, a) @ np.kron(w_pad / np.linalg.norm(w),
                                                    x_pad / np.linalg.norm(x))
    y_raw = state.reshape(1 << a, p).sum(axis=0) / np.sqrt(1 << a)
    nrm = np.linalg.norm(y_raw)
    return y_raw[:d] / nrm, nrm * np.sqrt(1 << a) * np.linalg.norm(w) * np.linalg.norm(x)


def stabilizer_residuals(g: Graph, s: StateVector) -> list[float]:
    """Per-vertex ||S_v s - s|| with S_v = X_v prod Z_u applied gate by gate
    to a clone of s (PauliString.apply_to)."""
    return [float(np.linalg.norm(stabilizer_of(g, v).apply_to(s).amps - s.amps))
            for v in range(g.n_vertices)]
