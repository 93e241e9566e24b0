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
must reproduce bit for bit, the serial kernels that the part-split kernels of qgns.sim, qgns.tasks
and qgns.graphstate must reproduce bit for bit at any worker count, the
simulated circuits (the CSWAP swap test,
the dense LCU select operator, the stabilizer applied to a clone) whose
closed forms the package computes instead, and the superposed state of a
model's layer states under an explicit index register. model_circuit is no
oracle: it runs one item's circuit through the trainer's own executor for
tests that need the state. The fixed gates (H, Sdg, X, Z) are explicit
matrices applied with apply_linear_operator, as apply_gate takes only the
parametrised kinds.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from qgns import (MAX_QUBITS, GateOp, Graph, StateVector, apply_gate,
                  apply_linear_operator, build_graph_state, encode_features, expectation_pauli,
                  neighborhood, new_state, params_of, tensor)
from qgns.executor import circuit_states, gate_program, param_rows
from qgns.filters import select_powers_operator
from qgns.sim import _SQRT2_INV, _ry_rows, _turn

# the fixed one-qubit gates, applied as matrices through apply_linear_operator
H_MATRIX = np.array([[1, 1], [1, -1]]) * _SQRT2_INV
SDG_MATRIX = np.diag([1, -1j])
X_MATRIX = np.array([[0, 1], [1, 0]])
Z_MATRIX = np.diag([1, -1])


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
            apply_gate(s, GateOp(convention.kind, (u, v), weights[i, k]))
    return s


def model_circuit(model, features=None) -> StateVector:
    """The model's state for one item (features may be None for a bare
    model), run through the trainer's own program and runner under the
    model's edge convention."""
    n = model.graph.n_vertices
    program = gate_program(model)
    rows = param_rows(program, params_of(model)[None])
    if features is not None:
        rows[:, :n] += encode_features(features)
    return StateVector(n, circuit_states(program, n, rows)[0])


def graph_state_oracle(g: Graph, convention, angles=None, weights=None) -> StateVector:
    """A graph state one apply_gate call per gate: |+>^n (build_graph_state),
    or Ry(angles[v]) on |0> for every vertex v (a class prototype, a model
    layer), then each edge's entangler with its weight (or weights[k] for
    edge k)."""
    if angles is None:
        s = new_state(g.n_vertices, "plus")
    else:
        s = new_state(g.n_vertices)
        for v, theta in enumerate(angles):
            apply_gate(s, GateOp("Ry", (v,), theta))
    for k, (u, v, w) in enumerate(g.edges):
        apply_gate(s, GateOp(convention.kind, (u, v), w if weights is None else weights[k]))
    return s


def rotated_p1(s: StateVector, qubit: int, basis: str) -> float:
    """Node p1 by rotating a clone into the Z basis (Sdg then H for Y) and
    summing |a1|^2 over the qubit's 1 half."""
    work = s.clone()
    if basis == "Y":
        apply_linear_operator(work, SDG_MATRIX, (qubit,))
        apply_linear_operator(work, H_MATRIX, (qubit,))
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


# -- the serial kernels, one pass over the whole stack ----------------------

def _pair_view(amps: np.ndarray, qubits) -> np.ndarray:
    # axes 2 and 4 are bits hi and lo of each row (hi > lo)
    hi, lo = max(qubits), min(qubits)
    return amps.reshape(amps.shape[0], -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _cp_rows(amps: np.ndarray, qubits, w: np.ndarray) -> None:
    _turn(_pair_view(amps, qubits)[:, :, 1, :, 1, :], np.exp(1j * w).reshape(-1, 1, 1, 1))


def _ising_zz_rows(amps: np.ndarray, qubits, w: np.ndarray) -> None:
    view = _pair_view(amps, qubits)
    same = np.exp(-1j * w).reshape(-1, 1, 1, 1)
    diff = np.exp(1j * w).reshape(-1, 1, 1, 1)
    _turn(view[:, :, 0, :, 0, :], same)
    _turn(view[:, :, 1, :, 1, :], same)
    _turn(view[:, :, 0, :, 1, :], diff)
    _turn(view[:, :, 1, :, 0, :], diff)


_SERIAL_KERNELS = {"Ry": _ry_rows, "CP": _cp_rows, "IsingZZ": _ising_zz_rows}


def serial_run_program(amps: np.ndarray, program, rows) -> np.ndarray:
    """sim.run_program as one pass of each gate over the whole stack."""
    rows = np.asarray(rows, dtype=float)
    for j, (kind, qubits, _) in enumerate(program):
        _SERIAL_KERNELS[kind](amps, qubits, rows[:, j])
    return amps


def serial_node_p1(amps: np.ndarray, qubits, basis: str) -> np.ndarray:
    """tasks.node_p1 as one np.sum per qubit over the whole stack."""
    lead = amps.shape[:-1]
    out = np.empty(lead + (len(qubits),))
    for k, q in enumerate(qubits):
        pairs = amps.reshape(lead + (-1, 2, 1 << q))
        half = pairs[..., 1, :]
        if basis == "Y":
            half = pairs[..., 1, :] * 1j
            half *= _SQRT2_INV
            half += pairs[..., 0, :] * _SQRT2_INV
        out[..., k] = (np.abs(half) ** 2).sum(axis=(-2, -1))
    return out


def serial_edge_zzs(amps: np.ndarray, pairs) -> np.ndarray:
    """tasks.edge_zzs as one pass per edge over the squares of the whole
    stack: the signed sums of its blocks of 128 floats, each signed again by
    the endpoints above the blocks, then their adjacent-pairs tree."""
    def parity(index, bits):
        signs = np.ones(index.size)
        for b in bits:
            signs *= 1 - 2 * ((index >> b) & 1)
        return signs

    lead = amps.shape[:-1]
    rows = (amps.view(np.float64) ** 2).reshape(-1, min(128, 2 * amps.shape[-1]))
    inner = rows.shape[-1].bit_length() - 2
    offsets = np.arange(rows.shape[-1]) >> 1
    index = np.arange(2 * amps.shape[-1] // rows.shape[-1])
    out = []
    for pair in pairs:
        low = [q for q in pair if q < inner]
        sums = ((rows * parity(offsets, low)).sum(axis=-1).reshape(lead + (-1,))
                * parity(index, [q - inner for q in pair if q >= inner]))
        while sums.shape[-1] > 1:
            sums = sums[..., 0::2] + sums[..., 1::2]
        out.append(sums[..., 0])
    return np.stack(out, axis=-1) if out else np.zeros(lead + (0,))


def serial_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tasks._overlaps as one np.sum per pair of states: <b|a> has the sum
    of the products of the interleaved real and imaginary parts of a and b
    as its real part, and the same sum with i b in b's place as its
    imaginary part."""
    out = np.empty((len(a), len(b)), complex)
    for r, x in enumerate(a.view(np.float64)):
        for c, y in enumerate(b):
            out[r, c] = complex(np.sum(x * y.view(np.float64)),
                                np.sum(x * (1j * y).view(np.float64)))
    return out


def pairwise_residuals(g: Graph, s: StateVector) -> list[float]:
    """verify_stabilizers' residuals by their definition: sqrt(2) times the
    square root of one np.sum over the squared real and imaginary parts of
    z a1 - a0, with z the sign of the neighbour bits."""
    residuals = []
    for v in range(g.n_vertices):
        pairs = s.amps.reshape(-1, 2, 1 << v)
        diff = pairs[:, 1, :].copy()
        for u in neighborhood(g, v):
            diff.reshape(-1, 2, 1 << (u if u < v else u - 1))[:, 1, :] *= -1.0
        diff -= pairs[:, 0, :]
        residuals.append(math.sqrt(2.0) * math.sqrt(float(np.sum(diff.view(np.float64) ** 2))))
    return residuals


def zz_oracle(s: StateVector, u: int, v: int) -> float:
    """<Z_u Z_v> as <s| Z_u Z_v |s> on a Z-flipped clone."""
    return expectation_pauli(s, {u: "Z", v: "Z"})


# CSWAP on operator bits (u, v, control): within control = 1, swap the
# patterns u=1,v=0 and u=0,v=1
CSWAP_MATRIX = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]


def swap_circuit_p0(s1: StateVector, s2: StateVector) -> float:
    """Ancilla-|0> probability of the simulated swap test: s1 on qubits
    0..n-1, s2 on n..2n-1, the ancilla on 2n; H, CSWAP(ancilla, i, n+i) for
    every i (an 8x8 linear operator), H, then sum |amp|^2 over the ancilla's 0
    half."""
    n = s1.n_qubits
    ancilla = 2 * n
    full = tensor(tensor(s1, s2), new_state(1, "zero"))
    apply_linear_operator(full, H_MATRIX, (ancilla,))
    for i in range(n):
        apply_linear_operator(full, CSWAP_MATRIX, (i, n + i, ancilla))
    apply_linear_operator(full, H_MATRIX, (ancilla,))
    view = full.amps.reshape(-1, 2, 1 << ancilla)
    return float(np.sum(np.abs(view[:, 0, :]) ** 2))


def pad_matrix(L: np.ndarray) -> np.ndarray:
    """Identity-extend L to the next power-of-two dimension (at least 2), the
    2^v data register that the dense select operator acts on."""
    d = L.shape[0]
    out = np.eye(max(2, 1 << (d - 1).bit_length()))
    out[:d, :d] = L
    return out


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
    """Per-vertex ||S_v s - s|| with S_v = X_v prod_{u in N(v)} Z_u applied
    matrix by matrix to a clone of s."""
    residuals = []
    for v in range(g.n_vertices):
        flipped, _ = apply_linear_operator(s.clone(), X_MATRIX, (v,))
        for u in sorted(neighborhood(g, v)):
            apply_linear_operator(flipped, Z_MATRIX, (u,))
        residuals.append(float(np.linalg.norm(flipped.amps - s.amps)))
    return residuals


def layer_state(model, i: int) -> StateVector:
    """The i-th layer's graph state |G_i> of a model (Ry init from theta[i]),
    under the model's edge convention."""
    weights = model.weights[0] if model.shared_weights else model.weights[i]
    return graph_state_oracle(model.graph, model.convention, model.theta[i], weights)


def build_superposed(model) -> StateVector:
    """(1/sqrt(m)) sum_i |i>|G_i> with an explicit ceil(log2 m)-qubit index
    register above the data qubits (m=1 degenerates to |G_1> alone): the
    superposed formalism's state, each branch one layer of the model."""
    n = model.graph.n_vertices
    a = (model.m - 1).bit_length()
    if a + n > MAX_QUBITS:
        raise ValueError(f"superposed model needs {a + n} qubits, cap is {MAX_QUBITS}")
    amps = np.zeros(1 << (a + n), dtype=complex)
    scale = 1.0 / math.sqrt(model.m)
    for i in range(model.m):
        amps[i << n:(i + 1) << n] = layer_state(model, i).amps * scale
    return StateVector(a + n, amps)
