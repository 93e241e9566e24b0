"""Dense statevector simulator kernel.

Basis convention: qubit q is bit q of the basis index, qubit 0 least
significant. Amplitudes live in one contiguous complex128 vector of length
2^n; diagonal gates act by phase multiplication on strided views, dense
gates by tensor contraction, so no gate ever materializes a 2^n x 2^n
matrix.

A gate program is a sequence of (kind, qubits, slot) entries of the
parametrised kinds Ry, CP and IsingZZ. run_program applies one to a (B, 2^n)
stack of states, gate j turning row b by rows[b, j]; it is the one runner
behind the trainer's circuits (qgns.executor), graph states and their edge
entanglers (qgns.graphstate.edge_program). product_rows prepares the Ry
product states of a whole stack in closed form, and diagonal_expectation
reads Re<s|U|s> of a diagonal program U without a transformed copy of s.

States mutate in place; clone() before applying gates if the original is
still needed. Randomness always comes from an explicit numpy Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24  # 2^24 complex128 amplitudes ~ 256 MB

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Ry(theta) with Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def cry_matrix(theta: float) -> np.ndarray:
    """Controlled-Ry on operator bits (bit0 = target, bit1 = control)."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = ry_matrix(theta)
    return m


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _check_norm(nrm: float) -> None:
    if not abs(nrm - 1.0) < 1e-9:
        raise ValueError(f"operation requires a normalized state, got norm {nrm!r}")


class StateVector:
    """2^n complex amplitudes; readouts and measurements check for unit norm."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        _check_width(n_qubits)
        amps = np.ascontiguousarray(amps, dtype=complex)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes, got shape {amps.shape}")
        self.n_qubits = n_qubits
        self.amps = amps

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def clone(self) -> StateVector:
        return StateVector(self.n_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def require_normalized(self) -> None:
        _check_norm(self.norm())

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def new_state(n_qubits: int, init: str = "zero") -> StateVector:
    """Fresh |0...0> ("zero") or |+...+> ("plus") state.

    The width is checked before anything is allocated.
    """
    _check_width(n_qubits)
    if init == "zero":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return StateVector(n_qubits, amps)
    if init == "plus":
        dim = 1 << n_qubits
        amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        return StateVector(n_qubits, amps)
    raise ValueError(f"unknown init {init!r}")


def tensor(low: StateVector, high: StateVector) -> StateVector:
    """Combined register with `low` on qubits 0..n_low-1 and `high` above."""
    n = low.n_qubits + high.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"combined register of {n} qubits exceeds cap {MAX_QUBITS}")
    return StateVector(n, np.kron(high.amps, low.amps))


@dataclass(frozen=True, eq=False)
class GateOp:
    """Gate descriptor: kind, qubit tuple, optional angle, optional matrix,
    written as a program entry is, e.g. GateOp("CP", (u, v), w)."""

    kind: str
    qubits: tuple[int, ...]
    param: float = 0.0
    matrix: np.ndarray | None = None


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: int
    basis: str
    outcome: int        # +1 or -1
    probability: float  # Born probability of the observed outcome


def _check_qubits(s: StateVector, qubits: tuple[int, ...]) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    for q in qubits:
        if not 0 <= q < s.n_qubits:
            raise ValueError(f"qubit {q} out of range for {s.n_qubits}-qubit state")


def _view1(amps: np.ndarray, q: int) -> np.ndarray:
    # axis 1 of the view is bit q
    return amps.reshape(-1, 2, 1 << q)


def _apply_matrix_inplace(s: StateVector, mat: np.ndarray, targets: tuple[int, ...]) -> None:
    """Contract a 2^k x 2^k matrix into the state; operator bit j is targets[j]."""
    n, k = s.n_qubits, len(targets)
    tensor_view = s.amps.reshape((2,) * n)
    # state axis of qubit q is n-1-q; trailing block axes ordered so targets[0] is fastest
    src = [n - 1 - q for q in reversed(targets)]
    dest = list(range(n - k, n))
    moved = np.moveaxis(tensor_view, src, dest)
    flat = moved.reshape(-1, 1 << k)
    out = flat @ mat.T
    out = np.moveaxis(out.reshape((2,) * n), dest, src)
    s.amps = np.ascontiguousarray(out).reshape(-1)


# Batched kernels for the parametrised gates. Each acts in place on a
# (B, 2^n) amplitude stack, one state per row, with row b turned by angle
# theta[b]; apply_gate runs them on a batch of one.

def _ry_rows(amps: np.ndarray, qubits: tuple[int, ...], theta: np.ndarray) -> None:
    half = theta / 2.0
    c = np.cos(half).reshape(-1, 1, 1)
    s = np.sin(half).reshape(-1, 1, 1)
    view = amps.reshape(amps.shape[0], -1, 2, 1 << qubits[0])
    a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
    t = s * a0
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += t


def _pair_view(amps: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    # axes 2 and 4 are bits hi and lo of each row (hi > lo)
    hi, lo = max(qubits), min(qubits)
    return amps.reshape(amps.shape[0], -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _turn(block: np.ndarray, phase: np.ndarray) -> None:
    """block *= phase in place, with one phase per row of the batch."""
    if block[0].size > 1:
        block *= phase
        return
    # With one amplitude per row the batch axis becomes numpy's inner loop,
    # and its complex multiply rounds a one-element loop (no fused
    # multiply-add) unlike a longer one, so a row's result would depend on
    # the batch size. Products with a purely real or purely imaginary factor
    # are exact on either loop.
    turned = block * (1j * phase.imag)
    block *= phase.real
    block += turned


def _cp_rows(amps: np.ndarray, qubits: tuple[int, ...], w: np.ndarray) -> None:
    _turn(_pair_view(amps, qubits)[:, :, 1, :, 1, :], np.exp(1j * w).reshape(-1, 1, 1, 1))


def _ising_zz_rows(amps: np.ndarray, qubits: tuple[int, ...], w: np.ndarray) -> None:
    # e^{-iw} where the two bits agree, e^{iw} where they differ
    view = _pair_view(amps, qubits)
    same = np.exp(-1j * w).reshape(-1, 1, 1, 1)
    diff = np.exp(1j * w).reshape(-1, 1, 1, 1)
    _turn(view[:, :, 0, :, 0, :], same)
    _turn(view[:, :, 1, :, 1, :], same)
    _turn(view[:, :, 0, :, 1, :], diff)
    _turn(view[:, :, 1, :, 0, :], diff)


_ROW_KERNELS = {"Ry": _ry_rows, "CP": _cp_rows, "IsingZZ": _ising_zz_rows}


def product_rows(theta) -> np.ndarray:
    """The (B, 2^n) amplitudes of the product states Ry(theta[b, q]) on every
    qubit q of |0...0>: row b is the kron of the (cos, sin)(theta[b, q] / 2)
    pairs, qubit 0 least significant.

    The factors multiply in qubit order, as the Ry gates would, so every
    amplitude is bit-identical to run_program's Ry on |0...0>, one qubit
    after the other. The width is checked before anything is allocated.
    """
    theta = np.asarray(theta, dtype=float)
    _check_width(theta.shape[1])
    amps = np.empty((theta.shape[0], 1 << theta.shape[1]))
    amps[:, 0] = 1.0
    for q in range(theta.shape[1]):
        # the first 2^q columns hold qubits 0..q-1; double them in place
        half = theta[:, q] / 2.0  # one angle per row, as _ry_rows takes them
        low = amps[:, :1 << q]
        np.multiply(low, np.sin(half)[:, None], out=amps[:, 1 << q:2 << q])
        low *= np.cos(half)[:, None]
    return amps.astype(complex)


def run_program(amps: np.ndarray, program, rows) -> np.ndarray:
    """Run a gate program on every row of a contiguous (B, 2^n) amplitude
    stack in place and return the stack: gate j, a (kind, qubits, slot)
    entry of kind Ry, CP or IsingZZ, turns row b by angle rows[b, j]. The
    qubits are trusted: check them once per program, not once per gate."""
    rows = np.asarray(rows, dtype=float)
    for j, (kind, qubits, _) in enumerate(program):
        _ROW_KERNELS[kind](amps, qubits, rows[:, j])
    return amps


def apply_gate(s: StateVector, g: GateOp) -> StateVector:
    """Apply g to s in place and return s.

    Kinds: H, X, Y, Z, S, Sdg on one qubit; Ry(param) on one qubit;
    CP(param) = diag(1, 1, 1, e^{i param}), so CP(pi) is controlled-Z;
    IsingZZ(param) = e^{-i param Z(x)Z}; CRy(param) on qubits (control,
    target); LinOp applies g.matrix through apply_linear_operator, operator
    bit j on qubits[j].
    """
    _check_qubits(s, g.qubits)
    kind = g.kind
    if kind in _ROW_KERNELS:
        _ROW_KERNELS[kind](s.amps.reshape(1, -1), g.qubits, np.array([g.param]))
    elif kind == "H":
        _apply_matrix_inplace(s, _H, g.qubits)
    elif kind == "X":
        _apply_matrix_inplace(s, _X, g.qubits)
    elif kind == "Y":
        _apply_matrix_inplace(s, _Y, g.qubits)
    elif kind == "Z":
        _view1(s.amps, g.qubits[0])[:, 1, :] *= -1.0
    elif kind == "S":
        _view1(s.amps, g.qubits[0])[:, 1, :] *= 1j
    elif kind == "Sdg":
        _view1(s.amps, g.qubits[0])[:, 1, :] *= -1j
    elif kind == "CRy":
        control, target = g.qubits
        _apply_matrix_inplace(s, cry_matrix(g.param), (target, control))
    elif kind == "LinOp":
        apply_linear_operator(s, g.matrix, g.qubits)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return s


_BASIS_FORWARD = {
    "Z": (),
    "X": ("H",),
    "Y": ("Sdg", "H"),
}
_BASIS_BACKWARD = {
    "Z": (),
    "X": ("H",),
    "Y": ("H", "S"),
}


def measure_qubit(s: StateVector, qubit: int, basis: str, rng: np.random.Generator
                  ) -> tuple[MeasurementRecord, StateVector]:
    """Projective measurement in the X, Y, or Z basis.

    The outcome is sampled from Born probabilities after the basis change;
    the kept state is re-expressed in the computational frame, so only the
    record carries the basis tag. Collapses s in place.
    """
    _check_qubits(s, (qubit,))
    if basis not in _BASIS_FORWARD:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    for kind in _BASIS_FORWARD[basis]:
        apply_gate(s, GateOp(kind, (qubit,)))
    view = _view1(s.amps, qubit)
    p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    total = p0 + p1
    _check_norm(math.sqrt(total))
    bit = 0 if rng.random() * total < p0 else 1
    prob = (p0 if bit == 0 else p1) / total
    view[:, 1 - bit, :] = 0.0
    s.amps /= math.sqrt(p0 if bit == 0 else p1)
    for kind in _BASIS_BACKWARD[basis]:
        apply_gate(s, GateOp(kind, (qubit,)))
    outcome = 1 if bit == 0 else -1
    return MeasurementRecord(qubit, basis, outcome, prob), s


def sample_counts(s: StateVector, shots: int, rng: np.random.Generator) -> dict[int, int]:
    """Multinomial sample of |amp|^2; map basis index -> count (zeros omitted)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = s.probabilities()
    total = probs.sum()
    _check_norm(math.sqrt(total))
    probs = probs / total
    counts = rng.multinomial(shots, probs)
    hit = np.flatnonzero(counts)
    return dict(zip(hit.tolist(), counts[hit].tolist()))


def diagonal_expectation(s: StateVector, program, params) -> float:
    """Re<s|U|s> for U a program of diagonal (CP, IsingZZ) gates, gate j
    with angle params[j]: the real part of the exact Hadamard-test
    expectation. A diagonal U gives sum_x |a_x|^2 Re U_xx, and U's diagonal
    is the program run on all-ones amplitudes, so s is neither modified
    nor copied."""
    for _, qubits, _ in program:
        _check_qubits(s, qubits)
    diag = run_program(np.ones((1, s.dim), dtype=complex), program, [params])[0]
    return float(s.probabilities() @ diag.real)


def expectation_pauli(s: StateVector, pauli_string: dict[int, str]) -> float:
    """<s|P|s> for a Pauli product given as {qubit: "X"|"Y"|"Z"}, read
    against a Pauli-flipped clone of s."""
    s.require_normalized()
    for p in pauli_string.values():
        if p not in ("X", "Y", "Z"):
            raise ValueError(f"Pauli must be X, Y or Z, got {p!r}")
    flipped = s.clone()
    for q, p in pauli_string.items():
        apply_gate(flipped, GateOp(p, (q,)))
    val = complex(np.vdot(s.amps, flipped.amps))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"Pauli expectation has imaginary part {val.imag}")
    return val.real


def apply_linear_operator(s: StateVector, matrix: np.ndarray, targets
                          ) -> tuple[StateVector, float]:
    """Apply an arbitrary (possibly non-unitary) matrix to the target qubits.

    Returns (state, norm), norm the result's length; the state is not
    rescaled.
    """
    targets = tuple(targets)
    _check_qubits(s, targets)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {matrix.shape}")
    if matrix.shape[0] != 1 << len(targets):
        raise ValueError(
            f"operator is {matrix.shape[0]}-dim but {len(targets)} targets "
            f"span {1 << len(targets)}")
    _apply_matrix_inplace(s, matrix, targets)
    return s, float(np.linalg.norm(s.amps))


def dump_state(s: StateVector) -> str:
    """Golden-file dump: one line per amplitude, `index real imag`."""
    lines = [f"{k} {a.real:.17g} {a.imag:.17g}" for k, a in enumerate(s.amps)]
    return "\n".join(lines) + "\n"
