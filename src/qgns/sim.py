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
product states of a whole stack in closed form. apply_gate runs one gate
of those kinds on one state as a one-entry program, apply_linear_operator
any matrix (fixed gates and Paulis included); measure_qubit projects the
amplitude pairs of a qubit.

States of 2^16 amplitudes or more are cut into split_parts equal runs that
run_parts works on in parallel threads: run_program here, node_p1, edge_zzs
and swap_tests (qgns.tasks) and verify_stabilizers (qgns.graphstate). Each
part does the same numpy operations on its amplitudes as one serial pass
would, so no result depends on the number of parts. The kernels view a stack
by the amplitude pairs of one qubit (qubit_pairs) and sum without BLAS
(block_sums and pairwise_tree, with the bits of one np.sum).

States mutate in place; clone() before applying gates if the original is
still needed. Randomness always comes from an explicit numpy Generator.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24  # 2^24 complex128 amplitudes ~ 256 MB

_SQRT2_INV = 1.0 / math.sqrt(2.0)


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
    """Gate descriptor: kind, qubit tuple, optional angle, written as a
    program entry is, e.g. GateOp("CP", (u, v), w)."""

    kind: str
    qubits: tuple[int, ...]
    param: float = 0.0


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


# Batched kernels for the parametrised gates. Each acts in place on a
# (B, 2^n) amplitude stack, one state per row, with row b turned by angle
# theta[b]; run_program is their one caller.

def _ry_rows(amps: np.ndarray, qubits: tuple[int, ...], theta: np.ndarray) -> None:
    half = theta / 2.0
    c = np.cos(half).reshape(-1, 1, 1)
    s = np.sin(half).reshape(-1, 1, 1)
    view = qubit_pairs(amps, qubits[0])
    a0, a1 = view[..., 0, :], view[..., 1, :]
    t = s * a0
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += t


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


# The diagonal kinds: each pattern of their (hi, lo) bits with the sign s of
# its phase e^{i s w}. IsingZZ turns by e^{-iw} where the two bits agree and
# by e^{iw} where they differ.
_PHASES = {"CP": (((1, 1), 1),),
           "IsingZZ": (((0, 0), -1), ((1, 1), -1), ((0, 1), 1), ((1, 0), 1))}


def _turns(program, rows: np.ndarray) -> dict:
    """{s: e^{i s rows}} for each sign s of the program's diagonal gates."""
    signs = {sign for kind, _, _ in program for _, sign in _PHASES.get(kind, ())}
    return {sign: np.exp(sign * 1j * rows) for sign in signs}


def _phase_rows(amps: np.ndarray, kind: str, qubits: tuple[int, ...], turns: dict, j: int,
                top: int) -> None:
    """Apply diagonal gate j, whose phases are column j of turns (_turns), to
    part `top` of a stack split into runs of 2^m amplitudes (run_program; a
    whole (B, 2^m) stack is part 0): that part's qubits m and up, which may
    include gate qubits, hold the bits of top. Each block of amplitudes whose
    gate bits match a pattern is turned by that pattern's phase."""
    m = amps.shape[-1].bit_length() - 1
    hi, lo = max(qubits), min(qubits)
    for (bit_hi, bit_lo), sign in _PHASES[kind]:
        if hi < m:      # axes 2 and 4 are bits hi and lo of each row
            block = amps.reshape(amps.shape[0], -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)[
                :, :, bit_hi, :, bit_lo, :]
        elif (top >> (hi - m) & 1) != bit_hi:
            continue
        elif lo < m:
            block = qubit_pairs(amps, lo)[..., bit_lo, :]
        elif (top >> (lo - m) & 1) != bit_lo:
            continue
        else:
            block = amps
        _turn(block, turns[sign][:, j].reshape((-1,) + (1,) * (block.ndim - 1)))


# States of at least _SPLIT_AMPS amplitudes are read and run in parts, one
# per thread; smaller ones run serially and never start the pool.
_SPLIT_AMPS = 1 << 16
_MAX_WORKERS = 8


def _worker_count() -> int:
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def split_parts(dim: int) -> int:
    """How many equal parts run_parts cuts a state of dim amplitudes into:
    1 below _SPLIT_AMPS, else the power of two covering the usable cores, cut
    down to keep at least _SPLIT_AMPS / 2 amplitudes per part."""
    if dim < _SPLIT_AMPS:
        return 1
    return min(1 << (_worker_count() - 1).bit_length(), dim // (_SPLIT_AMPS // 2))


@functools.cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(1, _worker_count() - 1), thread_name_prefix="qgns-part")


# a forked child inherits the pool object but none of its threads
os.register_at_fork(after_in_child=_pool.cache_clear)


def run_parts(part, parts: int) -> None:
    """Call part(p) for every p in range(parts): part 0 on the calling thread
    and the rest on a thread pool created on first use. Each part must write
    to its own slice of memory only and call nothing that holds the GIL
    long; numpy releases it inside its loops."""
    if parts == 1:
        part(0)
        return
    futures = [_pool().submit(part, p) for p in range(1, parts)]
    try:
        part(0)
    finally:
        for future in futures:
            future.exception()     # wait: no part outlives the call
    for future in futures:
        future.result()


def qubit_pairs(amps: np.ndarray, q: int, parts: int = 1, p: int = 0) -> np.ndarray:
    """Part p of `parts` equal runs of the amplitude pairs (a0, a1) of qubit
    q in a (..., 2^n) stack, as a (..., R, 2, C) view: its flat (R, C)
    order is the order of those pairs in the stack, so the parts' pairs in
    turn are all pairs in order. The default is the view of all pairs."""
    lead = amps.shape[:-1]
    outer = amps.shape[-1] >> (q + 1)     # runs of 2^q pairs, one per setting of the bits above q
    if outer >= parts:
        return amps.reshape(lead + (parts, outer // parts, 2, 1 << q))[..., p, :, :, :]
    cut = parts // outer                  # each run is cut into this many parts
    runs = amps.reshape(lead + (outer, 2, cut, (1 << q) // cut))
    return runs[..., p // cut, None, :, p % cut, :]


# numpy adds float64 pairwise: a run of at most 128 values is one unrolled
# loop, a longer one the sum of its two halves (split at a multiple of 8). So
# the sum of 2^k values is the adjacent-pairs tree of the sums of its aligned
# blocks of 2^j >= 128 values, however those blocks are cut into parts, and no
# BLAS call (whose splitting follows its thread count) enters it. The guard
# test in tests/test_tasks.py fails first if a numpy release changes this.
PAIRWISE_LEAF = 128


def pairwise_tree(sums: np.ndarray) -> np.ndarray:
    """Add the last axis (a power-of-two length) in adjacent pairs until one
    value is left: the top levels of numpy's pairwise sum over the blocks."""
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def block_sums(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of the aligned blocks of PAIRWISE_LEAF values (or of all
    of them, if fewer) of each contiguous (..., L) row, into out (..., blocks)."""
    width = min(PAIRWISE_LEAF, values.shape[-1])
    return np.add.reduce(values.reshape(values.shape[:-1] + (-1, width)), axis=-1, out=out)


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
    half = theta / 2.0  # one angle per row and qubit, as _ry_rows takes them
    sin, cos = np.sin(half), np.cos(half)
    for q in range(theta.shape[1]):
        # the first 2^q columns hold qubits 0..q-1; double them in place
        low = amps[:, :1 << q]
        np.multiply(low, sin[:, q, None], out=amps[:, 1 << q:2 << q])
        low *= cos[:, q, None]
    return amps.astype(complex)


def run_program(amps: np.ndarray, program, rows) -> np.ndarray:
    """Run a gate program on every row of a contiguous (B, 2^n) amplitude
    stack in place and return the stack: gate j, a (kind, qubits, slot)
    entry of kind Ry, CP or IsingZZ, turns row b by angle rows[b, j]. The
    qubits are trusted: check them once per program, not once per gate.

    A state of split_parts(2^n) > 1 parts runs as that many runs of
    amplitudes, split on its top qubits, each applying every gate restricted
    to itself in program order; an Ry on a split qubit, which mixes parts,
    runs on the whole stack between them. Every amplitude is computed by the
    same multiplies whatever the number of parts."""
    rows = np.asarray(rows, dtype=float)
    turns = _turns(program, rows)
    parts = split_parts(amps.shape[-1])
    runs = amps.reshape(amps.shape[0], parts, -1)

    def part(p, gates):
        run = runs[:, p, :]
        for j in gates:
            kind, qubits, _ = program[j]
            if kind == "Ry":
                _ry_rows(run, qubits, rows[:, j])
            else:
                _phase_rows(run, kind, qubits, turns, j, p)

    split = runs.shape[-1].bit_length() - 1     # the qubits from this one up are split
    start = 0
    for stop in [j for j, (kind, qubits, _) in enumerate(program)
                 if kind == "Ry" and qubits[0] >= split] + [len(program)]:
        if stop > start:
            run_parts(lambda p, gates=range(start, stop): part(p, gates), parts)
        if stop < len(program):
            _ry_rows(amps, program[stop][1], rows[:, stop])
        start = stop + 1
    return amps


def apply_gate(s: StateVector, g: GateOp) -> StateVector:
    """Apply g to s in place, as a one-entry program of run_program, and
    return s.

    Kinds: Ry(param) on one qubit; CP(param) = diag(1, 1, 1, e^{i param}),
    so CP(pi) is controlled-Z; IsingZZ(param) = e^{-i param Z(x)Z}. Any other
    kind raises; a fixed matrix goes through apply_linear_operator.
    """
    _check_qubits(s, g.qubits)
    if g.kind != "Ry" and g.kind not in _PHASES:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    run_program(s.amps.reshape(1, -1), [(g.kind, g.qubits, 0)], [[g.param]])
    return s


# u of each basis, whose +-1 eigenvectors are (|0> +- u|1>)/sqrt(2); Z reads the pairs as they are
_BASIS_U = {"X": 1.0, "Y": 1j, "Z": None}


def measure_qubit(s: StateVector, qubit: int, basis: str, rng: np.random.Generator
                  ) -> tuple[MeasurementRecord, StateVector]:
    """Projective measurement in the X, Y, or Z basis.

    The outcome is sampled from the Born probabilities of the basis's two
    eigenvectors on the amplitude pairs of the qubit; each pair is replaced
    by its projection onto the observed one, so s stays in the computational
    frame and only the record carries the basis tag. Collapses s in place.
    """
    _check_qubits(s, (qubit,))
    if basis not in _BASIS_U:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    u = _BASIS_U[basis]
    pairs = qubit_pairs(s.amps, qubit)
    a0, a1 = halves = pairs[:, 0, :], pairs[:, 1, :]
    if u is not None:
        # overlaps (a0 +- conj(u) a1)/sqrt(2) with the two eigenvectors
        turned = a1 * np.conj(u)
        halves = ((a0 + turned) * _SQRT2_INV, (a0 - turned) * _SQRT2_INV)
    p0, p1 = (float(np.sum(np.abs(half) ** 2)) for half in halves)
    total = p0 + p1
    _check_norm(math.sqrt(total))
    bit = 0 if rng.random() * total < p0 else 1
    kept = p0 if bit == 0 else p1
    if u is None:
        pairs[:, 1 - bit, :] = 0.0
        s.amps /= math.sqrt(kept)
    else:
        overlap = halves[bit] * (_SQRT2_INV / math.sqrt(kept))
        a0[...] = overlap
        a1[...] = overlap * (u if bit == 0 else -u)
    outcome = 1 if bit == 0 else -1
    return MeasurementRecord(qubit, basis, outcome, kept / total), s


def sample_counts(s: StateVector, shots: int, rng: np.random.Generator) -> dict[int, int]:
    """Multinomial sample of |amp|^2; map basis index -> count (zeros omitted)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = s.probabilities()
    total = probs.sum()
    _check_norm(math.sqrt(total))
    probs /= total
    counts = rng.multinomial(shots, probs)
    hit = np.flatnonzero(counts)
    return dict(zip(hit.tolist(), counts[hit].tolist()))


_PAULIS = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def expectation_pauli(s: StateVector, pauli_string: dict[int, str]) -> float:
    """<s|P|s> for a Pauli product given as {qubit: "X"|"Y"|"Z"}, read
    against a Pauli-flipped clone of s."""
    s.require_normalized()
    for p in pauli_string.values():
        if p not in _PAULIS:
            raise ValueError(f"Pauli must be X, Y or Z, got {p!r}")
    flipped = s.clone()
    for q, p in pauli_string.items():
        apply_linear_operator(flipped, _PAULIS[p], (q,))
    val = complex(np.vdot(s.amps, flipped.amps))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"Pauli expectation has imaginary part {val.imag}")
    return val.real


def apply_linear_operator(s: StateVector, matrix: np.ndarray, targets
                          ) -> tuple[StateVector, float]:
    """Apply an arbitrary (possibly non-unitary) 2^k x 2^k matrix to the k
    target qubits in place, operator bit j on targets[j], by one contraction.

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
    n, k = s.n_qubits, len(targets)
    # state axis of qubit q is n-1-q; the trailing axes put targets[0] fastest
    moved = np.moveaxis(s.amps.reshape((2,) * n), [n - 1 - q for q in reversed(targets)],
                        list(range(n - k, n)))
    moved[...] = (moved.reshape(-1, 1 << k) @ matrix.T).reshape(moved.shape)
    return s, float(np.linalg.norm(s.amps))


def dump_state(s: StateVector) -> str:
    """Golden-file dump: one line per amplitude, `index real imag`."""
    lines = [f"{k} {a.real:.17g} {a.imag:.17g}" for k, a in enumerate(s.amps)]
    return "\n".join(lines) + "\n"
