"""Laplacian polynomial filters.

p_w(L) = sum_i w_i L^i is evaluated two ways: directly on matrices (the
brute-force oracle) and as a circuit emulation in the linear-combination
style (Childs & Wiebe 2012): the coefficient vector rides in an index
register, a block-diagonal select operator applies L^j under index j, and
projecting the index back onto the uniform state leaves p_w(L) x on the data
register up to a tracked scale. L is generally non-unitary, so the select
operator is applied as a plain linear operator with norm bookkeeping instead
of a unitary dilation.

apply_filter_lcu applies the select operator block by block; the dense
select_powers_operator (a cascade in which index qubit k controls L^(2^k))
is the reference it is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import MAX_QUBITS

_ZERO_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FilterSpec:
    """Polynomial coefficients (w_0 ... w_d); degree d = len - 1."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("filter needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("filter coefficients must be finite")
        if not any(c != 0.0 for c in self.coefficients):
            raise ValueError("filter needs at least one nonzero coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def index_width(self) -> int:
        """Smallest register width a with degree <= 2^a - 1."""
        return max(len(self.coefficients) - 1, 0).bit_length()


def polynomial_filter_matrix(L: np.ndarray, w) -> np.ndarray:
    """sum_i w_i L^i by Horner evaluation; the oracle for apply_filter_lcu."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got shape {L.shape}")
    w = [float(c) for c in w]
    if not w:
        raise ValueError("empty coefficient vector")
    eye = np.eye(L.shape[0])
    acc = w[-1] * eye
    for c in reversed(w[:-1]):
        acc = acc @ L + c * eye
    return acc


def pad_matrix(L: np.ndarray) -> np.ndarray:
    """Identity-extend L to the next power-of-two dimension (at least 2)."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got shape {L.shape}")
    d = L.shape[0]
    p = max(2, 1 << (d - 1).bit_length())
    if p == d:
        return L.copy()
    out = np.eye(p)
    out[:d, :d] = L
    return out


def select_powers_operator(L: np.ndarray, a: int) -> np.ndarray:
    """Block-diagonal sum_j |j><j| (x) L^j over an a-qubit index register.

    Built as the cascade of controlled squared powers (index qubit k applies
    L^(2^k)); L must already be 2^v x 2^v. Generally non-unitary.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got shape {L.shape}")
    dim = L.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"L dimension {dim} is not a power of two; pad it first")
    if a < 0:
        raise ValueError(f"index width must be >= 0, got {a}")
    blocks = 1 << a
    op = np.eye(blocks * dim)
    power = L.copy()
    for k in range(a):
        bit = np.diag((np.arange(blocks) >> k) & 1).astype(float)
        op = (np.kron(np.eye(blocks) - bit, np.eye(dim)) + np.kron(bit, power)) @ op
        power = power @ power
    return op


def apply_filter_lcu(x, L: np.ndarray, w) -> tuple[np.ndarray, float]:
    """Apply p_w(L) to x by index-register emulation.

    Returns (y, scale): y is the unit-norm filtered direction and scale
    reconstructs the oracle, scale * y = polynomial_filter_matrix(L, w) @ x.
    Raises when the filter annihilates x (zero-norm projection).
    """
    x = np.asarray(x, dtype=float)
    L = np.asarray(L, dtype=float)
    w = np.asarray([float(c) for c in w])
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ValueError("input vector and filter coefficients must be finite")
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got shape {L.shape}")
    if x.shape != (L.shape[0],):
        raise ValueError(f"x has shape {x.shape}, L is {L.shape[0]}-dimensional")
    w_norm = float(np.linalg.norm(w))
    x_norm = float(np.linalg.norm(x))
    if w.size == 0 or w_norm == 0.0:
        raise ValueError("coefficient vector must be nonzero")
    if x_norm == 0.0:
        raise ValueError("input vector must be nonzero")

    d = L.shape[0]
    lp = pad_matrix(L)
    p = lp.shape[0]
    v_qubits = p.bit_length() - 1
    a = max(w.size - 1, 0).bit_length()
    if a + v_qubits > MAX_QUBITS:
        raise ValueError(f"filter needs {a + v_qubits} qubits, cap is {MAX_QUBITS}")
    # prepare, then select block by block: index block j holds (w_j / |w|)
    # L^j x / |x|, each L^j x one matvec on the block before (blocks j >= len(w)
    # hold 0); prepare^dagger then projects the index onto the uniform state
    powers = np.zeros((w.size, p))
    powers[0, :d] = x / x_norm
    for j in range(1, w.size):
        powers[j] = lp @ powers[j - 1]
    y_raw = (w / w_norm) @ powers / math.sqrt(1 << a)
    nrm = float(np.linalg.norm(y_raw))
    if nrm < _ZERO_NORM_TOL:
        raise ValueError("filter annihilates the input (p_w(L) x = 0)")
    return y_raw[:d] / nrm, nrm * math.sqrt(1 << a) * w_norm * x_norm
