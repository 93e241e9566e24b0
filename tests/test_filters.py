from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import Graph, apply_filter_lcu, laplacian, polynomial_filter_matrix
from qgns.filters import select_powers_operator

from helpers import dense_lcu_filter, pad_matrix, random_graph

P2_LAP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matrix_poly_oracle(L, w):
    # independent of the Horner path
    return sum(c * np.linalg.matrix_power(L, i) for i, c in enumerate(w))


def test_polynomial_examples():
    assert np.array_equal(polynomial_filter_matrix(P2_LAP, [1.0]), np.eye(2))
    assert np.array_equal(polynomial_filter_matrix(P2_LAP, [0.0, 1.0]), P2_LAP)
    tri = laplacian(Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
    expected = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert np.array_equal(polynomial_filter_matrix(tri, [1.0, 1.0]), expected)


def test_polynomial_matches_power_sum_oracle(rng):
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)), weighted=True)
        lap = laplacian(g)
        w = rng.normal(size=int(rng.integers(1, 6)))
        assert np.allclose(polynomial_filter_matrix(lap, w),
                           matrix_poly_oracle(lap, w), atol=1e-9)


def test_polynomial_linearity_and_symmetry(rng):
    lap = laplacian(random_graph(rng, 5, weighted=True))
    w1, w2 = rng.normal(size=4), rng.normal(size=4)
    combined = polynomial_filter_matrix(lap, w1 + w2)
    split = polynomial_filter_matrix(lap, w1) + polynomial_filter_matrix(lap, w2)
    assert np.max(np.abs(combined - split)) < 1e-10
    p = polynomial_filter_matrix(lap, w1)
    assert np.allclose(p, p.T, atol=1e-10)


def test_polynomial_errors():
    with pytest.raises(ValueError, match="square"):
        polynomial_filter_matrix(np.ones((2, 3)), [1.0])
    with pytest.raises(ValueError, match="empty"):
        polynomial_filter_matrix(np.eye(2), [])


def test_pad_matrix():
    padded = pad_matrix(np.full((3, 3), 2.0))
    assert padded.shape == (4, 4)
    assert np.array_equal(padded[:3, :3], np.full((3, 3), 2.0))
    assert padded[3, 3] == 1.0 and np.count_nonzero(padded[3, :3]) == 0
    assert pad_matrix(np.eye(1)).shape == (2, 2)
    assert np.array_equal(pad_matrix(P2_LAP), P2_LAP)


def test_select_powers_blocks():
    op = select_powers_operator(P2_LAP, 2)
    # P2 Laplacian is twice a projector: L^2 = 2L, L^3 = 4L
    for j, blk in enumerate([np.eye(2), P2_LAP, 2 * P2_LAP, 4 * P2_LAP]):
        assert np.allclose(op[2 * j:2 * j + 2, 2 * j:2 * j + 2], blk, atol=1e-12), j
    # off-diagonal blocks exactly zero
    mask = np.kron(np.eye(4), np.ones((2, 2)))
    assert np.count_nonzero(op * (1 - mask)) == 0


def test_select_powers_j0_block_is_identity(rng):
    lap = pad_matrix(laplacian(random_graph(rng, 3, weighted=True)))
    op = select_powers_operator(lap, 1)
    assert np.array_equal(op[:4, :4], np.eye(4))


def test_select_powers_unitary_for_permutation():
    perm = np.eye(4)[[1, 2, 3, 0]]
    op = select_powers_operator(perm, 2)
    assert np.allclose(op @ op.T, np.eye(op.shape[0]), atol=1e-12)


def test_select_powers_a0_and_bad_dim():
    assert np.array_equal(select_powers_operator(P2_LAP, 0), np.eye(2))
    with pytest.raises(ValueError, match=r"L dimension 3 is not a power of two$"):
        select_powers_operator(np.eye(3), 1)


def test_lcu_identity_coefficients():
    x = np.array([0.3, -0.8, 0.5])
    lap = laplacian(random_graph(np.random.default_rng(5), 3, weighted=True))
    y, scale = apply_filter_lcu(x, lap, [1.0, 0.0])
    assert np.allclose(scale * y, x, atol=1e-12)


def test_lcu_p2_example():
    y, scale = apply_filter_lcu(np.array([1.0, 0.0]), P2_LAP, [0.0, 1.0])
    assert np.allclose(y, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert np.allclose(scale * y, [1.0, -1.0], atol=1e-12)


def test_lcu_annihilation_error():
    # (1, -1) is the eigenvalue-2 eigenvector of the P2 Laplacian; w = (-2, 1)
    # sends it to (L - 2I)x = 0
    with pytest.raises(ValueError, match="annihilates"):
        apply_filter_lcu(np.array([1.0, -1.0]), P2_LAP, [-2.0, 1.0])


def test_lcu_reconstruction_random(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, weighted=True)
        lap = laplacian(g)
        w = rng.normal(size=int(rng.integers(1, 9)))
        if not np.any(w):
            w[0] = 1.0
        x = rng.normal(size=n)
        oracle = polynomial_filter_matrix(lap, w) @ x
        if np.linalg.norm(oracle) < 1e-9:
            continue
        y, scale = apply_filter_lcu(x, lap, w)
        rel = np.linalg.norm(scale * y - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8


def test_lcu_input_validation():
    with pytest.raises(ValueError, match="nonzero"):
        apply_filter_lcu(np.array([1.0, 0.0]), P2_LAP, [0.0, 0.0])
    with pytest.raises(ValueError, match="nonzero"):
        apply_filter_lcu(np.array([0.0, 0.0]), P2_LAP, [1.0])
    with pytest.raises(ValueError, match="shape"):
        apply_filter_lcu(np.array([1.0, 0.0, 0.0]), P2_LAP, [1.0])
    for x, w in [([1.0, math.nan], [1.0]), ([1.0, math.inf], [1.0]), ([1.0, 0.0], [-math.inf])]:
        with pytest.raises(ValueError, match="finite"):
            apply_filter_lcu(np.array(x), P2_LAP, w)


@pytest.mark.parametrize("scale_l, w, x", [
    (1e300, [1.0, 1.0, 1.0], [1.0, 2.0]),   # L^2 x overflows
    (1e300, [1.0, 1.0, 0.0], [1.0, 2.0]),   # under a zero coefficient too
    (1.0, [1e308, 1e308], [1.0, 2.0]),      # |w| overflows
    (1.0, [1.0], [1e200, 1e200]),           # |x| overflows
    (1e100, [1e150, 1e150], [1e150, -1e150]),  # each norm is finite, the scale is not
])
def test_lcu_overflow_is_an_error_and_never_a_warning(scale_l, w, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="filter overflows float64"):
            apply_filter_lcu(np.array(x), scale_l * P2_LAP, w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), terms=st.integers(1, 9))
def test_lcu_blocks_match_the_dense_select_operator_and_horner(seed, n, terms):
    rng = np.random.default_rng(seed)
    lap = laplacian(random_graph(rng, n, weighted=True))
    w = rng.normal(size=terms)
    x = rng.normal(size=n)
    oracle = polynomial_filter_matrix(lap, w) @ x
    if np.linalg.norm(oracle) < 1e-9:
        return
    y, scale = apply_filter_lcu(x, lap, w)
    dense_y, dense_scale = dense_lcu_filter(x, lap, w)
    assert np.linalg.norm(scale * y - dense_scale * dense_y) < 1e-8 * np.linalg.norm(oracle)
    assert np.linalg.norm(scale * y - oracle) / np.linalg.norm(oracle) < 1e-8
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
