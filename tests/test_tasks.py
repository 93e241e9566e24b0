from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import (StateVector, build_graph_state, classify_graph, edge_readout, new_state,
                  node_readout, swap_test_overlap)
from qgns.tasks import edge_zzs, node_p1

from helpers import (edge_zz_oracle, random_graph, random_state, rotated_p1,
                     serial_node_p1, swap_circuit_p0)


def test_node_readout_z_basis():
    assert node_readout(new_state(1), 0, "Z") == (pytest.approx(0.0), 0)
    assert node_readout(StateVector(1, [0, 1]), 0, "Z") == (pytest.approx(1.0), 1)


def test_node_readout_y_eigenstate():
    # (|0> + i|1>)/sqrt(2) is the +1 eigenvector of Y: oracle via the 2-dim
    # basis change H.Sdg giving (1, 0)
    plus_i = np.array([1.0, 1j]) / math.sqrt(2)
    basis_change = (np.array([[1, 1], [1, -1]]) / math.sqrt(2)) @ np.diag([1, -1j])
    assert np.allclose(basis_change @ plus_i, [1.0, 0.0])
    p1, bit = node_readout(StateVector(1, plus_i), 0, "Y")
    assert p1 == pytest.approx(0.0, abs=1e-12) and bit == 0


def test_node_readout_leaves_state_alone():
    s = new_state(1, "plus")
    node_readout(s, 0, "Y")
    assert np.allclose(s.amps, new_state(1, "plus").amps)
    with pytest.raises(ValueError, match="basis"):
        node_readout(s, 0, "X")


def test_node_readout_shot_mode(rng):
    s = new_state(1, "plus")
    p1, _ = node_readout(s, 0, "Z", shots=10_000, rng=rng)
    assert abs(p1 - 0.5) < 0.05
    with pytest.raises(ValueError, match="rng"):
        node_readout(s, 0, "Z", shots=10)


def test_edge_readout_examples(k2):
    assert edge_readout(new_state(2), 0, 1) == pytest.approx(1.0)
    assert edge_readout(new_state(2, "plus"), 0, 1) == pytest.approx(0.0, abs=1e-12)
    assert edge_readout(build_graph_state(k2), 0, 1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        edge_readout(new_state(2), 1, 1)


def _stack(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    return np.array([random_state(rng, n) for _ in range(batch)])


def _oracle_columns(columns, batch: int) -> np.ndarray:
    return np.stack(columns, axis=-1) if columns else np.zeros((batch, 0))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), batch=st.integers(1, 3))
def test_shared_block_sums_have_the_bits_of_one_pass_per_edge(seed, n, batch):
    # edge blocks hold 64 amplitudes, so n up to 14 puts 0, 1 or 2 endpoints
    # inside a block; pairs come in either order and may repeat
    rng = np.random.default_rng(seed)
    amps = _stack(rng, batch, n)
    before = amps.copy()
    pairs = [] if n == 1 else [tuple(int(q) for q in rng.choice(n, 2, replace=False))
                               for _ in range(rng.integers(0, 3 * n + 1))]
    pairs += pairs[:2]
    zz = edge_zzs(amps, pairs)
    assert zz.shape == (batch, len(pairs))
    assert np.array_equal(zz, _oracle_columns([edge_zz_oracle(amps, u, v) for u, v in pairs],
                                              batch))
    assert np.array_equal(amps, before)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), batch=st.integers(1, 3),
       basis=st.sampled_from(["Y", "Z"]))
def test_node_p1_of_a_qubit_list_matches_the_rotated_clone(seed, n, batch, basis):
    rng = np.random.default_rng(seed)
    amps = _stack(rng, batch, n)
    qubits = [int(q) for q in rng.integers(0, n, rng.integers(0, 2 * n + 1))]
    p1 = node_p1(amps, qubits, basis)
    assert p1.shape == (batch, len(qubits))
    expected = np.array([[rotated_p1(StateVector(n, a), q, basis) for q in qubits]
                         for a in amps]).reshape(p1.shape)
    if basis == "Z":
        assert np.array_equal(p1, expected)
    else:
        # the Sdg, H clone rounds its sums of pairs differently from the closed form
        assert np.max(np.abs(p1 - expected), initial=0.0) <= 1e-14


def test_shared_block_sums_at_sixteen_qubits_with_random_edges():
    rng = np.random.default_rng(16)
    n = 16
    amps = _stack(rng, 2, n)
    edges = [tuple(int(q) for q in rng.choice(n, 2, replace=False)) for _ in range(2 * n)]
    assert np.array_equal(edge_zzs(amps, edges),
                          _oracle_columns([edge_zz_oracle(amps, u, v) for u, v in edges], 2))


def test_empty_readout_lists_give_empty_columns(rng):
    amps = _stack(rng, 3, 9)
    assert edge_zzs(amps, []).shape == (3, 0)
    for basis in ("Y", "Z"):
        assert node_p1(amps, [], basis).shape == (3, 0)


def _adjacent_pairs_tree(x: np.ndarray, block: int) -> np.ndarray:
    """Sum each aligned block of the last axis, then add the block sums in
    adjacent pairs until one is left."""
    sums = x.reshape(x.shape[:-1] + (-1, block)).sum(axis=-1)
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def test_numpy_sums_pairwise_over_aligned_blocks_of_128_or_more():
    # the block-sum edge readout (edge_zzs) reproduces the bits of one np.sum
    # only because of this property of numpy's float64 sum
    rng = np.random.default_rng(7)
    orders_differ = False
    for k in range(7, 21):
        # magnitudes over 16 decades, so that the order of the additions shows
        x = rng.standard_normal((2, 1 << k)) * 10.0 ** rng.uniform(-8, 8, (2, 1 << k))
        total = x.sum(axis=-1)
        for j in range(7, k + 1):
            assert np.array_equal(total, _adjacent_pairs_tree(x, 1 << j)), (
                f"numpy {np.__version__}: the sum of 2^{k} float64 values is not the "
                f"adjacent-pairs tree of its aligned blocks of 2^{j}; the block-sum "
                f"edge readout qgns.tasks.edge_zzs depends on this")
        orders_differ |= not np.array_equal(total, _adjacent_pairs_tree(x, 64))
    assert orders_differ, "blocks of 64 summed alike: this check cannot tell orders apart"


def test_swap_test_examples(k2):
    s = build_graph_state(k2)
    p0, overlap = swap_test_overlap(s, s.clone())
    assert p0 == pytest.approx(1.0) and overlap == pytest.approx(1.0)

    p0, overlap = swap_test_overlap(new_state(1), StateVector(1, [0, 1]))
    assert p0 == pytest.approx(0.5) and overlap == pytest.approx(0.0, abs=1e-12)

    p0, overlap = swap_test_overlap(s, new_state(2, "plus"))
    assert overlap == pytest.approx(0.25)

    with pytest.raises(ValueError, match="size"):
        swap_test_overlap(new_state(1), new_state(2))


def test_swap_test_symmetry_and_inner_product_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = StateVector(n, random_state(rng, n))
        b = StateVector(n, random_state(rng, n))
        _, ab = swap_test_overlap(a, b)
        _, ba = swap_test_overlap(b, a)
        assert abs(ab - ba) <= 1e-12
        direct = abs(np.vdot(a.amps, b.amps)) ** 2
        assert abs(ab - direct) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       scales=st.sampled_from([(1.0, 1.0), (0.6, 1.3), (2.0, 0.25)]))
def test_swap_closed_form_matches_the_cswap_circuit(seed, n, scales):
    # scales other than (1, 1) give a pair that is not normalized, where the
    # circuit's p0 is (|a|^2 |b|^2 + |<a|b>|^2) / 2
    rng = np.random.default_rng(seed)
    a, b = (StateVector(n, k * random_state(rng, n)) for k in scales)
    p0, overlap = swap_test_overlap(a, b)
    circuit = swap_circuit_p0(a, b)
    scale = max(1.0, (scales[0] * scales[1]) ** 2)
    assert abs(p0 - circuit) <= 1e-12 * scale
    assert abs(overlap - min(max(2 * circuit - 1, 0.0), 1.0)) <= 1e-12 * scale


def test_swap_test_beyond_the_circuit_register():
    # n = 12 needed a 25-qubit circuit register; the closed form needs none
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, weighted=True)
    s, plus = build_graph_state(g), new_state(12, "plus")
    p0, overlap = swap_test_overlap(s, plus)
    direct = abs(np.vdot(s.amps, plus.amps)) ** 2
    assert abs(overlap - direct) <= 1e-10 and abs(p0 - (1 + direct) / 2) <= 1e-10


def test_swap_test_shot_convergence():
    shots = 10_000
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        a = StateVector(n, random_state(rng, n))
        b = StateVector(n, random_state(rng, n))
        exact_p0, _ = swap_test_overlap(a, b)
        est_p0, _ = swap_test_overlap(a, b, shots=shots, rng=rng)
        bound = 3 * math.sqrt(exact_p0 * (1 - exact_p0) / shots) + 2 / shots
        if abs(est_p0 - exact_p0) > bound:
            failures += 1
    assert failures <= 1  # >= 99% of seeded trials inside 3 sigma


def test_classify_graph_examples(k2):
    s = build_graph_state(k2)
    scores, best = classify_graph(s, [s.clone(), new_state(2, "zero")])
    assert best == 0 and scores[0] == pytest.approx(1.0)

    scores, best = classify_graph(s, [new_state(2, "plus")])
    assert best == 0 and scores == [pytest.approx(0.25)]

    scores, best = classify_graph(s, [new_state(2, "plus"), s.clone()])
    assert best == 1
    assert scores == [pytest.approx(0.25), pytest.approx(1.0)]

    with pytest.raises(ValueError, match="class"):
        classify_graph(s, [])


def test_classify_argmax_stable_under_duplicate_losers(rng):
    for _ in range(5):
        n = 3
        s = StateVector(n, random_state(rng, n))
        classes = [StateVector(n, random_state(rng, n)) for _ in range(3)]
        _, best = classify_graph(s, classes)
        _, best_dup = classify_graph(s, classes + [classes[(best + 1) % 3].clone()])
        assert best_dup == best


def test_classify_tie_breaks_low_index():
    s = new_state(1, "plus")
    scores, best = classify_graph(s, [s.clone(), s.clone()])
    assert best == 0
    assert scores[0] == pytest.approx(scores[1])


@pytest.mark.parametrize("basis", ["Y", "Z"])
@pytest.mark.parametrize("batch", [1, 2, 3, 92])
def test_node_p1_below_the_part_split_has_the_serial_bits(batch, basis):
    # small stacks, in any qubit order and with repeats, against one np.sum
    # per qubit
    rng = np.random.default_rng(batch)
    for n in range(1, 15):
        if batch * (16 << n) > 1 << 25:
            continue
        amps = np.stack([random_state(rng, n) for _ in range(batch)])
        qubits = [int(q) for q in rng.permutation(n)] + [int(q) for q in rng.integers(0, n, 2)]
        for chosen in (qubits, qubits[:max(1, n // 2)][::-1], list(range(n))):
            assert node_p1(amps, chosen, basis).tobytes() == serial_node_p1(
                amps, chosen, basis).tobytes(), (n, chosen)
