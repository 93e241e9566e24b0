from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgns import sim
from qgns.sim import (GateOp, StateVector, apply_gate, apply_linear_operator,
                      diagonal_expectation, dump_state, expectation_pauli, measure_qubit,
                      new_state, product_rows, run_program, sample_counts, tensor)

from qgns.tasks import edge_readout, node_readout

from helpers import cp_matrix, cry_4x4, dense_apply, hadamard_test, ising_matrix, random_state

K2_STATE = np.array([1, 1, 1, -1], dtype=complex) / 2.0  # CZ|++>


def test_new_state_examples():
    assert np.allclose(new_state(2, "plus").amps, 0.5)
    zero = new_state(3, "zero")
    assert zero.amps[0] == 1 and np.count_nonzero(zero.amps) == 1


def test_new_state_errors():
    with pytest.raises(ValueError, match="cap|n_qubits"):
        new_state(25)
    with pytest.raises(ValueError, match="unknown init"):
        new_state(1, [(0.6, 0.8)])


class _NoAllocation:
    """Stands in for numpy inside qgns.sim: any allocator call fails the test."""

    def __getattr__(self, name):
        if name in ("zeros", "full", "ones", "empty", "kron"):
            raise AssertionError(f"np.{name} called before the width check")
        return getattr(np, name)


@pytest.mark.parametrize("init", ["zero", "plus", [(1.0, 0.0)] * 25])
def test_width_is_checked_before_allocation(monkeypatch, init):
    monkeypatch.setattr(sim, "np", _NoAllocation())
    with pytest.raises(ValueError, match="n_qubits"):
        new_state(25, init)


def test_h_on_zero():
    s = apply_gate(new_state(1), GateOp("H", (0,)))
    assert np.allclose(s.amps, [1 / math.sqrt(2)] * 2)


def test_cp_pi_on_plus_plus_is_k2_state():
    s = apply_gate(new_state(2, "plus"), GateOp("CP", (0, 1), math.pi))
    assert np.allclose(s.amps, K2_STATE, atol=1e-15)


def test_ising_zz_diagonal_action():
    for w in (0.3, math.pi / 2, 2.2):
        s = apply_gate(new_state(2, "zero"), GateOp("IsingZZ", (0, 1), w))
        assert np.allclose(s.amps[0], np.exp(-1j * w))


# qubits each apply_gate kind acts on; None: LinOp, on 1 to 3 qubits
GATE_ARITY = {"H": 1, "X": 1, "Y": 1, "Z": 1, "S": 1, "Sdg": 1, "Ry": 1,
              "CP": 2, "IsingZZ": 2, "CRy": 2, "LinOp": None}


def _dense_gate(kind: str, param: float, matrix) -> np.ndarray:
    """The gate's matrix on its qubits, operator bit j on qubits[j]."""
    c, s = math.cos(param / 2), math.sin(param / 2)
    mats = {
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
        "S": np.diag([1, 1j]),
        "Sdg": np.diag([1, -1j]),
        "Ry": np.array([[c, -s], [s, c]]),
        # operator bit order is irrelevant for the symmetric diagonals
        "CP": cp_matrix(param),
        "IsingZZ": ising_matrix(param),
        "LinOp": matrix,
    }
    if kind == "CRy":
        # qubits are (control, target): the target is operator bit 0 of cry_4x4
        return cry_4x4(param)[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
    return np.asarray(mats[kind], dtype=complex)


# keyed by the case ids the suite reports, which name a qubit tuple by its
# case number; the numbers stay fixed so a case keeps its name
GATE_CASES = {
    "H-qubits0-0.0": ("H", (0,), 0.0), "X-qubits1-0.0": ("X", (1,), 0.0),
    "Y-qubits2-0.0": ("Y", (0,), 0.0), "Z-qubits3-0.0": ("Z", (2,), 0.0),
    "S-qubits4-0.0": ("S", (1,), 0.0), "Sdg-qubits5-0.0": ("Sdg", (2,), 0.0),
    "Ry-qubits6-0.7": ("Ry", (0,), 0.7), "CP-qubits8-0.9": ("CP", (0, 2), 0.9),
    "IsingZZ-qubits9-1.7": ("IsingZZ", (1, 2), 1.7), "CRy-qubits10-0.5": ("CRy", (2, 0), 0.5),
    "LinOp-qubits13-0.0": ("LinOp", (2, 0), 0.0),
}


@pytest.mark.parametrize("kind,qubits,param", list(GATE_CASES.values()), ids=list(GATE_CASES))
@settings(max_examples=100, deadline=None)
@given(random_case=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gates_match_dense_oracle(kind, qubits, param, random_case, seed):
    # every kernel against the explicit-loop matrix oracle on a random state:
    # the listed qubits and angle at n = 3, then random distinct qubits and
    # angles at n <= 6. Every kind is unitary here (LinOp gets a random
    # unitary), so the norm must stay 1.
    rng = np.random.default_rng(seed)
    n = 3
    if random_case:
        arity = GATE_ARITY[kind] or int(rng.integers(1, 4 if kind == "LinOp" else 7))
        n = int(rng.integers(arity, 7))
        qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
        param = float(rng.uniform(-7.0, 7.0))
    matrix = None
    if kind == "LinOp":
        raw = rng.normal(size=(2, 1 << len(qubits), 1 << len(qubits)))
        matrix = np.linalg.qr(raw[0] + 1j * raw[1])[0]
    vec = random_state(rng, n)
    s = StateVector(n, vec.copy())
    apply_gate(s, GateOp(kind, qubits, param, matrix))
    expected = dense_apply(_dense_gate(kind, param, matrix), qubits, n, vec)
    np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12


def test_gate_index_validation():
    s = new_state(2)
    with pytest.raises(ValueError, match="distinct"):
        apply_gate(s, GateOp("CP", (1, 1), 0.5))
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(s, GateOp("H", (2,)))
    with pytest.raises(ValueError, match="square"):
        apply_gate(s, GateOp("LinOp", (0,), matrix=np.ones((2, 3))))
    with pytest.raises(ValueError, match="dim"):
        apply_gate(s, GateOp("LinOp", (0,), matrix=np.eye(4)))
    for kind, qubits in (("Rz", (0,)), ("MCZ", (0, 1)), ("SWAP", (0, 1))):
        with pytest.raises(ValueError, match="unknown gate kind"):
            apply_gate(s, GateOp(kind, qubits, 0.3))


def test_measure_plus_in_x_is_deterministic(rng):
    s = apply_gate(new_state(1), GateOp("H", (0,)))
    rec, s = measure_qubit(s, 0, "X", rng)
    assert rec.outcome == 1 and rec.probability == pytest.approx(1.0)


def test_measure_zero_in_z(rng):
    rec, _ = measure_qubit(new_state(1), 0, "Z", rng)
    assert rec.outcome == 1 and rec.probability == pytest.approx(1.0)


def test_measure_zero_in_x_both_branches():
    seen = {}
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rec, s = measure_qubit(new_state(1), 0, "X", rng)
        assert rec.probability == pytest.approx(0.5)
        expected = np.array([1, rec.outcome]) / math.sqrt(2)
        assert np.allclose(s.amps, expected)
        seen[rec.outcome] = True
    assert set(seen) == {1, -1}


def test_measure_repeat_same_basis_is_stable(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = StateVector(n, random_state(rng, n))
        q = int(rng.integers(0, n))
        basis = str(rng.choice(["X", "Y", "Z"]))
        first, s = measure_qubit(s, q, basis, rng)
        second, s = measure_qubit(s, q, basis, rng)
        assert second.outcome == first.outcome
        assert second.probability == pytest.approx(1.0, abs=1e-12)


def test_sample_counts_examples(rng):
    assert sample_counts(new_state(1), 100, rng) == {0: 100}
    plus = apply_gate(new_state(1), GateOp("H", (0,)))
    counts = sample_counts(plus, 10_000, rng)
    assert abs(counts.get(0, 0) / 10_000 - 0.5) < 0.05
    k2 = StateVector(2, K2_STATE.copy())
    counts = sample_counts(k2, 10_000, rng)
    for k in range(4):
        assert abs(counts.get(k, 0) / 10_000 - 0.25) < 0.02


def test_sample_counts_deterministic_under_seed():
    s = StateVector(2, K2_STATE.copy())
    a = sample_counts(s, 500, np.random.default_rng(9))
    b = sample_counts(s, 500, np.random.default_rng(9))
    assert a == b


@pytest.mark.parametrize("n, shots", [(3, 7), (6, 64), (10, 5000)])
def test_sample_counts_match_the_enumerated_dict(rng, n, shots):
    s = StateVector(n, random_state(rng, n))
    counts = sample_counts(s, shots, np.random.default_rng(n))
    probs = s.probabilities()
    drawn = np.random.default_rng(n).multinomial(shots, probs / probs.sum())
    expected = {int(k): int(c) for k, c in enumerate(drawn) if c > 0}
    assert counts == expected
    assert list(counts) == list(expected)
    assert all(type(k) is int and type(c) is int for k, c in counts.items())


_ANGLES = st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi]),
                    st.floats(-4 * math.pi, 4 * math.pi))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), n=st.integers(1, 8))
def test_product_rows_equal_ry_passes_on_zero(data, rows, n):
    theta = np.array(data.draw(st.lists(st.lists(_ANGLES, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)))
    amps = np.zeros((rows, 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    run_program(amps, [("Ry", (q,), q) for q in range(n)], theta)
    np.testing.assert_array_equal(product_rows(theta), amps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), gates=st.integers(0, 6))
def test_diagonal_expectation_matches_the_clone_hadamard_test(seed, n, gates):
    rng = np.random.default_rng(seed)
    s = StateVector(n, random_state(rng, n))
    before = s.amps.copy()
    program, params, ops = [], [], []
    for j in range(gates):
        kind = str(rng.choice(["CP", "IsingZZ"]))
        qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        w = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        program.append((kind, qubits, j))
        params.append(w)
        ops.append(GateOp(kind, qubits, w))
    assert abs(diagonal_expectation(s, program, params) - hadamard_test(s, ops).real) <= 1e-12
    np.testing.assert_array_equal(s.amps, before)


def test_diagonal_expectation_checks_its_qubits():
    s = new_state(2, "plus")
    with pytest.raises(ValueError, match="distinct"):
        diagonal_expectation(s, [("CP", (1, 1), 0)], [0.3])
    with pytest.raises(ValueError, match="out of range"):
        diagonal_expectation(s, [("CP", (0, 2), 0)], [0.3])


def test_product_rows_checks_the_width_first():
    with pytest.raises(ValueError, match="n_qubits"):
        product_rows(np.zeros((1, 25)))


def test_expectation_pauli_examples():
    assert expectation_pauli(new_state(2), {0: "Z", 1: "Z"}) == pytest.approx(1.0)
    assert expectation_pauli(new_state(2, "plus"), {0: "Z", 1: "Z"}) == pytest.approx(0.0, abs=1e-12)
    # K2 graph state: 4-term sum (1 - 1 - 1 + 1)/4 = 0
    assert expectation_pauli(StateVector(2, K2_STATE.copy()), {0: "Z", 1: "Z"}) \
        == pytest.approx(0.0, abs=1e-12)


def test_expectation_z_matches_enumeration(rng):
    for _ in range(12):
        n = int(rng.integers(1, 9))
        vec = random_state(rng, n)
        q = int(rng.integers(0, n))
        direct = sum(((-1) ** ((k >> q) & 1)) * abs(vec[k]) ** 2 for k in range(1 << n))
        s = StateVector(n, vec.copy())
        assert expectation_pauli(s, {q: "Z"}) == pytest.approx(direct, abs=1e-12)


def test_apply_linear_operator_examples():
    s, nrm = apply_linear_operator(new_state(2, "plus"), np.eye(2), (0,))
    assert np.allclose(s.amps, 0.5) and nrm == pytest.approx(1.0)

    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    s, nrm = apply_linear_operator(new_state(1), lap, (0,))
    assert np.allclose(s.amps, [1, -1])  # not rescaled
    assert nrm == pytest.approx(math.sqrt(2))


def test_readouts_refuse_a_state_without_unit_norm(rng):
    # a non-unitary operator's result, and norm-2 amplitudes given directly
    doubled, _ = apply_linear_operator(new_state(2), 2.0 * np.eye(2), (0,))
    for s in (doubled, StateVector(2, np.ones(4))):
        for read in (lambda: expectation_pauli(s, {0: "Z"}), lambda: node_readout(s, 0, "Z"),
                     lambda: edge_readout(s, 0, 1), lambda: measure_qubit(s, 0, "Y", rng),
                     lambda: sample_counts(s, 10, rng)):
            with pytest.raises(ValueError, match="normalized"):
                read()
    # within the 1e-9 norm tolerance is normalized
    assert sample_counts(StateVector(1, [1.0 + 1e-10, 0.0]), 5, rng) == {0: 5}


def test_norm_preserved_over_long_random_sequence(rng):
    n = 10
    s = StateVector(n, random_state(rng, n))
    kinds = ["H", "X", "Y", "Z", "S", "Sdg", "Ry", "CP", "IsingZZ", "CRy"]
    for _ in range(1000):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in ("CP", "IsingZZ", "CRy"):
            q = rng.choice(n, size=2, replace=False)
            g = GateOp(kind, (int(q[0]), int(q[1])), float(rng.uniform(0, 2 * math.pi)))
        else:
            g = GateOp(kind, (int(rng.integers(n)),), float(rng.uniform(0, 2 * math.pi)))
        apply_gate(s, g)
    assert abs(s.norm() - 1.0) < 1e-12


def test_diagonal_gates_commute(rng):
    n = 6
    vec = random_state(rng, n)
    gates = []
    for _ in range(12):
        q = rng.choice(n, size=2, replace=False)
        kind = "CP" if rng.random() < 0.5 else "IsingZZ"
        gates.append(GateOp(kind, (int(q[0]), int(q[1])), float(rng.uniform(0, 2 * math.pi))))
    order = list(range(len(gates)))
    results = []
    for _ in range(3):
        rng.shuffle(order)
        s = StateVector(n, vec.copy())
        for k in order:
            apply_gate(s, gates[k])
        results.append(s.amps)
    assert np.max(np.abs(results[0] - results[1])) <= 1e-12
    assert np.max(np.abs(results[0] - results[2])) <= 1e-12


def test_tensor_layout():
    low = StateVector(1, [0, 1])   # |1>
    high = StateVector(1, [1, 0])  # |0>
    combined = tensor(low, high)
    expected = np.zeros(4)
    expected[1] = 1.0  # qubit 0 (low) set
    assert np.array_equal(combined.amps, expected)


def test_dump_state_format():
    text = dump_state(StateVector(1, [0.6, 0.8]))
    lines = text.strip().splitlines()
    assert lines[0].split() == ["0", "0.59999999999999998", "0"]
    assert lines[1].startswith("1 0.8")


def test_clone_is_independent():
    s = new_state(1)
    c = s.clone()
    apply_gate(c, GateOp("X", (0,)))
    assert s.amps[0] == 1.0 and c.amps[1] == 1.0
