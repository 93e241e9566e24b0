"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion carries its stated tolerance and runtime budget.
"""
from __future__ import annotations

import math
import time

import numpy as np

from qgns import (EdgeConvention, Graph, StateVector, TrainConfig, build_graph_state,
                  constraint_round, decomposition_amplitude, demo_graph, fit,
                  gradient, initial_model, laplacian, polynomial_filter_matrix,
                  apply_filter_lcu, swap_test_overlap, toy_node_dataset,
                  verify_stabilizers, ModelSpec, Dataset, DataItem)
from qgns.cli import execute
from qgns.executor import compile_circuit, draw_readouts, exact_readouts, param_rows
from qgns.train import params_of

from helpers import graph_state_amp_oracle, permute_qubits, random_graph, random_state


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_stabilizer_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 9)))
        report = verify_stabilizers(g, build_graph_state(g), tol=1e-10)
        worst = max(worst, report.max_residual)
        if not report.passed:
            break
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "stabilizer residuals on 50 random unweighted graphs", ok,
            f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_decomposition_suite():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 7)), weighted=True)
        amps = build_graph_state(g).amps
        for idx in range(amps.size):
            worst = max(worst, abs(amps[idx] - graph_state_amp_oracle(g, idx)))
            worst = max(worst, abs(amps[idx] - decomposition_amplitude(g, idx)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(2, "weighted amplitudes match the closed form on 20 random graphs", ok,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_constraint_suite():
    start = time.perf_counter()
    rounds = 0
    violations = 0
    fixture = demo_graph()
    for seed in range(250):
        result = constraint_round(fixture, seed % 5, np.random.default_rng(seed))
        rounds += 1
        violations += result.product != 1
    graph_rng = np.random.default_rng(303)
    for _ in range(10):
        g = random_graph(graph_rng, int(graph_rng.integers(2, 9)))
        for k in range(75):
            v = int(graph_rng.integers(g.n_vertices))
            result = constraint_round(g, v, np.random.default_rng(10_000 + rounds))
            rounds += 1
            violations += result.product != 1
    elapsed = time.perf_counter() - start
    ok = rounds == 1000 and violations == 0 and elapsed < 30.0
    _report(3, "measurement constraint holds in 1000/1000 rounds", ok,
            f"{rounds - violations}/{rounds} satisfied, {elapsed:.2f}s")


def test_criterion_4_swap_test_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = StateVector(n, random_state(rng, n))
        b = StateVector(n, random_state(rng, n))
        _, overlap = swap_test_overlap(a, b)
        worst = max(worst, abs(overlap - abs(np.vdot(a.amps, b.amps)) ** 2))
    shots = 10_000
    misses = 0
    for seed in range(100):
        trial_rng = np.random.default_rng(7000 + seed)
        n = int(trial_rng.integers(1, 5))
        a = StateVector(n, random_state(trial_rng, n))
        b = StateVector(n, random_state(trial_rng, n))
        exact_p0, _ = swap_test_overlap(a, b)
        est_p0, _ = swap_test_overlap(a, b, shots=shots, rng=trial_rng)
        bound = 3 * math.sqrt(exact_p0 * (1 - exact_p0) / shots)
        if abs(est_p0 - exact_p0) > bound:
            misses += 1
    ok = worst < 1e-10 and misses <= 1
    _report(4, "swap-test overlaps: exact within 1e-10, shots within 3 sigma", ok,
            f"max exact deviation {worst:.2e}, {100 - misses}/100 trials in bound")


def test_criterion_5_lcu_filter_oracle():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 30:
        g = random_graph(rng, int(rng.integers(2, 9)), weighted=True)
        lap = laplacian(g)
        w = rng.normal(size=int(rng.integers(1, 9)))
        if not np.any(w):
            continue
        x = rng.normal(size=g.n_vertices)
        oracle = polynomial_filter_matrix(lap, w) @ x
        if np.linalg.norm(oracle) < 1e-9:
            continue
        y, scale = apply_filter_lcu(x, lap, w)
        rel = np.linalg.norm(scale * y - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(5, "filter emulation reconstructs the matrix oracle on 30 instances", ok,
            f"max relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        g = random_graph(rng, n, p_edge=0.7)
        while g.n_edges == 0:
            g = random_graph(rng, n, p_edge=0.7)
        model = ModelSpec(g, m,
                          rng.uniform(-1.5, 1.5, (m, n)),
                          rng.uniform(0, 2 * math.pi, (m, g.n_edges)))
        feats = rng.uniform(0, 1, n)
        if trial % 2 == 0:
            ds = Dataset("node", (DataItem(g, feats,
                                           tuple(int(b) for b in rng.integers(0, 2, n))),))
        else:
            ds = Dataset("edge", (DataItem(g, feats,
                                           tuple(float(t) for t in rng.uniform(-1, 1, g.n_edges))),))
        g_fd = gradient(model, ds, TrainConfig(grad="fd"))
        g_ps = gradient(model, ds, TrainConfig(grad="pshift"))
        worst = max(worst, float(np.max(np.abs(g_fd - g_ps))) if g_fd.size else 0.0)

    # analytic single-qubit case: d<Z>/dtheta = -sin(theta) at theta = pi/3
    target = math.pi / 3
    tiny = ModelSpec(Graph(1), 1,
                     np.array([[target - math.pi / 2]]), np.zeros((1, 0)))
    ds1 = Dataset("node", (DataItem(Graph(1), [0.5], (1,)),), node_basis="Z")
    rows = np.tile(params_of(tiny), (2, 1))
    rows[:, 0] += [math.pi / 2, -math.pi / 2]
    circuit = compile_circuit(tiny, ds1, EdgeConvention.CONTROLLED_PHASE)
    values = draw_readouts(exact_readouts(circuit, param_rows(circuit.program, rows)),
                           circuit)[0]
    dp1 = 0.5 * (values[0, 0] - values[1, 0])
    analytic_err = abs(-2.0 * dp1 - (-math.sin(target)))
    ok = worst < 1e-5 and analytic_err < 1e-8
    _report(6, "param-shift matches finite differences and the analytic derivative",
            ok, f"max component gap {worst:.2e}, analytic error {analytic_err:.2e}")


def test_criterion_7_toy_training():
    start = time.perf_counter()
    ds = toy_node_dataset()
    result = fit(initial_model(ds.items[0].graph), ds,
                 TrainConfig(learning_rate=0.1, epochs=200, seed=7))
    elapsed = time.perf_counter() - start
    final_acc = result.accuracies[-1]
    decreasing = all(a > b for a, b in zip(result.history[:10], result.history[1:10]))
    ok = final_acc >= 0.9 and decreasing and elapsed < 60.0
    _report(7, "toy node task trains to >= 90% with early monotone loss", ok,
            f"accuracy {final_acc:.3f}, {elapsed:.1f}s")


def test_criterion_8_convention_and_order_invariance():
    rng = np.random.default_rng(808)
    worst_order = 0.0
    worst_relabel = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n, weighted=True)
        edges = list(g.edges)
        rng.shuffle(edges)
        diff = np.abs(build_graph_state(g).amps
                      - build_graph_state(Graph.from_edges(n, edges)).amps)
        worst_order = max(worst_order, float(diff.max()))

        perm = rng.permutation(n)
        relabeled = Graph.from_edges(n, [(int(perm[u]), int(perm[v]), w)
                                         for u, v, w in g.edges])
        diff = np.abs(build_graph_state(relabeled).amps
                      - permute_qubits(build_graph_state(g).amps, perm))
        worst_relabel = max(worst_relabel, float(diff.max()))

    # explicit 4-dim comparison: IsingZZ(w) state = e^{-iw} (P(2w) x P(2w))
    # applied to the CP state with weight -4w
    worst_conv = 0.0
    for w in (0.3, math.pi / 4, 1.9, math.pi):
        ising = build_graph_state(Graph.from_edges(2, [(0, 1, w)]),
                                  EdgeConvention.ISING_ZZ).amps
        cp = build_graph_state(Graph.from_edges(2, [(0, 1, -4.0 * w)])).amps
        phase = np.diag([1.0, np.exp(2j * w)])
        rotated = np.exp(-1j * w) * (np.kron(phase, phase) @ cp)
        worst_conv = max(worst_conv, float(np.max(np.abs(ising - rotated))))

    ok = worst_order <= 1e-12 and worst_relabel <= 1e-12 and worst_conv <= 1e-12
    _report(8, "edge order, relabeling, and convention equivalences hold", ok,
            f"order {worst_order:.1e}, relabel {worst_relabel:.1e}, "
            f"convention {worst_conv:.1e}")


def test_criterion_9_cli_reproducibility(tmp_path):
    from qgns import save_dataset, to_edge_list
    toy = tmp_path / "toy.json"
    save_dataset(toy_node_dataset(), toy)
    argv = ["model", "train", "--data", str(toy), "--epochs", "200", "--seed", "7"]
    assert execute(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert execute(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    identical = first == (tmp_path / "b.csv").read_bytes()
    final_acc = float(first.decode().strip().splitlines()[-1].split(",")[2])

    demo = tmp_path / "demo5.qg"
    demo.write_text(to_edge_list(demo_graph()), encoding="utf-8")
    out = tmp_path / "verify.json"
    assert execute(["state", "verify", "--graph", str(demo), "--out", str(out)]) == 0
    import json
    verified = json.loads(out.read_text())["pass"] is True

    ok = identical and final_acc >= 0.9 and verified
    _report(9, "CLI training is byte-reproducible and verification passes", ok,
            f"identical={identical}, accuracy {final_acc:.3f}, verify pass={verified}")
