"""The part-split kernels give the same bits whatever the thread counts.

States of 2^16 amplitudes or more run in sim.split_parts parts, one per
worker thread. Each kernel is checked bit for bit against its serial pass
(tests/helpers.py) with the pool forced to one worker and to more, at
n = 15 (always serial) to 18; and the verbs whose printed numbers take no
BLAS call (`state verify` and `sample`, `model eval` on every task, `pool`,
`swap`), and `filter apply` at up to 128 vertices, print the same bytes
whatever number of threads OpenBLAS runs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgns.sim as sim
from qgns import (DataItem, Dataset, EdgeConvention, Graph, ModelSpec, StateVector,
                  build_graph_state, new_state, save_dataset, to_edge_list, verify_stabilizers)
from qgns.executor import gate_program, param_rows
from qgns.graphstate import edge_program
from qgns.tasks import edge_zzs, node_p1, swap_tests

from helpers import (pairwise_residuals, random_graph, random_state, serial_edge_zzs,
                     serial_node_p1, serial_overlaps, serial_run_program)

SRC = Path(__file__).resolve().parents[1] / "src"
WIDTHS = (15, 16, 17, 18)
WORKERS = (1, 2, 4)
# the power of two that covers each usable core count
COVERING = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}


def bits(x) -> bytes:
    x = np.asarray(x)
    return str(x.shape).encode() + x.tobytes()


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)


def wide_graph(rng: np.random.Generator, n: int, weighted: bool) -> Graph:
    """A random graph on n vertices that also joins the top qubits, which
    the parts split on, to each other and to qubit 0."""
    g = random_graph(rng, n, weighted=weighted, p_edge=2.0 / n)
    extra = [(0, n - 1), (n - 2, n - 1), (1, n - 3), (n - 3, n - 1)]
    edges = {(u, v): w for u, v, w in g.edges}
    for u, v in extra:
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)) if weighted else np.pi)
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


@pytest.mark.parametrize("n", WIDTHS)
def test_states_from_two_to_the_sixteen_amplitudes_split_over_the_workers(monkeypatch, n):
    for workers, covering in COVERING.items():
        force_workers(monkeypatch, workers)
        expected = 1 if n < 16 else min(covering, 1 << (n - 15))
        assert sim.split_parts(1 << n) == expected, workers
    force_workers(monkeypatch, 8)
    assert sim.split_parts(1 << 10) == 1


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("basis", ["Y", "Z"])
def test_node_p1_has_the_serial_bits_at_any_worker_count(monkeypatch, n, basis):
    rng = np.random.default_rng(n)
    amps = np.stack([random_state(rng, n) for _ in range(2)])
    expected = bits(serial_node_p1(amps, range(n), basis))
    for workers in WORKERS:
        force_workers(monkeypatch, workers)
        assert bits(node_p1(amps, range(n), basis)) == expected, workers
        assert bits(node_p1(amps[:1], range(n), basis)) == bits(
            serial_node_p1(amps[:1], range(n), basis)), workers


@pytest.mark.parametrize("n", WIDTHS)
def test_edge_zzs_has_the_serial_bits_at_any_worker_count(monkeypatch, n):
    rng = np.random.default_rng(100 + n)
    amps = np.stack([random_state(rng, n) for _ in range(2)])
    # qubits 0-5 lie inside a block of 128 floats: edges with both, one or
    # no endpoint there, the split top qubits among them
    pairs = [(0, 3), (2, 5), (4, 1), (1, 9), (5, n - 1), (0, n - 1), (7, 11), (6, 13),
             (n - 2, n - 1), (8, n - 3), (n - 3, 2)]
    expected = bits(serial_edge_zzs(amps, pairs))
    for workers in WORKERS:
        force_workers(monkeypatch, workers)
        assert bits(edge_zzs(amps, pairs)) == expected, workers
        assert bits(edge_zzs(amps[0], pairs)) == bits(serial_edge_zzs(amps[0], pairs)), workers


@pytest.mark.parametrize("n", WIDTHS)
def test_swap_tests_have_the_serial_bits_at_any_worker_count(monkeypatch, n):
    rng = np.random.default_rng(500 + n)
    a = np.stack([random_state(rng, n) for _ in range(3)])
    b = np.stack([a[0] + 1e-3 * random_state(rng, n), random_state(rng, n)])
    norms = np.outer(*[(np.abs(x) ** 2).sum(axis=-1) for x in (a, b)])
    expected = 0.5 * (norms + np.abs(serial_overlaps(a, b)) ** 2)
    for workers in WORKERS:
        force_workers(monkeypatch, workers)
        assert bits(swap_tests(a, b)[0]) == bits(expected), workers
        # an entry does not depend on the other states of its stacks
        assert bits(swap_tests(a[2:], b[1:])[0]) == bits(expected[2:, 1:]), workers


def programs(rng: np.random.Generator, n: int):
    """(name, program, angle rows): the CP and IsingZZ entanglers of a
    weighted graph, and an m = 2 model whose second layer runs Ry on the
    split qubits between its entanglers."""
    g = wide_graph(rng, n, weighted=True)
    weights = [[w for _, _, w in g.edges]]
    for convention in EdgeConvention:
        yield convention.value, edge_program(g.edges, convention), weights
    model = ModelSpec(g, 2, rng.uniform(0.0, np.pi, (2, n)), rng.uniform(0.1, 3.0, (2, g.n_edges)))
    program = gate_program(model)
    params = np.concatenate([model.theta.ravel(), model.weights.ravel()])
    yield "m2", program, param_rows(program, params[None])


@pytest.mark.parametrize("n", WIDTHS)
def test_run_program_has_the_serial_bits_at_any_worker_count(monkeypatch, n):
    rng = np.random.default_rng(200 + n)
    start = np.stack([random_state(rng, n) for _ in range(2)])
    for name, program, rows in programs(rng, n):
        rows = np.repeat(np.asarray(rows), 2, axis=0)
        rows[1] *= 0.5
        expected = bits(serial_run_program(start.copy(), program, rows))
        for workers in WORKERS:
            force_workers(monkeypatch, workers)
            got = sim.run_program(start.copy(), program, rows)
            assert bits(got) == expected, (name, workers)


@pytest.mark.parametrize("n", WIDTHS)
def test_sampled_probabilities_have_the_serial_bits_at_any_worker_count(monkeypatch, n):
    g = wide_graph(np.random.default_rng(300 + n), n, weighted=True)
    serial = new_state(n, "plus").amps[None]
    serial_run_program(serial, edge_program(g.edges, EdgeConvention.CONTROLLED_PHASE),
                       [[w for _, _, w in g.edges]])
    expected = bits(StateVector(n, serial[0]).probabilities())
    for workers in WORKERS:
        force_workers(monkeypatch, workers)
        assert bits(build_graph_state(g).probabilities()) == expected, workers


@pytest.mark.parametrize("n", WIDTHS)
def test_verify_residuals_follow_the_pairwise_sum_at_any_worker_count(monkeypatch, n):
    rng = np.random.default_rng(400 + n)
    g = wide_graph(rng, n, weighted=False)
    exact = build_graph_state(g)
    noisy = StateVector(n, exact.amps + 1e-6 * random_state(rng, n))
    for s in (exact, noisy):
        expected = bits(pairwise_residuals(g, s))
        for workers in WORKERS:
            force_workers(monkeypatch, workers)
            assert bits(verify_stabilizers(g, s).residuals) == expected, workers


# Runs each argv of sys.argv[1] through cli.execute and prints the exit codes.
_RUN_VERBS = r"""
import json, sys
from qgns.cli import execute
print(json.dumps([execute(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_state_verify_prints_the_same_bytes_for_any_blas_thread_count(tmp_path):
    # OpenBLAS splits a reduction over more than 10,000 elements over its
    # threads, so a BLAS call behind a printed number (np.linalg.norm once
    # ran one in verify, np.vdot in swap) makes its last digits depend on
    # their number. Every verb below prints BLAS-free numbers, at 2^14
    # amplitudes (serial) and 2^16 (split over the cores).
    rng = np.random.default_rng(16)
    (tmp_path / "g16.qg").write_text(to_edge_list(random_graph(rng, 16, p_edge=0.25)),
                                     encoding="utf-8")
    argvs = [["state", "verify", "--graph", "g16.qg"]]
    for n in (14, 16):
        g = random_graph(rng, n, weighted=True, p_edge=0.25)
        (tmp_path / f"w{n}.qg").write_text(to_edge_list(g), encoding="utf-8")
        node = Dataset("node", tuple(DataItem(g, rng.uniform(0, 1, n), (1, 0) * (n // 2))
                                     for _ in range(2)))
        edge = Dataset("edge", (DataItem(g, rng.uniform(0, 1, n), (0.5,) * g.n_edges),))
        save_dataset(node, tmp_path / f"node{n}.json")
        save_dataset(edge, tmp_path / f"edge{n}.json")
        argvs += [["state", "verify", "--graph", f"w{n}.qg"],
                  ["state", "sample", "--graph", f"w{n}.qg", "--shots", "1000", "--seed", "5"],
                  ["model", "eval", "--data", f"node{n}.json", "--layers", "2"],
                  ["model", "eval", "--data", f"edge{n}.json", "--layers", "2"],
                  ["pool", "--graph", f"w{n}.qg", "--seed", "3"]]
    # overlaps near 1 keep the last digits that a low overlap loses in
    # p0 = (1 + |<a|b>|^2) / 2: a graph of small weights against the same
    # graph with every weight x 1.01 and against |+...+>, and a graph task
    # of four items, one per class (so each is its class prototype), whose
    # features lie within 1% of each other. A feature vector's minimum and
    # maximum encode to Ry(0) and Ry(pi), which zero half of the state; they
    # sit on qubits 0 and 1, so both halves of the split hold amplitudes.
    n = 16
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(*pairs[k], float(rng.uniform(0.01, 0.3)))
             for k in sorted(rng.choice(len(pairs), 2 * n, replace=False))]
    near = Graph.from_edges(n, edges)
    (tmp_path / "near.qg").write_text(to_edge_list(near), encoding="utf-8")
    (tmp_path / "nearer.qg").write_text(
        to_edge_list(Graph.from_edges(n, [(u, v, 1.01 * w) for u, v, w in edges])),
        encoding="utf-8")
    x = np.concatenate([[0.0, 1.0], rng.uniform(0.2, 0.8, n - 2)])
    graph_task = Dataset("graph", tuple(DataItem(near, x + rng.uniform(0, 0.01, n), k)
                                        for k in range(4)))
    save_dataset(graph_task, tmp_path / "graph16.json")
    argvs += [["swap", "--graph", "near.qg", "--graph", "nearer.qg"],
              ["swap", "--graph", "near.qg"],
              ["model", "eval", "--data", "graph16.json"]]
    # the LCU filter on a Laplacian padded to 128 rows, and on one of 128
    for d in (100, 128):
        g = random_graph(rng, d, weighted=True, p_edge=0.1)
        (tmp_path / f"f{d}.qg").write_text(to_edge_list(g), encoding="utf-8")
        (tmp_path / f"x{d}.txt").write_text(
            "".join(f"{x!r}\n" for x in rng.uniform(-1, 1, d).tolist()), encoding="utf-8")
        argvs.append(["filter", "apply", "--graph", f"f{d}.qg", "--coeffs", "0.5,-0.3,0.2",
                      "--vector", f"x{d}.txt"])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        runs = [[*argv, "--out", f"out{threads}-{k}.txt"] for k, argv in enumerate(argvs)]
        proc = subprocess.run([sys.executable, "-c", _RUN_VERBS, json.dumps(runs)],
                              cwd=tmp_path, env=env, capture_output=True, timeout=300,
                              check=True)
        assert json.loads(proc.stdout) == [0] * len(runs), proc.stderr
        outputs.append([(tmp_path / run[-1]).read_bytes() for run in runs])
    assert b'"pass": true' in outputs[0][0]
    for argv, one, two in zip(argvs, *outputs):
        assert one == two, argv


def test_parts_keep_their_bits_with_more_threads_than_cores(monkeypatch):
    # a fresh pool of seven threads, switching between them every microsecond
    sim._pool.cache_clear()
    force_workers(monkeypatch, 8)
    rng = np.random.default_rng(500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (17, 18):
            g = wide_graph(rng, n, weighted=False)
            amps = random_state(rng, n)[None]
            program = edge_program(g.edges, EdgeConvention.ISING_ZZ)
            rows = rng.uniform(0.1, 3.0, (1, len(program)))
            assert bits(sim.run_program(amps.copy(), program, rows)) == bits(
                serial_run_program(amps.copy(), program, rows))
            assert bits(node_p1(amps, range(n), "Y")) == bits(serial_node_p1(amps, range(n), "Y"))
            pairs = [(u, v) for u, v, _ in g.edges]
            assert bits(edge_zzs(amps, pairs)) == bits(serial_edge_zzs(amps, pairs))
            s = StateVector(n, amps[0])
            assert bits(verify_stabilizers(g, s).residuals) == bits(pairwise_residuals(g, s))
    finally:
        sys.setswitchinterval(interval)
        sim._pool().shutdown(wait=True)
        sim._pool.cache_clear()
    assert sim.split_parts(1 << 18) == 8


# Forces two workers, starts the pool on a 2^16-amplitude state, then forks:
# the child reruns the readout and exits 0 if it got the parent's bits from a
# pool of its own. A child left with the parent's pool object, whose threads
# did not survive the fork, waits for them forever, so the parent kills a
# child that is not done in time. Prints the child's exit code, or "hung".
_FORK = r"""
import os, sys, time
import numpy as np
import qgns.sim as sim
from qgns.tasks import node_p1

sim._worker_count = lambda: 2
amps = np.random.default_rng(16).standard_normal((1, 1 << 16)).astype(complex)
before = node_p1(amps, range(16), "Y").tobytes()
assert sim._pool.cache_info().currsize == 1
pid = os.fork()
if pid == 0:
    fresh = sim._pool.cache_info().currsize == 0
    os._exit(0 if fresh and node_p1(amps, range(16), "Y").tobytes() == before else 3)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(os.waitstatus_to_exitcode(status))
        sys.exit()
    time.sleep(0.01)
os.kill(pid, 9)
os.waitpid(pid, 0)
print("hung")
"""


def test_a_forked_child_runs_parts_on_a_pool_of_its_own(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _FORK], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n", proc.stderr
