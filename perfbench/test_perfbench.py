"""Self-tests of the benchmark at a tiny size: python3 -m pytest -q perfbench"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_qgns(ROOT)


@pytest.fixture
def workdir(monkeypatch):
    path = ROOT / ".perfbench-run" / f"selftest-{id(monkeypatch)}"
    path.mkdir(parents=True)
    monkeypatch.chdir(path)
    yield path
    shutil.rmtree(path)


def _plan(workload: str, workdir: Path, seed: int = 5) -> dict:
    return workloads.make_plan(workload, seed, workdir, workloads.TINY)


def _client(plan: dict) -> worker.Client:
    return worker.Client(cli, plan["ops"], plan["cycle_len"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_without_failures(workload, workdir):
    client = _client(_plan(workload, workdir))
    cycles = 2 if workload == "toy_train" else 3  # the third cycle repeats the first input set
    client.cycles(count=cycles)
    assert len(client.latencies) == cycles * client.cycle_len
    assert client.failed == 0


def test_inputs_repeat_for_a_seed(workdir):
    first = _plan("swap_filter", workdir)
    assert _plan("swap_filter", workdir) == first
    assert _plan("swap_filter", workdir, seed=6) != first


def _corrupt(text: str) -> str:
    """A well-formed wrong output: add 1 to the first number with a fraction,
    or change the last digit when there is none."""
    match = re.search(r"-?\d+\.\d+(e[-+]?\d+)?", text)
    if match:
        return text[:match.start()] + repr(float(match.group()) + 1.0) + text[match.end():]
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 3) % 10) + text[i + 1:]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, workdir):
    client = _client(_plan(workload, workdir))
    for op in client.ops[:client.cycle_len]:
        _, ok, text = client.run(op)
        assert ok
        assert not workloads.check_output(op, _corrupt(text), workdir, {}), op["check"]
        # a seeded output that does not repeat its first run byte for byte fails too
        assert workloads.check_output(op, text, workdir, client.first_outputs)
        if op["check"] in workloads.SEEDED:
            assert not workloads.check_output(op, text + " ", workdir, client.first_outputs)


def test_failed_call_counts_as_failed(workdir):
    client = _client(_plan("swap_filter", workdir))
    op = dict(client.ops[0], argv=["swap", "--graph", "missing.qg"])
    _, ok, _ = client.run(op)
    assert not ok


def test_traced_self_times_sum_to_wall_time(workdir):
    client = _client(_plan("swap_filter", workdir))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        client.cycles(count=1)
    finally:
        tracer.uninstall()
    per_op = tracer.per_op_self_time()
    assert sorted(per_op) == list(range(client.cycle_len))
    for op_id, wall in enumerate(client.latencies):
        assert 0.95 * wall <= per_op[op_id] <= wall
    metrics = tracer.metrics(len(client.latencies), 1.0)
    assert [name for name, _ in tracing.METRICS] == list(metrics)
    assert metrics["tasks.swap_test_overlap.calls"] > 0
    assert metrics["filters.select_dense_bytes"] > 0
    assert not hasattr(cli.execute, "__wrapped__")  # uninstall restored the bindings


def test_trace_counts_repeat(workdir):
    def traced_counts():
        client = _client(_plan("toy_train", workdir))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            client.cycles(count=1)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(client.latencies), 1.0)
        return {k: v for k, v in metrics.items() if not k.endswith("self_s")
                and k != "trace.overhead_ratio"}

    counts = traced_counts()
    assert counts == traced_counts()
    assert counts["train.circuit_evals_per_epoch"] > 0


def test_trace_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("sim", "no_such_gate"),))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="no_such_gate"):
        tracer.install()
    tracer.uninstall()
    assert not hasattr(sys.modules["qgns.sim"].apply_gate, "__wrapped__")


def test_toy_reference_reaches_target_at_epoch_70():
    refs = workloads.toy_reference([0, 1, 2, 3])
    accs = [row[1] for ref in refs for row in ref["rows"]]
    assert next(e for e, a in enumerate(accs) if a >= workloads.TOY_TARGET_ACCURACY) == 70


def test_run_exits_nonzero_without_a_source_tree():
    bare = ROOT / ".perfbench-run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_negative_leading_coefficient_needs_the_equals_form(workdir):
    # the CLI quirk the filter ops route around
    (workdir / "g.qg").write_text("qgraph v1 n=2\n0 1 0.5\n")
    (workdir / "x.txt").write_text("1.0\n0.0\n")
    argv = ["filter", "apply", "--graph", "g.qg", "--vector", "x.txt"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--coeffs", "-0.3,1"])
    assert exc.value.code == 2
    client = worker.Client(cli, [])
    _, ok, _ = client.run({"argv": argv + ["--coeffs=-0.3,1"], "check": "filter",
                           "ref": {"y": workloads.horner(workloads.laplacian(2, [(0, 1, 0.5)]),
                                                         [-0.3, 1.0], [1.0, 0.0]).tolist()}})
    assert ok
