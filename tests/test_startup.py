"""The package's import boundary: the graph-state half loads with `qgns`,
the trainer half (`dataset`, `qgnn`, `executor`, `train`) only when a verb
or a caller reaches into it, no module imports another's private names
beyond a few shared helpers, no module rebinds its globals at run time,
and no BLAS reduction enters a number the package prints.

Module execution is observed in a fresh interpreter through the `exec`
audit event, which fires for every module body the import system runs,
however the package arranges its imports.
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgns

SRC = Path(__file__).resolve().parents[1] / "src"
TRAINER = {"dataset.py", "qgnn.py", "executor.py", "train.py"}
GRAPH_STATE = {"__init__.py", "cli.py", "graph.py", "sim.py", "graphstate.py", "tasks.py",
               "filters.py"}

# The package's exports, by defining module.
EXPORTS = {
    "graph": "DEFAULT_WEIGHT Graph adjacency_matrix from_edge_list laplacian neighborhood "
             "to_edge_list",
    "sim": "MAX_QUBITS GateOp MeasurementRecord StateVector apply_gate apply_linear_operator "
           "dump_state expectation_pauli measure_qubit new_state sample_counts tensor",
    "graphstate": "ConstraintRound EdgeConvention StabilizerReport build_graph_state "
                  "constraint_round decomposition_amplitude edge_program pool_measure "
                  "verify_stabilizers",
    "qgnn": "ModelSpec encode_features load_model model_from_dict model_to_dict save_model",
    "tasks": "classify_graph edge_readout node_readout swap_test_overlap",
    "filters": "apply_filter_lcu polynomial_filter_matrix",
    "dataset": "DataItem Dataset dataset_from_dict dataset_to_dict demo_graph load_dataset "
               "save_dataset toy_dataset_path toy_node_dataset",
    "train": "FitResult TrainConfig accuracy class_prototypes fit gradient initial_model loss "
             "params_of with_params",
}

# The private names a module may import from another: helpers shared on
# purpose, as (defining module, name): importing modules. Every other name one
# module imports from another is public, so a kernel's internals stay in it.
SHARED_PRIVATE = {
    ("graph", "_replace_text"): {"cli", "dataset", "qgnn"},
    ("dataset", "_check_fields"): {"qgnn"},
    ("sim", "_SQRT2_INV"): {"tasks"},
    ("sim", "_check_qubits"): {"tasks"},
}

# Runs each argv of sys.argv[1] in turn and prints, after each, the exit code
# and the package files whose module bodies have run so far.
_RUN_VERBS = r"""
import json, os, sys
package = os.path.join(sys.argv[2], "qgns")
ran = set()

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", "").startswith(package):
        ran.add(os.path.basename(args[0].co_filename))

sys.addaudithook(hook)
from qgns.cli import execute
print(json.dumps([[execute(argv), sorted(ran)] for argv in json.loads(sys.argv[1])]))
"""

# Every way of naming a trainer module gives the one module object, before
# and after it loads, and a reload of the package keeps it.
_ONE_MODULE = r"""
import importlib, sys
import qgns
for name in ("train", "executor", "qgnn", "dataset"):
    attribute = getattr(qgns, name)
    ns = {}
    exec(f"from qgns import {name} as from_import\nimport qgns.{name} as dotted", ns)
    assert attribute is ns["from_import"] is ns["dotted"] is sys.modules["qgns." + name], name
import qgns.train
assert qgns.train.fit is qgns.fit
assert qgns.train.compile_circuit is qgns.executor.compile_circuit
before = {name: sys.modules["qgns." + name] for name in ("dataset", "qgnn", "executor", "train")}
importlib.reload(qgns)
for name, module in before.items():
    assert getattr(qgns, name) is module is sys.modules["qgns." + name], name
assert qgns.fit is before["train"].fit
print("ok")
"""


# Runs each argv of sys.argv[1] in turn, then prints the exit codes, whether
# concurrent.futures (the part pool's module) was imported, and how many
# threads are alive.
_THREADS = r"""
import json, sys, threading
from qgns.cli import execute
codes = [execute(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "concurrent.futures" in sys.modules, threading.active_count()]))
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_the_model_verbs_run_the_trainer_half(tmp_path):
    (tmp_path / "g.qg").write_text("qgraph v1 n=3\n0 1 0.5\n1 2\n", encoding="utf-8")
    (tmp_path / "x.txt").write_text("1.0\n0.0\n0.5\n", encoding="utf-8")
    graph = ["--graph", "g.qg", "--out", "out.txt"]
    non_model = [["state", "build", *graph], ["state", "verify", *graph],
                 ["state", "sample", *graph, "--shots", "5"], ["state", "sample", *graph],
                 ["swap", *graph], ["swap", *graph, "--graph", "g.qg", "--shots", "9"],
                 ["filter", "apply", *graph, "--coeffs", "0.5,1", "--vector", "x.txt"],
                 ["pool", *graph, "--seed", "3"]]
    model_eval = ["model", "eval", "--data", str(qgns.toy_dataset_path()), "--out", "out.txt"]
    report = json.loads(_python(_RUN_VERBS, json.dumps(non_model + [model_eval]), str(SRC),
                                cwd=tmp_path))
    assert [code for code, _ in report] == [0] * len(report)
    for argv, (_, ran) in zip(non_model, report):
        assert GRAPH_STATE <= set(ran), argv  # the hook sees module bodies run
        assert not TRAINER & set(ran), argv
    assert TRAINER <= set(report[-1][1])


def test_states_below_two_to_the_sixteen_start_no_pool(tmp_path):
    def ring(n: int) -> str:
        return f"qgraph v1 n={n}\n" + "".join(f"{v} {(v + 1) % n} 0.5\n" for v in range(n))

    (tmp_path / "g9.qg").write_text(ring(9), encoding="utf-8")
    (tmp_path / "h9.qg").write_text(ring(9).replace("0.5", "1.25"), encoding="utf-8")
    (tmp_path / "x9.txt").write_text("1.0\n" * 9, encoding="utf-8")
    (tmp_path / "g16.qg").write_text(ring(16).replace(" 0.5", ""), encoding="utf-8")
    out = ["--out", "out.txt"]
    small = [["filter", "apply", "--graph", "g9.qg", "--coeffs", "0.5,1", "--vector", "x9.txt",
              *out],
             ["swap", "--graph", "g9.qg", *out],
             ["swap", "--graph", "g9.qg", "--graph", "h9.qg", "--shots", "9", *out],
             ["model", "train", "--data", str(qgns.toy_dataset_path()), "--epochs", "3", *out]]
    codes, pooled, threads = json.loads(_python(_THREADS, json.dumps(small), cwd=tmp_path))
    assert codes == [0] * len(small)
    assert not pooled and threads == 1
    # a 16-qubit state splits wherever a second core can take a part
    codes, pooled, threads = json.loads(_python(
        _THREADS, json.dumps([["state", "verify", "--graph", "g16.qg", *out]]), cwd=tmp_path))
    assert codes == [0]
    assert pooled == (threads > 1) == (len(os.sched_getaffinity(0)) > 1)


def test_a_trainer_module_has_one_module_object(tmp_path):
    assert _python(_ONE_MODULE, cwd=tmp_path) == "ok\n"


def test_every_export_resolves_to_its_defining_module():
    names = dir(qgns)
    for module, exported in EXPORTS.items():
        defining = importlib.import_module(f"qgns.{module}")
        for name in exported.split():
            assert getattr(qgns, name) is getattr(defining, name), name
            assert name in names
    star: dict = {}
    exec("from qgns import *", star)
    assert {name for exported in EXPORTS.values() for name in exported.split()} <= set(star)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'qgns' has no attribute 'no_such_name'"):
        qgns.no_such_name  # noqa: B018
    assert not hasattr(qgns, "select_powers_operator")
    for deleted in ("message_pass", "build_superposed", "PauliString", "edge_phase_estimate",
                    "model_circuit", "pad_matrix"):
        assert not hasattr(qgns, deleted), deleted
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qgns import no_such_name", {})


def test_a_module_imports_only_public_names_from_another():
    private = []
    for path in sorted((SRC / "qgns").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").split(".")[0] == "qgns"):
                continue
            source = (node.module or "__init__").split(".")[-1]
            for alias in node.names:
                name = alias.name
                if (name.startswith("_") and not name.endswith("__")
                        and path.stem not in SHARED_PRIVATE.get((source, name), ())):
                    private.append(f"{path.stem} imports {source}.{name}")
    assert private == []


def test_no_module_rebinds_its_own_state_at_run_time():
    # module state that a call rebinds must be reset by hand in a forked
    # child or a test; a cached factory (functools.cache) is reset by one call
    rebinding = [f"{path.stem}: global {', '.join(node.names)}"
                 for path in sorted((SRC / "qgns").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Global)]
    assert rebinding == []


# The functions that may call a BLAS reduction: a norm check and two oracles,
# none of whose values is printed.
BLAS_REDUCERS = {"sim.StateVector.norm", "sim.apply_linear_operator", "sim.expectation_pauli"}


def test_no_printed_number_comes_from_a_blas_reduction():
    # OpenBLAS splits np.linalg.norm (a dot) and np.vdot over its threads
    # above 10,000 elements, so a printed number taken from one would have
    # last digits that follow OPENBLAS_NUM_THREADS
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and (
                node.attr == "vdot" or node.attr == "norm"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            calls.append((scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted((SRC / "qgns").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert [call for call in calls if call[0] not in BLAS_REDUCERS] == []
    assert {scope for scope, _ in calls} == BLAS_REDUCERS
