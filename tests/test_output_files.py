"""Output files: every verb's --out, model train's --save-model and the
library savers replace a file's contents in place through one writer.

The writer opens without O_TRUNC and cuts a regular file to the written
length afterwards, so a file keeps its inode, mode and hard links, and a
FIFO or /dev/null is only written. A path that cannot be written, because
it is a directory or its parent is not one, fails before any input is read.
"""
from __future__ import annotations

import ast
import json
import os
import stat
import threading
from pathlib import Path

import pytest

from qgns import (dataset_to_dict, demo_graph, initial_model, model_to_dict, save_dataset,
                  save_model, to_edge_list, toy_dataset_path, toy_node_dataset)
from qgns.cli import execute

SRC = Path(__file__).resolve().parents[1] / "src" / "qgns"
WRITER = ("graph.py", "_replace_text")


def _written(text: str) -> bytes:
    return text.encode("utf-8")


def test_a_checkpoint_overwritten_by_a_shorter_one_holds_only_the_new_bytes(tmp_path):
    path = tmp_path / "model.json"
    long, short = (initial_model(demo_graph(), m=m) for m in (4, 1))
    save_model(long, path, seed=3)
    save_model(short, path, seed=5)
    expected = _written(json.dumps(model_to_dict(short, 5), indent=2) + "\n")
    assert path.read_bytes() == expected
    assert path.stat().st_size == len(expected)


def test_model_train_save_model_rewrites_a_longer_checkpoint(tmp_path, capsys):
    path, fresh = tmp_path / "model.json", tmp_path / "fresh.json"
    argv = ["model", "train", "--data", str(toy_dataset_path()), "--epochs", "2"]
    assert execute([*argv, "--layers", "3", "--save-model", str(path)]) == 0
    longer = path.stat().st_size
    for target in (path, fresh):
        assert execute([*argv, "--layers", "1", "--save-model", str(target)]) == 0
    capsys.readouterr()
    assert path.stat().st_size < longer
    assert path.read_bytes() == fresh.read_bytes()


def test_an_existing_file_keeps_its_inode_mode_and_links(tmp_path, capsys):
    graph = tmp_path / "k3.qg"
    graph.write_text("qgraph v1 n=3\n0 1\n1 2\n", encoding="utf-8")
    out, link = tmp_path / "out.txt", tmp_path / "link.txt"
    out.write_text("x" * 10_000, encoding="utf-8")
    out.chmod(0o640)
    os.link(out, link)
    before = out.stat()
    assert execute(["state", "build", "--graph", str(graph)]) == 0
    printed = capsys.readouterr().out
    assert execute(["state", "build", "--graph", str(graph), "--out", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode), after.st_nlink) == (
        before.st_ino, 0o640, 2)
    assert out.read_bytes() == link.read_bytes() == _written(printed)


def test_out_dev_null_exits_0(tmp_path, capsys):
    graph = tmp_path / "k2.qg"
    graph.write_text("qgraph v1 n=2\n0 1\n", encoding="utf-8")
    assert execute(["state", "verify", "--graph", str(graph), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_a_fifo_receives_the_bytes(tmp_path, capsys):
    graph, fifo = tmp_path / "k2.qg", tmp_path / "pipe"
    graph.write_text("qgraph v1 n=2\n0 1\n", encoding="utf-8")
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        code = execute(["pool", "--graph", str(graph), "--seed", "3", "--out", str(fifo)])
    finally:
        reader.join(timeout=30)
        if reader.is_alive():   # the verb never opened the FIFO: release the reader
            with open(fifo, "wb"):
                pass
            reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert execute(["pool", "--graph", str(graph), "--seed", "3"]) == 0
    assert received == [_written(capsys.readouterr().out)]


def test_save_dataset_writes_what_json_dumps_prints(tmp_path):
    path = tmp_path / "data.json"
    path.write_text("y" * 100_000, encoding="utf-8")
    dataset = toy_node_dataset()
    save_dataset(dataset, path)
    assert path.read_bytes() == _written(json.dumps(dataset_to_dict(dataset), indent=2) + "\n")


@pytest.mark.parametrize("argv", [
    ["state", "sample", "--graph", "g.qg", "--shots", "50", "--seed", "2"],
    ["filter", "apply", "--graph", "g.qg", "--coeffs=0.5,1", "--vector", "x.txt"],
    ["model", "eval", "--data", "toy.json"],
], ids=["state sample", "filter apply", "model eval"])
def test_out_writes_what_stdout_prints_over_a_longer_file(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("g.qg").write_text(to_edge_list(demo_graph()), encoding="utf-8")
    Path("x.txt").write_text("1\n-2\n0.5\n3\n1e-3\n", encoding="utf-8")
    save_dataset(toy_node_dataset(), "toy.json")
    Path("out.txt").write_text("z" * 50_000, encoding="utf-8")
    assert execute(argv) == 0
    printed = capsys.readouterr().out
    assert execute([*argv, "--out", "out.txt"]) == 0
    assert capsys.readouterr() == ("", "")
    assert Path("out.txt").read_bytes() == _written(printed)


# each verb with the flag that names its output file; every input it names
# is missing, so an error about the output shows that no input was read
UNWRITABLE = {
    "state build --out": ["state", "build", "--graph", "missing.qg", "--out"],
    "model train --out": ["model", "train", "--data", "missing.json", "--out"],
    "model train --save-model": ["model", "train", "--data", "missing.json", "--save-model"],
    "filter apply --out": ["filter", "apply", "--graph", "missing.qg", "--coeffs=1",
                           "--vector", "missing.txt", "--out"],
}


def _write_error(path: Path) -> str:
    """The error text that writing path raises."""
    with pytest.raises(OSError) as caught:
        path.write_text("", encoding="utf-8")
    return str(caught.value)


@pytest.mark.parametrize("target", ["a directory", "a missing parent", "a file as parent"])
@pytest.mark.parametrize("verb", list(UNWRITABLE))
def test_an_unwritable_output_fails_before_any_input_is_read(verb, target, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    Path("file").write_text("", encoding="utf-8")
    path = {"a directory": "dir", "a missing parent": str(tmp_path / "missing" / "out"),
            "a file as parent": "file/out"}[target]
    assert execute([*UNWRITABLE[verb], path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": _write_error(Path(path))}
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"] and not os.listdir("dir")


def test_model_train_checks_save_model_before_it_trains(tmp_path, capsys):
    argv = ["model", "train", "--data", str(toy_dataset_path()), "--epochs", "3",
            "--save-model", str(tmp_path)]
    assert execute(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": _write_error(tmp_path)}


def _write_calls(tree: ast.AST):
    """Each call in a syntax tree that can open a file for writing:
    write_text and write_bytes, os.open with a writing flag, and any other
    open whose mode is not a literal read mode."""
    writing_flags = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = getattr(func, "value", None)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open" and getattr(owner, "id", None) == "os":
            if {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)} & writing_flags:
                yield node
        elif name == "open":
            at = 0 if owner is not None and getattr(owner, "id", None) != "io" else 1  # Path.open
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                yield node


def test_one_function_in_the_package_opens_files_for_writing():
    found, in_writer = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(call) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and (path.name, f.name) == WRITER for call in _write_calls(f)}
        in_writer += inside
        found += [f"{path.name}:{call.lineno}: {ast.unparse(call)}"
                  for call in _write_calls(tree) if id(call) not in inside]
    assert found == [], "write output files through graph._replace_text"
    assert in_writer, "the scan finds the writer's own open"
