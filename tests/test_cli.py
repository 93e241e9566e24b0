from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qgns import (DataItem, Dataset, EdgeConvention, Graph, ModelSpec, build_graph_state,
                  class_prototypes, dataset_to_dict, demo_graph, initial_model, load_dataset,
                  model_to_dict, new_state, save_dataset, save_model, to_edge_list,
                  toy_dataset_path, toy_node_dataset)
from qgns.cli import _indented_json, execute

from helpers import model_circuit


@pytest.fixture
def k2_file(tmp_path, k2):
    path = tmp_path / "k2.qg"
    path.write_text(to_edge_list(k2), encoding="utf-8")
    return str(path)


@pytest.fixture
def demo_file(tmp_path, demo5):
    path = tmp_path / "demo5.qg"
    path.write_text(to_edge_list(demo5), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    save_dataset(toy_node_dataset(), path)
    return str(path)


def test_state_build_dump(k2_file, capsys):
    assert execute(["state", "build", "--graph", k2_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    idx, re, im = lines[3].split()
    assert idx == "3" and float(re) == pytest.approx(-0.5) and abs(float(im)) < 1e-15


def test_state_verify_pass(demo_file, capsys):
    assert execute(["state", "verify", "--graph", demo_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["convention"] == "cp"
    assert len(report["residuals"]) == 5
    assert max(report["residuals"]) < 1e-10


def test_state_sample_seeded_and_exact(k2_file, capsys):
    assert execute(["state", "sample", "--graph", k2_file, "--shots", "100",
                    "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert execute(["state", "sample", "--graph", k2_file, "--shots", "100",
                    "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["seed"] == 5 and sum(payload["counts"].values()) == 100

    assert execute(["state", "sample", "--graph", k2_file]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["probabilities"]["3"] == pytest.approx(0.25)


@pytest.mark.parametrize("shots", ["300", "0"])
def test_state_sample_writes_the_bytes_of_the_indented_encoder(shots, demo_file, capsys):
    assert execute(["state", "sample", "--graph", demo_file, "--shots", shots,
                    "--seed", "4"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert list(payload) == ["seed", "shots", "counts" if int(shots) else "probabilities"]
    assert len(payload[list(payload)[-1]]) > 1
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    {}, {"seed": 0, "shots": 5, "counts": {}},
    {"seed": 1, "shots": 0, "probabilities": {"0": 0.5, "31": 1e-300, "7": float("nan")}},
    {"counts": {"1": 2, "0": 3}, "note": "a \"quoted\"\nline \u00e9", "flag": True,
     "none": None, "x": -0.0}])
def test_indented_json_has_the_bytes_of_json_dumps(payload):
    assert _indented_json(payload) == json.dumps(payload, indent=2)


def test_model_train_csv_reproducible(toy_file, tmp_path, capsys):
    argv = ["model", "train", "--data", toy_file, "--epochs", "4", "--seed", "7"]
    assert execute(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert execute(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    text = a.decode()
    assert text.startswith("# seed=7\nepoch,loss,accuracy\n")
    assert len(text.strip().splitlines()) == 6


def test_model_train_save_and_eval(toy_file, tmp_path, capsys):
    ckpt = tmp_path / "model.json"
    assert execute(["model", "train", "--data", toy_file, "--epochs", "30",
                    "--seed", "7", "--lr", "0.2", "--save-model", str(ckpt),
                    "--out", str(tmp_path / "h.csv")]) == 0
    saved = json.loads(ckpt.read_text())
    assert saved["version"] == "qgns-1" and saved["seed"] == 7

    assert execute(["model", "eval", "--data", toy_file, "--model", str(ckpt)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["task"] == "node" and meta["seed"] == 0
    items = [json.loads(line) for line in lines[1:]]
    assert len(items) == 4
    assert all(set(it) >= {"item", "task", "scores", "prediction", "label", "correct"}
               for it in items)


def test_model_train_pshift_and_mse(toy_file, capsys):
    assert execute(["model", "train", "--data", toy_file, "--epochs", "2",
                    "--grad", "pshift", "--loss", "mse"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed=0")


def test_filter_apply(k2_file, tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("1.0\n0.0\n", encoding="utf-8")
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "0,1",
                    "--vector", str(vec)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    scale = float(lines[0].split("=", 1)[1])
    y = np.array([float(v) for v in lines[1:]])
    # K2 edge weight pi: L x = (pi, -pi)
    assert np.allclose(scale * y, [math.pi, -math.pi], atol=1e-10)


def test_all_zero_filter_coefficients_are_one_json_error(k2_file, tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("1.0\n0.0\n", encoding="utf-8")
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "0,0",
                    "--vector", str(vec)]) == 1
    assert "nonzero" in _json_error(capsys)["error"]


@pytest.mark.parametrize("coeffs, entry", [("1,,2", ""), ("0.5,x", "x"), ("1,", "")])
def test_a_coefficient_that_is_not_a_number_names_the_flag_and_entry(k2_file, tmp_path,
                                                                     capsys, coeffs, entry):
    vec = tmp_path / "x.txt"
    vec.write_text("1.0\n0.0\n", encoding="utf-8")
    assert execute(["filter", "apply", "--graph", k2_file, f"--coeffs={coeffs}",
                    "--vector", str(vec)]) == 1
    error = _json_error(capsys)["error"]
    assert error.startswith(f"--coeffs {coeffs!r}:") and error.endswith(repr(entry))


def test_filter_output_refeedable(k2_file, tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("0.25\n-1.5\n", encoding="utf-8")
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "1,1",
                    "--vector", str(vec), "--out", str(tmp_path / "y.txt")]) == 0
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "1",
                    "--vector", str(tmp_path / "y.txt")]) == 0
    assert capsys.readouterr().out  # identity filter accepts the previous output


def test_swap_two_graphs(k2_file, capsys, tmp_path, k2):
    assert execute(["swap", "--graph", k2_file, "--graph", k2_file]) == 0
    same = json.loads(capsys.readouterr().out)
    assert same["overlap_sq"] == pytest.approx(1.0)

    assert execute(["swap", "--graph", k2_file]) == 0
    against_plus = json.loads(capsys.readouterr().out)
    assert against_plus["overlap_sq"] == pytest.approx(0.25)


def test_swap_refuses_a_third_graph_before_reading_any(k2_file, tmp_path, capsys):
    out = tmp_path / "o.json"
    assert execute(["swap", "--graph", k2_file, "--graph", k2_file, "--graph", k2_file,
                    "--out", str(out)]) == 1
    assert "--graph" in _json_error(capsys)["error"] and not out.exists()
    # no graph file is read first: a missing one would be the error otherwise
    missing = str(tmp_path / "missing.qg")
    assert execute(["swap", "--graph", missing, "--graph", missing, "--graph", missing]) == 1
    assert _json_error(capsys) == {
        "error": "--graph given 3 times; swap compares at most two graphs"}


def test_swap_compares_the_widths_before_it_builds_a_state(k2_file, tmp_path, monkeypatch,
                                                          capsys):
    built = []

    def counted(*args):
        built.append(args)
        return build_graph_state(*args)

    monkeypatch.setattr("qgns.cli.build_graph_state", counted)
    p3 = tmp_path / "p3.qg"
    p3.write_text("qgraph v1 n=3\n0 1\n1 2\n", encoding="utf-8")
    assert execute(["swap", "--graph", str(p3), "--graph", k2_file]) == 1
    assert _json_error(capsys) == {"error": "states differ in size: 3 vs 2 qubits"}
    assert execute(["swap", "--graph", k2_file, "--graph", str(tmp_path / "missing.qg")]) == 1
    assert "missing.qg" in _json_error(capsys)["error"]
    assert built == []


def test_pool_seeded(demo_file, capsys):
    assert execute(["pool", "--graph", demo_file, "--seed", "11"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert execute(["pool", "--graph", demo_file, "--seed", "11"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert set(first["readout"]) <= {1, -1} and len(first["readout"]) == 5
    assert first["final"] == first["readout"][-1]


@pytest.mark.filterwarnings("error")
def test_pool_at_twelve_vertices_writes_nothing_to_stderr(tmp_path, capsys):
    ring = tmp_path / "ring12.qg"
    ring.write_text(to_edge_list(Graph.from_edges(12, [(v, (v + 1) % 12) for v in range(12)])),
                    encoding="utf-8")
    assert execute(["pool", "--graph", str(ring), "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(json.loads(captured.out)["readout"]) == 12
    # and stdout is the recorded output, byte for byte
    assert captured.out.encode() == (GOLDEN / "pool_seed3_ring12.json").read_bytes()


def _json_error(capsys) -> dict:
    """The one JSON line a domain error writes to stderr (stdout stays empty)."""
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return json.loads(captured.err)


def test_domain_error_exit_code_and_json(tmp_path, capsys):
    missing = str(tmp_path / "nope.qg")
    assert execute(["state", "build", "--graph", missing]) == 1
    err = capsys.readouterr().err
    assert "error" in json.loads(err)

    bad = tmp_path / "bad.qg"
    bad.write_text("qgraph v1 n=2\n0 0\n", encoding="utf-8")
    assert execute(["state", "build", "--graph", str(bad)]) == 1
    assert "self-loop" in json.loads(capsys.readouterr().err)["error"]


def _path_node_file(tmp_path, labels) -> str:
    """A one-item Z-basis node set on the 3-vertex path, features (0.9, 0.9, 0.5)."""
    path = tmp_path / "path3.json"
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    save_dataset(Dataset("node", (DataItem(g, [0.9, 0.9, 0.5], labels),), "Z"), path)
    return str(path)


def test_eval_scores_fractional_labels_by_the_training_rule(tmp_path, capsys):
    # p1 = 1 against label 0.3 is correct in training (p > 0.5 where y != 0),
    # so eval calls the item correct too
    data = _path_node_file(tmp_path, (0.3, 1, None))
    assert execute(["model", "train", "--data", data, "--loss", "mse", "--epochs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[-1] == "1.0"
    assert execute(["model", "eval", "--data", data]) == 0
    item = json.loads(capsys.readouterr().out.splitlines()[1])
    assert item["scores"] == [1.0, 1.0, 0.0] and item["prediction"] == [1, 1, 0]
    assert item["correct"] is True


def test_unlabeled_nodes_evaluate_but_do_not_train(tmp_path, capsys):
    data = _path_node_file(tmp_path, (None, None, None))
    assert execute(["model", "eval", "--data", data]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out.splitlines()[1])["correct"] is True
    assert execute(["model", "train", "--data", data, "--epochs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "item produced no readouts (no labeled nodes or edges)"}


def test_usage_error_exit_code(capsys):
    assert execute(["state", "build"]) == 2  # --graph missing
    assert execute(["frobnicate"]) == 2
    capsys.readouterr()


def test_convention_flag(k2_file, capsys):
    assert execute(["state", "build", "--graph", k2_file, "--convention", "ising"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # IsingZZ(pi) is -identity on |++>: all amplitudes -1/2
    values = [float(line.split()[1]) for line in lines]
    assert values == pytest.approx([-0.5] * 4)


def test_out_flag_writes_file(k2_file, tmp_path, capsys):
    out = tmp_path / "dump.txt"
    assert execute(["state", "build", "--graph", k2_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("grad", ["fd", "pshift"])
def test_shot_mode_training_matches_recorded_csv(grad, tmp_path):
    # recorded from the one-circuit-at-a-time trainer; the batched executor
    # must draw the same shots from the same probabilities
    out = tmp_path / "history.csv"
    assert execute(["model", "train", "--data", str(toy_dataset_path()), "--shots", "256",
                    "--epochs", "3", "--seed", "11", "--grad", grad, "--out", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / f"toy_train_shots256_seed11_{grad}.csv"
    assert out.read_bytes() == golden.read_bytes()


def _one_epoch(verb: str) -> list[str]:
    """`--epochs 1` for train; eval takes no training flags."""
    return ["--epochs", "1"] if verb == "train" else []


def _toy_checkpoint_dict(**fields) -> dict:
    """The checkpoint of the toy graph's initial model, some fields replaced."""
    return {**model_to_dict(initial_model(demo_graph())), **fields}


def _toy_checkpoint(tmp_path, **fields) -> str:
    ckpt = tmp_path / "ck.json"
    ckpt.write_text(json.dumps(_toy_checkpoint_dict(**fields)), encoding="utf-8")
    return str(ckpt)


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_model_rejects_a_non_sequential_formalism(toy_file, tmp_path, verb, capsys):
    # a model is its layered circuit: a checkpoint that claims another
    # formalism is refused at load, and there is no --formalism flag
    for formalism in ("superposed", "registered", None):
        ckpt = _toy_checkpoint(tmp_path, formalism=formalism)
        assert execute(["model", verb, "--data", toy_file, "--model", ckpt,
                        *_one_epoch(verb)]) == 1
        assert "checkpoint field 'formalism'" in _json_error(capsys)["error"]
    assert execute(["model", verb, "--data", toy_file, "--formalism", "superposed",
                    *_one_epoch(verb)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_model_rejects_a_checkpoint_with_a_schedule(toy_file, tmp_path, verb, capsys):
    for schedule in ([{"kind": "message", "qubits": [0], "phase": 0.5}], {}, None):
        ckpt = _toy_checkpoint(tmp_path, schedule=schedule)
        assert execute(["model", verb, "--data", toy_file, "--model", ckpt,
                        *_one_epoch(verb)]) == 1
        assert "checkpoint field 'schedule'" in _json_error(capsys)["error"]


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_model_rejects_a_dataset_on_another_graph(toy_file, tmp_path, verb, capsys):
    ckpt = tmp_path / "k2-model.json"
    save_model(initial_model(Graph.from_edges(2, [(0, 1)])), ckpt)
    assert execute(["model", verb, "--data", toy_file, "--model", str(ckpt),
                    *_one_epoch(verb)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "dataset item 0 graph differs from the model graph"}


# items on graphs of 3 and 4 vertices: the first item sets a new model's graph
RAGGED = {
    "node": [(3, (0.0, 1.0, None)), (4, (1.0, 0.0, 1.0, 0.0))],
    "graph": [(3, 0), (4, 0), (3, 1)],
    "graph-one-per-class": [(3, 0), (4, 1)],
}


@pytest.mark.parametrize("case", sorted(RAGGED))
@pytest.mark.parametrize("verb", ["train", "eval"])
def test_a_dataset_on_graphs_of_two_sizes_names_the_item(tmp_path, monkeypatch, case, verb,
                                                         capsys):
    items = tuple(DataItem(Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]),
                           np.linspace(0.1, 0.9, n), labels) for n, labels in RAGGED[case])
    data = tmp_path / "ragged.json"
    save_dataset(Dataset(case.split("-")[0], items), data)
    monkeypatch.setattr("qgns.executor.circuit_states", _no_circuit)
    monkeypatch.setattr("qgns.executor.class_prototypes", _no_circuit)  # nor a prototype
    assert execute(["model", verb, "--data", str(data), *_one_epoch(verb)]) == 1
    assert _json_error(capsys) == {
        "error": "dataset item 1 graph differs from the model graph"}


def test_flags_a_verb_does_not_read_are_usage_errors(toy_file, k2_file, tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("1.0\n0.0\n", encoding="utf-8")
    assert execute(["model", "eval", "--data", toy_file, "--epochs", "1"]) == 2
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "0,1",
                    "--vector", str(vec), "--seed", "1"]) == 2
    capsys.readouterr()


# each verb's own flags beyond --out, and the shared flags it does not read
VERB_FLAGS = {
    "state build": ["--convention", "ising"],
    "state verify": ["--convention", "ising", "--tol", "1e-9"],
    "state sample": ["--convention", "ising", "--seed", "2", "--shots", "5"],
    "swap": ["--convention", "ising", "--seed", "2", "--shots", "5"],
    "pool": ["--convention", "ising", "--seed", "2"],
    "model train": ["--convention", "ising", "--seed", "2", "--shots", "5", "--epochs", "1"],
    "model eval": ["--convention", "ising", "--seed", "2", "--shots", "5"],
}
UNREAD_FLAGS = [("state build", ["--shots", "5"]), ("state build", ["--tol", "3"]),
                ("state build", ["--seed", "1"]), ("state verify", ["--shots", "5"]),
                ("state verify", ["--seed", "1"]), ("state sample", ["--tol", "3"]),
                ("swap", ["--tol", "3"]), ("pool", ["--shots", "5"]), ("pool", ["--tol", "3"]),
                ("model train", ["--tol", "3"]), ("model eval", ["--tol", "3"]),
                ("model train", ["--formalism", "sequential"]),
                ("model eval", ["--formalism", "superposed"]),
                ("model train", ["--formalism", "registered"])]


def _verb_argv(verb: str, k2_file: str, toy_file: str) -> list[str]:
    inputs = ["--data", toy_file] if verb.startswith("model") else ["--graph", k2_file]
    return verb.split() + inputs


@pytest.mark.parametrize("verb", list(VERB_FLAGS))
def test_each_verb_takes_the_flags_it_reads(verb, k2_file, toy_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = _verb_argv(verb, k2_file, toy_file) + VERB_FLAGS[verb] + ["--out", str(out)]
    assert execute(argv) == 0
    assert out.read_text(encoding="utf-8")
    capsys.readouterr()


@pytest.mark.parametrize("verb, flag", UNREAD_FLAGS)
def test_a_flag_the_verb_does_not_read_is_a_usage_error(verb, flag, k2_file, toy_file, capsys):
    assert execute(_verb_argv(verb, k2_file, toy_file) + flag) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", [["--layers", "3"], ["--layers", "2"],
                                  ["--layers", "1"], ["--layers", "0"]])
@pytest.mark.parametrize("verb", ["train", "eval"])
def test_new_model_flags_with_a_checkpoint_are_json_errors(toy_file, tmp_path, verb, flag,
                                                           capsys):
    ckpt = tmp_path / "ck.json"
    save_model(initial_model(toy_node_dataset().items[0].graph), ckpt)
    assert execute(["model", verb, "--data", toy_file, "--model", str(ckpt), *flag,
                    *_one_epoch(verb)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[0] in json.loads(captured.err)["error"]


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_a_checkpoint_sets_the_default_convention(verb, toy_file, tmp_path, capsys):
    def run(ckpt: dict, *flags: str) -> str:
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(ckpt), encoding="utf-8")
        saved = tmp_path / "saved.json"
        save = ["--save-model", str(saved)] if verb == "train" else []
        assert execute(["model", verb, "--data", toy_file, "--model", str(path),
                        *_one_epoch(verb), *save, *flags]) == 0
        if save:  # a trained checkpoint records the convention it ran under
            assert json.loads(saved.read_text(encoding="utf-8"))["convention"] == (
                flags[-1] if flags else ckpt.get("convention", "cp"))
        return capsys.readouterr().out

    ising, cp = (_toy_checkpoint_dict(convention=c) for c in ("ising", "cp"))
    ising_out = run(ising, "--convention", "ising")
    assert run(ising) == ising_out
    cp_out = run(cp)
    assert cp_out != ising_out  # the toy model's readouts tell the circuits apart
    assert run(cp, "--convention", "cp") == cp_out
    # a checkpoint without the field runs cp unless --convention says otherwise
    legacy = {key: value for key, value in cp.items() if key != "convention"}
    assert run(legacy) == cp_out
    assert run(legacy, "--convention", "ising") == ising_out


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_a_convention_that_disagrees_with_the_checkpoint_is_a_json_error(verb, toy_file,
                                                                         tmp_path, monkeypatch,
                                                                         capsys):
    monkeypatch.setattr("qgns.executor.circuit_states", _no_circuit)
    for trained, given in (("ising", "cp"), ("cp", "ising")):
        ckpt = _toy_checkpoint(tmp_path, convention=trained)
        assert execute(["model", verb, "--data", toy_file, "--model", ckpt,
                        "--convention", given, *_one_epoch(verb)]) == 1
        assert _json_error(capsys) == {
            "error": f"--convention {given} disagrees with the checkpoint, "
                     f"which was trained with {trained}"}


@pytest.mark.parametrize("verb", ["state sample", "swap", "model train", "model eval"])
def test_negative_shots_are_a_json_error(verb, k2_file, toy_file, capsys):
    assert execute(_verb_argv(verb, k2_file, toy_file) + ["--shots", "-5"]) == 1
    assert _json_error(capsys) == {"error": "shots must be >= 0, got -5"}


@pytest.mark.parametrize("verb", ["state sample", "swap", "model train", "model eval"])
def test_shots_past_a_64_bit_count_are_a_json_error_before_any_file_is_read(verb, tmp_path,
                                                                            capsys):
    missing = str(tmp_path / "missing")  # reading it would raise a different error
    assert execute(_verb_argv(verb, missing, missing) + ["--shots", str(1 << 63)]) == 1
    assert _json_error(capsys) == {"error": f"--shots {1 << 63} is too large: at most 2^63 - 1"}


@pytest.mark.parametrize("verb", ["state sample", "swap", "pool", "model train", "model eval"])
def test_a_negative_seed_is_a_json_error_before_any_file_is_read(verb, tmp_path, capsys):
    missing = str(tmp_path / "missing")  # reading it would raise a different error
    assert execute(_verb_argv(verb, missing, missing) + ["--seed", "-1"]) == 1
    assert _json_error(capsys) == {"error": "--seed must be >= 0, got -1"}


def test_the_largest_64_bit_shot_count_samples(k2_file, capsys):
    assert execute(["state", "sample", "--graph", k2_file, "--shots", str((1 << 63) - 1)]) == 0
    assert sum(json.loads(capsys.readouterr().out)["counts"].values()) == (1 << 63) - 1


# a weight of 1e300 overflows L^2 x; coefficients of 1e308 overflow their norm
FILTER_OVERFLOWS = [("qgraph v1 n=3\n0 1 1e300\n1 2\n", "1,1,1"),
                    ("qgraph v1 n=3\n0 1\n1 2\n", "1e308,1e308")]


def _filter_overflow_argv(tmp_path, graph: str, coeffs: str) -> list[str]:
    (tmp_path / "big.qg").write_text(graph, encoding="utf-8")
    (tmp_path / "x3.txt").write_text("1\n2\n3\n", encoding="utf-8")
    return ["filter", "apply", "--graph", str(tmp_path / "big.qg"), f"--coeffs={coeffs}",
            "--vector", str(tmp_path / "x3.txt")]


@pytest.mark.parametrize("graph, coeffs", FILTER_OVERFLOWS, ids=["weight", "coeffs"])
def test_a_filter_that_overflows_float64_is_a_json_error(graph, coeffs, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert execute(_filter_overflow_argv(tmp_path, graph, coeffs)) == 1
    assert caught == []
    assert _json_error(capsys) == {
        "error": "filter overflows float64: a norm, a power L^j x or the scale is not finite"}


# malformed argv, each with the input files it names: every one must exit 1
# with one JSON error line and no warning, whatever numpy met on the way
MALFORMED = {
    "empty graph file": (["state", "build", "--graph", "g.qg"], {"g.qg": ""}),
    "no vertices": (["state", "verify", "--graph", "g.qg"], {"g.qg": "qgraph v1 n=0\n"}),
    "above the qubit cap": (["swap", "--graph", "g.qg"], {"g.qg": "qgraph v1 n=25\n0 1\n"}),
    "non-finite weight": (["pool", "--graph", "g.qg"], {"g.qg": "qgraph v1 n=3\n0 1 inf\n"}),
    "tol overflows": (["state", "verify", "--graph", "g.qg", "--tol", "1e400"],
                      {"g.qg": "qgraph v1 n=2\n0 1\n"}),
    "missing file": (["state", "sample", "--graph", "missing.qg"], {}),
    "negative shots": (["swap", "--graph", "g.qg", "--shots", "-5"],
                       {"g.qg": "qgraph v1 n=2\n0 1\n"}),
    "shots past 2^63 - 1": (["state", "sample", "--graph", "g.qg", "--shots", str(1 << 63)],
                            {"g.qg": "qgraph v1 n=2\n0 1\n"}),
    "negative layers": (["model", "eval", "--data", str(toy_dataset_path()), "--layers", "-1"],
                        {}),
    "layers past memory": (["model", "eval", "--data", str(toy_dataset_path()),
                            "--layers", str(10 ** 12)], {}),
    # exact-mode verbs never draw from their seed, and pool's draw failed in numpy
    "negative seed, model train": (["model", "train", "--data", str(toy_dataset_path()),
                                    "--epochs", "1", "--seed", "-1"], {}),
    "negative seed, model eval": (["model", "eval", "--data", str(toy_dataset_path()),
                                   "--seed", "-1"], {}),
    "negative seed, exact sample": (["state", "sample", "--graph", "g.qg", "--seed", "-1"],
                                    {"g.qg": "qgraph v1 n=2\n0 1\n"}),
    "negative seed, swap": (["swap", "--graph", "g.qg", "--seed", "-1"],
                            {"g.qg": "qgraph v1 n=2\n0 1\n"}),
    "negative seed, pool": (["pool", "--graph", "g.qg", "--seed", "-1"],
                            {"g.qg": "qgraph v1 n=2\n0 1\n"}),
}
# datasets whose finite or non-finite features overflow on the way to the
# Ry angles: a feature's span max - min, or the mean of a class's features
_FEATURE_OVERFLOWS = {
    "non-finite feature": {"task": "node", "items": [{"graph": "qgraph v1 n=2\n0 1\n",
                                                      "features": [0.1, float("inf")],
                                                      "labels": [0, 1]}]},
    "feature span overflows": {"task": "node", "items": [{"graph": "qgraph v1 n=3\n0 1\n1 2\n",
                                                          "features": [1e308, -1e308, 0.0],
                                                          "labels": [0, 1, 0]}]},
    "class mean overflows": {"task": "graph", "items": [
        {"graph": "qgraph v1 n=2\n0 1\n", "features": [1e308, 0.0], "labels": 0}] * 2},
}
for _case, _payload in _FEATURE_OVERFLOWS.items():
    MALFORMED[f"{_case}, model eval"] = (["model", "eval", "--data", "d.json"],
                                         {"d.json": json.dumps(_payload)})
    MALFORMED[f"{_case}, model train"] = (["model", "train", "--data", "d.json", "--epochs", "1"],
                                          {"d.json": json.dumps(_payload)})


@pytest.mark.parametrize("case", list(MALFORMED) + ["filter overflow 0", "filter overflow 1"])
def test_malformed_argv_is_one_json_error_and_never_a_warning(case, tmp_path, monkeypatch,
                                                              capsys):
    # pytest's own warning capture hides numpy's warnings from capsys, so
    # record them here
    monkeypatch.chdir(tmp_path)
    if case in MALFORMED:
        argv, files = MALFORMED[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    else:
        argv = _filter_overflow_argv(tmp_path, *FILTER_OVERFLOWS[int(case[-1])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert execute(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert set(_json_error(capsys)) == {"error"}


@pytest.mark.parametrize("layers", ["-1", "0"])
def test_a_layer_count_below_one_is_named_before_any_array_is_sized(layers, capsys):
    assert execute(["model", "train", "--data", str(toy_dataset_path()), "--epochs", "1",
                    "--layers", layers]) == 1
    assert _json_error(capsys) == {"error": f"layer count must be >= 1, got {layers}"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_filter_vector_is_a_json_error(value, k2_file, tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text(f"1.0\n{value}\n", encoding="utf-8")
    assert execute(["filter", "apply", "--graph", k2_file, "--coeffs", "0,1",
                    "--vector", str(vec)]) == 1
    assert _json_error(capsys) == {"error": "input vector and filter coefficients must be finite"}


def _no_circuit(*_args, **_kwargs):
    raise AssertionError("a state or circuit was built before the flags were checked")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_a_tolerance_that_is_not_finite_and_positive_is_a_json_error(value, k2_file,
                                                                    monkeypatch, capsys):
    monkeypatch.setattr("qgns.cli.build_graph_state", _no_circuit)
    assert execute(["state", "verify", "--graph", k2_file, f"--tol={value}"]) == 1
    assert _json_error(capsys) == {
        "error": f"tol must be a finite number > 0, got {float(value)}"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_a_non_finite_learning_rate_is_a_json_error(value, toy_file, monkeypatch, capsys):
    monkeypatch.setattr("qgns.executor.circuit_states", _no_circuit)
    assert execute(["model", "train", "--data", toy_file, "--lr", value]) == 1
    assert _json_error(capsys) == {
        "error": f"learning rate must be a finite number >= 0, got {value}"}


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_node_labels_outside_the_unit_interval_are_a_json_error(verb, tmp_path, capsys):
    payload = dataset_to_dict(toy_node_dataset())
    payload["items"][1]["labels"][2] = -2
    data = tmp_path / "bad-labels.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    assert execute(["model", verb, "--data", str(data), *_one_epoch(verb)]) == 1
    assert _json_error(capsys) == {"error": "items[1].labels[2] must be in [0, 1], got -2"}


def test_state_build_too_wide_is_a_json_error(tmp_path, capsys):
    wide = tmp_path / "wide.qg"
    wide.write_text("qgraph v1 n=25\n", encoding="utf-8")
    assert execute(["state", "build", "--graph", str(wide)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_qubits" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("payload, field", [
    ({"task": "node", "items": [{"graph": "qgraph v1 n=2\n0 1\n", "features": [0.1, 0.9],
                                 "labels": 1}]}, "items[0].labels"),
    ([{"task": "node", "items": []}], "dataset must be a JSON object"),
    # graph sizes and endpoints are JSON integers and weights numbers, never truncated
    ({"task": "node", "items": [{"graph": {"n": 3.7, "edges": [[0.9, 2.2]]},
                                 "features": [0.1, 0.5, 0.9], "labels": [0, 1, 0]}]},
     "items[0].graph: graph field 'n' must be an integer, got 3.7"),
    ({"task": "node", "items": [{"graph": {"n": 3, "edges": [[0.9, 2.2]]},
                                 "features": [0.1, 0.5, 0.9], "labels": [0, 1, 0]}]},
     "items[0].graph: graph edges[0]"),
    ({"task": "node", "items": [{"graph": {"n": 5.9}, "features": [0.1] * 5,
                                 "labels": [0] * 5}]}, "graph field 'n'"),
    ({"task": "edge", "items": [{"graph": {"n": 2, "edges": [[0, 1, True]]},
                                 "features": [0.1, 0.9], "labels": [0.5]}]},
     "graph edges[0]"),
    ({"task": "edge", "items": [{"graph": {"n": 2, "edges": [[False, 1]]},
                                 "features": [0.1, 0.9], "labels": [0.5]}]},
     "graph edges[0]"),
    ({"task": "graph", "items": [{"graph": {"n": "2"}, "features": [0.1, 0.9],
                                  "labels": 0}]}, "graph field 'n'"),
    # node_basis is checked on every task
    ({"task": "edge", "node_basis": "Q", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                                    "features": [0.1, 0.9], "labels": [0.5]}]},
     "node_basis must be 'Y' or 'Z', got 'Q'"),
    ({"task": "node", "node_basis": "X", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                                    "features": [0.1, 0.9], "labels": [0, 1]}]},
     "node_basis must be 'Y' or 'Z', got 'X'"),
    # json reads NaN and Infinity tokens; an edge target must be a finite number
    ({"task": "edge", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                 "features": [0.1, 0.9], "labels": [float("nan")]}]},
     "items[0].labels[0] must be finite, got nan"),
    ({"task": "edge", "items": [{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                                 "features": [0.1, 0.5, 0.9], "labels": [0.5, float("inf")]}]},
     "items[0].labels[1] must be finite, got inf"),
    # and a feature must be finite, with a span max - min that is finite too
    ({"task": "node", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                 "features": [0.1, float("nan")], "labels": [0, 1]}]},
     "items[0].features[1] must be finite, got nan"),
    ({"task": "edge", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                 "features": [float("-inf"), 0.1], "labels": [0.5]}]},
     "items[0].features[0] must be finite, got -inf"),
    ({"task": "node", "items": [
        {"graph": {"n": 3, "edges": [[0, 1]]}, "features": [0.1, 0.5, 0.9], "labels": [0, 1, 0]},
        {"graph": {"n": 3, "edges": [[0, 1]]}, "features": [1e308, -1e308, 0.0],
         "labels": [0, 1, 0]}]},
     "items[1].features span max - min overflows float64"),
    ({"task": "graph", "items": [{"graph": {"n": 2, "edges": [[0, 1]]},
                                  "features": [1e308, 0.0], "labels": 0}] * 2},
     "the mean features of class 0 overflow float64"),
])
def test_malformed_dataset_is_a_json_error(tmp_path, payload, field, capsys):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    assert execute(["model", "eval", "--data", str(data)]) == 1
    assert field in json.loads(capsys.readouterr().err)["error"]


_P2 = "qgraph v1 n=2\n0 1\n"


# JSON true and false are not numbers, though Python's bool is an int: each of
# these was echoed back (or scored as class 1) instead of being refused
@pytest.mark.parametrize("payload, error", [
    ({"task": "node", "items": [{"graph": _P2, "features": [True, False],
                                 "labels": [True, False]}]},
     "items[0].features must be a list of numbers"),
    ({"task": "node", "items": [{"graph": _P2, "features": [0.1, 0.9],
                                 "labels": [True, None]}]},
     "items[0].labels must hold numbers or null"),
    ({"task": "edge", "items": [{"graph": _P2, "features": [0.1, 0.9], "labels": [False]}]},
     "items[0].labels must hold numbers"),
    ({"task": "graph", "items": [{"graph": _P2, "features": [0.1, 0.9], "labels": 0},
                                 {"graph": _P2, "features": [0.9, 0.1], "labels": True}]},
     "items[1].labels must be a nonnegative class index for the graph task, got True"),
], ids=["node-features", "node-labels", "edge-labels", "graph-label"])
def test_json_booleans_are_not_dataset_numbers(tmp_path, payload, error, capsys):
    data = tmp_path / "bools.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    assert execute(["model", "eval", "--data", str(data)]) == 1
    assert _json_error(capsys) == {"error": error}


GOLDEN = Path(__file__).parent / "golden"
WEIGHTED5 = Graph.from_edges(5, [(0, 1, 0.7), (1, 2, 1.9), (2, 3, 2.4), (3, 4, 0.3),
                                 (0, 4, 1.1), (1, 3, 2.8)])


def _graph_task_file(tmp_path, graph, n_items=6):
    """A graph-task dataset on one graph: items with spread features, labels
    alternating between two classes."""
    n = graph.n_vertices
    items = tuple(DataItem(graph, np.cos(np.arange(n) * (0.7 + 0.3 * k)) + 0.1 * k, k % 2)
                  for k in range(n_items))
    path = tmp_path / f"graph{n}.json"
    save_dataset(Dataset("graph", items), path)
    return str(path)


@pytest.mark.parametrize("second", [True, False])
def test_seeded_swap_shots_match_recorded_output(demo_file, tmp_path, second, capsys):
    # recorded from the simulated CSWAP circuit; the closed form must draw
    # the same shots from the same probability
    argv = ["swap", "--graph", demo_file, "--shots", "1000", "--seed", "3"]
    name = "swap_shots1000_seed3_plus.json"
    if second:
        other = tmp_path / "weighted5.qg"
        other.write_text(to_edge_list(WEIGHTED5), encoding="utf-8")
        argv += ["--graph", str(other)]
        name = "swap_shots1000_seed3_pair.json"
    assert execute(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("shots", ["0", "64"])
def test_pshift_trains_the_graph_task_with_an_empty_stderr(tmp_path, capsys, shots):
    data = _graph_task_file(tmp_path, WEIGHTED5)
    assert execute(["model", "train", "--data", data, "--grad", "pshift", "--epochs", "2",
                    "--shots", shots]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 4


@pytest.mark.parametrize("task, loss", [("graph", "mse"), ("edge", "bce")])
def test_loss_outside_the_node_task_is_a_json_error(tmp_path, task, loss, monkeypatch, capsys):
    if task == "graph":
        data = _graph_task_file(tmp_path, WEIGHTED5)
    else:
        data = str(tmp_path / "edge.json")
        labels = [0.5] * WEIGHTED5.n_edges
        save_dataset(Dataset("edge", (DataItem(WEIGHTED5, [0.2] * 5, labels),)), data)
    monkeypatch.setattr("qgns.executor.circuit_states", _no_circuit)
    assert execute(["model", "train", "--data", data, "--loss", loss, "--epochs", "1"]) == 1
    assert _json_error(capsys) == {
        "error": f"--loss applies to the node task only, not the {task} task"}


def test_seeded_graph_eval_shots_match_recorded_output(tmp_path, capsys):
    data = _graph_task_file(tmp_path, WEIGHTED5)
    assert execute(["model", "eval", "--data", data, "--shots", "500", "--seed", "5"]) == 0
    golden = GOLDEN / "graph_eval_shots500_seed5.jsonl"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_seeded_graph_train_shots_match_recorded_csv(tmp_path):
    # the graph task's loss and gradient read the batched executor's scores
    data = _graph_task_file(tmp_path, WEIGHTED5, n_items=4)
    out = tmp_path / "history.csv"
    assert execute(["model", "train", "--data", data, "--shots", "256", "--epochs", "2",
                    "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "graph_train_shots256_seed11.csv").read_bytes()


def test_the_cached_parser_keeps_no_state_between_calls(k2_file, demo_file, tmp_path, capsys):
    other = tmp_path / "weighted5.qg"
    other.write_text(to_edge_list(WEIGHTED5), encoding="utf-8")
    # two appended --graph values, then one: the second call must not see the first's
    assert execute(["swap", "--graph", demo_file, "--graph", str(other)]) == 0
    pair = json.loads(capsys.readouterr().out)
    assert execute(["swap", "--graph", k2_file]) == 0
    assert json.loads(capsys.readouterr().out)["overlap_sq"] == pytest.approx(0.25)
    assert execute(["swap", "--graph", demo_file, "--graph", str(other)]) == 0
    assert json.loads(capsys.readouterr().out) == pair
    assert execute(["swap"]) == 2  # --graph missing
    assert execute(["swap", "--graph", k2_file, "--shots", "many"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("payload, field", [
    ([{"version": "qgns-1"}], "checkpoint must be a JSON object"),
    ({"version": "qgns-1", "graph": 5, "m": 1, "formalism": "sequential",
      "theta": [[0.0]], "weights": [[]]}, "checkpoint field 'graph'"),
    ({"version": "qgns-1", "m": 1, "formalism": "sequential", "theta": [[0.0]],
      "weights": [[]]}, "missing the field 'graph'"),
    # m is a JSON integer and shared_weights a JSON bool, never coerced
    (_toy_checkpoint_dict(m=1.9), "checkpoint field 'm'"),
    (_toy_checkpoint_dict(m="1"), "checkpoint field 'm'"),
    (_toy_checkpoint_dict(m=True), "checkpoint field 'm'"),
    (_toy_checkpoint_dict(shared_weights="false"), "checkpoint field 'shared_weights'"),
    (_toy_checkpoint_dict(shared_weights=0), "checkpoint field 'shared_weights'"),
    # a model is its layered circuit
    (_toy_checkpoint_dict(formalism="superposed"), "checkpoint field 'formalism'"),
    (_toy_checkpoint_dict(schedule=[{"kind": "phase", "qubits": [1], "phase": 3.14}]),
     "checkpoint field 'schedule'"),
    (_toy_checkpoint_dict(graph={"n": 5.0, "edges": []}), "checkpoint field 'graph'"),
    (_toy_checkpoint_dict(convention="zz"), "checkpoint field 'convention' must be"),
    # json reads NaN and Infinity tokens; a parameter must be a finite number
    (_toy_checkpoint_dict(theta=[[float("nan")] + [0.0] * 4]), "checkpoint field 'theta'"),
    (_toy_checkpoint_dict(weights=[[0.0] * 5 + [float("inf")]]), "checkpoint field 'weights'"),
    # no field is ignored: an unknown one is named, and the seed is a JSON integer
    (_toy_checkpoint_dict(bogus=5), "checkpoint field 'bogus' is not part of the qgns-1 format"),
    (_toy_checkpoint_dict(seed="abc"), "checkpoint field 'seed'"),
    (_toy_checkpoint_dict(seed=True), "checkpoint field 'seed'"),
    # the fields must agree on the model's shape: m rows of theta, and one
    # weight per edge of the checkpoint's own graph
    (_toy_checkpoint_dict(m=3, theta=[[0.0] * 5] * 2),
     "checkpoint is malformed: theta shape (2, 5) != (3, 5)"),
    (_toy_checkpoint_dict(graph={"n": 5, "edges": [[0, 1]]}),
     "checkpoint is malformed: weights shape (1, 6) != (1, 1)"),
])
@pytest.mark.parametrize("verb", ["train", "eval"])
def test_malformed_checkpoint_is_a_json_error(toy_file, tmp_path, verb, payload, field,
                                              capsys):
    ckpt = tmp_path / "ck.json"
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    assert execute(["model", verb, "--data", toy_file, "--model", str(ckpt),
                    *_one_epoch(verb)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in json.loads(captured.err)["error"]


def test_swap_and_graph_eval_at_twelve_vertices(tmp_path, capsys):
    # 12 vertices needed a 25-qubit swap register, over the 24-qubit cap
    g = Graph.from_edges(12, [(v, (v + 1) % 12, 0.4 + 0.2 * v) for v in range(12)])
    path = tmp_path / "ring12.qg"
    path.write_text(to_edge_list(g), encoding="utf-8")
    assert execute(["swap", "--graph", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    s = build_graph_state(g)
    direct = abs(np.vdot(s.amps, new_state(12, "plus").amps)) ** 2
    assert payload["overlap_sq"] == pytest.approx(direct, abs=1e-10)

    data = _graph_task_file(tmp_path, g, n_items=4)
    assert execute(["model", "eval", "--data", data]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ds = load_dataset(data)
    model = initial_model(g)
    protos = class_prototypes(ds)
    for item, line in zip(ds.items, lines[1:]):
        state = model_circuit(model, item.features)
        expected = [abs(np.vdot(state.amps, p)) ** 2 for p in protos]
        assert json.loads(line)["scores"] == pytest.approx(expected, abs=1e-10)


# Wide-state cases; the files were recorded at the commit before the
# copy-free stabilizer check, the vectorised sampler and closed-form layer 0.
CHORDS12 = Graph.from_edges(12, [(v, (v + 1) % 12, 0.3 + 0.2 * v) for v in range(12)]
                            + [(v, v + 5, 1.1 + 0.1 * v) for v in range(7)])
RING8 = Graph.from_edges(8, [(v, (v + 1) % 8, 0.5 + 0.3 * v) for v in range(8)]
                         + [(0, 4, 2.2), (2, 6, 1.3)])
RING10 = Graph.from_edges(10, [(v, (v + 1) % 10, 0.4 + 0.25 * v) for v in range(10)]
                          + [(v, v + 3, 2.0 - 0.15 * v) for v in range(0, 7, 2)])


def _wide_case(name: str, tmp_path: Path) -> list[str]:
    """The argv of one recorded wide-state case, its input files in tmp_path."""
    if name == "sample_shots4096_seed7_n12.json":
        path = tmp_path / "chords12.qg"
        path.write_text(to_edge_list(CHORDS12), encoding="utf-8")
        return ["state", "sample", "--graph", str(path), "--shots", "4096", "--seed", "7"]
    if name == "sample_exact_n8.json":
        path = tmp_path / "ring8.qg"
        path.write_text(to_edge_list(RING8), encoding="utf-8")
        return ["state", "sample", "--graph", str(path), "--shots", "0"]
    # exact Y-basis node eval of a two-layer model with nonzero angles, so
    # both the layer-0 product state and the layer-1 Ry passes are read
    n, e = RING10.n_vertices, RING10.n_edges
    labels = [[v % 2 for v in range(n)], [None if v % 3 == 0 else (v + 1) % 2 for v in range(n)],
              [int(v < 5) for v in range(n)]]
    items = tuple(DataItem(RING10, np.sin(np.arange(n) * (0.9 + 0.4 * k)) + 0.2 * k, labels[k])
                  for k in range(3))
    data = tmp_path / "node10.json"
    save_dataset(Dataset("node", items, "Y"), data)
    theta = 0.3 * np.cos(np.arange(2 * n).reshape(2, n) * 1.7)
    weights = np.pi - 0.2 * np.sin(np.arange(2 * e).reshape(2, e))
    ckpt = tmp_path / "node10-model.json"
    save_model(ModelSpec(RING10, 2, theta, weights), ckpt)
    return ["model", "eval", "--data", str(data), "--model", str(ckpt)]


@pytest.mark.parametrize("name", ["sample_shots4096_seed7_n12.json", "sample_exact_n8.json",
                                  "node_eval_exact_Y_n10.jsonl"])
def test_wide_state_outputs_match_recorded_files(name, tmp_path, capsys):
    assert execute(_wide_case(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Eval cases recorded at the commit before `model eval` moved onto the
# executor stack, when it still read one circuit per item.
def _eval_case(name: str, tmp_path: Path) -> list[str]:
    """The argv of one recorded eval case, its input files in tmp_path."""
    if name == "node_eval_shots300_seed13_Y_n8.jsonl":
        # two layers, one unlabeled vertex: shots draw for every vertex
        n, e = RING8.n_vertices, RING8.n_edges
        items = tuple(DataItem(RING8, np.cos(np.arange(n) * (1.1 + 0.3 * k)) + 0.1 * k,
                               [None if v == 3 else (v + k) % 2 for v in range(n)])
                      for k in range(4))
        save_dataset(Dataset("node", items, "Y"), tmp_path / "node8.json")
        theta = 0.4 * np.sin(np.arange(2 * n).reshape(2, n) * 1.3)
        weights = np.pi - 0.3 * np.cos(np.arange(2 * e).reshape(2, e))
        save_model(ModelSpec(RING8, 2, theta, weights),
                   tmp_path / "node8-model.json")
        return ["model", "eval", "--data", str(tmp_path / "node8.json"), "--model",
                str(tmp_path / "node8-model.json"), "--shots", "300", "--seed", "13"]
    if name == "edge_eval_shots200_seed9_n5.jsonl":
        n, e = WEIGHTED5.n_vertices, WEIGHTED5.n_edges
        items = tuple(DataItem(WEIGHTED5, np.sin(np.arange(n) * (0.8 + 0.5 * k)),
                               [math.cos(0.9 * j + k) for j in range(e)]) for k in range(3))
        save_dataset(Dataset("edge", items), tmp_path / "edge5.json")
        theta = 0.5 * np.cos(np.arange(2 * n).reshape(2, n) * 0.7)
        weights = 1.5 + 0.4 * np.sin(np.arange(e)).reshape(1, e)
        save_model(ModelSpec(WEIGHTED5, 2, theta, weights,
                             shared_weights=True), tmp_path / "edge5-model.json")
        return ["model", "eval", "--data", str(tmp_path / "edge5.json"), "--model",
                str(tmp_path / "edge5-model.json"), "--shots", "200", "--seed", "9"]
    # exact Z-basis node eval under the Ising-ZZ convention; layer 1's Ry
    # angles are nonzero, so the Z readout sees the entanglers
    n, e = RING10.n_vertices, RING10.n_edges
    items = tuple(DataItem(RING10, np.cos(np.arange(n) * (0.6 + 0.2 * k)),
                           [(v + k) % 2 for v in range(n)]) for k in range(3))
    save_dataset(Dataset("node", items, "Z"), tmp_path / "node10z.json")
    theta = 0.7 * np.sin(np.arange(2 * n).reshape(2, n) * 0.9)
    weights = 0.8 + 0.1 * np.arange(2 * e).reshape(2, e)
    save_model(ModelSpec(RING10, 2, theta, weights, convention=EdgeConvention.ISING_ZZ),
               tmp_path / "node10z-model.json")
    return ["model", "eval", "--data", str(tmp_path / "node10z.json"), "--model",
            str(tmp_path / "node10z-model.json"), "--convention", "ising"]


@pytest.mark.parametrize("name", ["node_eval_shots300_seed13_Y_n8.jsonl",
                                  "edge_eval_shots200_seed9_n5.jsonl",
                                  "node_eval_exact_Z_ising_n10.jsonl"])
def test_eval_outputs_match_recorded_files(name, tmp_path, capsys):
    assert execute(_eval_case(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# pshift training from a two-layer shared-weight checkpoint under the
# Ising-ZZ convention, recorded at the commit before the shift rule walked
# the compiled gate program: every shared edge weight sums its two layers'
# shift terms into one slot.
PSHIFT_GOLDENS = ["node_train_pshift_ising_shared_exact.csv",
                  "node_train_pshift_ising_shared_shots64_seed4.csv"]


def _pshift_case(name: str, tmp_path: Path) -> list[str]:
    """The argv of one recorded pshift training case, its input files in tmp_path."""
    n, e = WEIGHTED5.n_vertices, WEIGHTED5.n_edges
    items = tuple(DataItem(WEIGHTED5, np.cos(np.arange(n) * (0.9 + 0.4 * k)) + 0.1 * k,
                           [None if v == k else (v + k) % 2 for v in range(n)])
                  for k in range(3))
    save_dataset(Dataset("node", items, "Y"), tmp_path / "node5.json")
    theta = 0.6 * np.sin(np.arange(2 * n).reshape(2, n) * 1.1)
    weights = 1.2 + 0.5 * np.cos(np.arange(e)).reshape(1, e)
    save_model(ModelSpec(WEIGHTED5, 2, theta, weights, shared_weights=True,
                         convention=EdgeConvention.ISING_ZZ), tmp_path / "node5-model.json")
    argv = ["model", "train", "--data", str(tmp_path / "node5.json"), "--model",
            str(tmp_path / "node5-model.json"), "--grad", "pshift", "--convention", "ising",
            "--epochs", "4", "--lr", "0.3"]
    return argv + (["--shots", "64", "--seed", "4"] if "shots" in name else [])


@pytest.mark.parametrize("name", PSHIFT_GOLDENS)
def test_pshift_training_matches_recorded_csv(name, tmp_path, capsys):
    assert execute(_pshift_case(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Exact-mode fd training, recorded at the commit before the training epoch
# ran as one executor call and the loss was computed as arrays: the loss,
# accuracy and central-difference gradient must keep their last bits, and so
# must the saved checkpoint. Each case moves if the loss takes its logs with
# np.log (toy), its squares with np.square (node) or its sums with np.sum
# (edge, ten readouts per item).
FD_GOLDENS = ["toy_train_exact_fd", "node_train_exact_fd_mse_ising_m2", "edge_train_exact_fd"]


def _fd_case(name: str, tmp_path: Path) -> list[str]:
    """The argv of one recorded exact fd training case, its input files in tmp_path."""
    save = ["--save-model", str(tmp_path / "model.json")]
    if name == "toy_train_exact_fd":
        # the bundled toy node task with BCE, continued from a checkpoint as
        # the benchmark's chained calls are, so readouts spread over (0, 1)
        g = toy_node_dataset().items[0].graph
        theta = np.sin(np.arange(g.n_vertices).reshape(1, -1) * 1.3 + 0.4)
        weights = np.pi - 0.5 * np.cos(np.arange(g.n_edges).reshape(1, -1))
        save_model(ModelSpec(g, 1, theta, weights), tmp_path / "toy.json")
        return ["model", "train", "--data", str(toy_dataset_path()), "--model",
                str(tmp_path / "toy.json"), "--epochs", "5", "--seed", "3", "--grad", "fd", *save]
    if name == "node_train_exact_fd_mse_ising_m2":
        # one unlabeled vertex and one fractional target per item
        n = WEIGHTED5.n_vertices
        items = tuple(DataItem(WEIGHTED5, np.sin(np.arange(n) * (0.7 + 0.3 * k)) + 0.1 * k,
                               [None if v == k else ((v + k) % 3) / 2 if v == 2 else (v + k) % 2
                                for v in range(n)])
                      for k in range(3))
        save_dataset(Dataset("node", items, "Y"), tmp_path / "node5.json")
        return ["model", "train", "--data", str(tmp_path / "node5.json"), "--loss", "mse",
                "--convention", "ising", "--layers", "2", "--epochs", "6", "--grad", "fd", *save]
    n, e = RING8.n_vertices, RING8.n_edges
    items = tuple(DataItem(RING8, np.cos(np.arange(n) * (0.5 + 0.6 * k)),
                           [math.sin(1.3 * j - k) for j in range(e)]) for k in range(3))
    save_dataset(Dataset("edge", items), tmp_path / "edge8.json")
    return ["model", "train", "--data", str(tmp_path / "edge8.json"), "--epochs", "5",
            "--grad", "fd", *save]


@pytest.mark.parametrize("name", FD_GOLDENS)
def test_exact_fd_training_matches_recorded_files(name, tmp_path, capsys):
    assert execute(_fd_case(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.csv").read_bytes()
    model = (tmp_path / "model.json").read_bytes()
    assert model == (GOLDEN / f"{name}.model.json").read_bytes()


@pytest.mark.parametrize("n", [10, 18])
def test_state_sample_counts_print_the_bytes_of_the_sorted_dict(tmp_path, capsys, n):
    rng = np.random.default_rng(n)
    edges = sorted({tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False)))
                    for _ in range(2 * n)})
    path = tmp_path / "g.qg"
    path.write_text(to_edge_list(Graph.from_edges(n, edges)), encoding="utf-8")
    assert execute(["state", "sample", "--graph", str(path), "--shots", "4096",
                    "--seed", str(n)]) == 0
    out = capsys.readouterr().out
    counts = json.loads(out)["counts"]
    payload = {"seed": n, "shots": 4096,
               "counts": {str(k): counts[str(k)] for k in sorted(map(int, counts))}}
    assert len(counts) > 100 and out == json.dumps(payload, indent=2) + "\n"
