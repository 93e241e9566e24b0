from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qgns import (LayerStep, ModelSpec, initial_model, save_dataset, save_model, to_edge_list,
                  toy_dataset_path, toy_node_dataset)
from qgns.cli import execute


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


def test_pool_seeded(demo_file, capsys):
    assert execute(["pool", "--graph", demo_file, "--seed", "11"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert execute(["pool", "--graph", demo_file, "--seed", "11"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert set(first["readout"]) <= {1, -1} and len(first["readout"]) == 5
    assert first["final"] == first["readout"][-1]


def test_domain_error_exit_code_and_json(tmp_path, capsys):
    missing = str(tmp_path / "nope.qg")
    assert execute(["state", "build", "--graph", missing]) == 1
    err = capsys.readouterr().err
    assert "error" in json.loads(err)

    bad = tmp_path / "bad.qg"
    bad.write_text("qgraph v1 n=2\n0 0\n", encoding="utf-8")
    assert execute(["state", "build", "--graph", str(bad)]) == 1
    assert "self-loop" in json.loads(capsys.readouterr().err)["error"]


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


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_model_rejects_a_non_sequential_formalism(toy_file, verb, capsys):
    assert execute(["model", verb, "--data", toy_file, "--formalism", "superposed",
                    "--epochs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "superposed" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_model_rejects_a_checkpoint_with_a_schedule(toy_file, tmp_path, verb, capsys):
    base = initial_model(toy_node_dataset().items[0].graph)
    scheduled = ModelSpec(base.graph, base.m, base.formalism, base.theta, base.weights,
                          schedule=(LayerStep.message(0, 0.5),))
    ckpt = tmp_path / "scheduled.json"
    save_model(scheduled, ckpt)
    assert execute(["model", verb, "--data", toy_file, "--model", str(ckpt),
                    "--epochs", "1"]) == 1
    assert "schedule" in json.loads(capsys.readouterr().err)["error"]


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
])
def test_malformed_dataset_is_a_json_error(tmp_path, payload, field, capsys):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    assert execute(["model", "eval", "--data", str(data)]) == 1
    assert field in json.loads(capsys.readouterr().err)["error"]
