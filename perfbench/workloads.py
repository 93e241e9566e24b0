"""Seeded inputs, independent references and output checks for the benchmark.

Nothing here imports qgns. Every expected output is computed with plain numpy
from the generated inputs, so a defect in the package cannot hide in its own
reference. A plan is a JSON-ready dict: the input files live in a work
directory, each op is a CLI argv relative to it plus the name of its check and
its reference, and op k of a run is ``ops[k % len(ops)]``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("toy_train", "wide_states", "swap_filter")

# Calls per cycle. Runs stop only at cycle ends, so every run holds the same
# mix of calls and the per-op counts of a traced run repeat exactly.
CYCLE_LEN = {"toy_train": 2, "wide_states": 4, "swap_filter": 4}

TOY_EPOCHS_PER_OP = 5
TOY_SEGMENT_OPS = 40          # restart from the initial model every 200 epochs
TOY_TARGET_ACCURACY = 0.95
TOY_LR = 0.1                  # the CLI default learning rate

_CLIP = 1e-7                  # the BCE clip of the trained loss
_AMBIGUOUS = 1e-9             # p1 this close to 0.5 may threshold either way
_EXACT_ATOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY is for the self-tests."""

    wide_n: int = 18
    swap_n: int = 9
    filters: tuple[tuple[int, int], ...] = ((64, 15), (128, 7))  # (vertices, degree)
    sample_shots: int = 4096
    edge_shots: int = 1000
    input_sets: int = 4


FULL = Sizes()
TINY = Sizes(wide_n=8, swap_n=5, filters=((8, 3), (16, 1)), sample_shots=64,
             edge_shots=100, input_sets=2)

# The bundled toy task: the five-vertex demo graph, labels {0,2,4} vs {1,3}.
TOY_EDGES = ((0, 1), (1, 2), (0, 3), (2, 3), (0, 4), (3, 4))
TOY_LABELS = (1, 0, 1, 0, 1)
TOY_FEATURES = ((0.90, 0.15, 0.80, 0.10, 0.95),
                (0.85, 0.20, 0.70, 0.25, 0.80),
                (0.95, 0.10, 0.85, 0.05, 0.90),
                (0.75, 0.30, 0.90, 0.20, 0.85))


# -- numpy model of the m=1 circuits ----------------------------------------

def _angles(features) -> np.ndarray:
    """Angle encoding: min-max scale each row to [0, 1], times pi."""
    f = np.asarray(features, dtype=float)
    lo, hi = f.min(axis=-1, keepdims=True), f.max(axis=-1, keepdims=True)
    span = hi - lo
    scaled = np.where(span < 1e-300, 0.5, (f - lo) / np.where(span < 1e-300, 1.0, span))
    return math.pi * scaled


def m1_amplitudes(n: int, angles, edges, weights=None) -> np.ndarray:
    """Ry(angles)|0...0> times the edge phases e^{i sum w b_u b_v}.

    angles has shape (..., n); weights (..., n_edges) overrides the weights of
    `edges` and broadcasts against the leading axes of angles. Qubit q is bit q
    of the basis index.
    """
    angles = np.asarray(angles, dtype=float)
    weights = np.asarray([w for _, _, w in edges] if weights is None else weights, dtype=float)
    idx = np.arange(1 << n)
    amps = np.ones(angles.shape[:-1] + (1 << n,), dtype=complex)
    for v in range(n):
        bit = ((idx >> v) & 1).astype(bool)
        amps *= np.where(bit, np.sin(angles[..., v:v + 1] / 2), np.cos(angles[..., v:v + 1] / 2))
    phase = np.zeros(weights.shape[:-1] + (1 << n,))
    for e, (u, v, _) in enumerate(edges):
        phase = phase + weights[..., e:e + 1] * ((idx >> u) & (idx >> v) & 1)
    return amps * np.exp(1j * phase)


def plus_amplitudes(n: int, edges) -> np.ndarray:
    """The graph state from |+>^n: uniform magnitudes times the edge phases."""
    return m1_amplitudes(n, np.full(n, math.pi / 2), edges)


def node_p1_y(amps: np.ndarray, n: int) -> np.ndarray:
    """P(-1) of a Y measurement on each qubit, from amplitude pairs (a0, a1):
    the Y eigenbasis overlap is |a0 + i a1|^2 / 2. Leading axes are kept."""
    lead = amps.shape[:-1]
    out = np.empty(lead + (n,))
    for q in range(n):
        view = amps.reshape(lead + (-1, 2, 1 << q))
        pair = view[..., 0, :] + 1j * view[..., 1, :]
        out[..., q] = 0.5 * np.sum(np.abs(pair) ** 2, axis=(-2, -1))
    return out


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def horner(lap: np.ndarray, coeffs, x) -> np.ndarray:
    """sum_j c_j L^j x by Horner's rule on vectors."""
    x = np.asarray(x, dtype=float)
    acc = coeffs[-1] * x
    for c in reversed(coeffs[:-1]):
        acc = lap @ acc + c * x
    return acc


# -- input files --------------------------------------------------------------

def graph_text(n: int, edges, weighted: bool) -> str:
    lines = [f"qgraph v1 n={n}"]
    for u, v, w in edges:
        lines.append(f"{u} {v} {w!r}" if weighted else f"{u} {v}")
    return "\n".join(lines) + "\n"


def random_edges(rng: np.random.Generator, n: int, m: int, weights=None):
    """m distinct edges of K_n with u < v, in sorted order; weight pi by default."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
    out = []
    for k in chosen:
        w = math.pi if weights is None else float(rng.uniform(*weights))
        out.append((pairs[k][0], pairs[k][1], w))
    return out


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


# -- toy_train ---------------------------------------------------------------

class _ToyModel:
    """The m=1 node model of the toy task, evaluated for a batch of parameter
    vectors at once: theta (5 angle offsets) then the 6 edge weights."""

    def __init__(self, order):
        self.edges = [(u, v, math.pi) for u, v in TOY_EDGES]
        self.enc = _angles([TOY_FEATURES[i] for i in order])      # (items, 5)
        self.labels = np.array([TOY_LABELS] * len(order), dtype=float)

    def p1(self, params: np.ndarray) -> np.ndarray:
        """(batch, items, nodes) node p1 for params of shape (batch, 11)."""
        angles = self.enc + params[:, None, :5]
        amps = m1_amplitudes(5, angles, self.edges, params[:, None, 5:])
        return node_p1_y(amps, 5)

    def loss(self, params: np.ndarray) -> np.ndarray:
        q = np.clip(self.p1(params), _CLIP, 1.0 - _CLIP)
        y = self.labels
        return np.mean(-(y * np.log(q) + (1 - y) * np.log(1 - q)), axis=(1, 2))

    def accuracy_bounds(self, params: np.ndarray) -> tuple[float, float]:
        p = self.p1(params[None])[0]
        sure = np.abs(p - 0.5) > _AMBIGUOUS
        hits = int(np.sum(sure & ((p > 0.5) == (self.labels > 0.5))))
        return hits / p.size, (hits + int(np.sum(~sure))) / p.size

    def loss_and_gradient(self, params: np.ndarray, h: float = 1e-6) -> tuple[float, np.ndarray]:
        """Loss and its central-difference gradient from one batched evaluation."""
        steps = h * np.eye(params.size)
        values = self.loss(np.vstack([params[None], params + steps, params - steps]))
        return float(values[0]), (values[1:1 + params.size] - values[1 + params.size:]) / (2 * h)


def toy_reference(order) -> list[dict]:
    """Expected CSV rows and final parameters of each op of one 200-epoch segment."""
    model = _ToyModel(order)
    params = np.concatenate([np.zeros(5), np.full(len(TOY_EDGES), math.pi)])
    refs = []
    for _ in range(TOY_SEGMENT_OPS):
        rows = []
        for _ in range(TOY_EPOCHS_PER_OP):
            loss, grad = model.loss_and_gradient(params)
            rows.append([loss, *model.accuracy_bounds(params)])
            params = params - TOY_LR * grad
        refs.append({"rows": rows, "params": params.tolist()})
    return refs


def toy_ops(rng: np.random.Generator, seed: int, workdir: Path) -> list[dict]:
    """One segment of the toy chain: 40 five-epoch `model train` calls that
    continue from the previous checkpoint and alternate fd and pshift."""
    order = [int(i) for i in rng.permutation(len(TOY_FEATURES))]
    text = graph_text(5, [(u, v, math.pi) for u, v in TOY_EDGES], weighted=False)
    items = [{"graph": text, "features": list(TOY_FEATURES[i]), "labels": list(TOY_LABELS)}
             for i in order]
    data = _write(workdir, "toy.json",
                  json.dumps({"task": "node", "node_basis": "Y", "items": items}))
    ops = []
    for k, ref in enumerate(toy_reference(order)):
        argv = ["model", "train", "--data", data, "--epochs", str(TOY_EPOCHS_PER_OP),
                "--seed", str(seed), "--grad", "fd" if k % 2 == 0 else "pshift",
                "--save-model", f"toy-ckpt{k % 2}.json"]
        if k:
            argv += ["--model", f"toy-ckpt{(k - 1) % 2}.json"]
        ref.update(seed=seed, epoch0=k * TOY_EPOCHS_PER_OP, save=argv[argv.index("--save-model") + 1])
        ops.append({"argv": argv, "check": "train", "ref": ref})
    return ops


# -- wide_states --------------------------------------------------------------

def wide_ops(rng: np.random.Generator, seed: int, workdir: Path, sizes: Sizes) -> list[dict]:
    n, m = sizes.wide_n, 2 * sizes.wide_n
    ops = []
    for c in range(sizes.input_sets):
        plain = random_edges(rng, n, m)
        g_plain = _write(workdir, f"wide{c}-plain.qg", graph_text(n, plain, weighted=False))
        ops.append({"argv": ["state", "verify", "--graph", g_plain], "check": "verify",
                    "ref": {"n": n, "edges": [list(e) for e in plain]}})

        weighted = random_edges(rng, n, m, weights=(0.1, 3.0))
        g_w = _write(workdir, f"wide{c}-weighted.qg", graph_text(n, weighted, weighted=True))
        ops.append({"argv": ["state", "sample", "--graph", g_w, "--shots",
                             str(sizes.sample_shots), "--seed", str(seed + c)],
                    "check": "sample", "ref": {"n": n, "shots": sizes.sample_shots,
                                               "seed": seed + c}})

        node_edges = random_edges(rng, n, m, weights=(0.1, 3.0))
        feats = rng.uniform(0.0, 1.0, n)
        labels = [int(b) for b in rng.integers(0, 2, n)]
        node_data = {"task": "node", "node_basis": "Y",
                     "items": [{"graph": graph_text(n, node_edges, weighted=True),
                                "features": feats.tolist(), "labels": labels}]}
        p1 = node_p1_y(m1_amplitudes(n, _angles(feats), node_edges), n)
        ops.append({"argv": ["model", "eval", "--data",
                             _write(workdir, f"wide{c}-node.json", json.dumps(node_data))],
                    "check": "node_eval", "ref": {"p1": p1.tolist(), "labels": labels}})

        edge_edges = random_edges(rng, n, m, weights=(0.1, 3.0))
        feats = rng.uniform(0.0, 1.0, n)
        targets = rng.uniform(-1.0, 1.0, m).tolist()
        edge_data = {"task": "edge", "items": [{"graph": graph_text(n, edge_edges, weighted=True),
                                                "features": feats.tolist(), "labels": targets}]}
        # a product state in Z: <Z_u Z_v> = cos(a_u) cos(a_v); edge phases drop out
        a = _angles(feats)
        zz = [math.cos(a[u]) * math.cos(a[v]) for u, v, _ in edge_edges]
        ops.append({"argv": ["model", "eval", "--data",
                             _write(workdir, f"wide{c}-edge.json", json.dumps(edge_data)),
                             "--shots", str(sizes.edge_shots), "--seed", str(seed + c)],
                    "check": "edge_eval", "ref": {"zz": zz, "targets": targets,
                                                  "shots": sizes.edge_shots}})
    return ops


# -- swap_filter --------------------------------------------------------------

def swap_ops(rng: np.random.Generator, seed: int, workdir: Path, sizes: Sizes) -> list[dict]:
    n, m = sizes.swap_n, 2 * sizes.swap_n
    ops = []
    for c in range(sizes.input_sets):
        ga, gb = (random_edges(rng, n, m, weights=(0.1, 3.0)) for _ in range(2))
        fa = _write(workdir, f"swap{c}-a.qg", graph_text(n, ga, weighted=True))
        fb = _write(workdir, f"swap{c}-b.qg", graph_text(n, gb, weighted=True))
        overlap = abs(np.vdot(plus_amplitudes(n, ga), plus_amplitudes(n, gb))) ** 2
        ops.append({"argv": ["swap", "--graph", fa, "--graph", fb], "check": "swap",
                    "ref": {"p0": (1.0 + overlap) / 2.0, "overlap_sq": overlap}})

        gc = random_edges(rng, n, m, weights=(0.1, 3.0))
        feats = rng.uniform(0.0, 1.0, (2, n))
        text = graph_text(n, gc, weighted=True)
        data = {"task": "graph", "items": [{"graph": text, "features": feats[k].tolist(),
                                            "labels": k} for k in range(2)]}
        # one item per class, so each class prototype encodes that item's features
        states = m1_amplitudes(n, _angles(feats), gc)
        scores = np.abs(states.conj() @ states.T) ** 2
        ops.append({"argv": ["model", "eval", "--data",
                             _write(workdir, f"swap{c}-graph.json", json.dumps(data))],
                    "check": "graph_eval", "ref": {"scores": scores.tolist()}})

        for v_count, degree in sizes.filters:
            fe = random_edges(rng, v_count, 2 * v_count, weights=(0.05, 0.5))
            coeffs = [float(c_) for c_ in rng.uniform(-1.0, 1.0, degree + 1)]
            x = rng.normal(size=v_count)
            g = _write(workdir, f"filter{c}-{v_count}.qg", graph_text(v_count, fe, weighted=True))
            vec = _write(workdir, f"filter{c}-{v_count}.txt",
                         "\n".join(repr(float(t)) for t in x) + "\n")
            expected = horner(laplacian(v_count, fe), coeffs, x)
            # `--coeffs=` form: argparse reads `--coeffs -0.3,...` as a flag
            ops.append({"argv": ["filter", "apply", "--graph", g,
                                 "--coeffs=" + ",".join(repr(c_) for c_ in coeffs),
                                 "--vector", vec],
                        "check": "filter", "ref": {"y": expected.tolist()}})
    return ops


def make_plan(workload: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> dict:
    """Write the workload's inputs for `seed` into workdir; return the plan.

    Every plan carries the toy chain as well: runs of the other workloads
    report the toy time-to-solution from one extra segment.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    toy = toy_ops(rng, seed, workdir)
    if workload == "toy_train":
        ops = toy
    elif workload == "wide_states":
        ops = wide_ops(rng, seed, workdir, sizes)
    else:
        ops = swap_ops(rng, seed, workdir, sizes)
    return {"workload": workload, "seed": seed, "cycle_len": CYCLE_LEN[workload],
            "ops": ops, "toy": toy}


# -- output checks ---------------------------------------------------------------

def _close(a, b, atol=_EXACT_ATOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


def _eval_lines(out: str) -> tuple[dict, list[dict]]:
    lines = [json.loads(line) for line in out.splitlines()]
    return lines[0], lines[1:]


def _check_verify(out, ref, _workdir):
    report = json.loads(out)
    residuals = report["residuals"]
    return (report["pass"] is True and len(residuals) == ref["n"]
            and report["tol"] == 1e-10 and max(residuals) < 1e-10
            and report["graph"]["n"] == ref["n"]
            and report["graph"]["edges"] == ref["edges"])


def _check_sample(out, ref, _workdir):
    payload = json.loads(out)
    counts = payload["counts"]
    keys = [int(k) for k in counts]
    # every graph state from |+>^n is uniform in Z, so draws rarely collide
    return (payload["seed"] == ref["seed"] and payload["shots"] == ref["shots"]
            and sum(counts.values()) == ref["shots"]
            and all(0 <= k < (1 << ref["n"]) for k in keys)
            and max(counts.values()) <= 8
            and len(keys) >= 0.9 * ref["shots"] * (1 - ref["shots"] / (1 << ref["n"])))


def _check_node_eval(out, ref, _workdir):
    header, items = _eval_lines(out)
    (item,) = items
    p1 = np.asarray(ref["p1"])
    sure = np.abs(p1 - 0.5) > _AMBIGUOUS
    preds = np.asarray(item["prediction"])
    return (header["shots"] == 0 and header["task"] == "node"
            and _close(item["scores"], p1)
            and preds.shape == p1.shape and bool(np.all(preds[sure] == (p1[sure] > 0.5)))
            and item["label"] == ref["labels"]
            and item["correct"] == bool(np.all(preds == np.asarray(ref["labels"]))))


def _check_edge_eval(out, ref, _workdir):
    header, items = _eval_lines(out)
    (item,) = items
    zz, shots = np.asarray(ref["zz"]), ref["shots"]
    scores = np.asarray(item["scores"])
    p = (1 + zz) / 2
    # each score is 2k/shots - 1 with k ~ Binomial(shots, p)
    sigma = 2 * np.sqrt(p * (1 - p) / shots)
    targets = np.asarray(ref["targets"])
    return (header["shots"] == shots and scores.shape == zz.shape
            and item["label"] == ref["targets"]
            and bool(np.all(np.abs(scores - zz) <= 6 * sigma + 2.0 / shots))
            and item["correct"] == bool(np.all(np.abs(scores - targets) <= 0.5)))


def _check_swap(out, ref, _workdir):
    payload = json.loads(out)
    return _close([payload["p0"], payload["overlap_sq"]], [ref["p0"], ref["overlap_sq"]])


def _check_graph_eval(out, ref, _workdir):
    _, items = _eval_lines(out)
    scores = ref["scores"]
    return (len(items) == len(scores)
            and all(_close(it["scores"], s) and it["prediction"] == int(np.argmax(s))
                    and it["label"] == k and it["correct"] == (it["prediction"] == k)
                    for k, (it, s) in enumerate(zip(items, scores))))


def _check_filter(out, ref, _workdir):
    lines = out.splitlines()
    if not lines[0].startswith("# scale="):
        return False
    scale = float(lines[0].split("=", 1)[1])
    y = np.array([float(t) for t in lines[1:]])
    expected = np.asarray(ref["y"])
    return (y.shape == expected.shape
            and bool(np.linalg.norm(scale * y - expected) <= 1e-8 * np.linalg.norm(expected)))


def _check_train(out, ref, workdir):
    lines = out.splitlines()
    if lines[:2] != [f"# seed={ref['seed']}", "epoch,loss,accuracy"]:
        return False
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(ref["rows"]):
        return False
    for i, ((epoch, loss, acc), (ref_loss, lo, hi)) in enumerate(zip(rows, ref["rows"])):
        if (int(epoch) != i or abs(float(loss) - ref_loss) > 1e-7 * max(1.0, abs(ref_loss))
                or not lo - 1e-12 <= float(acc) <= hi + 1e-12):
            return False
    ckpt = json.loads((Path(workdir) / ref["save"]).read_text(encoding="utf-8"))
    params = np.concatenate([np.ravel(ckpt["theta"]), np.ravel(ckpt["weights"])])
    return _close(params, ref["params"], atol=1e-7)


_CHECKS = {"verify": _check_verify, "sample": _check_sample, "node_eval": _check_node_eval,
           "edge_eval": _check_edge_eval, "swap": _check_swap, "graph_eval": _check_graph_eval,
           "filter": _check_filter, "train": _check_train}

# Checks whose op draws shots: after the first run, the bytes must repeat.
SEEDED = ("sample", "edge_eval")


def check_output(op: dict, out: str, workdir, first_outputs: dict) -> bool:
    """True when `out` matches op's reference. Seeded shot outputs must also
    repeat byte for byte the first output seen for the same argv."""
    if op["check"] in SEEDED:
        key = tuple(op["argv"])
        if key in first_outputs:
            return out == first_outputs[key]
    try:
        ok = bool(_CHECKS[op["check"]](out, op["ref"], workdir))
    except (ValueError, KeyError, IndexError, TypeError, OSError):
        return False
    if ok and op["check"] in SEEDED:
        first_outputs[tuple(op["argv"])] = out
    return ok


def train_accuracies(out: str) -> list[float]:
    """The accuracy column of a `model train` CSV."""
    return [float(line.split(",")[2]) for line in out.splitlines()[2:]]


def statevector_bytes(sizes: Sizes = FULL) -> dict[str, int]:
    """Computed bytes of the largest complex128 statevector each workload builds."""
    filter_qubits = max((v - 1).bit_length() + (d.bit_length()) for v, d in sizes.filters)
    return {"toy_train": 16 << 5, "wide_states": 16 << sizes.wide_n,
            "swap_filter": 16 << max(2 * sizes.swap_n + 1, filter_qubits)}
