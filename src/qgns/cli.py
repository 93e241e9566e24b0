"""Command-line interface.

One verb per capability: `state build|verify|sample`, `model train|eval`,
`filter apply`, `swap`, `pool`. Identical argv (including --seed) produce
byte-identical primary outputs; randomized outputs embed their seed.

Exit codes: 0 success, 1 domain error (JSON on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .graph import from_edge_list, laplacian
from .graphstate import EdgeConvention, build_graph_state, verify_stabilizers
from .qgnn import load_model, pool_measure, save_model
from .sim import dump_state, new_state, sample_counts
from .tasks import swap_test_overlap
from .filters import apply_filter_lcu
from .dataset import load_dataset
from .train import TrainConfig, correct_readouts, fit, initial_model, model_values


def _read_graph(path: str):
    return from_edge_list(Path(path).read_text(encoding="utf-8"))


def _read_vector(path: str) -> np.ndarray:
    values = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            values.append(float(line))
    if not values:
        raise ValueError(f"no values in vector file {path}")
    return np.array(values)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _convention(args) -> EdgeConvention:
    return EdgeConvention(args.convention)


def _cmd_state_build(args) -> int:
    g = _read_graph(args.graph)
    s = build_graph_state(g, _convention(args))
    _emit(dump_state(s), args.out)
    return 0


def _cmd_state_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {args.tol}")
    g = _read_graph(args.graph)
    s = build_graph_state(g, _convention(args))
    report = verify_stabilizers(g, s, tol=args.tol)
    payload = {
        "graph": g.to_dict(),
        "convention": args.convention,
        "residuals": list(report.residuals),
        "pass": report.passed,
        "tol": args.tol,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_state_sample(args) -> int:
    g = _read_graph(args.graph)
    s = build_graph_state(g, _convention(args))
    payload: dict = {"seed": args.seed, "shots": args.shots}
    if args.shots == 0:
        probs = s.probabilities()
        hit = np.flatnonzero(probs > 0.0)
        payload["probabilities"] = dict(zip(map(str, hit.tolist()), probs[hit].tolist()))
    else:
        rng = np.random.default_rng(args.seed)
        counts = sample_counts(s, args.shots, rng)
        payload["counts"] = {str(k): c for k, c in sorted(counts.items())}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _model(args, dataset):
    """The --model checkpoint, or an initial model on the dataset's graph."""
    if args.model:
        if args.layers is not None:
            raise ValueError("--layers does not apply with --model: the checkpoint sets it")
        return load_model(args.model)
    return initial_model(dataset.items[0].graph, m=1 if args.layers is None else args.layers)


def _cmd_model_train(args) -> int:
    dataset = load_dataset(args.data)
    if args.loss is not None and dataset.task != "node":
        raise ValueError(f"--loss applies to the node task only, not the {dataset.task} task")
    config = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
                         shots=args.shots, grad=args.grad, loss=args.loss or "bce")
    result = fit(_model(args, dataset), dataset, config, _convention(args))
    lines = [f"# seed={args.seed}", "epoch,loss,accuracy"]
    for epoch, (value, acc) in enumerate(zip(result.history, result.accuracies)):
        lines.append(f"{epoch},{value!r},{acc!r}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.save_model:
        save_model(result.model, args.save_model, seed=args.seed)
    return 0


def _cmd_model_eval(args) -> int:
    dataset = load_dataset(args.data)
    config = TrainConfig(seed=args.seed, shots=args.shots)
    # every vertex of a node item is read out, labeled or not
    values = model_values(_model(args, dataset), dataset, config, _convention(args),
                          picks=[slice(None)] * len(dataset.items))
    lines = [json.dumps({"seed": args.seed, "shots": args.shots, "task": dataset.task})]
    for idx, (item, vals) in enumerate(zip(dataset.items, values)):
        scores = vals[0].tolist()
        label = item.labels if dataset.task == "graph" else list(item.labels)
        if dataset.task == "graph":
            prediction: object = int(np.argmax(scores))  # ties break toward the lowest class
            correct = prediction == label
        else:
            prediction = [int(p > 0.5) for p in scores] if dataset.task == "node" else scores
            labeled = [k for k, y in enumerate(label) if y is not None]
            correct = bool(np.all(correct_readouts(dataset.task, vals[0, labeled],
                                                   [label[k] for k in labeled])))
        lines.append(json.dumps({"item": idx, "task": dataset.task, "scores": scores,
                                 "prediction": prediction, "label": label,
                                 "correct": correct}))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_filter_apply(args) -> int:
    g = _read_graph(args.graph)
    coeffs = [float(c) for c in args.coeffs.split(",")]
    y, scale = apply_filter_lcu(_read_vector(args.vector), laplacian(g), coeffs)
    lines = [f"# scale={scale!r}"] + [f"{float(val)!r}" for val in y]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_swap(args) -> int:
    paths = args.graph
    g1 = _read_graph(paths[0])
    s1 = build_graph_state(g1, _convention(args))
    if len(paths) > 1:
        s2 = build_graph_state(_read_graph(paths[1]), _convention(args))
    else:
        # single graph: compare against the unentangled |+...+> reference
        s2 = new_state(g1.n_vertices, "plus")
    rng = np.random.default_rng(args.seed) if args.shots > 0 else None
    p0, overlap_sq = swap_test_overlap(s1, s2, args.shots, rng)
    payload = {"seed": args.seed, "shots": args.shots, "p0": p0, "overlap_sq": overlap_sq}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_pool(args) -> int:
    g = _read_graph(args.graph)
    s = build_graph_state(g, _convention(args))
    rng = np.random.default_rng(args.seed)
    outcomes, _ = pool_measure(s, range(g.n_vertices), rng)
    payload = {"seed": args.seed, "readout": outcomes, "final": outcomes[-1]}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


@functools.cache  # one parser per process, shared: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    def flag(*args, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    # one parent per flag: each verb lists only the flags it reads
    out = flag("--out", default=None, help="write output here instead of stdout")
    seed = flag("--seed", type=int, default=0, help="rng seed (default 0)")
    shots = flag("--shots", type=int, default=0, help="sample count, 0 = exact (default 0)")
    tol = flag("--tol", type=float, default=1e-10,
               help="verification tolerance (default 1e-10)")
    convention = flag("--convention", choices=["cp", "ising"], default="cp",
                      help="edge gate convention (default cp)")
    sampled = [out, convention, seed, shots]

    parser = argparse.ArgumentParser(prog="qgns", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qgns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build, verify or sample graph states")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    for name, fn, parents, doc in (
            ("build", _cmd_state_build, [out, convention], "dump the statevector"),
            ("verify", _cmd_state_verify, [out, convention, tol],
             "stabilizer verification report"),
            ("sample", _cmd_state_sample, sampled, "sample measurement outcomes")):
        p = state_sub.add_parser(name, parents=parents, help=doc)
        p.add_argument("--graph", required=True, help="graph file (qgraph v1)")
        p.set_defaults(func=fn)

    p_model = sub.add_parser("model", help="train or evaluate a model")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    for name, fn, doc in (("train", _cmd_model_train, "gradient-descent training, CSV history"),
                          ("eval", _cmd_model_eval, "per-item readout report")):
        p = model_sub.add_parser(name, parents=sampled, help=doc)
        p.add_argument("--data", required=True, help="dataset JSON")
        p.add_argument("--model", default=None, help="checkpoint JSON to load")
        p.add_argument("--layers", type=int, default=None,
                       help="layers of a new model (default 1; not with --model)")
        if name == "train":
            p.add_argument("--epochs", type=int, default=100)
            p.add_argument("--lr", type=float, default=0.1)
            p.add_argument("--grad", choices=["fd", "pshift"], default="fd")
            p.add_argument("--loss", choices=["bce", "mse"], default=None,
                           help="node-task loss (default bce)")
            p.add_argument("--save-model", default=None,
                           help="write the trained checkpoint here")
        p.set_defaults(func=fn)

    p_filter = sub.add_parser("filter", help="apply a Laplacian polynomial filter")
    filter_sub = p_filter.add_subparsers(dest="filter_command", required=True)
    p = filter_sub.add_parser("apply", parents=[out])
    p.add_argument("--graph", required=True)
    p.add_argument("--coeffs", required=True, help="comma-separated w_0,w_1,...")
    p.add_argument("--vector", required=True, help="input vector file, one value per line")
    p.set_defaults(func=_cmd_filter_apply)

    p = sub.add_parser("swap", parents=sampled,
                       help="swap-test two graph states (|+...+> reference if one graph)")
    p.add_argument("--graph", action="append", required=True,
                   help="graph file; give twice to compare two states")
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("pool", parents=[out, convention, seed],
                       help="measurement pooling over all vertices of a graph state")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_pool)
    return parser


def execute(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "shots", 0) < 0:
            raise ValueError(f"shots must be >= 0, got {args.shots}")
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, RuntimeError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
