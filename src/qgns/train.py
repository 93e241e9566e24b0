"""Classical optimization of the circuit parameters.

A model (qgnn.ModelSpec) is exactly the circuit the executor runs, the
layered circuit: per-layer Ry rotations (layer 0 additionally carries the
angle-encoded item features) interleaved with the graph's edge entanglers
of the model's edge convention, whose phases are the trainable edge weights.
Gradients come from central finite differences or from the two-point
shift rule applied at the readout level; both hold for every parameter and
every task. The optimizer is plain gradient descent. fit compiles the model
and dataset once (executor.compile_circuit, which also builds the graph
task's class prototypes; class_prototypes is re-exported here for callers
that name it through this module) and steps the flat parameter vector;
each epoch runs its circuits through one executor call (the gradient's
rows, the current row first) and scores loss, accuracy and gradient from
those exact readouts; fd takes its loss and its central differences from
one pass over the rows' losses. loss, accuracy, gradient and
model_values (`model eval`) each compile once and run the same two steps on
their own rows.

Everything is deterministic: exact mode never touches an rng, shot mode
threads one seeded generator through all estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .executor import (Circuit, class_prototypes, compile_circuit, draw_readouts,
                       exact_readouts, param_rows)
from .graph import Graph
from .graphstate import EdgeConvention
from .qgnn import ModelSpec

_CLIP = 1e-7
_EPS = 1e-5  # central-difference step of the fd gradient


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0
    shots: int = 0          # 0 = exact readouts
    grad: str = "fd"        # "fd" (central differences) | "pshift"
    loss: str = "bce"       # node task only; edge is MSE, graph is BCE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be a finite number >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.grad not in ("fd", "pshift"):
            raise ValueError(f"grad must be 'fd' or 'pshift', got {self.grad!r}")
        if self.loss not in ("bce", "mse"):
            raise ValueError(f"loss must be 'bce' or 'mse', got {self.loss!r}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


# -- parameter plumbing ------------------------------------------------------

def params_of(model: ModelSpec) -> np.ndarray:
    """Flat parameter vector: theta entries then edge-weight entries."""
    return np.concatenate([model.theta.ravel(), model.weights.ravel()])


def with_params(model: ModelSpec, params: np.ndarray) -> ModelSpec:
    nt = model.theta.size
    theta = np.asarray(params[:nt], dtype=float).reshape(model.theta.shape)
    weights = np.asarray(params[nt:], dtype=float).reshape(model.weights.shape)
    return ModelSpec(model.graph, model.m, theta, weights, model.shared_weights, model.convention)


def initial_model(graph: Graph, m: int = 1, shared_weights: bool = False,
                  convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> ModelSpec:
    """Training start: zero angle offsets, edge phases from the graph itself."""
    if m < 1:  # before the arrays are sized by it
        raise ValueError(f"layer count must be >= 1, got {m}")
    rows = 1 if shared_weights else m
    weights = (np.tile([w for _, _, w in graph.edges], (rows, 1))
               if graph.n_edges else np.zeros((rows, 0)))
    return ModelSpec(graph, m, np.zeros((m, graph.n_vertices)), weights, shared_weights,
                     convention)


# -- readouts and losses -----------------------------------------------------

def _target_table(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every item's readout targets in dataset order as one flat array, and
    each item's count: the labels of its labeled nodes, the targets of its
    edges, or a graph item's one-hot class (one entry per class prototype)."""
    if dataset.task == "graph":
        classes = range(max(item.labels for item in dataset.items) + 1)
        rows = [[float(c == item.labels) for c in classes] for item in dataset.items]
    else:
        rows = [[float(lab) for lab in item.labels if lab is not None]
                for item in dataset.items]
    counts = np.array([len(row) for row in rows])
    if not counts.all():
        raise ValueError("item produced no readouts (no labeled nodes or edges)")
    return np.array([t for row in rows for t in row]), counts


def _squared(dataset: Dataset, loss_kind: str) -> bool:
    """Whether the loss is squared error: edge task, or node task with mse."""
    return dataset.task == "edge" or (dataset.task == "node" and loss_kind == "mse")


def correct_readouts(task: str, values, targets) -> np.ndarray:
    """Which node or edge readouts are correct, entry by entry: a node p1
    above 0.5 exactly where its target is non-zero, an edge <ZZ> within 0.5
    of its target. The training accuracy and `model eval` both use it."""
    values, targets = np.asarray(values, dtype=float), np.asarray(targets, dtype=float)
    if task == "node":
        return (values > 0.5) == (targets != 0.0)
    return np.abs(values - targets) <= 0.5


def _mapped(fn, x: np.ndarray) -> np.ndarray:
    """fn of every entry of x, evaluated on Python floats."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _scaled_logs(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c * math.log(x) for a (B, L) block x and per-column factors c, and
    0.0 in the columns where c is 0: a 0 * log term and an exact 0.0 add to
    the same sum, so no log is taken there."""
    out = np.zeros(x.shape)
    hit = c != 0.0
    out[:, hit] = c[hit] * _mapped(math.log, x[:, hit])
    return out


def _loss_terms(vals: np.ndarray, targets: np.ndarray, squared: bool) -> np.ndarray:
    """Per-readout loss terms of a (B, L) block with one target per column:
    (p - y) ** 2, or the BCE -(y log q + (1 - y) log(1 - q)) with q = p
    clipped to [_CLIP, 1 - _CLIP]. Each term has the bits of the scalar
    formula: logs and squares are taken per entry in Python (math.log, **),
    because numpy's vectorised log and square differ from them in the last
    bit on some inputs."""
    if squared:
        return _mapped(lambda d: d ** 2, vals - targets)
    q = np.minimum(np.maximum(vals, _CLIP), 1.0 - _CLIP)
    return -(_scaled_logs(targets, q) + _scaled_logs(1.0 - targets, 1.0 - q))


def _row_losses(values: np.ndarray, table, squared: bool) -> np.ndarray:
    """Mean per-item loss of each parameter row of a (B, M) block of every
    item's readouts in turn (draw_readouts) against the target table, summed
    item by item in dataset order. Each item's terms add left to right
    (cumsum, not np.sum's pairwise order), so a row has the bits of the
    scalar loop, whatever the other rows."""
    targets, counts = table
    terms = _loss_terms(values, targets, squared)
    losses, start = np.zeros(terms.shape[0]), 0
    for count in counts.tolist():
        losses += np.cumsum(terms[:, start:start + count], axis=1)[:, -1] / count
        start += count
    return losses / counts.size


def _loss_slopes(vals: np.ndarray, table, squared: bool) -> np.ndarray:
    """The derivative of each item's mean loss with respect to its readouts,
    for one flat row of every item's readouts: 2 (p - y), or the BCE's
    (p - y) / (p (1 - p)), over the item's readout count. Outside [_CLIP,
    1 - _CLIP] the BCE is clipped flat, so a readout there gets 0 even when
    its label is 1 (the gradient of the clipped loss; fd and pshift both
    return it). A NaN readout is not clipped and takes the formula."""
    targets, counts = table
    if squared:
        slopes = 2.0 * (vals - targets)
    else:
        slopes = np.zeros(vals.shape)
        kept = ~((vals <= _CLIP) | (vals >= 1.0 - _CLIP))
        p = vals[kept]
        slopes[kept] = (p - targets[kept]) / (p * (1.0 - p))
    return slopes / np.repeat(counts, counts)


def _own_readouts(model: ModelSpec, dataset: Dataset):
    """The compiled circuit, and its exact readouts at the model's own
    parameters (a batch of one row)."""
    circuit = compile_circuit(model, dataset)
    return circuit, exact_readouts(circuit, param_rows(circuit.program, params_of(model)[None]))


def _shot_rng(config: TrainConfig, rng):
    return np.random.default_rng(config.seed) if config.shots > 0 and rng is None else rng


def model_values(model: ModelSpec, dataset: Dataset, config: TrainConfig, *,
                 rng=None, picks=None) -> np.ndarray:
    """Readout values at the model's own parameters, as a (1, M) block of
    every item's readouts in turn (see executor.draw_readouts for picks).
    Shot mode draws item by item, readout by readout."""
    circuit, exact = _own_readouts(model, dataset)
    return draw_readouts(exact, circuit, config.shots, _shot_rng(config, rng), picks=picks)


# -- scoring: every consumer reads row 0 (the model's parameters) or all rows
# of one exact readout array, and draws its own shots in turn

def _accuracy_of(exact: np.ndarray, circuit: Circuit, table, config: TrainConfig,
                 rng) -> float:
    vals = draw_readouts(exact[:1], circuit, config.shots, rng)[0]
    targets, counts = table
    if circuit.dataset.task == "graph":  # argmax class, ties toward the lowest
        hits = (vals.reshape(counts.size, -1).argmax(1)
                == targets.reshape(counts.size, -1).argmax(1))
    else:
        hits = correct_readouts(circuit.dataset.task, vals, targets)
    return int(np.count_nonzero(hits)) / hits.size


def loss(model: ModelSpec, dataset: Dataset, config: TrainConfig, *, rng=None) -> float:
    """Mean per-item loss; deterministic in exact mode (shots = 0)."""
    circuit, exact = _own_readouts(model, dataset)
    values = draw_readouts(exact, circuit, config.shots, _shot_rng(config, rng))
    return float(_row_losses(values, _target_table(dataset), _squared(dataset, config.loss))[0])


def accuracy(model: ModelSpec, dataset: Dataset, config: TrainConfig, *, rng=None) -> float:
    """Fraction of correct readouts: thresholded bits (node), targets hit
    within 0.5 (edge), or argmax class (graph)."""
    circuit, exact = _own_readouts(model, dataset)
    return _accuracy_of(exact, circuit, _target_table(dataset), config,
                        _shot_rng(config, rng))


# -- gradients ----------------------------------------------------------------

_SHIFTS = {
    # gate kind -> (shift, prefactor) for the two-point rule
    "Ry": (math.pi / 2.0, 0.5),
    "CP": (math.pi / 2.0, 0.5),
    "IsingZZ": (math.pi / 4.0, 1.0),
}


def _gradient_rows(circuit: Circuit, params: np.ndarray, config: TrainConfig) -> np.ndarray:
    """The per-gate angle rows of one training epoch at the flat parameters,
    their own row first: the loss and the accuracy read row 0, the gradient
    reads them all. fd follows with params +- _EPS in each parameter k (rows
    2k+1, 2k+2), pshift with each gate j's angle +- its shift (rows 2j+1,
    2j+2)."""
    if config.grad == "fd":
        rows = np.tile(params, (2 * params.size + 1, 1))
        for k in range(params.size):
            rows[2 * k + 1, k] = params[k] + _EPS
            rows[2 * k + 2, k] = params[k] - _EPS
        return param_rows(circuit.program, rows)
    program = circuit.program
    rows = np.tile(param_rows(program, params[None]), (2 * len(program) + 1, 1))
    for j, (kind, _, _) in enumerate(program):
        rows[2 * j + 1, j] += _SHIFTS[kind][0]
        rows[2 * j + 2, j] -= _SHIFTS[kind][0]
    return rows


def _gradient_of(exact: np.ndarray, own: np.ndarray, circuit: Circuit, n_params: int,
                 table, config: TrainConfig, rng) -> tuple[float, np.ndarray]:
    """The loss of row 0 from its drawn readouts own, and the gradient over
    the n_params flat parameters, from the exact readouts of _gradient_rows.
    fd draws rows 1.. row-major, stacks own on them and takes every row's
    loss in one pass; the gradient is the central differences of rows 1...
    pshift draws every row item-major and, item by item, adds each gate's
    shift term into its parameter slot in program order (so a shared weight
    sums its layers). Every readout is the expectation of a fixed
    observable, so the shift rule holds for all three tasks: a node p1, an
    edge <ZZ>, or a graph score 2 p0 - 1, where the swap-test p0 is the
    expectation of (1 + SWAP) / 2 against a fixed prototype."""
    squared = _squared(circuit.dataset, config.loss)
    if config.grad == "fd":
        values = np.concatenate([own, draw_readouts(exact[1:], circuit, config.shots, rng)])
        losses = _row_losses(values, table, squared)
        return float(losses[0]), (losses[1::2] - losses[2::2]) / (2.0 * _EPS)
    factors = np.array([_SHIFTS[kind][1] for kind, _, _ in circuit.program])[:, None]
    slots = [slot for _, _, slot in circuit.program]
    values = draw_readouts(exact, circuit, config.shots, rng, item_major=True)
    slopes = _loss_slopes(values[0], table, squared)
    bounds = np.cumsum(table[1])[:-1]
    grad = np.zeros(n_params)
    for vals, d in zip(np.split(values, bounds, axis=1), np.split(slopes, bounds)):
        # one vector dot per gate, batched. C order gives every term a unit
        # stride, so matmul runs the BLAS dot that d @ term would; a (gates x
        # readouts) product, einsum or strided terms round differently
        terms = np.multiply(factors, vals[1::2] - vals[2::2], order="C")
        np.add.at(grad, slots, np.matmul(terms[:, None, :], d[:, None])[:, 0, 0])
    return float(_row_losses(own, table, squared)[0]), grad / len(table[1])


def gradient(model: ModelSpec, dataset: Dataset, config: TrainConfig, *,
             rng=None) -> np.ndarray:
    """Loss gradient over the flat (theta, weights) parameter vector."""
    circuit = compile_circuit(model, dataset)
    params = params_of(model)
    exact = exact_readouts(circuit, _gradient_rows(circuit, params, config))
    # row 0's loss is not returned, so its exact values stand in for a draw
    return _gradient_of(exact, draw_readouts(exact[:1], circuit), circuit, params.size,
                        _target_table(dataset), config, _shot_rng(config, rng))[1]


@dataclass(frozen=True)
class FitResult:
    model: ModelSpec
    history: tuple[float, ...]      # loss at the start of each epoch
    accuracies: tuple[float, ...]


def fit(model: ModelSpec, dataset: Dataset, config: TrainConfig) -> FitResult:
    """Plain gradient descent, p <- p - lr * grad, for config.epochs steps.
    The model is compiled once; the epochs update its flat parameters."""
    rng = np.random.default_rng(config.seed) if config.shots > 0 else None
    circuit = compile_circuit(model, dataset)
    table = _target_table(dataset)
    params = params_of(model)
    history, accuracies = [], []
    for epoch in range(config.epochs):
        # one executor call per epoch; loss, accuracy and gradient draw in turn
        exact = exact_readouts(circuit, _gradient_rows(circuit, params, config))
        own = draw_readouts(exact[:1], circuit, config.shots, rng)
        epoch_accuracy = _accuracy_of(exact, circuit, table, config, rng)
        epoch_loss, grad = _gradient_of(exact, own, circuit, params.size, table, config, rng)
        if not math.isfinite(epoch_loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={epoch_loss}")
        history.append(epoch_loss)
        accuracies.append(epoch_accuracy)
        params = params - config.learning_rate * grad
    return FitResult(with_params(model, params), tuple(history), tuple(accuracies))
