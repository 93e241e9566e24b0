"""Classical optimization of the circuit parameters.

The trainable model is the layered circuit: per-layer Ry rotations (layer 0
additionally carries the angle-encoded item features) interleaved with the
graph's edge entanglers, whose phases are the trainable edge weights.
Gradients come from central finite differences (valid for every parameter)
or from the two-point shift rule applied at the readout level; the
optimizer is plain gradient descent. Each training epoch runs all of its
circuits through one qgns.executor call (the gradient's rows, the model's
own row first) and scores the loss, the accuracy and the gradient from
those exact readouts; loss, accuracy, gradient and `model eval`
(model_values) each run the same two steps on their own rows.

Everything is deterministic: exact mode never touches an rng, shot mode
threads one seeded generator through all estimates.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataItem, Dataset
from .executor import (circuit_states, draw_readouts, exact_readouts, feature_angles,
                       gate_program, param_rows)
from .graph import Graph
from .graphstate import EdgeConvention, build_graph_state
from .qgnn import Formalism, ModelSpec, encode_features
from .sim import StateVector

_CLIP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0
    shots: int = 0          # 0 = exact readouts
    grad: str = "fd"        # "fd" (central differences) | "pshift"
    eps: float = 1e-5       # finite-difference step
    loss: str = "bce"       # node task only; edge is MSE, graph is BCE

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
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
    return ModelSpec(model.graph, model.m, model.formalism, theta, weights,
                     model.schedule, model.shared_weights)


def initial_model(graph: Graph, m: int = 1, formalism: Formalism = Formalism.SEQUENTIAL,
                  shared_weights: bool = False) -> ModelSpec:
    """Training start: zero angle offsets, edge phases from the graph itself."""
    rows = 1 if shared_weights else m
    weights = (np.tile([w for _, _, w in graph.edges], (rows, 1))
               if graph.n_edges else np.zeros((rows, 0)))
    return ModelSpec(graph, m, formalism, np.zeros((m, graph.n_vertices)), weights,
                     (), shared_weights)


def model_circuit(model: ModelSpec, features=None,
                  convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> StateVector:
    """The model's state for one item (features may be None for a bare model)."""
    n = model.graph.n_vertices
    rows = param_rows(model, params_of(model)[None])
    if features is not None:
        rows[:, :n] += feature_angles(features)
    return StateVector(n, circuit_states(model, rows, convention)[0])


# -- readouts and losses -----------------------------------------------------

def class_prototypes(dataset: Dataset,
                     convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE
                     ) -> list[StateVector]:
    """Per-class reference states for the graph task: the plain graph state
    of each class's mean feature vector (no trainable parameters)."""
    if dataset.task != "graph":
        raise ValueError("class prototypes only apply to the graph task")
    n_classes = max(item.labels for item in dataset.items) + 1
    graph = dataset.items[0].graph
    protos = []
    for c in range(n_classes):
        feats = [item.features for item in dataset.items if item.labels == c]
        if not feats:
            raise ValueError(f"class {c} has no items")
        mean = np.mean(feats, axis=0)
        protos.append(build_graph_state(graph, convention, encode_features(mean)))
    return protos


def _prototypes(dataset: Dataset, convention: EdgeConvention):
    return class_prototypes(dataset, convention) if dataset.task == "graph" else None


def _bce_dp(p: float, y: float) -> float:
    """d(BCE)/dp. Outside [_CLIP, 1 - _CLIP] the loss is clipped flat, so
    the derivative there is 0: a readout clipped below 1e-7 gets no gradient
    even when its label is 1. That is the gradient of the clipped loss, and
    fd and pshift both return it."""
    if p <= _CLIP or p >= 1.0 - _CLIP:
        return 0.0
    return (p - y) / (p * (1.0 - p))


def _targets(item: DataItem, dataset: Dataset, count: int) -> list[float]:
    """An item's readout targets, checked against its `count` readouts."""
    if dataset.task == "node":
        targets = [float(lab) for lab in item.labels if lab is not None]
    elif dataset.task == "edge":
        targets = [float(t) for t in item.labels]
    else:
        targets = [1.0 if c == item.labels else 0.0 for c in range(count)]
    if len(targets) != count:
        raise ValueError(f"{count} readouts vs {len(targets)} targets")
    if count == 0:
        raise ValueError("item produced no readouts (no labeled nodes or edges)")
    return targets


def _squared(dataset: Dataset, loss_kind: str) -> bool:
    """Whether the loss is squared error: edge task, or node task with mse."""
    return dataset.task == "edge" or (dataset.task == "node" and loss_kind == "mse")


def _item_grad(values: list[float], targets: list[float], squared: bool) -> np.ndarray:
    """Gradient of an item's mean loss with respect to its readout values."""
    grad = [2.0 * (p - y) if squared else _bce_dp(p, y) for p, y in zip(values, targets)]
    return np.array(grad) / len(values)


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


def _row_losses(values: list[np.ndarray], dataset: Dataset, loss_kind: str) -> np.ndarray:
    """Mean per-item loss of each parameter row of `values`, summed item by
    item in dataset order. The terms of all items form one block; each
    item's terms add left to right (cumsum, not np.sum's pairwise order), so
    a row has the bits of the scalar loop."""
    counts = [vals.shape[1] for vals in values]
    targets = np.concatenate([_targets(item, dataset, count)
                              for item, count in zip(dataset.items, counts)])
    terms = _loss_terms(np.concatenate(values, axis=1), targets,
                        _squared(dataset, loss_kind))
    losses, start = np.zeros(terms.shape[0]), 0
    for count in counts:
        losses += np.cumsum(terms[:, start:start + count], axis=1)[:, -1] / count
        start += count
    return losses / len(dataset.items)


def _check_compat(model: ModelSpec, dataset: Dataset) -> None:
    for item in dataset.items:
        if item.graph != model.graph:
            raise ValueError("dataset item graph differs from the model graph")


def _fixed_inputs(model: ModelSpec, dataset: Dataset, convention: EdgeConvention):
    """The inputs that parameter updates leave unchanged: the items' layer-0
    angles (their encoded features) and, for the graph task, the class
    prototypes. fit computes them once for every epoch."""
    _check_compat(model, dataset)
    offsets = np.array([feature_angles(item.features) for item in dataset.items])
    return offsets, _prototypes(dataset, convention)


def _exact(model: ModelSpec, dataset: Dataset, rows: np.ndarray,
           convention: EdgeConvention, fixed=None) -> np.ndarray:
    """Exact readouts (B, I, L) of the per-gate angle rows: one executor call."""
    offsets, prototypes = fixed or _fixed_inputs(model, dataset, convention)
    return exact_readouts(model, dataset, rows, convention, prototypes, offsets)


def _model_rows(model: ModelSpec) -> np.ndarray:
    """The model's own parameters as one per-gate angle row."""
    return param_rows(model, params_of(model)[None])


def _shot_rng(config: TrainConfig, rng):
    return np.random.default_rng(config.seed) if config.shots > 0 and rng is None else rng


def model_values(model: ModelSpec, dataset: Dataset, config: TrainConfig,
                 convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
                 rng=None, picks=None) -> list[np.ndarray]:
    """Readout values at the model's own parameters, one (1, L_i) array per
    item: a batch of one parameter row (see executor.draw_readouts for
    picks). Shot mode draws item by item, readout by readout."""
    return draw_readouts(_exact(model, dataset, _model_rows(model), convention), dataset,
                         config.shots, _shot_rng(config, rng), picks=picks)


# -- scoring: every consumer reads row 0 (the model's parameters) or all rows
# of one exact readout array, and draws its own shots in turn

def _loss_of(exact: np.ndarray, dataset: Dataset, config: TrainConfig, rng) -> float:
    values = draw_readouts(exact[:1], dataset, config.shots, rng)
    return float(_row_losses(values, dataset, config.loss)[0])


def _accuracy_of(exact: np.ndarray, dataset: Dataset, config: TrainConfig, rng) -> float:
    values = draw_readouts(exact[:1], dataset, config.shots, rng)
    if dataset.task == "graph":
        hits = [int(np.argmax(vals[0])) == item.labels
                for vals, item in zip(values, dataset.items)]
        return sum(hits) / len(hits)
    vals = np.concatenate(values, axis=1)[0]
    targets = np.array([float(lab) for item in dataset.items for lab in item.labels
                        if lab is not None])
    if dataset.task == "node":
        hits = (vals > 0.5) == (targets != 0.0)
    else:
        hits = np.abs(vals - targets) <= 0.5
    return int(np.count_nonzero(hits)) / hits.size


def loss(model: ModelSpec, dataset: Dataset, config: TrainConfig,
         convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
         rng=None) -> float:
    """Mean per-item loss; deterministic in exact mode (shots = 0)."""
    exact = _exact(model, dataset, _model_rows(model), convention)
    return _loss_of(exact, dataset, config, _shot_rng(config, rng))


def accuracy(model: ModelSpec, dataset: Dataset, config: TrainConfig,
             convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
             rng=None) -> float:
    """Fraction of correct readouts: thresholded bits (node), targets hit
    within 0.5 (edge), or argmax class (graph)."""
    exact = _exact(model, dataset, _model_rows(model), convention)
    return _accuracy_of(exact, dataset, config, _shot_rng(config, rng))


# -- gradients ----------------------------------------------------------------

_SHIFTS = {
    # gate kind -> (shift, prefactor) for the two-point rule
    "Ry": (math.pi / 2.0, 0.5),
    "CP": (math.pi / 2.0, 0.5),
    "IsingZZ": (math.pi / 4.0, 1.0),
}


def _uses_pshift(dataset: Dataset, config: TrainConfig) -> bool:
    """pshift needs Pauli-expectation readouts, so the graph task uses fd."""
    return config.grad == "pshift" and dataset.task != "graph"


def _gradient_rows(model: ModelSpec, dataset: Dataset, config: TrainConfig,
                   convention: EdgeConvention) -> np.ndarray:
    """The per-gate angle rows of one training epoch, the model's own row
    first: the loss and the accuracy read row 0, the gradient reads them
    all. fd follows with base +- eps in each parameter k (rows 2k+1, 2k+2),
    pshift with each gate j's angle +- its shift (rows 2j+1, 2j+2)."""
    if config.grad == "pshift" and dataset.task == "graph":
        warnings.warn("param_shift needs Pauli-expectation readouts; graph-task "
                      "swap scores fall back to finite differences", stacklevel=3)
    base = params_of(model)
    if not _uses_pshift(dataset, config):
        rows = np.tile(base, (2 * base.size + 1, 1))
        for k in range(base.size):
            rows[2 * k + 1, k] = base[k] + config.eps
            rows[2 * k + 2, k] = base[k] - config.eps
        return param_rows(model, rows)
    program = gate_program(model, convention)
    rows = np.tile(param_rows(model, base[None]), (2 * len(program) + 1, 1))
    for j, (kind, _, _) in enumerate(program):
        rows[2 * j + 1, j] += _SHIFTS[kind][0]
        rows[2 * j + 2, j] -= _SHIFTS[kind][0]
    return rows


def _gradient_of(exact: np.ndarray, model: ModelSpec, dataset: Dataset,
                 config: TrainConfig, convention: EdgeConvention, rng) -> np.ndarray:
    """The loss gradient from the exact readouts of _gradient_rows. fd draws
    rows 1.. row-major and takes central differences of their losses. pshift
    draws every row item-major and adds each gate's shift term into its
    parameter slot (so a shared weight sums its layers)."""
    if not _uses_pshift(dataset, config):
        losses = _row_losses(draw_readouts(exact[1:], dataset, config.shots, rng),
                             dataset, config.loss)
        return (losses[0::2] - losses[1::2]) / (2.0 * config.eps)
    program = gate_program(model, convention)
    values = draw_readouts(exact, dataset, config.shots, rng, item_major=True)
    squared = _squared(dataset, config.loss)
    grad = np.zeros(params_of(model).size)
    for vals, item in zip(values, dataset.items):
        base = vals[0].tolist()
        dvals = _item_grad(base, _targets(item, dataset, len(base)), squared)
        for j, (kind, _, slot) in enumerate(program):
            col = _SHIFTS[kind][1] * (vals[2 * j + 1] - vals[2 * j + 2])
            grad[slot] += float(dvals @ col)
    return grad / len(dataset.items)


def gradient(model: ModelSpec, dataset: Dataset, config: TrainConfig,
             convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
             rng=None) -> np.ndarray:
    """Loss gradient over the flat (theta, weights) parameter vector."""
    exact = _exact(model, dataset, _gradient_rows(model, dataset, config, convention),
                   convention)
    return _gradient_of(exact, model, dataset, config, convention, _shot_rng(config, rng))


@dataclass(frozen=True)
class FitResult:
    model: ModelSpec
    history: tuple[float, ...]      # loss at the start of each epoch
    accuracies: tuple[float, ...]


def fit(model: ModelSpec, dataset: Dataset, config: TrainConfig,
        convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> FitResult:
    """Plain gradient descent, p <- p - lr * grad, for config.epochs steps."""
    rng = np.random.default_rng(config.seed) if config.shots > 0 else None
    fixed = _fixed_inputs(model, dataset, convention)
    params = params_of(model)
    current = model
    history, accuracies = [], []
    for epoch in range(config.epochs):
        # one executor call per epoch; loss, accuracy and gradient draw in turn
        exact = _exact(current, dataset, _gradient_rows(current, dataset, config, convention),
                       convention, fixed)
        epoch_loss = _loss_of(exact, dataset, config, rng)
        if not math.isfinite(epoch_loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={epoch_loss}")
        history.append(epoch_loss)
        accuracies.append(_accuracy_of(exact, dataset, config, rng))
        grad = _gradient_of(exact, current, dataset, config, convention, rng)
        params = params - config.learning_rate * grad
        current = with_params(current, params)
    return FitResult(current, tuple(history), tuple(accuracies))
