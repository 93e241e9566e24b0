"""Classical optimization of the circuit parameters.

The trainable model is the layered circuit: per-layer Ry rotations (layer 0
additionally carries the angle-encoded item features) interleaved with the
graph's edge entanglers, whose phases are the trainable edge weights.
Gradients come from central finite differences (valid for every parameter)
or from the two-point shift rule applied at the readout level; the
optimizer is plain gradient descent. Each loss, accuracy and gradient call
runs all of its circuits through one qgns.executor call, and so does
`model eval` (model_values).

Everything is deterministic: exact mode never touches an rng, shot mode
threads one seeded generator through all estimates.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataItem, Dataset
from .executor import circuit_states, feature_angles, gate_program, param_rows, readout_values
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


def _bce(p: float, y: float) -> float:
    q = min(max(p, _CLIP), 1.0 - _CLIP)
    return -(y * math.log(q) + (1.0 - y) * math.log(1.0 - q))


def _bce_dp(p: float, y: float) -> float:
    """d(_bce)/dp. Outside [_CLIP, 1 - _CLIP] the loss is clipped flat, so
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


def _item_loss(values: list[float], targets: list[float], squared: bool) -> float:
    total = 0.0
    for p, y in zip(values, targets):
        total += (p - y) ** 2 if squared else _bce(p, y)
    return total / len(values)


def _item_grad(values: list[float], targets: list[float], squared: bool) -> np.ndarray:
    """Gradient of _item_loss with respect to the readout values."""
    grad = [2.0 * (p - y) if squared else _bce_dp(p, y) for p, y in zip(values, targets)]
    return np.array(grad) / len(values)


def _row_losses(values: list[np.ndarray], dataset: Dataset, loss_kind: str) -> np.ndarray:
    """Mean per-item loss of each parameter row of `values`, summed item by
    item in dataset order."""
    squared = _squared(dataset, loss_kind)
    losses = [0.0] * values[0].shape[0]
    for vals, item in zip(values, dataset.items):
        targets = _targets(item, dataset, vals.shape[1])
        for b, row in enumerate(vals.tolist()):
            losses[b] += _item_loss(row, targets, squared)
    return np.array(losses) / len(dataset.items)


def _check_compat(model: ModelSpec, dataset: Dataset) -> None:
    for item in dataset.items:
        if item.graph != model.graph:
            raise ValueError("dataset item graph differs from the model graph")


def _fixed_inputs(model: ModelSpec, dataset: Dataset, convention: EdgeConvention):
    """The inputs that parameter updates leave unchanged: the items' layer-0
    angles (their encoded features) and, for the graph task, the class
    prototypes. fit computes them once and hands them to every loss,
    accuracy and gradient call; a call without them computes its own."""
    _check_compat(model, dataset)
    offsets = np.array([feature_angles(item.features) for item in dataset.items])
    return offsets, _prototypes(dataset, convention)


def model_values(model: ModelSpec, dataset: Dataset, config: TrainConfig,
                 convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
                 rng=None, picks=None, *, _fixed=None) -> list[np.ndarray]:
    """Readout values at the model's own parameters, one (1, L_i) array per
    item: a batch of one parameter row (see executor.readout_values for
    picks). Shot mode draws item by item, readout by readout."""
    offsets, prototypes = _fixed or _fixed_inputs(model, dataset, convention)
    if config.shots > 0 and rng is None:
        rng = np.random.default_rng(config.seed)
    return readout_values(model, dataset, param_rows(model, params_of(model)[None]),
                          convention, prototypes, config.shots, rng, offsets=offsets,
                          picks=picks)


def loss(model: ModelSpec, dataset: Dataset, config: TrainConfig,
         convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
         rng=None, *, _fixed=None) -> float:
    """Mean per-item loss; deterministic in exact mode (shots = 0)."""
    values = model_values(model, dataset, config, convention, rng, _fixed=_fixed)
    return float(_row_losses(values, dataset, config.loss)[0])


def accuracy(model: ModelSpec, dataset: Dataset, config: TrainConfig,
             convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE,
             rng=None, *, _fixed=None) -> float:
    """Fraction of correct readouts: thresholded bits (node), targets hit
    within 0.5 (edge), or argmax class (graph)."""
    values = model_values(model, dataset, config, convention, rng, _fixed=_fixed)
    hits, count = 0, 0
    for vals, item in zip(values, dataset.items):
        vals = vals[0]
        if dataset.task == "node":
            targets = [lab for lab in item.labels if lab is not None]
            for p, y in zip(vals, targets):
                hits += int((p > 0.5) == bool(y))
                count += 1
        elif dataset.task == "edge":
            for p, y in zip(vals, item.labels):
                hits += int(abs(p - float(y)) <= 0.5)
                count += 1
        else:
            hits += int(int(np.argmax(vals)) == item.labels)
            count += 1
    return hits / count


# -- gradients ----------------------------------------------------------------

_SHIFTS = {
    # gate kind -> (shift, prefactor) for the two-point rule
    "Ry": (math.pi / 2.0, 0.5),
    "CP": (math.pi / 2.0, 0.5),
    "IsingZZ": (math.pi / 4.0, 1.0),
}


def _fd_gradient(model, dataset, config, convention, rng, fixed) -> np.ndarray:
    """Central differences: the 2P shifted parameter vectors run as one batch."""
    base = params_of(model)
    rows = np.tile(base, (2 * base.size, 1))
    for k in range(base.size):
        rows[2 * k, k] = base[k] + config.eps
        rows[2 * k + 1, k] = base[k] - config.eps
    offsets, prototypes = fixed
    values = readout_values(model, dataset, param_rows(model, rows), convention,
                            prototypes, config.shots, rng, offsets=offsets)
    losses = _row_losses(values, dataset, config.loss)
    return (losses[0::2] - losses[1::2]) / (2.0 * config.eps)


def _pshift_gradient(model, dataset, config, convention, rng, offsets) -> np.ndarray:
    """Two-point shift rule over the gate program: the base row and each
    gate's +-shift rows run as one batch, and each gate's term adds into its
    parameter slot (so a shared weight sums its layers)."""
    program = gate_program(model, convention)
    rows = np.tile(param_rows(model, params_of(model)[None]), (2 * len(program) + 1, 1))
    for j, (kind, _, _) in enumerate(program):
        rows[2 * j + 1, j] += _SHIFTS[kind][0]
        rows[2 * j + 2, j] -= _SHIFTS[kind][0]
    # the graph task never reaches here, so no prototypes
    values = readout_values(model, dataset, rows, convention, None, config.shots, rng,
                            offsets, item_major=True)
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
             rng=None, *, _fixed=None) -> np.ndarray:
    """Loss gradient over the flat (theta, weights) parameter vector."""
    fixed = _fixed or _fixed_inputs(model, dataset, convention)
    if config.shots > 0 and rng is None:
        rng = np.random.default_rng(config.seed)
    if config.grad == "fd":
        return _fd_gradient(model, dataset, config, convention, rng, fixed)
    if dataset.task == "graph":
        warnings.warn("param_shift needs Pauli-expectation readouts; graph-task "
                      "swap scores fall back to finite differences", stacklevel=2)
        return _fd_gradient(model, dataset, config, convention, rng, fixed)
    return _pshift_gradient(model, dataset, config, convention, rng, fixed[0])


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
        epoch_loss = loss(current, dataset, config, convention, rng, _fixed=fixed)
        if not math.isfinite(epoch_loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={epoch_loss}")
        history.append(epoch_loss)
        accuracies.append(accuracy(current, dataset, config, convention, rng, _fixed=fixed))
        params = params - config.learning_rate * gradient(current, dataset, config,
                                                          convention, rng, _fixed=fixed)
        current = with_params(current, params)
    return FitResult(current, tuple(history), tuple(accuracies))
