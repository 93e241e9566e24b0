"""Graph-state neural network models and their checkpoints.

A model is a graph plus per-layer rotation angles (one per vertex),
per-layer edge phases and an edge convention, and it is the sequential
layered circuit: per layer, Ry on every vertex, then each edge's entangler
of that convention (executor.gate_program). An item's features enter as Ry
angles (encode_features) added to layer 0's. A checkpoint is its JSON form.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _check_fields
from .graph import Graph, _replace_text
from .graphstate import EdgeConvention


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Trainable model: graph, layer count, per-layer angles and edge phases,
    run as the layered circuit that executor.gate_program compiles.

    theta has shape (m, n_vertices); weights has shape (m, n_edges), or
    (1, n_edges) when shared_weights ties the edge phases across layers.
    """

    graph: Graph
    m: int
    theta: np.ndarray
    weights: np.ndarray
    shared_weights: bool = False
    convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"layer count must be >= 1, got {self.m}")
        n, e = self.graph.n_vertices, self.graph.n_edges
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.theta.shape != (self.m, n):
            raise ValueError(f"theta shape {self.theta.shape} != ({self.m}, {n})")
        rows = 1 if self.shared_weights else self.m
        if self.weights.shape != (rows, e):
            raise ValueError(f"weights shape {self.weights.shape} != ({rows}, {e})")


def encode_features(x) -> np.ndarray:
    """A feature vector's layer-0 Ry angles: x min-max normalized to [0, 1]
    and scaled to [0, pi] (a constant vector maps to pi/2 everywhere, i.e. |+>)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty feature vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    lo, hi = float(x.min()), float(x.max())
    scaled = np.full(x.shape, 0.5) if hi - lo < 1e-300 else (x - lo) / (hi - lo)
    return math.pi * scaled


CHECKPOINT_VERSION = "qgns-1"

# checkpoint fields that hold one value in every model; the format keeps them
_CONSTANT_FIELDS = (("formalism", "sequential"), ("schedule", []))


def model_to_dict(model: ModelSpec, seed: int = 0) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "graph": model.graph.to_dict(),
        "m": model.m,
        "formalism": "sequential",
        "convention": model.convention.value,
        "theta": model.theta.tolist(),
        "weights": model.weights.tolist(),
        "schedule": [],
        "shared_weights": model.shared_weights,
        "seed": seed,
    }


def _exactly(kind: type):
    """A reader that passes a JSON value of exactly this type through (so a
    bool is not an int, and 1.9 or "1" is not one either)."""
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
        return value
    return read


def _floats(value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


# checkpoint fields and their readers; shared_weights (default false) and seed
# are optional, and the seed is the training run's, not part of the model
_CHECKPOINT_FIELDS = (
    ("graph", Graph.from_dict), ("m", _exactly(int)), ("theta", _floats),
    ("weights", _floats), ("shared_weights", _exactly(bool)), ("seed", _exactly(int)))
_KNOWN_FIELDS = {"version", "convention"} | {
    key for key, _ in _CONSTANT_FIELDS + _CHECKPOINT_FIELDS}


def model_from_dict(d: dict,
                    convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> ModelSpec:
    """Model from its checkpoint form, under its recorded edge convention
    (`convention` when it records none); a malformed or unknown field raises
    ValueError naming it, and so does a formalism other than "sequential" or
    a non-empty schedule."""
    _check_fields(d, "checkpoint", ())
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    for key in d:
        if key not in _KNOWN_FIELDS:
            raise ValueError(f"checkpoint field {key!r} is not part of the {CHECKPOINT_VERSION} "
                             f"format")
    _check_fields(d, "checkpoint", ("graph", "m", "formalism", "theta", "weights"))
    for key, value in _CONSTANT_FIELDS:
        if d.get(key, value) != value:
            raise ValueError(f"checkpoint field {key!r} must be {value!r}, got {d[key]!r}: "
                             f"a model is its layered circuit")
    fields = {}
    for key, read in _CHECKPOINT_FIELDS:
        try:
            if key in d:
                fields[key] = read(d[key])
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise ValueError(f"checkpoint field {key!r} is malformed: {exc}") from None
    fields.pop("seed", None)
    try:
        fields["convention"] = EdgeConvention(d.get("convention", convention))
    except ValueError:
        raise ValueError(f"checkpoint field 'convention' must be 'cp' or 'ising', "
                         f"got {d['convention']!r}") from None
    return ModelSpec(**fields)


def save_model(model: ModelSpec, path, seed: int = 0) -> None:
    """Write a model's checkpoint."""
    _replace_text(path, json.dumps(model_to_dict(model, seed), indent=2) + "\n")


def load_model(path, convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> ModelSpec:
    """A checkpoint's model, under the edge convention it records
    (`convention` for a checkpoint written without the field)."""
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), convention)
