"""Graph-state neural network assembly.

A model is a graph plus per-layer rotation angles (one per vertex) and
per-layer edge phases, and it is the sequential layered circuit: per layer,
Ry on every vertex, then each edge's entangler (executor.gate_program). An
item's features enter as one array of Ry angles (encode_features), added
to layer 0's rotations.

The module also keeps the other graph-state layers as library functions,
each with its own tests: the superposed state of the layer states under an
explicit index register, (1/sqrt(m)) sum_i |i>|G_i>; the registered state
on m disjoint qubit registers, coupled on demand by vertex-aligned
controlled-phase gates; neighborhood message passing; and three pooling
flavors: collapse-and-read (Z measurements), phase probing (the exact
Hadamard-test expectation of a diagonal phase, read in closed form), and
controlled rotations onto a collector qubit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _check_fields
from .graph import Graph, neighborhood
from .graphstate import EdgeConvention, build_graph_state, edge_program
from .sim import (MAX_QUBITS, GateOp, MeasurementRecord, StateVector, apply_gate,
                  diagonal_expectation, measure_qubit)


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

    def layer_weights(self, i: int) -> np.ndarray:
        return self.weights[0] if self.shared_weights else self.weights[i]


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


def layer_state(model: ModelSpec, i: int,
                convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> StateVector:
    """The i-th layer's graph state |G_i> (Ry init from theta[i])."""
    return build_graph_state(model.graph, convention, model.theta[i], model.layer_weights(i))


def index_register_width(m: int) -> int:
    return (m - 1).bit_length()


def build_superposed(model: ModelSpec,
                     convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> StateVector:
    """(1/sqrt(m)) sum_i |i>|G_i> with an explicit ceil(log2 m)-qubit index
    register above the data qubits (m=1 degenerates to |G_1> alone)."""
    n = model.graph.n_vertices
    a = index_register_width(model.m)
    if a + n > MAX_QUBITS:
        raise ValueError(f"superposed model needs {a + n} qubits, cap is {MAX_QUBITS}")
    dim = 1 << (a + n)
    amps = np.zeros(dim, dtype=complex)
    scale = 1.0 / math.sqrt(model.m)
    for i in range(model.m):
        block = layer_state(model, i, convention)
        amps[i << n:(i << n) + (1 << n)] = block.amps * scale
    return StateVector(a + n, amps)


def build_registered(model: ModelSpec,
                     convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> StateVector:
    """|G_1> ... |G_m> on m disjoint n-qubit registers (register i on qubits
    i*n .. i*n + n - 1)."""
    n = model.graph.n_vertices
    if model.m * n > MAX_QUBITS:
        raise ValueError(f"registered model needs {model.m * n} qubits, cap is {MAX_QUBITS}")
    acc = np.ones(1, dtype=complex)
    for i in reversed(range(model.m)):
        acc = np.kron(acc, layer_state(model, i, convention).amps)
    return StateVector(model.m * n, acc)


def apply_interlayer(s: StateVector, model: ModelSpec, i: int, w) -> StateVector:
    """Couple registers i-1 and i of a registered state: CP(w_v) from
    register i-1's qubit v to register i's qubit v, for every vertex v."""
    n = model.graph.n_vertices
    if not 1 <= i < model.m:
        raise ValueError(f"interlayer index must be in [1, {model.m}), got {i}")
    phases = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    for v in range(n):
        apply_gate(s, GateOp("CP", ((i - 1) * n + v, i * n + v), float(phases[v])))
    return s


def message_pass(s: StateVector, g: Graph, u: int, w: float) -> StateVector:
    """Pairwise neighborhood update: CP(w) from u to every neighbor of u.

    w = pi makes each pair coupling a plain controlled-Z; an isolated vertex
    is a no-op."""
    for v in sorted(neighborhood(g, u)):
        apply_gate(s, GateOp("CP", (u, v), w))
    return s


def neighborhood_groups(g: Graph) -> list[tuple[int, ...]]:
    """Default pooling groups: each vertex together with its neighborhood."""
    return [tuple(sorted(neighborhood(g, v) | {v})) for v in range(g.n_vertices)]


def pool_measure(s: StateVector, group, rng: np.random.Generator
                 ) -> tuple[list[int], list[MeasurementRecord]]:
    """Z-measure each group qubit in ascending order, collapsing s in place.

    Returns (outcomes, records); the last outcome is the global readout when
    the group exhausts the register."""
    group = tuple(group)
    if len(set(group)) != len(group):
        raise ValueError(f"pool group has duplicate qubits: {group}")
    outcomes, records = [], []
    for q in sorted(group):
        rec, s = measure_qubit(s, q, "Z", rng)
        outcomes.append(rec.outcome)
        records.append(rec)
    return outcomes, records


def pool_phase(s: StateVector, g: Graph, group, w: float) -> tuple[float, float]:
    """Exact Hadamard-test statistics for the phase accumulated inside a group.

    U is the product of CP(w) over every graph edge with both endpoints in
    the group; returns (p0, estimate) with p0 = (1 + Re<s|U|s>)/2 and
    estimate = Re<s|U|s>. The state is not modified.
    """
    group = set(group)
    if not group:
        raise ValueError("pool group must be nonempty")
    inner = [edge for edge in g.edges if edge[0] in group and edge[1] in group]
    re = diagonal_expectation(s, edge_program(inner, EdgeConvention.CONTROLLED_PHASE),
                              [w] * len(inner))
    return 0.5 * (1.0 + re), re


def pool_crot(s: StateVector, group, target: int, theta: float) -> StateVector:
    """CRy(theta) from each group qubit onto target, ascending control order.

    Controls with a shared target do not commute in general, so the order is
    part of the contract."""
    group = tuple(group)
    if target in group:
        raise ValueError(f"pool target {target} must not be in the group")
    for c in sorted(group):
        apply_gate(s, GateOp("CRy", (c, target), theta))
    return s


def periodic_readout(phase: float, post: str | None = None) -> float:
    """Cosine readout (1 + cos(phase))/2 in [0, 1].

    post composes a classical aperiodic map on the same signal: "sigmoid"
    returns the logistic of cos(phase), "step" thresholds it at zero.
    """
    if post is None:
        return 0.5 * (1.0 + math.cos(phase))
    if post == "sigmoid":
        return 1.0 / (1.0 + math.exp(-math.cos(phase)))
    if post == "step":
        return 1.0 if math.cos(phase) > 0.0 else 0.0
    raise ValueError(f"unknown post map {post!r}")


CHECKPOINT_VERSION = "qgns-1"

# checkpoint fields that hold one value in every model; the format keeps them
_CONSTANT_FIELDS = (("formalism", "sequential"), ("schedule", []))


def model_to_dict(model: ModelSpec, seed: int = 0,
                  convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "graph": model.graph.to_dict(),
        "m": model.m,
        "formalism": "sequential",
        "convention": convention.value,
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
    return np.asarray(value, dtype=float)


# checkpoint fields and their readers; shared_weights is optional (default false)
_CHECKPOINT_FIELDS = (
    ("graph", Graph.from_dict), ("m", _exactly(int)), ("theta", _floats),
    ("weights", _floats), ("shared_weights", _exactly(bool)))


def model_from_dict(d: dict) -> ModelSpec:
    """Model from its checkpoint form; a malformed field raises ValueError
    naming it, and so does a formalism other than "sequential" or a
    non-empty schedule."""
    _check_fields(d, "checkpoint", ())
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    _check_fields(d, "checkpoint", ("graph", "m", "formalism", "theta", "weights"))
    for key, value in _CONSTANT_FIELDS:
        if d.get(key, value) != value:
            raise ValueError(f"checkpoint field {key!r} must be {value!r}, got {d[key]!r}: "
                             f"a model is its layered circuit")
    fields = {}
    for key, read in _CHECKPOINT_FIELDS:
        try:
            fields[key] = read(d.get(key, False))
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise ValueError(f"checkpoint field {key!r} is malformed: {exc}") from None
    return ModelSpec(**fields)


def save_model(model: ModelSpec, path, seed: int = 0,
               convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE) -> None:
    """Write the checkpoint of a model trained under `convention`."""
    Path(path).write_text(json.dumps(model_to_dict(model, seed, convention), indent=2) + "\n",
                          encoding="utf-8")


def load_model(path) -> tuple[ModelSpec, EdgeConvention | None]:
    """A checkpoint's model and the edge convention it was trained under
    (None for a checkpoint written without the field)."""
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    model = model_from_dict(d)
    if "convention" not in d:
        return model, None
    try:
        return model, EdgeConvention(d["convention"])
    except ValueError:
        raise ValueError(f"checkpoint field 'convention' must be 'cp' or 'ising', "
                         f"got {d['convention']!r}") from None
