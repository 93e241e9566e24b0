"""Graph-state neural network assembly.

A model is a graph plus per-layer rotation angles (one per vertex) and
per-layer edge phases. An item's features enter as one array of Ry angles
(encode_features), added to layer 0's rotations. Layers can be realized
three ways:

* superposed: all layer states side by side under an explicit index
  register, (1/sqrt(m)) sum_i |i>|G_i>;
* registered: layer states on m disjoint qubit registers, coupled on demand
  by vertex-aligned controlled-phase gates between consecutive registers;
* sequential: a single register evolved step by step through a schedule of
  entangle / message / pool operations, where measurement outcomes may gate
  later steps.

Pooling comes in three flavors: collapse-and-read (Z measurements), phase
probing (the exact Hadamard-test expectation of a diagonal phase, read in
closed form), and controlled rotations onto a collector qubit. Edge
entanglers, in graph states and in the entangle step, run as
graphstate.edge_program gate programs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import _check_fields
from .graph import Graph, neighborhood
from .graphstate import EdgeConvention, build_graph_state, edge_program
from .sim import (MAX_QUBITS, GateOp, MeasurementRecord, StateVector, apply_gate,
                  diagonal_expectation, measure_qubit, run_program)


class Formalism(Enum):
    SUPERPOSED = "superposed"
    REGISTERED = "registered"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class LayerStep:
    """One schedule entry for the sequential formalism.

    condition, when set, is (record_index, outcome): the step runs only if
    the measurement trace entry at record_index produced that outcome.
    """

    kind: str
    qubits: tuple[int, ...] = ()
    target: int = -1
    phase: float = 0.0
    edges: tuple[tuple[int, int, float], ...] = ()
    condition: tuple[int, int] | None = None

    @classmethod
    def entangle(cls, edges, condition=None) -> LayerStep:
        edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
        return cls("entangle", edges=edges, condition=condition)

    @classmethod
    def message(cls, u: int, phase: float, condition=None) -> LayerStep:
        return cls("message", qubits=(int(u),), phase=float(phase), condition=condition)

    @classmethod
    def measure(cls, group, condition=None) -> LayerStep:
        return cls("pool_measure", qubits=tuple(int(q) for q in group), condition=condition)

    @classmethod
    def phase_probe(cls, group, phase: float, condition=None) -> LayerStep:
        return cls("pool_phase", qubits=tuple(int(q) for q in group),
                   phase=float(phase), condition=condition)

    @classmethod
    def rotate(cls, group, target: int, angle: float, condition=None) -> LayerStep:
        return cls("pool_crot", qubits=tuple(int(q) for q in group),
                   target=int(target), phase=float(angle), condition=condition)

    @classmethod
    def phase_shift(cls, qubit: int, phase: float, condition=None) -> LayerStep:
        """Single-qubit diag(1, e^{i phase}); phase = pi is a plain Z."""
        return cls("phase", qubits=(int(qubit),), phase=float(phase), condition=condition)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.qubits:
            d["qubits"] = list(self.qubits)
        if self.target >= 0:
            d["target"] = self.target
        if self.phase != 0.0:
            d["phase"] = self.phase
        if self.edges:
            d["edges"] = [[u, v, w] for u, v, w in self.edges]
        if self.condition is not None:
            d["condition"] = list(self.condition)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> LayerStep:
        cond = d.get("condition")
        return cls(kind=d["kind"],
                   qubits=tuple(d.get("qubits", ())),
                   target=d.get("target", -1),
                   phase=d.get("phase", 0.0),
                   edges=tuple((u, v, w) for u, v, w in d.get("edges", ())),
                   condition=(cond[0], cond[1]) if cond is not None else None)


_KNOWN_STEPS = ("entangle", "message", "pool_measure", "pool_phase", "pool_crot", "phase")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Trainable model: graph, layer count, per-layer angles and edge phases.

    theta has shape (m, n_vertices); weights has shape (m, n_edges), or
    (1, n_edges) when shared_weights ties the edge phases across layers.
    """

    graph: Graph
    m: int
    formalism: Formalism
    theta: np.ndarray
    weights: np.ndarray
    schedule: tuple[LayerStep, ...] = ()
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
        for step in self.schedule:
            if step.kind not in _KNOWN_STEPS:
                raise ValueError(f"unknown schedule step kind {step.kind!r}")
            endpoints = tuple(q for u, v, _ in step.edges for q in (u, v))
            for q in step.qubits + endpoints + ((step.target,) if step.target >= 0 else ()):
                if not 0 <= q < n:
                    raise ValueError(f"schedule step {step.kind} references qubit {q}, n={n}")
            if any(u == v for u, v, _ in step.edges):
                raise ValueError(f"schedule step {step.kind} has an edge with equal endpoints")

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
        apply_gate(s, GateOp.cp((i - 1) * n + v, i * n + v, float(phases[v])))
    return s


def message_pass(s: StateVector, g: Graph, u: int, w: float) -> StateVector:
    """Pairwise neighborhood update: CP(w) from u to every neighbor of u.

    w = pi makes each pair coupling a plain controlled-Z; an isolated vertex
    is a no-op."""
    for v in sorted(neighborhood(g, u)):
        apply_gate(s, GateOp.cp(u, v, w))
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
        apply_gate(s, GateOp.cry(c, target, theta))
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


@dataclass(frozen=True)
class SequentialRun:
    final: StateVector
    trace: tuple[MeasurementRecord, ...]
    pool_values: tuple[float, ...]  # phase-probe estimates, in schedule order


def run_sequential(model: ModelSpec, rng: np.random.Generator,
                   convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE
                   ) -> SequentialRun:
    """Evolve |G_1> through the schedule; measurement outcomes gate
    condition-carrying steps. Returns the final state and the full trace."""
    state = layer_state(model, 0, convention)
    trace: list[MeasurementRecord] = []
    pool_values: list[float] = []
    for step in model.schedule:
        if step.condition is not None:
            idx, wanted = step.condition
            if not 0 <= idx < len(trace):
                raise ValueError(
                    f"step {step.kind} conditioned on record {idx}, "
                    f"but only {len(trace)} records exist")
            if trace[idx].outcome != wanted:
                continue
        if step.kind == "entangle":
            run_program(state.amps.reshape(1, -1), edge_program(step.edges, convention),
                        [[w for _, _, w in step.edges]])
        elif step.kind == "message":
            message_pass(state, model.graph, step.qubits[0], step.phase)
        elif step.kind == "pool_measure":
            _, records = pool_measure(state, step.qubits, rng)
            trace.extend(records)
        elif step.kind == "pool_phase":
            _, estimate = pool_phase(state, model.graph, step.qubits, step.phase)
            pool_values.append(estimate)
        elif step.kind == "pool_crot":
            pool_crot(state, step.qubits, step.target, step.phase)
        elif step.kind == "phase":
            apply_gate(state, GateOp.phase(step.qubits[0], step.phase))
        else:  # unreachable: ModelSpec validates kinds
            raise ValueError(f"unknown schedule step kind {step.kind!r}")
    return SequentialRun(state, tuple(trace), tuple(pool_values))


CHECKPOINT_VERSION = "qgns-1"


def model_to_dict(model: ModelSpec, seed: int = 0) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "graph": model.graph.to_dict(),
        "m": model.m,
        "formalism": model.formalism.value,
        "theta": model.theta.tolist(),
        "weights": model.weights.tolist(),
        "schedule": [step.to_dict() for step in model.schedule],
        "shared_weights": model.shared_weights,
        "seed": seed,
    }


# checkpoint fields and their readers; the last two are optional (read from ())
_CHECKPOINT_FIELDS = (
    ("graph", Graph.from_dict), ("m", int), ("formalism", Formalism),
    ("theta", lambda t: np.asarray(t, dtype=float)),
    ("weights", lambda t: np.asarray(t, dtype=float)),
    ("schedule", lambda s: tuple(LayerStep.from_dict(sd) for sd in s)), ("shared_weights", bool))


def model_from_dict(d: dict) -> ModelSpec:
    """Model from its checkpoint form; a malformed field raises ValueError naming it."""
    _check_fields(d, "checkpoint", ())
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    _check_fields(d, "checkpoint", tuple(key for key, _ in _CHECKPOINT_FIELDS[:5]))
    fields = {}
    for key, read in _CHECKPOINT_FIELDS:
        try:
            fields[key] = read(d.get(key, ()))
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise ValueError(f"checkpoint field {key!r} is malformed: {exc}") from None
    return ModelSpec(**fields)


def save_model(model: ModelSpec, path, seed: int = 0) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model, seed), indent=2) + "\n",
                          encoding="utf-8")


def load_model(path) -> ModelSpec:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
