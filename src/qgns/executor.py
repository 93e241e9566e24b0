"""The one circuit executor behind training and evaluation.

compile_circuit compiles a model and a dataset once into a Circuit: the
model's layered circuit (per layer, Ry on every vertex, then each edge's
entangler of the model's convention), which is all a ModelSpec describes,
as one gate program of (kind, qubits, parameter slot) entries, plus the
items' encoded features and the readout spec. exact_readouts runs
the program (sim.run_program) for every (parameter row, item) pair, as
(circuits, 2^n) amplitude stacks of at most _STACK_BYTES each (or one state,
when larger), and reads every circuit out exactly with the closed forms of
qgns.tasks; draw_readouts gathers each consumer's readouts with one take
and draws their shots. Layer 0's Ry passes act on |0...0>, so their product state is
prepared directly (sim.product_rows). A circuit's result never depends on
the rest of its stack. The graph task's class prototypes are prepared the
same way (class_prototypes).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .graph import Graph
from .graphstate import EdgeConvention, edge_program
from .qgnn import ModelSpec, encode_features
from .sim import product_rows, run_program
from .tasks import binomial_estimate, edge_zzs, node_p1, sign_estimate, swap_tests

_STACK_BYTES = 1 << 20  # amplitude stack per chunk of circuits: 1 MiB, cache-sized


def gate_program(model: ModelSpec) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """The layered circuit in run order, one (kind, qubits, slot) per gate:
    per layer, Ry on every vertex, then each edge's entangler. slot indexes
    the flat parameter vector (theta entries, then edge weights), so a shared
    edge weight gives its gate in every layer one slot. The entanglers are
    graphstate.edge_program's, so only their kind depends on model.convention."""
    n, edges = model.graph.n_vertices, model.graph.edges
    program = ()
    for layer in range(model.m):
        program += tuple(("Ry", (v,), layer * n + v) for v in range(n))
        first = model.theta.size + (0 if model.shared_weights else layer * len(edges))
        program += edge_program(edges, model.convention, first)
    return program


def param_rows(program, params: np.ndarray) -> np.ndarray:
    """Flat parameter vectors (B, P) as per-gate angle rows (B, G), one
    column per gate of the program."""
    return params[:, [slot for _, _, slot in program]]


def circuit_states(program, n: int, rows: np.ndarray) -> np.ndarray:
    """Run the program on n qubits once per row of per-gate angles (C, G),
    whose first n columns (layer 0's Ry) include the item's encoded
    features. Returns the (C, 2^n) amplitude stack. Each row is computed
    exactly as it would be alone, whatever C.
    """
    # layer 0's Ry passes on |0...0> leave a product state: prepare it directly
    return run_program(product_rows(rows[:, :n]), program[n:], rows[:, n:])


def class_prototypes(dataset: Dataset,
                     convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE
                     ) -> np.ndarray:
    """The graph task's per-class reference states as a (C, 2^n) stack: row
    c is the plain graph state (no trainable parameters) of class c's mean
    feature vector, encoded as Ry angles on |0...0>, with the graph's own
    edge weights. Each row is computed exactly as it would be alone. A class
    whose mean overflows float64 raises ValueError naming it."""
    if dataset.task != "graph":
        raise ValueError("class prototypes only apply to the graph task")
    means = []
    for c in range(max(item.labels for item in dataset.items) + 1):
        feats = [item.features for item in dataset.items if item.labels == c]
        if not feats:
            raise ValueError(f"class {c} has no items")
        with np.errstate(over="ignore"):
            mean = np.mean(feats, axis=0)
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"the mean features of class {c} overflow float64")
        means.append(encode_features(mean))
    edges = dataset.items[0].graph.edges
    weights = np.tile([w for _, _, w in edges], (len(means), 1))
    return run_program(product_rows(means), edge_program(edges, convention), weights)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A model compiled against a dataset: everything an executor call needs
    besides the per-gate angle rows. compile_circuit builds it."""

    program: tuple[tuple[str, tuple[int, ...], int], ...]  # gate_program
    graph: Graph
    dataset: Dataset                 # read for its task and node basis
    angles: np.ndarray               # (I, n): each item's encoded features
    prototypes: np.ndarray | None    # (C, 2^n) class prototypes, graph task only
    picks: np.ndarray                # flat columns of the items' default readouts


def compile_circuit(model: ModelSpec, dataset: Dataset) -> Circuit:
    """Compile the inputs that parameter updates leave unchanged: the
    model's gate program, every item's encoded features, the graph task's
    class prototypes and the flat (item, readout) columns of every item's
    default picks (the labeled nodes of a node item, every readout
    otherwise; see draw_readouts). First, before any array work on the
    items, raise ValueError naming the first item whose graph is not the
    model's, by its 0-based index."""
    for k, item in enumerate(dataset.items):
        if item.graph != model.graph:
            raise ValueError(f"dataset item {k} graph differs from the model graph")
    program = gate_program(model)
    angles = np.array([encode_features(item.features) for item in dataset.items])
    stack = class_prototypes(dataset, model.convention) if dataset.task == "graph" else None
    picks = [[v for v, lab in enumerate(item.labels) if lab is not None]
             if dataset.task == "node" else slice(None) for item in dataset.items]
    width = (len(stack) if dataset.task == "graph" else model.graph.n_edges
             if dataset.task == "edge" else model.graph.n_vertices)
    return Circuit(program, model.graph, dataset, angles, stack, _columns(picks, width))


def _columns(picks, width: int) -> np.ndarray:
    """The flat columns of a (B, I * width) readout block that picks[i] (a
    list or slice of item i's width readouts) select, item by item."""
    readouts = np.arange(width)
    return np.concatenate([i * width + readouts[pick] for i, pick in enumerate(picks)])


def _readouts(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Every exact readout of every state in an amplitude stack, one row per
    state: node p1's, edge <ZZ>'s, or swap-test p0's."""
    if circuit.dataset.task == "graph":
        return swap_tests(amps, circuit.prototypes)[0]
    if circuit.dataset.task == "node":
        return node_p1(amps, range(circuit.graph.n_vertices), circuit.dataset.node_basis)
    return edge_zzs(amps, [(u, v) for u, v, _ in circuit.graph.edges])


def exact_readouts(circuit: Circuit, rows: np.ndarray) -> np.ndarray:
    """Exact readouts of every (parameter row, item) circuit, as a (B, I, L)
    array: the p1 of every node, the <ZZ> of every edge, or the swap-test p0
    against each prototype (before any shot draw).

    rows holds B per-gate angle rows (param_rows); each item's encoded
    features add to the layer-0 Ry columns. The B * I circuits run in
    row-major chunks whose stack stays within _STACK_BYTES.
    """
    n = circuit.graph.n_vertices
    n_rows, items = rows.shape[0], circuit.angles.shape[0]
    total = np.repeat(rows, items, axis=0)
    total[:, :n] += np.tile(circuit.angles, (n_rows, 1))
    step = max(1, _STACK_BYTES // (16 << n))
    chunks = [_readouts(circuit_states(circuit.program, n, total[k:k + step]), circuit)
              for k in range(0, n_rows * items, step)]
    exact = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return exact.reshape(n_rows, items, exact.shape[-1])


def draw_readouts(exact: np.ndarray, circuit: Circuit, shots: int = 0, rng=None,
                  item_major: bool = False, picks=None) -> np.ndarray:
    """The readout values of a (B, I, L) exact_readouts array, as one (B, M)
    block gathered with one take: item by item, the readouts that picks[i]
    selects (by default circuit.picks: the p1's of its labeled nodes, the
    <ZZ>'s of all edges, or the swap-test scores clip(2 p0 - 1) against
    each prototype). Shot mode draws in the block's (row, item, readout)
    order, or in (item, row, readout) order with item_major; the graph task
    draws every p0 in (row, item, prototype) order.
    """
    columns = circuit.picks if picks is None else _columns(picks, exact.shape[-1])
    values = exact.reshape(len(exact), -1)
    if circuit.dataset.task == "graph":
        if shots:
            values = binomial_estimate(values, shots, rng)
        return np.clip(2.0 * values.take(columns, axis=1) - 1.0, 0.0, 1.0)
    values = values.take(columns, axis=1)
    if shots == 0:
        return values
    estimate = binomial_estimate if circuit.dataset.task == "node" else sign_estimate
    if not item_major:
        return estimate(values, shots, rng)
    bounds = np.searchsorted(columns, np.arange(1, exact.shape[1]) * exact.shape[-1])
    return np.concatenate([estimate(vals, shots, rng)
                           for vals in np.split(values, bounds, axis=1)], axis=1)
