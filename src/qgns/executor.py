"""The one circuit executor behind training and evaluation.

It compiles the sequential layered circuit (per layer, Ry on every vertex,
then each edge's entangler) to one gate program of (kind, qubits, parameter
slot) entries, and runs it for every (parameter row, item) pair of a
training epoch or `model eval` call, as (circuits, 2^n) amplitude stacks of
at most _STACK_BYTES each (or one state, when a state is larger). It reads
out every circuit exactly with the closed-form readouts of qgns.tasks
(exact_readouts); draw_readouts then picks each consumer's readouts and
draws its shots. Layer 0's Ry passes act on |0...0>, so their product state
is prepared in closed form (sim.product_rows). A circuit's result never
depends on the other circuits in its stack, so a stack of one gives the
same numbers.
"""
from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .graphstate import EdgeConvention, edge_kind
from .qgnn import Formalism, ModelSpec, encode_features
from .sim import apply_rows, product_rows
from .tasks import binomial_estimate, edge_zz, node_p1, sign_estimate, swap_tests

_STACK_BYTES = 1 << 20  # amplitude stack per chunk of circuits: 1 MiB, cache-sized


def feature_angles(features) -> np.ndarray:
    """An item's layer-0 Ry offsets: its angle-encoded features."""
    _, enc = encode_features(features, "angle")
    return np.asarray(enc)


def gate_program(model: ModelSpec,
                 convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE
                 ) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """The sequential circuit in run order, one (kind, qubits, slot) per gate:
    per layer, Ry on every vertex, then each edge's entangler. slot indexes
    the flat parameter vector (theta entries, then edge weights), so a shared
    edge weight gives its gate in every layer one slot. Only the entangler
    kind depends on the convention."""
    if model.formalism is not Formalism.SEQUENTIAL:
        raise ValueError(f"training and evaluation run the sequential circuit only, "
                         f"not the {model.formalism.value!r} formalism")
    if model.schedule:
        raise ValueError(f"training and evaluation do not run schedules; the model "
                         f"has {len(model.schedule)} schedule steps")
    n, edges = model.graph.n_vertices, model.graph.edges
    kind = edge_kind(convention)
    program = []
    for layer in range(model.m):
        program += [("Ry", (v,), layer * n + v) for v in range(n)]
        first = model.theta.size + (0 if model.shared_weights else layer * len(edges))
        program += [(kind, (u, v), first + k) for k, (u, v, _) in enumerate(edges)]
    return tuple(program)


def param_rows(model: ModelSpec, params: np.ndarray) -> np.ndarray:
    """Flat parameter vectors (B, P) as per-gate angle rows (B, G), one
    column per gate of gate_program."""
    return params[:, [slot for _, _, slot in gate_program(model)]]


def circuit_states(model: ModelSpec, rows: np.ndarray,
                   convention: EdgeConvention) -> np.ndarray:
    """Run gate_program once per row of per-gate angles (C, G), whose first
    n columns (layer 0's Ry) include the item's encoded features. Returns
    the (C, 2^n) amplitude stack. Each row is computed exactly as it would
    be alone, whatever C.
    """
    program = gate_program(model, convention)
    n = model.graph.n_vertices
    # layer 0's Ry passes on |0...0> leave a product state: prepare it directly
    amps = product_rows(rows[:, :n])
    for j, (kind, qubits, _) in enumerate(program[n:], n):
        apply_rows(amps, kind, qubits, rows[:, j])
    return amps


def _readouts(amps: np.ndarray, model: ModelSpec, dataset: Dataset,
              prototypes) -> np.ndarray:
    """Every exact readout of every state in an amplitude stack, one row per
    state: node p1's, edge <ZZ>'s, or swap-test p0's."""
    n = model.graph.n_vertices
    if dataset.task == "graph":
        return swap_tests(amps, np.array([p.amps for p in prototypes]))[0]
    if dataset.task == "node":
        columns = [node_p1(amps, v, dataset.node_basis) for v in range(n)]
    else:
        columns = [edge_zz(amps, u, v) for u, v, _ in model.graph.edges]
    return np.stack(columns, axis=-1) if columns else np.zeros((amps.shape[0], 0))


def exact_readouts(model: ModelSpec, dataset: Dataset, rows: np.ndarray,
                   convention: EdgeConvention, prototypes,
                   offsets: np.ndarray | None = None) -> np.ndarray:
    """Exact readouts of every (parameter row, item) circuit, as a (B, I, L)
    array: the p1 of every node, the <ZZ> of every edge, or the swap-test p0
    against each prototype (before any shot draw).

    rows holds B per-gate angle rows (param_rows); each item's encoded
    features add to the layer-0 Ry columns. The B * I circuits run in
    row-major chunks whose stack stays within _STACK_BYTES.
    """
    if offsets is None:
        offsets = np.array([feature_angles(item.features) for item in dataset.items])
    n_rows, items = rows.shape[0], offsets.shape[0]
    total = np.repeat(rows, items, axis=0)
    total[:, :model.graph.n_vertices] += np.tile(offsets, (n_rows, 1))
    step = max(1, _STACK_BYTES // (16 << model.graph.n_vertices))
    chunks = [_readouts(circuit_states(model, total[k:k + step], convention),
                        model, dataset, prototypes)
              for k in range(0, n_rows * items, step)]
    return np.concatenate(chunks).reshape(n_rows, items, chunks[0].shape[-1])


def draw_readouts(exact: np.ndarray, dataset: Dataset, shots: int = 0, rng=None,
                  item_major: bool = False, picks=None) -> list[np.ndarray]:
    """The readout values of an exact_readouts array, one (B, L_i) array per
    item: the readouts that picks[i] selects, by default the p1's of its
    labeled nodes, the <ZZ>'s of all edges, or the swap-test scores
    clip(2 p0 - 1) against each prototype. Shot mode draws in (row, item,
    readout) order, or in (item, row, readout) order with item_major; the
    graph task draws every p0 in (row, item, prototype) order.
    """
    if picks is None:
        picks = [[v for v, lab in enumerate(item.labels) if lab is not None]
                 if dataset.task == "node" else slice(None) for item in dataset.items]
    if dataset.task == "graph":
        p0 = exact if shots == 0 else binomial_estimate(exact, shots, rng)
        scores = np.clip(2.0 * p0 - 1.0, 0.0, 1.0)
        return [scores[:, i, pick] for i, pick in enumerate(picks)]
    values = [exact[:, i, pick] for i, pick in enumerate(picks)]
    if shots == 0:
        return values
    estimate = binomial_estimate if dataset.task == "node" else sign_estimate
    if item_major:
        return [estimate(vals, shots, rng) for vals in values]
    drawn = estimate(np.concatenate(values, axis=1), shots, rng)
    return np.split(drawn, np.cumsum([vals.shape[1] for vals in values])[:-1], axis=1)


def readout_values(model: ModelSpec, dataset: Dataset, rows: np.ndarray,
                   convention: EdgeConvention, prototypes,
                   shots: int = 0, rng=None, offsets: np.ndarray | None = None,
                   item_major: bool = False, picks=None) -> list[np.ndarray]:
    """Readout values of every (parameter row, item) circuit: exact_readouts,
    then draw_readouts."""
    return draw_readouts(exact_readouts(model, dataset, rows, convention, prototypes, offsets),
                         dataset, shots, rng, item_major, picks)
