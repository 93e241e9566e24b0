"""Graph-state construction, verification and measurement.

A graph state entangles one qubit per vertex by applying a two-qubit phase
gate along every edge of |+>^n. edge_program describes the entanglers of a
list of edges as a gate program that sim.run_program applies, the same
description the trainer's circuits use (qgns.executor.gate_program) and
the graph task's class prototypes, whose qubits start in the Ry product
state of an encoding instead (qgns.executor.class_prototypes). Two
edge-gate conventions are supported:

* ControlledPhase: Uz(u,v,w) = diag(1,1,1,e^{iw}). With w = pi this is the
  controlled-Z, and the built amplitudes obey the closed form
  e^{i(1/2) W.A.W} / sqrt(2^n) on the |+>^n init (see
  decomposition_amplitude).
* IsingZZ: the symmetric coupling e^{-iw Z(x)Z}. Equivalent to a
  controlled-phase up to single-qubit Z rotations and a global phase, but
  with a reweighting: IsingZZ(w) matches CP(-4w) that way.

Stabilizer checks apply only to unweighted graphs (weight pi, CP
convention); weighted edge phases leave the Pauli stabilizer group. The
measurements on a built state are the stabilizer pattern of one vertex
(constraint_round) and Z-basis pooling over a group of qubits
(pool_measure).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Graph, adjacency_matrix, neighborhood
from .sim import (PAIRWISE_LEAF, MeasurementRecord, StateVector, block_sums, measure_qubit,
                  new_state, pairwise_tree, qubit_pairs, run_parts, run_program, split_parts)


class EdgeConvention(Enum):
    CONTROLLED_PHASE = "cp"
    ISING_ZZ = "ising"

    @property
    def kind(self) -> str:
        """The gate kind of the edge entangler under this convention."""
        return "CP" if self is EdgeConvention.CONTROLLED_PHASE else "IsingZZ"


def edge_program(edges, convention: EdgeConvention, first: int = 0
                 ) -> tuple[tuple[str, tuple[int, int], int], ...]:
    """The entanglers of (u, v, w) edges under the given convention, as a
    gate program: edge k becomes (kind, (u, v), first + k). The weights
    are not part of it; the program's angle rows carry them."""
    return tuple((convention.kind, (u, v), first + k) for k, (u, v, _) in enumerate(edges))


def build_graph_state(g: Graph, convention: EdgeConvention = EdgeConvention.CONTROLLED_PHASE
                      ) -> StateVector:
    """Prepare |+> on every vertex, then entangle along every edge with its
    weight; the gates are diagonal, so edge order is irrelevant."""
    s = new_state(g.n_vertices, "plus")
    run_program(s.amps.reshape(1, -1), edge_program(g.edges, convention),
                [[w for _, _, w in g.edges]])
    return s


@dataclass(frozen=True)
class StabilizerReport:
    residuals: tuple[float, ...]  # per-vertex ||S_v s - s||
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def verify_stabilizers(g: Graph, s: StateVector, tol: float = 1e-10) -> StabilizerReport:
    """Per-vertex Euclidean residual ||S_v s - s||; passes iff all < tol.

    S_v = X_v prod_{u in N(v)} Z_u maps the amplitude pair (a0, a1) that
    differs only in bit v to (z a1, z a0), with z = +-1 the parity sign of
    the neighbour bits, so both halves of the residual have the magnitude
    |z a1 - a0| and ||S_v s - s|| = sqrt(2) ||z a1 - a0||. The norm is the
    square root of the pairwise np.sum of the squared real and imaginary
    parts of z a1 - a0, whatever BLAS is linked and however many threads it
    runs. Each of the sim.split_parts parts writes its run of the pairs
    into one buffer of half the state, reused for every vertex.
    """
    if s.n_qubits != g.n_vertices:
        raise ValueError(
            f"state has {s.n_qubits} qubits but graph has {g.n_vertices} vertices")
    parts = split_parts(s.dim)
    runs = np.empty(s.dim // 2, dtype=complex).reshape(parts, -1)
    # flat pair index of the a1 half: bit u of the state index for u < v,
    # bit u + 1 for u > v
    flips = [[u if u < v else u - 1 for u in neighborhood(g, v)] for v in range(g.n_vertices)]
    inside = runs.shape[1].bit_length() - 1     # pair-index bits within one part
    sums = np.empty((g.n_vertices, parts, -(-2 * runs.shape[1] // PAIRWISE_LEAF)))

    def part(p):
        for v, bits in enumerate(flips):
            pairs = qubit_pairs(s.amps, v, parts, p)
            diff = runs[p].reshape(pairs[..., 1, :].shape)
            np.copyto(diff, pairs[..., 1, :])
            for b in bits:
                if b < inside:
                    qubit_pairs(runs[p], b)[..., 1, :] *= -1.0
                elif p >> (b - inside) & 1:    # the part's own pair-index bits
                    diff *= -1.0
            diff -= pairs[..., 0, :]
            squares = runs[p].view(np.float64)
            block_sums(np.square(squares, out=squares), sums[v, p])

    run_parts(part, parts)
    totals = pairwise_tree(sums.reshape(g.n_vertices, -1))
    return StabilizerReport(tuple(math.sqrt(2.0) * math.sqrt(t) for t in totals.tolist()), tol)


def decomposition_amplitude(g: Graph, basis_index: int) -> complex:
    """Closed-form amplitude e^{i(1/2) W.A.W} / sqrt(2^n) of the CP-convention
    graph state on |+>^n, with W the 0/1 vertex indicator of basis_index."""
    n = g.n_vertices
    if not 0 <= basis_index < (1 << n):
        raise ValueError(f"basis index {basis_index} out of range for n={n}")
    w_vec = np.array([(basis_index >> v) & 1 for v in range(n)], dtype=float)
    a = adjacency_matrix(g)
    phase = 0.5 * float(w_vec @ a @ w_vec)
    return cmath.exp(1j * phase) / math.sqrt(1 << n)


@dataclass(frozen=True)
class ConstraintRound:
    """One measurement round of the pattern X on v, Z on N(v)."""

    records: tuple[MeasurementRecord, ...]
    product: int  # m_x^v * prod_u m_z^u

    @property
    def satisfied(self) -> bool:
        return self.product == 1


def constraint_round(g: Graph, v: int, rng: np.random.Generator) -> ConstraintRound:
    """Build a fresh unweighted graph state and measure the stabilizer
    pattern of v: X on v, then Z on each neighbor, collapsing as it goes.
    The outcome product is +1 on every round for a valid graph state."""
    if not g.is_unweighted():
        raise ValueError("constraint rounds require an unweighted graph (all weights pi)")
    s = build_graph_state(g)
    records = []
    rec, s = measure_qubit(s, v, "X", rng)
    records.append(rec)
    product = rec.outcome
    for u in sorted(neighborhood(g, v)):
        rec, s = measure_qubit(s, u, "Z", rng)
        records.append(rec)
        product *= rec.outcome
    return ConstraintRound(tuple(records), product)


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
