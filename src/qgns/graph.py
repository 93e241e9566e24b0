"""Undirected weighted graphs and their spectral matrices.

Edge weights are phases in radians. A plain (unweighted) edge defaults to
weight pi so that the controlled-phase entangler CP(pi) degenerates to a
controlled-Z; weighted and unweighted graphs then share one code path.
"""
from __future__ import annotations

import math
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

DEFAULT_WEIGHT = math.pi

_HEADER_RE = re.compile(r"^qgraph\s+v1\s+n=(\d+)\s*$")


@dataclass(frozen=True, eq=True)
class Graph:
    """Immutable undirected graph with per-edge phase weights.

    Edges are stored normalized as (u, v, weight) with u < v and no
    duplicates; self-loops are rejected.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError(f"n_vertices must be positive, got {self.n_vertices}")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n_vertices}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized to u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u},{v}) has non-finite weight {w}")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> Graph:
        """Build a Graph from (u, v) or (u, v, w) pairs, normalizing u < v.

        Missing weights default to DEFAULT_WEIGHT (= pi).
        """
        normalized = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = DEFAULT_WEIGHT
            else:
                u, v, w = e
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            normalized.append((u, v, float(w)))
        return cls(int(n_vertices), tuple(normalized))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_unweighted(self, tol: float = 1e-12) -> bool:
        """True when every edge carries the default weight pi."""
        return all(abs(w - DEFAULT_WEIGHT) <= tol for _, _, w in self.edges)

    def to_dict(self) -> dict:
        return {"n": self.n_vertices, "edges": [[u, v, w] for u, v, w in self.edges]}

    @classmethod
    def from_dict(cls, d: dict) -> Graph:
        """Graph from its JSON form {"n": n, "edges": [[u, v] or [u, v, w], ...]}.
        n and the endpoints must be JSON integers and w a number (a bool is
        neither); anything else raises ValueError rather than being truncated."""
        n, edges = d.get("n"), d.get("edges", [])
        if type(n) is not int:
            raise ValueError(f"graph field 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ValueError(f"graph field 'edges' must be a list, got {edges!r}")
        for k, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) in (2, 3) and type(e[0]) is int
                    and type(e[1]) is int and (len(e) == 2 or type(e[2]) in (int, float))):
                raise ValueError(f"graph edges[{k}] must be [u, v] or [u, v, w] with integer "
                                 f"endpoints and a numeric weight, got {e!r}")
        return cls.from_edges(n, edges)


def from_edge_list(text: str) -> Graph:
    """Parse the qgraph v1 text format.

    Line 1 is the header ``qgraph v1 n=<n_vertices>``; every following
    non-comment line is ``u v [w]`` with w in radians (default pi).
    ``#`` starts a comment, blank lines are ignored.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty graph file")
    m = _HEADER_RE.match(lines[0].strip())
    if m is None:
        raise ValueError(f"line 1: bad header {lines[0]!r}, expected 'qgraph v1 n=<n>'")
    n = int(m.group(1))
    edges = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else DEFAULT_WEIGHT
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        edges.append((u, v, w))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid graph: {exc}") from None


def _replace_text(path, text: str) -> None:
    """Write text to path as UTF-8, replacing a file's contents in place:
    open without O_TRUNC, write every byte, then cut a regular file to the
    written length (a FIFO or a device is only written). Truncating a file to
    zero before rewriting it makes ext4 flush its pending writeback on
    close, as a replacement by rename does. The file keeps its inode, mode
    and links. Like a truncating write, this is not atomic and calls no
    fsync: after a crash the file can hold old, new or mixed bytes."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            f.truncate(len(data))


def to_edge_list(g: Graph) -> str:
    """Serialize a Graph back to the qgraph v1 text format."""
    out = [f"qgraph v1 n={g.n_vertices}"]
    for u, v, w in g.edges:
        out.append(f"{u} {v} {w!r}")
    return "\n".join(out) + "\n"


def neighborhood(g: Graph, v: int) -> set[int]:
    """All vertices sharing an edge with v (empty set for isolated v)."""
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"vertex {v} out of range for n={g.n_vertices}")
    out = set()
    for a, b, _ in g.edges:
        if a == v:
            out.add(b)
        elif b == v:
            out.add(a)
    return out


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric n x n weight matrix; zero where no edge."""
    a = np.zeros((g.n_vertices, g.n_vertices))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A with weighted degrees D(v,v) = sum_u A(v,u); rows sum to 0.

    Built in the adjacency matrix's own memory: 0 - A keeps the off-diagonal
    +0.0 of diag(D) - A, and -A(v,v) + D(v,v) = D(v,v) - A(v,v) exactly."""
    a = adjacency_matrix(g)
    degrees = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    a.flat[::len(a) + 1] += degrees
    return a
