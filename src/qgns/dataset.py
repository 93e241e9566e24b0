"""Datasets for the node, edge and graph tasks.

An item is a graph, a feature vector with one entry per vertex, and labels:
per-node targets in [0, 1] (None = unlabeled), per-edge reals, or a class index.
Datasets load from and save to JSON, where malformed input raises
ValueError naming the field; the bundled toy task ships as one such file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, _replace_text, from_edge_list

TASKS = ("node", "edge", "graph")


@dataclass(frozen=True)
class DataItem:
    graph: Graph
    features: np.ndarray
    # node: per-node targets in [0, 1] (None = unlabeled) | edge: reals | graph: class index
    labels: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.features.shape != (self.graph.n_vertices,):
            raise ValueError(
                f"features shape {self.features.shape} != ({self.graph.n_vertices},)")


@dataclass(frozen=True)
class Dataset:
    task: str
    items: tuple[DataItem, ...]
    node_basis: str = "Y"

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if not self.items:
            raise ValueError("dataset has no items")
        if self.node_basis not in ("Y", "Z"):
            raise ValueError(f"node_basis must be 'Y' or 'Z', got {self.node_basis!r}")
        for k, item in enumerate(self.items):
            self._check_features(k, item)
            self._check_labels(k, item)

    @staticmethod
    def _check_features(k: int, item: DataItem) -> None:
        """Finite features with a finite span max - min, which encoding
        divides by (qgnn.encode_features)."""
        values, where = item.features.tolist(), f"items[{k}].features"
        for v, x in enumerate(values):
            if not math.isfinite(x):
                raise ValueError(f"{where}[{v}] must be finite, got {x!r}")
        if values and not math.isfinite(max(values) - min(values)):
            raise ValueError(f"{where} span max - min overflows float64")

    def _check_labels(self, k: int, item: DataItem) -> None:
        """Label counts and ranges; a bool is never a label, though Python
        counts it as an int."""
        n, e, where = item.graph.n_vertices, item.graph.n_edges, f"items[{k}].labels"
        if self.task == "graph":
            label = item.labels
            if isinstance(label, bool) or not isinstance(label, int) or label < 0:
                raise ValueError(f"{where} must be a nonnegative class index for the graph "
                                 f"task, got {label!r}")
            return
        for v, lab in enumerate(item.labels):
            if isinstance(lab, bool):
                raise ValueError(f"{where}[{v}] must be a number, got {lab!r}")
        if self.task == "node":
            if len(item.labels) != n:
                raise ValueError(f"node task needs {n} labels, got {len(item.labels)}")
            for v, lab in enumerate(item.labels):
                if lab is not None and not 0.0 <= lab <= 1.0:
                    raise ValueError(f"{where}[{v}] must be in [0, 1], got {lab!r}")
        elif len(item.labels) != e:
            raise ValueError(f"edge task needs {e} targets, got {len(item.labels)}")
        else:
            for i, lab in enumerate(item.labels):
                if not math.isfinite(lab):
                    raise ValueError(f"{where}[{i}] must be finite, got {lab!r}")


# -- dataset files -------------------------------------------------------------

def _graph_from_entry(entry, base_dir: Path | None) -> Graph:
    if isinstance(entry, dict):
        return Graph.from_dict(entry)
    if isinstance(entry, str):
        if entry.lstrip().startswith("qgraph"):
            return from_edge_list(entry)
        path = Path(entry)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return from_edge_list(path.read_text(encoding="utf-8"))
    raise ValueError(f"graph entry must be a dict, inline text or path, got {type(entry)}")


def _check_fields(d, where: str, fields: tuple[str, ...]) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    for key in fields:
        if key not in d:
            raise ValueError(f"{where} is missing the field {key!r}")


def dataset_from_dict(d: dict, base_dir: Path | None = None) -> Dataset:
    """Dataset from its JSON form; a malformed field raises ValueError naming it."""
    _check_fields(d, "dataset", ("task", "items"))
    if not isinstance(d["items"], list):
        raise ValueError(f"dataset field 'items' must be a list, got {type(d['items']).__name__}")
    items = []
    for k, entry in enumerate(d["items"]):
        where = f"items[{k}]"
        _check_fields(entry, where, ("graph", "features", "labels"))
        features, labels = entry["features"], entry["labels"]
        # a JSON number is an int or a float; true and false are not numbers
        if not isinstance(features, list) or not all(type(x) in (int, float) for x in features):
            raise ValueError(f"{where}.features must be a list of numbers")
        if d["task"] in ("node", "edge"):
            if not isinstance(labels, list):
                raise ValueError(f"{where}.labels must be a list for the {d['task']} task, "
                                 f"got {type(labels).__name__}")
            if not all(type(lab) in (int, float) or (lab is None and d["task"] == "node")
                       for lab in labels):
                raise ValueError(f"{where}.labels must hold numbers"
                                 + (" or null" if d["task"] == "node" else ""))
            labels = tuple(labels)
        try:
            graph = _graph_from_entry(entry["graph"], base_dir)
        except ValueError as exc:
            raise ValueError(f"{where}.graph: {exc}") from None
        items.append(DataItem(graph, np.asarray(features, dtype=float), labels))
    return Dataset(d["task"], tuple(items), d.get("node_basis", "Y"))


def dataset_to_dict(ds: Dataset) -> dict:
    d = {"task": ds.task, "node_basis": ds.node_basis, "items": []}
    for item in ds.items:
        labels = item.labels
        if isinstance(labels, tuple):
            labels = list(labels)
        d["items"].append({"graph": item.graph.to_dict(),
                           "features": list(map(float, item.features)),
                           "labels": labels})
    return d


def load_dataset(path) -> Dataset:
    path = Path(path)
    return dataset_from_dict(json.loads(path.read_text(encoding="utf-8")), path.parent)


def save_dataset(ds: Dataset, path) -> None:
    _replace_text(path, json.dumps(dataset_to_dict(ds), indent=2) + "\n")


# -- bundled toy task -----------------------------------------------------------

def demo_graph() -> Graph:
    """The five-vertex demo fixture: vertex 0 joined to 1, 3, 4; vertex 3 to
    2 and 4; vertex 1 to 2. All edges carry the default weight pi."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 2), (0, 4), (3, 4)])


def toy_node_dataset() -> Dataset:
    """Node bipartition benchmark on the demo graph: vertices {0, 2, 4}
    labeled 1 against {1, 3} labeled 0, with class-correlated features. It
    is the bundled toy dataset file (toy_dataset_path), loaded."""
    return load_dataset(toy_dataset_path())


def toy_dataset_path() -> Path:
    """Filesystem path of the bundled toy dataset JSON (for the CLI)."""
    from importlib.resources import files

    return Path(str(files("qgns").joinpath("data", "toy_node.json")))
