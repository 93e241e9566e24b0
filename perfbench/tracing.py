"""Spans and counters around the public functions of each qgns module.

The tracer wraps functions from outside the package: each target is replaced
at every qgns module attribute bound to it, so calls between modules are seen
too (`apply_gate` is reached through qgns.sim, qgns.train, qgns.tasks,
qgns.graphstate and qgns.qgnn). A name that no longer exists raises at
install time, so a refactor cannot silently zero a layer.

Spans are kept in memory as [name, start, end, parent index, op id] and
written out at the end. A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs; "Class.method" attributes are wrapped on the class.
TARGETS = (
    ("cli", "execute"),
    ("graph", "from_edge_list"), ("graph", "laplacian"),
    ("sim", "apply_gate"), ("sim", "StateVector.clone"), ("sim", "new_state"),
    ("sim", "measure_qubit"), ("sim", "expectation_pauli"), ("sim", "sample_counts"),
    ("sim", "tensor"), ("sim", "apply_linear_operator"),
    ("graphstate", "build_graph_state"), ("graphstate", "verify_stabilizers"),
    ("qgnn", "load_model"), ("qgnn", "save_model"), ("qgnn", "encode_features"),
    ("tasks", "node_readout"), ("tasks", "edge_readout"),
    ("tasks", "swap_test_overlap"), ("tasks", "classify_graph"),
    ("filters", "apply_filter_lcu"), ("filters", "select_powers_operator"),
    ("train", "fit"), ("train", "loss"), ("train", "accuracy"), ("train", "gradient"),
    ("train", "class_prototypes"),
)

GATE_KINDS = ("H", "X", "Y", "Z", "S", "Sdg", "Ry", "Rz", "CP", "IsingZZ", "CRy", "MCZ",
              "SWAP", "CSWAP", "LinOp")

SELF_TIMES = (
    "sim.apply_gate", "sim.measure_qubit", "sim.expectation_pauli", "sim.sample_counts",
    "sim.tensor", "sim.apply_linear_operator",
    "tasks.node_readout", "tasks.edge_readout", "tasks.swap_test_overlap",
    "tasks.classify_graph",
    "filters.apply_filter_lcu", "filters.select_powers_operator",
    "train.fit", "train.loss", "train.accuracy", "train.gradient", "train.class_prototypes",
    "graphstate.build_graph_state", "graphstate.verify_stabilizers",
    "qgnn.load_model", "qgnn.save_model", "qgnn.encode_features",
    "graph.from_edge_list", "graph.laplacian", "cli.execute",
)
CALLS = ("sim.apply_gate", "sim.clone", "tasks.node_readout", "tasks.edge_readout",
         "tasks.swap_test_overlap", "train.loss")

# Every per-layer metric with its unit, in report order. Sums are per op;
# the two *_peak/_dense_bytes values are maxima over the traced ops.
METRICS = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [(f"sim.gates.{kind}", "count") for kind in GATE_KINDS + ("other",)]
    + [("sim.amps_touched", "count"), ("sim.clone.bytes", "B"),
       ("sim.state_bytes_peak", "B"), ("filters.select_dense_bytes", "B"),
       ("train.circuit_evals_per_epoch", "count"), ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Install with `install(package)`, run ops, then `uninstall()`.

    Each root span (normally `cli.execute`) opens a new op id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.gates: Counter = Counter()
        self.amps_touched = 0
        self.clone_bytes = 0
        self.state_bytes_peak = 0
        self.select_dense_bytes = 0
        self.fit_epochs = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks that count work at the layer boundary ---------------------------

    def _state(self, s) -> None:
        self.state_bytes_peak = max(self.state_bytes_peak, s.amps.nbytes)

    def _on_apply_gate(self, args, _result):
        s, g = args[0], args[1]
        self.gates[g.kind if g.kind in GATE_KINDS else "other"] += 1
        self.amps_touched += 1 << s.n_qubits
        self._state(s)

    def _on_clone(self, args, _result):
        self.clone_bytes += args[0].amps.nbytes
        self._state(args[0])

    def _on_new_state(self, _args, result):
        self._state(result)

    _on_tensor = _on_new_state

    def _on_select(self, args, _result):
        lap, a = args[0], args[1]
        self.select_dense_bytes = max(self.select_dense_bytes, (len(lap) << a) ** 2 * 8)

    def _on_fit(self, args, _result):
        self.fit_epochs += args[2].epochs

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # a root span starts a new op
                self.op_id += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self, package: str = "qgns") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        hooks = {"sim.apply_gate": self._on_apply_gate, "sim.clone": self._on_clone,
                 "sim.new_state": self._on_new_state, "sim.tensor": self._on_tensor,
                 "filters.select_powers_operator": self._on_select,
                 "train.fit": self._on_fit}
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            if module is None:
                raise RuntimeError(f"trace target module {package}.{mod_name} is not loaded")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if not hasattr(owner, leaf):
                raise RuntimeError(f"trace target {package}.{mod_name}.{attr} is missing")
            original = getattr(owner, leaf)
            name = f"{mod_name}.{leaf}"
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner_name:
                self._bind(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its direct children's."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_op_self_time(self) -> dict[int, float]:
        totals: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[4]] += own
        return dict(totals)

    def metrics(self, n_ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, as means per traced op unless named a peak."""
        own = self.self_times()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        evals = 0
        for i, (span, t) in enumerate(zip(self.spans, own)):
            self_s[span[0]] += t
            calls[span[0]] += 1
            if span[0] == "sim.new_state" and self._under(i, "train.fit"):
                evals += 1
        out = {f"{name}.calls": calls[name] / n_ops for name in CALLS}
        out.update({f"{name}.self_s": self_s[name] / n_ops for name in SELF_TIMES})
        out.update({f"sim.gates.{kind}": self.gates[kind] / n_ops
                    for kind in GATE_KINDS + ("other",)})
        out.update({
            "sim.amps_touched": self.amps_touched / n_ops,
            "sim.clone.bytes": self.clone_bytes / n_ops,
            "sim.state_bytes_peak": self.state_bytes_peak,
            "filters.select_dense_bytes": self.select_dense_bytes,
            "train.circuit_evals_per_epoch": evals / self.fit_epochs if self.fit_epochs else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
