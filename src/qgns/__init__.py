"""Quantum graph states, graph-state network layers, and Laplacian filters.

The package has two halves. The graph-state half (`graph`, `sim`,
`graphstate`, `tasks`, `filters`) is imported with the package. The trainer
half (`dataset`, `qgnn`, `executor`, `train`) is registered lazily: each of
its modules compiles and runs on first attribute access, so the CLI verbs
that never train or load a model start without it. Every name below is
served from its defining module on first use (`from qgns import fit` works).
"""

import importlib.util
import sys

from . import filters, graph, graphstate, sim, tasks

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, registered to load on first attribute access;
    a submodule that is already imported is kept as it is."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


dataset, qgnn, executor, train = map(_lazy, ("dataset", "qgnn", "executor", "train"))

# exported name -> defining module
_EXPORTS = {name: module for module, names in (
    ("graph", "DEFAULT_WEIGHT Graph adjacency_matrix from_edge_list laplacian neighborhood "
              "to_edge_list"),
    ("sim", "MAX_QUBITS GateOp MeasurementRecord StateVector apply_gate apply_linear_operator "
            "dump_state expectation_pauli measure_qubit new_state sample_counts tensor"),
    ("graphstate", "ConstraintRound EdgeConvention StabilizerReport build_graph_state "
                   "constraint_round decomposition_amplitude edge_program pool_measure "
                   "verify_stabilizers"),
    ("qgnn", "ModelSpec encode_features load_model model_from_dict model_to_dict save_model"),
    ("tasks", "classify_graph edge_readout node_readout swap_test_overlap"),
    ("filters", "apply_filter_lcu polynomial_filter_matrix"),
    ("dataset", "DataItem Dataset dataset_from_dict dataset_to_dict demo_graph load_dataset "
                "save_dataset toy_dataset_path toy_node_dataset"),
    ("executor", "class_prototypes"),
    ("train", "FitResult TrainConfig accuracy fit gradient initial_model loss params_of "
              "with_params"),
) for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
