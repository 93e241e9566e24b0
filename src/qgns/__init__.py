"""Quantum graph states, graph-state network layers, and Laplacian filters."""

from .graph import (DEFAULT_WEIGHT, Graph, adjacency_matrix, from_edge_list, laplacian,
                    neighborhood, to_edge_list)
from .sim import (MAX_QUBITS, GateOp, MeasurementRecord, StateVector,
                  apply_gate, apply_linear_operator, dump_state, expectation_pauli,
                  measure_qubit, new_state, sample_counts, tensor)
from .graphstate import (ConstraintRound, EdgeConvention, PauliString, StabilizerReport,
                         build_graph_state, constraint_round, decomposition_amplitude,
                         edge_program, stabilizer_of, verify_stabilizers)
from .qgnn import (ModelSpec, apply_interlayer, build_registered, build_superposed,
                   encode_features, layer_state, load_model, message_pass, model_from_dict,
                   model_to_dict, neighborhood_groups, periodic_readout, pool_crot,
                   pool_measure, pool_phase, save_model)
from .tasks import (classify_graph, edge_phase_estimate, edge_readout, node_readout,
                    swap_test_overlap)
from .filters import apply_filter_lcu, pad_matrix, polynomial_filter_matrix
from .dataset import (DataItem, Dataset, dataset_from_dict, dataset_to_dict, demo_graph,
                      load_dataset, save_dataset, toy_dataset_path, toy_node_dataset)
from .train import (FitResult, TrainConfig, accuracy, class_prototypes, fit, gradient,
                    initial_model, loss, model_circuit, params_of, with_params)

__version__ = "0.1.0"
