"""parvqe: a hardware-free testbed for parallel two-qubit VQE.

Simulates noisy two-qubit variational circuits tiled across a modelled
80-qubit device, selects qubit pairs from calibration data, mitigates
readout and gate errors, optimises with SPSA or batch-parallel surrogate
gradient descent, and models the wall-clock speedup from parallelism.
"""

__version__ = "0.1.0"

from .hubbard import (
    AnsatzParams,
    HubbardParams,
    exact_energy,
    exact_ground_energy,
    hamiltonian,
    ideal_state,
    initial_state,
)
from .circuits import MeasurementSetting, NativeCircuit, NativeGate, build_circuit
from .simulator import PairNoiseSpec, ShotHistogram, fidelity_to_depolarizing
from .device import DeviceTopology, PairSelection, greedy_select, load_calibration
from .device import max_weight_matching, noise_spec_for_pair
from .mitigation import (ConfusionMatrix, invert_readout, measure_confusion, measure_confusions,
                         tflo_correct)
from .executor import (
    BatchPlan,
    CostModel,
    Estimates,
    PairTable,
    aggregate_same_params,
    calibrate_cost_model,
    compile_pairs,
    estimate_counts,
    plan_batches,
    predict_wall_time,
    run_batch,
)
from .optimizers import MgdConfig, OptTrace, SpsaConfig, mgd_run, n_points_from_eta, spsa_run

__all__ = [
    "AnsatzParams", "HubbardParams", "exact_energy", "exact_ground_energy",
    "hamiltonian", "ideal_state", "initial_state",
    "MeasurementSetting", "NativeCircuit", "NativeGate", "build_circuit",
    "PairNoiseSpec", "ShotHistogram", "fidelity_to_depolarizing",
    "DeviceTopology", "PairSelection", "greedy_select", "load_calibration",
    "max_weight_matching", "noise_spec_for_pair",
    "ConfusionMatrix", "invert_readout", "measure_confusion", "measure_confusions",
    "tflo_correct",
    "BatchPlan", "CostModel", "Estimates", "PairTable", "aggregate_same_params",
    "calibrate_cost_model", "compile_pairs", "estimate_counts", "plan_batches",
    "predict_wall_time", "run_batch",
    "MgdConfig", "OptTrace", "SpsaConfig", "mgd_run", "n_points_from_eta", "spsa_run",
    "__version__",
]
