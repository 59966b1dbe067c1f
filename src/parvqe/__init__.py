"""parvqe: a hardware-free testbed for parallel two-qubit VQE.

Simulates noisy two-qubit variational circuits tiled across a modelled
80-qubit device, selects qubit pairs from calibration data, mitigates
readout and gate errors, optimises with SPSA or batch-parallel surrogate
gradient descent, and models the wall-clock speedup from parallelism.
"""

__version__ = "0.1.0"

# public name -> its submodule, imported on first access (PEP 562), so that
# `import parvqe.cli` loads only what the CLI runs
_EXPORTS = {name: module for module, names in {
    "hubbard": "AnsatzParams HubbardParams exact_energy exact_ground_energy hamiltonian "
               "ideal_state initial_state",
    "circuits": "MeasurementSetting NativeCircuit NativeGate build_circuit",
    "simulator": "PairNoiseSpec ShotHistogram fidelity_to_depolarizing",
    "device": "DeviceTopology PairSelection greedy_select load_calibration max_weight_matching",
    "mitigation": "ConfusionMatrix invert_readout measure_confusion measure_confusions "
                  "tflo_correct",
    "executor": "BatchPlan CostModel Estimates PairTable aggregate_same_params "
                "compile_pairs plan_batches predict_wall_time run_batch",
    "optimizers": "MgdConfig OptTrace SpsaConfig mgd_run n_points_from_eta spsa_run",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
