import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# property tests draw the same examples on every run, with no time limit;
# HYPOTHESIS_PROFILE=randomized draws new ones on each run, ten times as many
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.register_profile("randomized", derandomize=False, max_examples=1000,
                          deadline=None, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

from parvqe.device import load_calibration
from parvqe.harness import default_calibration_path, default_cost_model_path


def load_tool(name):
    """tools/<name>.py as a module, without running its main; it is not left
    in sys.modules."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tool_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="session")
def shipped_topology():
    return load_calibration(default_calibration_path())


@pytest.fixture(scope="session")
def shipped_cost_model_path():
    return default_cost_model_path()


def write_calibration(path, qubits, edges, readout=None, name="test"):
    payload = {
        "name": name,
        "qubits": list(qubits),
        "edges": [list(e) for e in edges],
        "readout": {str(q): list(r) for q, r in (readout or {}).items()},
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def make_uniform_calibration(tmp_path):
    """Disjoint-edge calibration: n_pairs edges all at the same fidelity."""

    def build(n_pairs, fidelity=1.0, readout=(0.0, 0.0), name="uniform"):
        qubits = list(range(2 * n_pairs))
        edges = [(2 * i, 2 * i + 1, fidelity) for i in range(n_pairs)]
        ro = {q: readout for q in qubits}
        return write_calibration(tmp_path / f"{name}.json", qubits, edges, ro, name)

    return build
