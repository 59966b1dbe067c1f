"""Compiled-circuit tests: structure, unitarity and oracle equivalence."""

import math

import numpy as np
import pytest

from parvqe.circuits import (
    HOPPING_SIGNS,
    ONSITE_ZZ_SIGN,
    MeasurementSetting,
    NativeCircuit,
    NativeGate,
    build_circuit,
    circuit_unitary,
    gate_matrix,
    x_expectations,
    zz_expectation,
)
from parvqe.hubbard import AnsatzParams, hamiltonian, ideal_state

KET00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
XI = -hamiltonian().hop_part / 1.0  # X(x)I + I(x)X for t=1
ZZ_OP = np.diag([1.0, -1.0, -1.0, 1.0])
X0_OP = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
X1_OP = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


def measured_probs(a, setting):
    return np.abs(circuit_unitary(build_circuit(a, setting)) @ KET00) ** 2


def test_structure():
    a = AnsatzParams(0.3, 0.5)
    onsite = build_circuit(a, MeasurementSetting.ONSITE)
    hopping = build_circuit(a, MeasurementSetting.HOPPING)
    assert len(onsite.gates) == 10
    assert len(hopping.gates) == 7
    for circ in (onsite, hopping):
        assert sum(1 for g in circ.gates if g.kind == "CZ") == 1
    # onsite tail: the two RZ/RX columns
    kinds = [g.kind for g in onsite.gates[-4:]]
    assert kinds == ["RZ", "RX", "RZ", "RX"]
    assert onsite.gates[-4].angle == pytest.approx(math.pi + 2 * 0.5)
    assert onsite.gates[-2].angle == pytest.approx(math.pi - 2 * 0.5)


def test_native_gate_validation():
    with pytest.raises(ValueError):
        NativeGate("RX", 0.3, (0,))          # RX restricted to multiples of pi/2
    with pytest.raises(ValueError):
        NativeGate("CZ", None, (1, 1))
    with pytest.raises(ValueError):
        NativeGate("RY", 0.5, (0,))
    with pytest.raises(ValueError):
        NativeCircuit(gates=(NativeGate("RX", math.pi, (0,)),),
                      setting=MeasurementSetting.ONSITE)   # no CZ


def test_gate_products():
    # product over an empty gate list is the identity
    u = np.eye(4, dtype=complex)
    for g in ():
        u = gate_matrix(g) @ u
    assert np.array_equal(u, np.eye(4))
    assert np.allclose(gate_matrix(NativeGate("CZ", None, (0, 1))),
                       np.diag([1, 1, 1, -1]), atol=0)


def test_circuit_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        for setting in MeasurementSetting:
            u = circuit_unitary(build_circuit(a, setting))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_onsite_circuit_reproduces_zz_statistics():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        psi = ideal_state(a)
        target = np.real(psi.conj() @ ZZ_OP @ psi)
        probs = measured_probs(a, MeasurementSetting.ONSITE)
        assert abs(zz_expectation(probs) - target) < 1e-10


def test_hopping_circuit_reproduces_x_statistics():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        psi = ideal_state(a)
        x0_t = np.real(psi.conj() @ X0_OP @ psi)
        x1_t = np.real(psi.conj() @ X1_OP @ psi)
        x0, x1 = x_expectations(measured_probs(a, MeasurementSetting.HOPPING))
        assert abs(x0 - x0_t) < 1e-10
        assert abs(x1 - x1_t) < 1e-10


def test_hopping_distribution_invariant_in_theta():
    rng = np.random.default_rng(31)
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi)
        ref = measured_probs(AnsatzParams(phi, rng.uniform(-math.pi, math.pi)),
                             MeasurementSetting.HOPPING)
        for theta in rng.uniform(-math.pi, math.pi, 5):
            probs = measured_probs(AnsatzParams(phi, theta),
                                   MeasurementSetting.HOPPING)
            assert np.max(np.abs(probs - ref)) < 1e-10


def _schmidt_coefficients(psi):
    return np.linalg.svd(psi.reshape(2, 2), compute_uv=False)


def test_onsite_output_is_locally_equivalent_to_ideal_state():
    # the circuit tail is a local basis change, so the prepared state must
    # match the ideal state up to single-qubit unitaries (equal Schmidt
    # coefficients) on top of reproducing the ZZ statistics
    rng = np.random.default_rng(37)
    for _ in range(50):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        out = circuit_unitary(build_circuit(a, MeasurementSetting.ONSITE)) @ KET00
        sv_circuit = _schmidt_coefficients(out)
        sv_ideal = _schmidt_coefficients(ideal_state(a))
        assert np.max(np.abs(sv_circuit - sv_ideal)) < 1e-10


def test_sign_map_frozen():
    # regression lock for the bit-to-eigenvalue convention
    assert ONSITE_ZZ_SIGN == -1
    assert HOPPING_SIGNS == (1, 1)
    a = AnsatzParams(0.4, 0.9)
    psi = ideal_state(a)
    probs = measured_probs(a, MeasurementSetting.ONSITE)
    raw_product = float(probs @ np.array([1.0, -1.0, -1.0, 1.0]))
    target = float(np.real(psi.conj() @ ZZ_OP @ psi))
    assert abs(-raw_product - target) < 1e-10
    assert abs(raw_product - target) > 0.1  # the sign flip is load-bearing
