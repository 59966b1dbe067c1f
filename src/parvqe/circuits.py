"""Native-gate circuits for the two measurement settings.

The compiled circuit uses the RX/RZ/CZ gate set with the half-angle
convention RX(a) = exp(-i a X / 2), RZ(a) = exp(-i a Z / 2),
CZ = diag(1, 1, 1, -1). Under that convention the evolution angles
(phi, theta) of the variational state enter the gate arguments doubled:
RZ(-pi + 2 phi) prepares the onsite-evolved state and RZ(pi +- 2 theta)
realises the hopping evolution inside the measurement-basis change.

Measured bits map to eigenvalues through a fixed sign map, determined
once against the exact model, locked by regression tests, in simulator:

  * onsite setting: <Z(x)Z> = ONSITE_ZZ_SIGN * <(1-2b0)(1-2b1)>
  * hopping setting: <X(x)I> = HOPPING_SIGNS[0] * <1-2b0> and
    <I(x)X> = HOPPING_SIGNS[1] * <1-2b1>

Bit order everywhere: outcome index i = 2*b0 + b1 (qubit 0 is the top
wire and the most significant bit).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .hubbard import AnsatzParams
from .records import Record
from .simulator import HOPPING_SIGNS, ONSITE_ZZ_SIGN, Z0_OUTCOMES, Z1_OUTCOMES, ZZ_OUTCOMES

_HALF_PI = math.pi / 2


class MeasurementSetting(Enum):
    ONSITE = "onsite"
    HOPPING = "hopping"


class NativeGate(Record, frozen=True):
    kind: str                  # 'RX', 'RZ' or 'CZ'
    angle: float | None        # radians; None for CZ
    targets: tuple[int, ...]   # qubit indices in {0, 1}

    def __post_init__(self):
        if self.kind not in ("RX", "RZ", "CZ"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CZ":
            if self.angle is not None:
                raise ValueError("CZ takes no angle")
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CZ needs two distinct targets")
        else:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} acts on one qubit")
            if self.kind == "RX":
                # hardware-native constraint: RX only at multiples of pi/2
                ratio = self.angle / _HALF_PI
                if abs(ratio - round(ratio)) > 1e-9:
                    raise ValueError(f"RX angle {self.angle} is not a multiple of pi/2")
        if any(q not in (0, 1) for q in self.targets):
            raise ValueError(f"targets must be qubits 0/1, got {self.targets}")


class NativeCircuit(Record, frozen=True):
    gates: tuple[NativeGate, ...]
    setting: MeasurementSetting

    def __post_init__(self):
        n_cz = sum(1 for g in self.gates if g.kind == "CZ")
        if n_cz != 1:
            raise ValueError(f"circuit must contain exactly one CZ, found {n_cz}")
        if len(self.gates) > 10:
            raise ValueError(f"circuit has {len(self.gates)} gates, expected <= 10")


# The one gate template. A gate is (kind, qubit, angle): RX angles are
# constants, each RZ angle is a function of (phi, theta), and CZ acts on
# both qubits (qubit and angle None). Every circuit is PREFIX (state
# preparation, onsite evolution, the single CZ and the post-CZ RX on
# qubit 0) followed by its setting's tail. simulator.kernel_terms and
# apply_terms are this template's closed form, tied to it by the
# density-matrix tests.
PREFIX = (
    ("RX", 0, -_HALF_PI),
    ("RX", 1, -_HALF_PI),
    ("RZ", 1, lambda phi, theta: -math.pi + 2.0 * phi),
    ("RX", 1, _HALF_PI),
    ("CZ", None, None),
    ("RX", 0, -_HALF_PI),
)
TAILS = {
    MeasurementSetting.ONSITE: (
        ("RZ", 0, lambda phi, theta: math.pi + 2.0 * theta),
        ("RX", 0, -_HALF_PI),
        ("RZ", 1, lambda phi, theta: math.pi - 2.0 * theta),
        ("RX", 1, _HALF_PI),
    ),
    MeasurementSetting.HOPPING: (("RX", 1, math.pi),),
}


def build_circuit(a: AnsatzParams, setting: MeasurementSetting) -> NativeCircuit:
    """Compiled circuit preparing |psi(phi, theta)> for one measurement
    setting: the template's prefix and that setting's tail."""
    gates = []
    for kind, qubit, angle in PREFIX + TAILS[setting]:
        if kind == "CZ":
            gates.append(NativeGate("CZ", None, (0, 1)))
        else:
            value = angle(a.phi, a.theta) if kind == "RZ" else angle
            gates.append(NativeGate(kind, value, (qubit,)))
    return NativeCircuit(gates=tuple(gates), setting=setting)


def gate_matrix(gate: NativeGate) -> np.ndarray:
    """The 4x4 unitary of one gate in the q0 (x) q1 ordering."""
    if gate.kind == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    half = gate.angle / 2.0
    if gate.kind == "RX":
        g = np.array([[math.cos(half), -1j * math.sin(half)],
                      [-1j * math.sin(half), math.cos(half)]])
    else:
        g = np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    if gate.targets[0] == 0:
        return np.kron(g, np.eye(2))
    return np.kron(np.eye(2), g)


def circuit_unitary(circuit: NativeCircuit) -> np.ndarray:
    """Product of the gate unitaries, first gate applied first."""
    u = np.eye(4, dtype=complex)
    for gate in circuit.gates:
        u = gate_matrix(gate) @ u
    return u


def zz_expectation(probs: np.ndarray) -> float:
    """<Z(x)Z> from an onsite-setting outcome distribution."""
    return ONSITE_ZZ_SIGN * float(np.dot(probs, ZZ_OUTCOMES))


def x_expectations(probs: np.ndarray) -> tuple[float, float]:
    """(<X(x)I>, <I(x)X>) from a hopping-setting outcome distribution."""
    return (
        HOPPING_SIGNS[0] * float(np.dot(probs, Z0_OUTCOMES)),
        HOPPING_SIGNS[1] * float(np.dot(probs, Z1_OUTCOMES)),
    )
