"""Exact model of the compressed two-site Hubbard problem.

The half-filled 2x1 Hubbard model is encoded on two qubits as

    H = -t (X(x)I + I(x)X) + (U/2) (I + Z(x)Z),

with tunnelling amplitude t and Coulomb potential U. The one-layer
variational state is

    |psi(phi, theta)> = exp(i theta H_hop) exp(i phi H_os) |psi0>,

where |psi0> = |++> is the ground state of the hopping part alone. All
functions here are noiseless matrix computations; every other module in
the package is checked against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# two-qubit operators in the q0 (x) q1 convention (q0 = most significant bit)
XI = np.kron(PAULI_X, PAULI_I)
IX = np.kron(PAULI_I, PAULI_X)
ZZ = np.kron(PAULI_Z, PAULI_Z)


@dataclass(frozen=True)
class HubbardParams:
    """Model constants: tunnelling amplitude t >= 0 and Coulomb potential u >= 0.

    t = 0 (no hopping) is allowed as a degenerate diagnostic case.
    """

    t: float = 1.0
    u: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.u)):
            raise ValueError("t and u must be finite")
        if self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if self.u < 0:
            raise ValueError(f"u must be nonnegative, got {self.u}")


@dataclass(frozen=True)
class AnsatzParams:
    """Variational angles: phi drives the onsite term, theta the hopping term."""

    phi: float
    theta: float

    def __post_init__(self):
        # plain floats, so a numpy scalar never reaches a CSV as np.float64(x)
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "theta", float(self.theta))
        if not (math.isfinite(self.phi) and math.isfinite(self.theta)):
            raise ValueError("ansatz angles must be finite")


@dataclass(frozen=True)
class Hamiltonian2:
    """The 4x4 Hamiltonian together with its hopping and onsite parts."""

    matrix: np.ndarray
    hop_part: np.ndarray
    os_part: np.ndarray


@lru_cache(maxsize=32)
def _hamiltonian_cached(t: float, u: float) -> Hamiltonian2:
    hop = -t * (XI + IX)
    os = (u / 2.0) * (np.eye(4) + ZZ)
    h = Hamiltonian2(matrix=hop + os, hop_part=hop, os_part=os)
    for m in (h.matrix, h.hop_part, h.os_part):
        m.setflags(write=False)
    return h


def hamiltonian(params: HubbardParams = HubbardParams()) -> Hamiltonian2:
    """Build H = H_hop + H_os for the given model constants."""
    return _hamiltonian_cached(params.t, params.u)


def initial_state() -> np.ndarray:
    """|psi0> = |++>, the ground state of the hopping part (eigenvalue -2t)."""
    return np.full(4, 0.5, dtype=complex)


@lru_cache(maxsize=32)
def _eig_cached(t: float, u: float):
    h = _hamiltonian_cached(t, u)
    w_hop, v_hop = np.linalg.eigh(h.hop_part)
    w_os, v_os = np.linalg.eigh(h.os_part)
    return (w_hop, v_hop), (w_os, v_os)


def _expi(w: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    # exp(i * angle * A) from the eigendecomposition A = V diag(w) V^dag
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def ideal_state(a: AnsatzParams, h: HubbardParams = HubbardParams()) -> np.ndarray:
    """Apply exp(i theta H_hop) exp(i phi H_os) to |psi0> (onsite first)."""
    (w_hop, v_hop), (w_os, v_os) = _eig_cached(h.t, h.u)
    state = _expi(w_os, v_os, a.phi) @ initial_state()
    state = _expi(w_hop, v_hop, a.theta) @ state
    return state


def exact_energy(a: AnsatzParams, h: HubbardParams = HubbardParams()) -> float:
    """<psi(phi,theta)| H |psi(phi,theta)> from the exact state."""
    psi = ideal_state(a, h)
    return float(np.real(psi.conj() @ hamiltonian(h).matrix @ psi))


def exact_ground_energy(h: HubbardParams = HubbardParams()) -> float:
    """Smallest eigenvalue of H (the target of the variational minimisation)."""
    return float(np.linalg.eigvalsh(hamiltonian(h).matrix)[0])


def closed_form_energy(phi, theta, h: HubbardParams = HubbardParams()):
    """Closed-form E(phi, theta) = (u/2)(1 - sin(4 t theta) sin(u phi)) - 2 t cos(u phi).

    Accepts scalars or arrays (vectorised grid scans). The test suite
    validates this expression against :func:`exact_energy` on a dense grid
    before anything else relies on it.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e = (h.u / 2.0) * (1.0 - np.sin(4.0 * h.t * theta) * np.sin(h.u * phi)) \
        - 2.0 * h.t * np.cos(h.u * phi)
    return float(e) if e.ndim == 0 else e


def grid_minimum(n: int = 200, h: HubbardParams = HubbardParams()):
    """Minimum of the closed-form energy over an n x n grid of [-pi, pi]^2.

    Samples cell centres (heatmap-pixel convention). Returns
    (phi, theta, energy) at the grid minimum.
    """
    step = 2.0 * math.pi / n
    axis = -math.pi + (np.arange(n) + 0.5) * step
    pp, tt = np.meshgrid(axis, axis, indexing="ij")
    ee = closed_form_energy(pp, tt, h)
    idx = np.unravel_index(np.argmin(ee), ee.shape)
    return float(pp[idx]), float(tt[idx]), float(ee[idx])


def optimal_params(h: HubbardParams = HubbardParams()) -> AnsatzParams:
    """Ansatz angles minimising the exact energy (grid scan + local polish).

    The energy is periodic (period pi in phi, pi/2 in theta) and invariant
    under the joint sign flip, so the result is reduced to the canonical
    representative with phi >= 0.
    """
    from scipy.optimize import minimize

    phi0, theta0, _ = grid_minimum(200, h)
    res = minimize(
        lambda v: exact_energy(AnsatzParams(v[0], v[1]), h),
        [phi0, theta0],
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12},
    )

    def wrap(x: float, period: float) -> float:
        return x - period * round(x / period)

    phi, theta = wrap(float(res.x[0]), math.pi), wrap(float(res.x[1]), math.pi / 2)
    if phi < 0:
        phi, theta = -phi, -theta
    return AnsatzParams(phi, theta)
