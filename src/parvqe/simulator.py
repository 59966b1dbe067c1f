"""Simulation of qubit pairs with gate and readout noise.

The noise model is deliberately small: a single two-qubit depolarizing
event after the CZ gate (single-qubit gates are treated as ideal, since
the CZ fidelity dominates on the devices this models), followed by
independent asymmetric readout bit flips on each qubit. An optional
crosstalk knob adds extra depolarizing probability when a neighbouring
pair is active in the same batch.

`batch_distributions` is the simulator the executor runs: the closed form
of the gate template's outcome probabilities, a few array operations for
every pair of a call at once. It relies on the depolarizing event
commuting with the unitaries after it, so the outcome distribution is
N_ro ((1-p) |U psi|^2 + p/4). The tests hold the reference it is checked
against, a gate-by-gate walk of one compiled circuit on a 4x4 density
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fidelity_to_depolarizing(f: float) -> float:
    """Depolarizing probability p with average gate fidelity f for the
    two-qubit channel rho -> (1-p) rho + p I/4; p = 4(1-f)/3, clamped to [0,1]."""
    if not (0.0 < f <= 1.0):
        raise ValueError(f"fidelity must be in (0, 1], got {f}")
    return min(max(4.0 * (1.0 - f) / 3.0, 0.0), 1.0)


@dataclass(frozen=True)
class PairNoiseSpec:
    """Noise parameters of one qubit pair.

    readout holds per-qubit (eps01, eps10) rates where eps01 = P(read 1 |
    prepared 0) and eps10 = P(read 0 | prepared 1).
    """

    cz_fidelity: float = 1.0
    readout: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))
    crosstalk_p: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.cz_fidelity <= 1.0):
            raise ValueError(f"cz_fidelity must be in (0, 1], got {self.cz_fidelity}")
        if not (0.0 <= self.crosstalk_p <= 1.0):
            raise ValueError(f"crosstalk_p must be in [0, 1], got {self.crosstalk_p}")
        for q, (e01, e10) in enumerate(self.readout):
            for name, e in (("eps01", e01), ("eps10", e10)):
                if not (0.0 <= e < 0.5):
                    raise ValueError(f"qubit {q} {name} must be in [0, 0.5), got {e}")

    @property
    def depol_p(self) -> float:
        return fidelity_to_depolarizing(self.cz_fidelity)

    def effective_p(self, crosstalk_active: bool = False) -> float:
        """Depolarizing probability of the CZ, plus crosstalk_p (capped at
        1) when a neighbouring pair is active in the same batch."""
        if crosstalk_active:
            return min(self.depol_p + self.crosstalk_p, 1.0)
        return self.depol_p

    def confusion_map(self) -> np.ndarray:
        """Exact 4x4 readout confusion matrix (column-stochastic, q0 (x) q1)."""
        return confusion_maps(np.array([self.readout]))[0]


def confusion_maps(readout: np.ndarray) -> np.ndarray:
    """Readout confusion matrices of n pairs, shape (n, 4, 4).

    readout has shape (n, 2, 2): per pair, per qubit, (eps01, eps10).
    Each map is the Kronecker product of the two qubits' column-stochastic
    flip matrices, in q0 (x) q1 order.
    """
    e01, e10 = readout[..., 0], readout[..., 1]
    flips = np.stack([np.stack([1.0 - e01, e10], axis=-1),
                      np.stack([e01, 1.0 - e10], axis=-1)], axis=-2)   # (n, 2, 2, 2)
    n = len(readout)
    return np.einsum("nik,njl->nijkl", flips[:, 0], flips[:, 1]).reshape(n, 4, 4)


NOISELESS = PairNoiseSpec()


@dataclass(frozen=True)
class ShotHistogram:
    """Counts over outcomes {00, 01, 10, 11} (index 2*b0 + b1)."""

    counts: tuple[int, int, int, int]
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.shots:
            raise ValueError(f"counts sum to {sum(self.counts)}, expected {self.shots}")

    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.shots


def exact_distribution(rho: np.ndarray, noise: PairNoiseSpec = NOISELESS) -> np.ndarray:
    """Computational-basis outcome probabilities after readout error.

    The diagonal of rho is pushed through the tensor-product confusion map
    of the two qubits' flip rates. Tiny negative diagonal entries from
    round-off are clipped before normalisation.
    """
    diag = np.real(np.diag(rho))
    diag = np.clip(diag, 0.0, None)
    diag = diag / diag.sum()
    return noise.confusion_map() @ diag


def sample_shots(rho: np.ndarray, noise: PairNoiseSpec, shots: int,
                 stream: np.random.Generator) -> ShotHistogram:
    """Multinomial sample of the exact outcome distribution."""
    counts = stream.multinomial(shots, exact_distribution(rho, noise))
    return ShotHistogram(counts=tuple(int(c) for c in counts), shots=shots)


# --- closed-form batch kernel ----------------------------------------------

def batch_distributions(phi: np.ndarray, theta: np.ndarray, p: np.ndarray,
                        confusion: np.ndarray) -> np.ndarray:
    """Outcome distributions of n pairs, shape (n, 2, 4), in SETTINGS order.

    phi, theta and the effective depolarizing probability p (crosstalk
    included) have shape (n,); confusion holds the (n, 4, 4) readout maps.
    The ideal distributions are the gate template's closed form: onsite
    [a, 1/2 - a, 1/2 - a, a] with a = (1 + sin 4theta sin 2phi) / 4, and
    hopping [cos^2 phi, 0, 0, sin^2 phi]. Because the one depolarizing
    event after the CZ commutes with the unitaries that follow it, each
    distribution is confusion @ ((1-p) ideal + p/4).
    """
    a = 0.25 * (1.0 + np.sin(4.0 * theta) * np.sin(2.0 * phi))
    ideal = np.zeros((len(phi), 2, 4))
    ideal[:, 0, 0] = ideal[:, 0, 3] = a
    ideal[:, 0, 1] = ideal[:, 0, 2] = 0.5 - a
    ideal[:, 1, 0] = np.cos(phi) ** 2
    ideal[:, 1, 3] = np.sin(phi) ** 2
    p = p[:, None, None]
    mixed = (1.0 - p) * ideal + p / 4.0
    return np.einsum("nij,nkj->nki", confusion, mixed)
