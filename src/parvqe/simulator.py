"""Simulation of qubit pairs with gate and readout noise.

The noise model is deliberately small: a single two-qubit depolarizing
event after the CZ gate (single-qubit gates are treated as ideal, since
the CZ fidelity dominates on the devices this models), followed by
independent asymmetric readout bit flips on each qubit. An optional
crosstalk knob adds extra depolarizing probability when a neighbouring
pair is active in the same batch.

`kernel_terms` and `apply_terms` are the simulator the executor runs: the
closed form of the gate template's outcome probabilities, a few array
operations for every pair of a call at once. The tests hold the reference
it is checked against, a gate-by-gate walk of one compiled circuit on a
4x4 density matrix.
"""

from __future__ import annotations

import numpy as np

from .records import Record

# frozen bit-to-eigenvalue sign map (see the circuits module docstring)
ONSITE_ZZ_SIGN = -1
HOPPING_SIGNS = (1, 1)

# eigenvalue tables over outcome index 2*b0 + b1
ZZ_OUTCOMES = np.array([1.0, -1.0, -1.0, 1.0])
Z0_OUTCOMES = np.array([1.0, 1.0, -1.0, -1.0])
Z1_OUTCOMES = np.array([1.0, -1.0, 1.0, -1.0])


def fidelity_to_depolarizing(f: float | np.ndarray) -> np.ndarray:
    """Depolarizing probabilities p (an array) with average gate fidelities f
    for the two-qubit channel rho -> (1-p) rho + p I/4; p = 4(1-f)/3, clamped to [0,1]."""
    f = np.asarray(f, dtype=float)
    if not np.all((f > 0.0) & (f <= 1.0)):
        raise ValueError(f"fidelity must be in (0, 1], got {f}")
    return np.clip(4.0 * (1.0 - f) / 3.0, 0.0, 1.0)


class PairNoiseSpec(Record, frozen=True):
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


class ShotHistogram(Record, frozen=True):
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

# the ideal distributions at phi = 0, and their slopes in x = (a - 1/4, sin^2 phi)
_IDEAL = np.array([[[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]],
                   [[1.0, -1.0, -1.0, 1.0], [-1.0, 0.0, 0.0, 1.0]]])


def kernel_terms(p: np.ndarray, confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angle-free (n, 2, 4) terms (base, slope), onsite then hopping, of
    n pairs' effective depolarizing probabilities p (crosstalk included) and
    (n, 4, 4) readout maps. The one depolarizing event after the CZ commutes
    with the unitaries after it, so a distribution is confusion @ ((1-p)
    ideal + p/4) = base + x * slope for x = (a - 1/4, sin^2 phi), with the
    template's closed form ideal onsite [a, 1/2 - a, 1/2 - a, a], a = (1 +
    sin 4theta sin 2phi) / 4, and hopping [cos^2 phi, 0, 0, sin^2 phi]."""
    p = p[:, None, None]
    return (np.einsum("nij,nkj->nki", confusion, (1.0 - p) * _IDEAL[0] + p / 4.0),
            np.einsum("nij,nkj->nki", confusion, (1.0 - p) * _IDEAL[1]))


def apply_terms(base: np.ndarray, slope: np.ndarray, phi: np.ndarray,
                theta: np.ndarray) -> np.ndarray:
    """The (n, 2, 4) distributions base + x * slope of n pairs at angles phi
    and theta, clipped at 0 for the draws. At phi = 0 (TFLO's references)
    x = 0, so the short-decimal probabilities on which numpy's binomial
    tips at the last bit are the unsplit form's."""
    x = np.empty((len(phi), 2, 1))
    x[:, 0, 0] = 0.25 * np.sin(4.0 * theta) * np.sin(2.0 * phi)
    x[:, 1, 0] = np.sin(phi) ** 2
    dists = base + x * slope
    return np.maximum(dists, 0.0, out=dists)
