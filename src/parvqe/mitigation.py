"""Readout noise inversion and reference-point energy correction.

Noise inversion (NI) estimates the 4x4 readout confusion matrix N of a
qubit pair by preparing each computational basis state and recording the
measured outcome distribution; measured distributions are then corrected
as d = N^-1 d~. Inverted vectors may contain small negative entries;
they are kept as-is, since clipping would bias downstream expectations.

The reference-point correction shifts a measured energy by the known
discrepancy at a classically tractable reference circuit (phi = 0 at the
same theta):

    E_corrected = E_measured + E_ref_exact - E_ref_measured,

which removes any parameter-independent additive energy bias exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import PairNoiseSpec, ShotHistogram

CONDITION_LIMIT = 100.0


class IllConditionedConfusion(ValueError):
    """Confusion matrix too close to singular to invert safely."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic readout confusion matrix N; N[i, j] estimates
    P(measure i | prepared j)."""

    matrix: np.ndarray
    shots_used: int | None = None   # None when built from exact rates

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            raise ValueError("confusion entries must lie in [0, 1]")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("confusion columns must sum to 1")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise IllConditionedConfusion(
                f"confusion matrix condition number {cond:.3g} exceeds {CONDITION_LIMIT}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_inverse", np.linalg.inv(m))

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse


def measure_confusion(noise: PairNoiseSpec, shots: int | None = 10_000,
                      stream: np.random.Generator | None = None) -> ConfusionMatrix:
    """Estimate the confusion matrix of a pair by basis-state preparation.

    State preparation is treated as ideal, so column j is a multinomial
    sample of the readout map applied to basis state j. With shots=None
    the exact map is returned (no sampling; stream unused).
    """
    exact = noise.confusion_map()
    if shots is None:
        return ConfusionMatrix(matrix=exact, shots_used=None)
    if shots < 1:
        raise ValueError("shots must be >= 1 per basis state")
    if stream is None:
        raise ValueError("a random stream is required when sampling")
    cols = [stream.multinomial(shots, exact[:, j]) / shots for j in range(4)]
    return ConfusionMatrix(matrix=np.column_stack(cols), shots_used=shots)


def invert_readout(measured: ShotHistogram | np.ndarray,
                   confusion: ConfusionMatrix) -> np.ndarray:
    """Apply N^-1 to a measured distribution (histogram or probability
    vector). The result is a quasi-probability vector: entries sum to 1
    but may be slightly negative."""
    if isinstance(measured, ShotHistogram):
        d = measured.frequencies()
    else:
        d = np.asarray(measured, dtype=float)
    return confusion.inverse @ d


def tflo_correct(e_measured: float, e_ref_exact: float, e_ref_measured: float) -> float:
    """Offset-correct an energy using one reference point."""
    return e_measured + e_ref_exact - e_ref_measured
