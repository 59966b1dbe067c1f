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

import numpy as np

from .records import Record
from .simulator import PairNoiseSpec, ShotHistogram, confusion_maps

CONDITION_LIMIT = 100.0


class IllConditionedConfusion(ValueError):
    """Confusion matrix too close to singular to invert safely."""


def check_confusions(matrices: np.ndarray) -> np.ndarray:
    """Check an (n, 4, 4) stack of readout confusion matrices and return
    their inverses: every entry in [0, 1] (so none is nan), every column
    summing to 1 and every condition number at most CONDITION_LIMIT, else a
    ValueError (IllConditionedConfusion for the condition number)."""
    if matrices.ndim != 3 or matrices.shape[1:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {matrices.shape}")
    if not np.all((matrices >= -1e-12) & (matrices <= 1.0 + 1e-12)):   # also catches nan
        raise ValueError("confusion entries must lie in [0, 1]")
    if np.any(np.abs(matrices.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("confusion columns must sum to 1")
    cond = np.linalg.cond(matrices)
    bad = cond > CONDITION_LIMIT   # a singular matrix has cond inf
    if np.any(bad):
        raise IllConditionedConfusion(f"confusion matrix condition number "
                                      f"{cond[bad][0]:.3g} exceeds {CONDITION_LIMIT}")
    return np.linalg.inv(matrices)


class ConfusionMatrix(Record, frozen=True):
    """Column-stochastic readout confusion matrix N; N[i, j] estimates
    P(measure i | prepared j). inverse, N^-1, is computed once, as the
    matrix is checked."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", check_confusions(m[None])[0])


def measure_confusions(readouts: np.ndarray, shots: int | None, streams) -> np.ndarray:
    """Estimate the confusion matrices of n pairs by basis-state preparation,
    as one (n, 4, 4) stack in pair order.

    readouts has shape (n, 2, 2): per pair, per qubit, (eps01, eps10).
    State preparation is treated as ideal, so column j of pair i's matrix
    is a multinomial sample of its readout map applied to basis state j,
    drawn on streams[i] in column order. With shots=None the exact maps are
    returned (no sampling; streams unused). The stack is not checked here:
    compile_pairs checks and inverts it (check_confusions).
    """
    exact = confusion_maps(readouts)
    if shots is None:
        return exact
    if shots < 1:
        raise ValueError("shots must be >= 1 per basis state")
    if len(streams) != len(exact) or any(stream is None for stream in streams):
        raise ValueError("a random stream per pair is required when sampling")
    # one draw per pair: row j of m.T is the readout map of basis state j
    draws = [stream.multinomial(shots, m.T).T for stream, m in zip(streams, exact)]
    return np.array(draws).reshape(exact.shape) / shots


def measure_confusion(noise: PairNoiseSpec, shots: int | None = 10_000,
                      stream: np.random.Generator | None = None) -> ConfusionMatrix:
    """Estimate the confusion matrix of one pair (measure_confusions for
    the pair alone), checked and inverted: column j is a multinomial sample
    of the readout map applied to basis state j, or with shots=None the
    exact map (no sampling; stream unused)."""
    return ConfusionMatrix(measure_confusions(np.array([noise.readout]), shots, [stream])[0])


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
