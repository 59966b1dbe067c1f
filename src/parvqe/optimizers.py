"""Stochastic optimizers over the two-parameter energy surface.

Two optimizers are provided, each matched to a form of parallelism:

* SPSA estimates the gradient from two evaluations along a random
  Rademacher direction. Parallelism enters through the evaluator, which
  may pool the same circuit over many pairs. One-stage schedule: the
  shot count never changes across iterations.

* Surrogate gradient descent (batch-parallel) samples points in a
  shrinking trust region, evaluates them in one batch, fits a quadratic
  surrogate by ridge-regularised weighted least squares and descends
  along the surrogate's linear coefficients. The surrogate is refitted
  from scratch each iteration (no carryover of earlier points), with the
  ridge prior scale set by the config's `l`.

Optimizer randomness comes only from the injected stream; evaluators
manage their own derived streams. Exact-energy diagnostics recorded in
the trace never feed back into the updates.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .executor import (
    EnergyEstimate,
    Estimates,
    PairTable,
    aggregate_same_params,
    estimate_counts,
    run_batch,
)
from .hubbard import AnsatzParams, HubbardParams, exact_energy
from .seeding import derive_seed

N_SURROGATE_FEATURES = 6    # constant, 2 linear, 3 quadratic terms in 2 dims


class UnderDeterminedFit(ValueError):
    """Too few points for the surrogate and no ridge to regularise it."""


@dataclass(frozen=True)
class SpsaConfig:
    iterations: int
    a: float = 0.15
    c: float = 0.2
    alpha: float = 0.602
    gamma: float = 0.101
    big_a: float = 1.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if min(self.a, self.c, self.alpha, self.gamma) <= 0:
            raise ValueError("gain parameters must be positive")
        if self.alpha <= self.gamma:
            raise ValueError("alpha must exceed gamma")

    def gains(self, k: int) -> tuple[float, float]:
        """(a_k, c_k) for 1-based iteration k."""
        return self.a / (k + self.big_a) ** self.alpha, self.c / k ** self.gamma


@dataclass(frozen=True)
class MgdConfig:
    iterations: int
    delta: float = 0.6
    xi: float = 0.101
    l: float = 0.2
    gamma: float = 0.6
    alpha: float = 0.602
    big_a: float = 1.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not (0 < self.xi < self.alpha):
            raise ValueError("xi must satisfy 0 < xi < alpha")
        if self.gamma <= 0 or self.l <= 0:
            raise ValueError("gamma and l must be positive")

    def gains(self, k: int) -> tuple[float, float]:
        """(delta_k, gamma_k) for 1-based iteration k."""
        return self.delta / k ** self.xi, self.gamma / (k + self.big_a) ** self.alpha


def n_points_from_eta(eta: float) -> int:
    """Points per iteration implied by the point-count metaparameter:
    round(eta * 6), 6 being the number of surrogate features in 2 dims."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = int(np.floor(eta * N_SURROGATE_FEATURES + 0.5))
    if n < N_SURROGATE_FEATURES:
        warnings.warn(f"{n} points under-determine the quadratic surrogate "
                      f"({N_SURROGATE_FEATURES} features)", stacklevel=2)
    return n


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    phi: float
    theta: float
    e_raw: float                 # estimate before readout inversion
    e_ni: float                  # estimate the optimizer consumed
    e_exact: float | None        # oracle diagnostic, never fed back
    points: tuple[tuple[float, float], ...] | None = None


@dataclass
class OptTrace:
    records: list[IterationRecord]
    final_params: AnsatzParams

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", "phi", "theta", "e_raw", "e_ni", "e_exact"])
        for r in self.records:
            writer.writerow([r.iteration, repr(r.phi), repr(r.theta),
                             repr(r.e_raw), repr(r.e_ni),
                             "" if r.e_exact is None else repr(r.e_exact)])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "final_params": {"phi": self.final_params.phi, "theta": self.final_params.theta},
            "records": [
                {"iteration": r.iteration, "phi": r.phi, "theta": r.theta,
                 "e_raw": r.e_raw, "e_ni": r.e_ni, "e_exact": r.e_exact,
                 "points": None if r.points is None else [list(p) for p in r.points]}
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def write(self, csv_path: str | Path, json_path: str | Path | None = None) -> None:
        Path(csv_path).write_text(self.to_csv())
        if json_path is not None:
            Path(json_path).write_text(self.to_json())


Evaluator = Callable[[AnsatzParams], EnergyEstimate]
# (m, 2) array of (phi, theta) points -> their m estimates
BatchEvaluator = Callable[[np.ndarray], Estimates]
ExactFn = Callable[[AnsatzParams], float]


def spsa_run(cfg: SpsaConfig, evaluator: Evaluator, start: AnsatzParams,
             stream: np.random.Generator, exact_fn: ExactFn | None = None) -> OptTrace:
    """One-stage SPSA. Three evaluations per iteration: the centre point
    (recorded in the trace) and the two perturbed points for the gradient."""
    theta = np.array([start.phi, start.theta], dtype=float)
    records = []
    for k in range(1, cfg.iterations + 1):
        center = AnsatzParams(theta[0], theta[1])
        est = evaluator(center)
        records.append(IterationRecord(
            iteration=k, phi=center.phi, theta=center.theta,
            e_raw=est.raw_value, e_ni=est.value,
            e_exact=None if exact_fn is None else exact_fn(center)))
        a_k, c_k = cfg.gains(k)
        delta = stream.choice([-1.0, 1.0], size=2)
        e_plus = evaluator(AnsatzParams(*(theta + c_k * delta))).value
        e_minus = evaluator(AnsatzParams(*(theta - c_k * delta))).value
        grad = (e_plus - e_minus) / (2.0 * c_k) * delta   # 1/delta_i == delta_i
        theta = theta - a_k * grad
    return OptTrace(records=records, final_params=AnsatzParams(theta[0], theta[1]))


def _fit_surrogate(offsets: np.ndarray, values: np.ndarray, weights: np.ndarray,
                   ridge: float) -> np.ndarray:
    design = np.column_stack([
        np.ones(len(offsets)), offsets[:, 0], offsets[:, 1],
        offsets[:, 0] ** 2, offsets[:, 0] * offsets[:, 1], offsets[:, 1] ** 2,
    ])
    wx = design * weights[:, None]
    normal = wx.T @ design + ridge * np.eye(N_SURROGATE_FEATURES)
    if ridge == 0.0 and np.linalg.matrix_rank(normal) < N_SURROGATE_FEATURES:
        raise UnderDeterminedFit(
            f"{len(offsets)} points cannot determine {N_SURROGATE_FEATURES} "
            "surrogate coefficients without regularisation")
    return np.linalg.solve(normal, wx.T @ values)


def mgd_run(cfg: MgdConfig, batch_evaluator: BatchEvaluator, start: AnsatzParams,
            points: int, stream: np.random.Generator,
            exact_fn: ExactFn | None = None) -> OptTrace:
    """Batch-parallel surrogate gradient descent.

    Each iteration samples `points` offsets uniformly from the trust box
    [-delta_k, delta_k]^2, evaluates them in a single batch, fits the
    quadratic surrogate with observation weights 1/std_err^2 and ridge
    strength (mean observation variance)/l^2, and steps along the fitted
    linear coefficients.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if points < N_SURROGATE_FEATURES:
        warnings.warn(f"{points} points under-determine the quadratic surrogate",
                      stacklevel=2)
    theta = np.array([start.phi, start.theta], dtype=float)
    records = []
    for k in range(1, cfg.iterations + 1):
        delta_k, gamma_k = cfg.gains(k)
        offsets = stream.uniform(-delta_k, delta_k, size=(points, 2))
        batch = theta + offsets
        est = batch_evaluator(batch)
        variances = est.std_err ** 2
        mean_var = float(variances.mean())
        if mean_var == 0.0:
            weights = np.ones(points)
            ridge = 0.0
        else:
            weights = 1.0 / np.maximum(variances, 1e-12 * mean_var)
            ridge = mean_var / cfg.l ** 2
        coeffs = _fit_surrogate(offsets, est.value, weights, ridge)
        e_raw = float(_fit_surrogate(offsets, est.raw, weights, ridge)[0])
        center = AnsatzParams(theta[0], theta[1])
        records.append(IterationRecord(
            iteration=k, phi=center.phi, theta=center.theta,
            e_raw=e_raw, e_ni=float(coeffs[0]),
            e_exact=None if exact_fn is None else exact_fn(center),
            points=tuple(map(tuple, batch.tolist()))))
        theta = theta - gamma_k * coeffs[1:3]
    return OptTrace(records=records, final_params=AnsatzParams(theta[0], theta[1]))


# --- executor-backed evaluators ----------------------------------------------

def measure_batch(table: PairTable, rows, phi: np.ndarray, theta: np.ndarray,
                  shots: int, seed: int) -> Estimates:
    """Run one batch of table rows at angles (phi, theta) and estimate every
    row's energy, in row order; NI-corrected when the table has confusions."""
    results = run_batch(table, rows, phi, theta, shots, seed)
    return estimate_counts(table, rows, np.array([r.histograms for r in results]), shots)


def spsa_parallel_evaluator(table: PairTable, shots: int, seed: int) -> Evaluator:
    """Same-parameters parallelism: every energy query runs one batch with
    identical parameters on all rows of the table and pools the estimates."""
    if not table.pairs:
        raise ValueError("need at least one pair")
    rows = np.arange(len(table.pairs))
    counter = itertools.count()

    def evaluate(params: AnsatzParams) -> EnergyEstimate:
        return aggregate_same_params(measure_batch(
            table, rows, np.full(len(rows), params.phi), np.full(len(rows), params.theta),
            shots, derive_seed(seed, next(counter))))

    return evaluate


def batch_pair_evaluator(table: PairTable, shots: int, seed: int) -> BatchEvaluator:
    """Different-parameters parallelism: the points are spread over the
    table's rows, ceil(m/len(rows)) batches per call."""
    if not table.pairs:
        raise ValueError("need at least one pair")
    rows = np.arange(len(table.pairs))
    counter = itertools.count()

    def evaluate_batch(points: np.ndarray) -> Estimates:
        parts = []
        for lo in range(0, len(points), len(rows)):
            chunk = points[lo:lo + len(rows)]
            parts.append(measure_batch(table, rows[:len(chunk)], chunk[:, 0], chunk[:, 1],
                                       shots, derive_seed(seed, next(counter))))
        return Estimates(*map(np.concatenate, zip(*parts)))

    return evaluate_batch


def oracle_evaluator(h: HubbardParams = HubbardParams()) -> Evaluator:
    """Noiseless evaluator backed by the exact model (std_err = 0)."""

    def evaluate(params: AnsatzParams) -> EnergyEstimate:
        return EnergyEstimate(value=exact_energy(params, h), std_err=0.0)

    return evaluate


def oracle_batch_evaluator(h: HubbardParams = HubbardParams()) -> BatchEvaluator:
    """Noiseless batch evaluator backed by the exact model (std_err = 0)."""

    def evaluate_batch(points: np.ndarray) -> Estimates:
        value = np.array([exact_energy(AnsatzParams(*p), h) for p in points.tolist()])
        return Estimates(value=value, std_err=np.zeros(len(value)), raw=value)

    return evaluate_batch
