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

Each optimizer has one lockstep core (`spsa_lockstep`, `mgd_lockstep`)
that advances R independent repeats together: every step asks the
evaluator once for the (R, m) points of all repeats and reads back one
Estimates with (R, m) fields, so the executor-backed evaluators run them
in one kernel call. `spsa_run` and `mgd_run` are the one-repeat adapters
over plain evaluators.

Both executor-backed evaluators batch through `batch_pair_evaluator`,
which spreads points over the table's rows; SPSA's same-parameters
evaluator is its pooled view over points repeated once per row.
Optimizer randomness comes only from the injected streams, one per
repeat, and each evaluator keeps one shot stream per repeat for its whole
run, from which every call draws that repeat's batches in order; so a
repeat's trace does not depend on R or on the repeats beside it.
Exact-energy diagnostics recorded in the trace never feed back into the
updates.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .csvio import csv_chunks, write_csv
from .executor import (
    EnergyEstimate,
    Estimates,
    PairTable,
    aggregate_same_params,
    estimate_counts,
    run_batch,
)
from .hubbard import AnsatzParams, HubbardParams, exact_energy

N_SURROGATE_FEATURES = 6    # constant, 2 linear, 3 quadratic terms in 2 dims
# Rademacher values indexed by integers(0, 2): the same draws and stream
# state as stream.choice([-1.0, 1.0]), at half the cost
_SIGNS = np.array([-1.0, 1.0])


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
    round(eta * 6), 6 being the number of surrogate features in 2 dims.
    Fewer than 6 points under-determine the surrogate; mgd_lockstep warns."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return int(np.floor(eta * N_SURROGATE_FEATURES + 0.5))


@dataclass(frozen=True, slots=True)
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

    def _csv_table(self) -> tuple[tuple[str, ...], list[list]]:
        header = ("iteration", "phi", "theta", "e_raw", "e_ni", "e_exact")
        return header, [[getattr(r, name) for r in self.records] for name in header]

    def to_csv(self) -> str:
        return "".join(csv_chunks(*self._csv_table()))

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
        return json.dumps(payload, sort_keys=True) + "\n"

    def write(self, csv_path: str | Path, json_path: str | Path | None = None) -> None:
        write_csv(csv_path, *self._csv_table())
        if json_path is not None:
            Path(json_path).write_text(self.to_json())


Evaluator = Callable[[AnsatzParams], EnergyEstimate]
# (m, 2) array of (phi, theta) points -> their m estimates
BatchEvaluator = Callable[[np.ndarray], Estimates]
ExactFn = Callable[[AnsatzParams], float]
# (R, m, 2) array, m points for each of R repeats -> Estimates with (R, m) fields
LockstepEvaluator = Callable[[np.ndarray], Estimates]
# (R, 2) array of the repeats' centres -> their R exact energies
ExactCentres = Callable[[np.ndarray], Sequence[float]]


def _record(k: int, centre: np.ndarray, e_raw, e_ni, e_exact, points=None) -> IterationRecord:
    params = AnsatzParams(*centre)
    return IterationRecord(iteration=k, phi=params.phi, theta=params.theta,
                           e_raw=float(e_raw), e_ni=float(e_ni),
                           e_exact=None if e_exact is None else float(e_exact),
                           points=points)


def _traces(records, theta: np.ndarray) -> list[OptTrace]:
    return [OptTrace(records=recs, final_params=AnsatzParams(*final))
            for recs, final in zip(records, theta)]


def _exact_of(exact_fn: ExactFn | None) -> ExactCentres | None:
    """The one-centre oracle as a per-step oracle over the repeats' centres."""
    if exact_fn is None:
        return None
    return lambda centres: [exact_fn(AnsatzParams(*c)) for c in centres.tolist()]


def spsa_lockstep(cfg: SpsaConfig, evaluate: LockstepEvaluator, starts,
                  streams: Sequence[np.random.Generator],
                  exact: ExactCentres | None = None) -> list[OptTrace]:
    """One-stage SPSA on R independent repeats in lockstep, one trace each.

    Repeat r starts at starts[r] and draws its Rademacher directions from
    streams[r] only. Each iteration asks `evaluate` once for all repeats'
    three points: the centre (recorded in the trace) and the two perturbed
    points for the gradient, which depend only on the centre. A repeat's
    trace therefore does not depend on R as long as the evaluator's does
    not.
    """
    theta = np.array([[s.phi, s.theta] for s in starts], dtype=float)
    records = [[] for _ in theta]
    for k in range(1, cfg.iterations + 1):
        a_k, c_k = cfg.gains(k)
        delta = np.array([_SIGNS[stream.integers(0, 2, size=2)] for stream in streams])
        est = evaluate(np.stack([theta, theta + c_k * delta, theta - c_k * delta], axis=1))
        e_exact = [None] * len(theta) if exact is None else exact(theta)
        for r, recs in enumerate(records):
            recs.append(_record(k, theta[r], est.raw[r, 0], est.value[r, 0], e_exact[r]))
        e_diff = est.value[:, 1] - est.value[:, 2]
        grad = (e_diff / (2.0 * c_k))[:, None] * delta   # 1/delta_i == delta_i
        theta = theta - a_k * grad
    return _traces(records, theta)


def spsa_run(cfg: SpsaConfig, evaluator: Evaluator, start: AnsatzParams,
             stream: np.random.Generator, exact_fn: ExactFn | None = None) -> OptTrace:
    """One-stage SPSA on one repeat (spsa_lockstep with R = 1). Three
    evaluations per iteration, in order: the centre, recorded in the
    trace, then the two perturbed points for the gradient."""

    def evaluate(points: np.ndarray) -> Estimates:
        ests = [evaluator(AnsatzParams(*point)) for point in points[0].tolist()]
        return Estimates(value=np.array([[e.value for e in ests]]),
                         std_err=np.array([[e.std_err for e in ests]]),
                         raw=np.array([[e.raw_value for e in ests]]))

    return spsa_lockstep(cfg, evaluate, [start], [stream], _exact_of(exact_fn))[0]


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


def mgd_lockstep(cfg: MgdConfig, evaluate: LockstepEvaluator, starts, points: int,
                 streams: Sequence[np.random.Generator],
                 exact: ExactCentres | None = None) -> list[OptTrace]:
    """Batch-parallel surrogate gradient descent on R independent repeats
    in lockstep, one trace each.

    Each iteration, repeat r samples `points` offsets uniformly from the
    trust box [-delta_k, delta_k]^2 with streams[r], and `evaluate` runs
    every repeat's points at once. Per repeat, the quadratic surrogate is
    fitted with observation weights 1/std_err^2 and ridge strength (mean
    observation variance)/l^2, and the repeat steps along the fitted
    linear coefficients.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if points < N_SURROGATE_FEATURES:
        warnings.warn(f"{points} points under-determine the quadratic surrogate",
                      stacklevel=3)
    theta = np.array([[s.phi, s.theta] for s in starts], dtype=float)
    records = [[] for _ in theta]
    for k in range(1, cfg.iterations + 1):
        delta_k, gamma_k = cfg.gains(k)
        offsets = np.array([stream.uniform(-delta_k, delta_k, size=(points, 2))
                            for stream in streams]).reshape(len(theta), points, 2)
        batch = theta[:, None, :] + offsets
        est = evaluate(batch)
        e_exact = [None] * len(theta) if exact is None else exact(theta)
        steps = np.empty_like(theta)
        for r in range(len(theta)):
            variances = est.std_err[r] ** 2
            mean_var = float(variances.mean())
            if mean_var == 0.0:
                weights = np.ones(points)
                ridge = 0.0
            else:
                weights = 1.0 / np.maximum(variances, 1e-12 * mean_var)
                ridge = mean_var / cfg.l ** 2
            coeffs = _fit_surrogate(offsets[r], est.value[r], weights, ridge)
            e_raw = _fit_surrogate(offsets[r], est.raw[r], weights, ridge)[0]
            records[r].append(_record(k, theta[r], e_raw, coeffs[0], e_exact[r],
                                      points=tuple(map(tuple, batch[r].tolist()))))
            steps[r] = gamma_k * coeffs[1:3]
        theta = theta - steps
    return _traces(records, theta)


def mgd_run(cfg: MgdConfig, batch_evaluator: BatchEvaluator, start: AnsatzParams,
            points: int, stream: np.random.Generator,
            exact_fn: ExactFn | None = None) -> OptTrace:
    """Batch-parallel surrogate gradient descent on one repeat
    (mgd_lockstep with R = 1): each iteration evaluates its `points`
    points in one call of batch_evaluator."""
    def evaluate(batch: np.ndarray) -> Estimates:
        return Estimates(*(a[None] for a in batch_evaluator(batch[0])))

    return mgd_lockstep(cfg, evaluate, [start], points, [stream], _exact_of(exact_fn))[0]


# --- executor-backed evaluators ----------------------------------------------

def measure_batch(table: PairTable, groups, phi: np.ndarray, theta: np.ndarray,
                  shots: int, streams) -> Estimates:
    """Run groups of batches of table rows (each group a sequence of row
    arrays, drawn from its own generator in streams) at angles (phi, theta)
    in one run_batch call and estimate every row's energy, in row order;
    NI-corrected when the table has confusions."""
    results = run_batch(table, groups, phi, theta, shots, streams)
    rows = np.concatenate([batch for group in groups for batch in group])
    return estimate_counts(table, rows, np.array([r.histograms for r in results]), shots)


def batch_pair_evaluator(table: PairTable, shots: int,
                         seeds: Sequence[int]) -> LockstepEvaluator:
    """Different-parameters parallelism for R repeats with evaluator seeds
    seeds[r]: each repeat's m points are spread over the table's rows,
    ceil(m/len(rows)) batches per repeat and call, and the estimates come
    back with shape (R, m). All batches of a call share one kernel pass.
    Repeat r keeps one generator, default_rng(seeds[r]), for every call,
    and each call draws its batches from it in order, so its counts do not
    depend on the repeats beside it."""
    if not table.pairs:
        raise ValueError("need at least one pair")
    n = len(table.pairs)
    streams = [np.random.default_rng(seed) for seed in seeds]

    def evaluate(points: np.ndarray) -> Estimates:
        repeats, m = points.shape[:2]
        chunks = [np.arange(lo, min(lo + n, m)) - lo for lo in range(0, m, n)]
        flat = points.reshape(-1, 2)
        est = measure_batch(table, [chunks] * repeats, flat[:, 0], flat[:, 1], shots,
                            streams)
        return Estimates(*(a.reshape(repeats, m) for a in est))

    return evaluate


def spsa_parallel_evaluator(table: PairTable, shots: int,
                            seeds: Sequence[int]) -> LockstepEvaluator:
    """Same-parameters parallelism for R repeats with evaluator seeds
    seeds[r]: the pooled view of batch_pair_evaluator. Each point is
    repeated once per table row, so its copies fill exactly one batch of
    every row at that point's angles, drawn from its repeat's generator as
    batch_pair_evaluator draws it, and that batch's row estimates are
    pooled (their mean, with errors in quadrature)."""
    spread = batch_pair_evaluator(table, shots, seeds)
    n = len(table.pairs)

    def evaluate(points: np.ndarray) -> Estimates:
        repeats, m = points.shape[:2]
        est = spread(np.repeat(points, n, axis=1))
        return aggregate_same_params(Estimates(*(a.reshape(repeats, m, n) for a in est)))

    return evaluate


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
