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
  ridge prior scale MGD_L.

Both follow fixed gain schedules, set by the module constants below.
Each optimizer has one lockstep core (`spsa_lockstep`, `mgd_lockstep`)
that advances R independent repeats together, with no loop over repeats
within a step. Every evaluator speaks one contract: (R, m, 2) points, m
for each of R repeats -> one Estimates with (R, m) fields, so the
executor-backed evaluators run a step in one kernel call. `spsa_run` and
`mgd_run` hand their evaluator to the core with R = 1.

`batch_pair_evaluator` spreads each repeat's points over the table's
rows; `spsa_parallel_evaluator` runs each point of repeat r on the
table's first widths[r] rows and pools them, so runs of several pair
counts share one table and one lockstep call. Each plans its layout on
its first call. Optimizer randomness comes only from injected streams:
the cores and the executor-backed evaluators each take one generator per
repeat and build none of their own. An evaluator draws a repeat's
batches from that repeat's own generator, at its own shot count, so a
repeat's trace does not depend on R or on the repeats beside it.
Exact-energy diagnostics recorded in the trace never feed back into the
updates: they are computed once per run, after the last step.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .executor import (
    BatchPlan,
    Estimates,
    PairTable,
    aggregate_same_params,
    plan_batches,
    run_batch,
    width_runs,
)
from .hubbard import AnsatzParams, HubbardParams, exact_energy
from .records import Record

N_SURROGATE_FEATURES = 6    # constant, 2 linear, 3 quadratic terms in 2 dims
# Rademacher values indexed by integers(0, 2): the same draws and stream
# state as stream.choice([-1.0, 1.0]), at half the cost
_SIGNS = np.array([-1.0, 1.0])


class UnderDeterminedFit(ValueError):
    """Too few points for the surrogate and no ridge to regularise it."""


# gain schedules: step sizes decay as 1/(k + A)^ALPHA, probe sizes as
# 1/k^GAMMA (Spall 1992), shared by SPSA and MGD
ALPHA, GAMMA, BIG_A = 0.602, 0.101, 1.0
SPSA_A, SPSA_C = 0.15, 0.2            # SPSA step and perturbation scales
MGD_DELTA, MGD_STEP = 0.6, 0.6        # MGD trust-box half-width and step scales
MGD_L = 0.2                           # MGD ridge prior scale


class SpsaConfig(Record, frozen=True):
    iterations: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def gains(self, k: int) -> tuple[float, float]:
        """(a_k, c_k) for 1-based iteration k."""
        return SPSA_A / (k + BIG_A) ** ALPHA, SPSA_C / k ** GAMMA


class MgdConfig(Record, frozen=True):
    iterations: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def gains(self, k: int) -> tuple[float, float]:
        """(delta_k, gamma_k) for 1-based iteration k."""
        return MGD_DELTA / k ** GAMMA, MGD_STEP / (k + BIG_A) ** ALPHA


def n_points_from_eta(eta: float) -> int:
    """Points per iteration implied by the point-count metaparameter:
    round(eta * 6), 6 being the number of surrogate features in 2 dims.
    Fewer than 6 points under-determine the surrogate; mgd_lockstep warns."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return int(np.floor(eta * N_SURROGATE_FEATURES + 0.5))


class IterationRecord(NamedTuple):
    """One row of an OptTrace, read from its columns."""

    iteration: int
    phi: float
    theta: float
    e_raw: float                 # estimate before readout inversion
    e_ni: float                  # estimate the optimizer consumed
    e_exact: float               # oracle diagnostic, never fed back


# one evaluated point: its angles and the Estimates the optimizer read there
POINT_DTYPE = np.dtype([(name, "<f8") for name in ("phi", "theta", "value", "raw", "std_err")])


class OptTrace(Record, frozen=True, eq=False):
    """One repeat's run as (K,) columns over its K iterations: the centre
    (phi, theta), the raw and noise-inverted estimates there and the exact
    energy; and `points`, the (K, m) POINT_DTYPE array of every point
    evaluated at each iteration with its estimates (for SPSA the centre,
    then the plus and minus points), a view of the (R, K, m) array its
    lockstep core filled for all repeats (its base)."""

    phi: np.ndarray
    theta: np.ndarray
    e_raw: np.ndarray
    e_ni: np.ndarray
    e_exact: np.ndarray
    points: np.ndarray
    final_params: AnsatzParams

    @property
    def iteration(self) -> np.ndarray:
        return np.arange(1, len(self.phi) + 1)

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """The trace row by row, a read-only view of its columns."""
        return tuple(map(IterationRecord, self.iteration.tolist(), self.phi.tolist(),
                         self.theta.tolist(), self.e_raw.tolist(), self.e_ni.tolist(),
                         self.e_exact.tolist()))

    @property
    def table(self) -> tuple[tuple[str, ...], list[list]]:
        """The trace CSV's header and columns, each column a list (csvio's
        np.unique path gains nothing here)."""
        columns = [self.iteration, self.phi, self.theta, self.e_raw, self.e_ni, self.e_exact]
        return IterationRecord._fields, [c.tolist() for c in columns]


ExactFn = Callable[[AnsatzParams], float]
# (R, m, 2) array, m points for each of R repeats -> Estimates with (R, m) fields
LockstepEvaluator = Callable[[np.ndarray], Estimates]
# (N, 2) array of centres -> their N exact energies
ExactCentres = Callable[[np.ndarray], Sequence[float]]


def _record(points: np.ndarray, batch: np.ndarray, est: Estimates) -> None:
    """Fill one step's (R, m) slice of the points array from the (R, m, 2)
    points evaluated and the Estimates read there."""
    points["phi"], points["theta"] = batch[..., 0], batch[..., 1]
    points["value"], points["std_err"], points["raw"] = est


def _traces(steps, points: np.ndarray, final: np.ndarray,
            exact: ExactCentres) -> list[OptTrace]:
    """One trace per repeat from the steps' columns over all R repeats:
    per step the (R, 2) centres and the (R,) e_raw and e_ni, each stacked
    along a new iteration axis, and the (R, K, m) points array. The exact
    energies come from one call of exact over every repeat's (K, 2)
    centres."""
    centres, e_raw, e_ni = (np.stack(col, axis=1) for col in zip(*steps))
    e_exact = np.asarray(exact(centres.reshape(-1, 2)), dtype=float).reshape(e_raw.shape)
    return [OptTrace(phi=centres[r, :, 0], theta=centres[r, :, 1], e_raw=e_raw[r],
                     e_ni=e_ni[r], e_exact=e_exact[r], points=points[r],
                     final_params=AnsatzParams(*final[r]))
            for r in range(len(final))]


def _exact_of(exact_fn: ExactFn) -> ExactCentres:
    """The one-centre oracle as an oracle over an array of centres."""
    return lambda centres: [exact_fn(AnsatzParams(*c)) for c in centres.tolist()]


def spsa_lockstep(cfg: SpsaConfig, evaluate: LockstepEvaluator, starts,
                  streams: Sequence[np.random.Generator],
                  exact: ExactCentres) -> list[OptTrace]:
    """One-stage SPSA on R independent repeats in lockstep, one trace each.

    Repeat r starts at starts[r] and draws its K Rademacher directions from
    streams[r] only, in one call before the first step (the same values
    and stream state as one size-2 draw per step). Each iteration asks
    `evaluate` once for all repeats' three points: the centre (recorded in
    the trace) and the two perturbed points for the gradient, which depend
    only on the centre. A repeat's trace therefore does not depend on R as
    long as the evaluator's does not.
    """
    theta = np.array([[s.phi, s.theta] for s in starts], dtype=float)
    directions = _SIGNS[np.array([stream.integers(0, 2, size=(cfg.iterations, 2))
                                  for stream in streams], dtype=int)
                        .reshape(len(theta), cfg.iterations, 2)]
    steps, points = [], np.empty((len(theta), cfg.iterations, 3), POINT_DTYPE)
    for k in range(1, cfg.iterations + 1):
        a_k, c_k = cfg.gains(k)
        delta = directions[:, k - 1]
        batch = np.stack([theta, theta + c_k * delta, theta - c_k * delta], axis=1)
        est = evaluate(batch)
        _record(points[:, k - 1], batch, est)
        steps.append((theta, est.raw[:, 0], est.value[:, 0]))
        e_diff = est.value[:, 1] - est.value[:, 2]
        grad = (e_diff / (2.0 * c_k))[:, None] * delta   # 1/delta_i == delta_i
        theta = theta - a_k * grad
    return _traces(steps, points, theta, exact)


def spsa_run(cfg: SpsaConfig, evaluator: LockstepEvaluator, start: AnsatzParams,
             stream: np.random.Generator, exact_fn: ExactFn) -> OptTrace:
    """One-stage SPSA on one repeat: spsa_lockstep with R = 1, so each
    iteration asks evaluator for (1, 3, 2) points, in order the centre,
    recorded in the trace, then the two perturbed points for the
    gradient."""
    return spsa_lockstep(cfg, evaluator, [start], [stream], _exact_of(exact_fn))[0]


def _fit_surrogate(offsets: np.ndarray, values: np.ndarray, weights: np.ndarray,
                   ridge: np.ndarray) -> np.ndarray:
    """(R, 6) coefficients of R quadratic surrogates, each fitted to its m
    (offset, value) points by weighted least squares with its own ridge:
    offsets (R, m, 2), values and weights (R, m), ridge (R,). Values of
    shape (C, R, m) fit C value columns on the same points and weights in
    one solve, giving (C, R, 6). A zero-ridge repeat whose normal matrix
    is singular raises UnderDeterminedFit."""
    x, y = offsets[..., 0], offsets[..., 1]
    design = np.stack([np.ones_like(x), x, y, x ** 2, x * y, y ** 2], axis=-1)
    wx_t = (design * weights[..., None]).transpose(0, 2, 1)
    normal = wx_t @ design + ridge[:, None, None] * np.eye(N_SURROGATE_FEATURES)
    unregularised = ridge == 0.0
    if unregularised.any() and np.any(
            np.linalg.matrix_rank(normal[unregularised]) < N_SURROGATE_FEATURES):
        raise UnderDeterminedFit(
            f"{offsets.shape[1]} points cannot determine {N_SURROGATE_FEATURES} "
            "surrogate coefficients without regularisation")
    # one contiguous (R, m, 1) right-hand side per value column (not one
    # (R, m, C) stack) keeps each repeat's matrix-vector product and solve
    # bit-identical to a one-repeat fit; the columns broadcast over the
    # same normal matrices, so one solve fits them all
    return np.linalg.solve(normal, wx_t @ values[..., None])[..., 0]


def mgd_lockstep(cfg: MgdConfig, evaluate: LockstepEvaluator, starts, points: int,
                 streams: Sequence[np.random.Generator],
                 exact: ExactCentres) -> list[OptTrace]:
    """Batch-parallel surrogate gradient descent on R independent repeats
    in lockstep, one trace each.

    Each iteration, repeat r samples `points` offsets uniformly from the
    trust box [-delta_k, delta_k]^2 with streams[r], and `evaluate` runs
    every repeat's points at once. Each repeat draws all its K iterations'
    unit offsets in one call before the first step and scales them per
    step as numpy's uniform does, so its values and stream state are those
    of one uniform draw per step. Every repeat's quadratic surrogate is
    fitted to its value and raw estimates in one batched solve, with
    observation weights 1/std_err^2 and ridge strength (mean observation
    variance)/MGD_L^2 (unit weights and no ridge for a noiseless repeat), and
    each repeat steps along its fitted linear coefficients.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if points < N_SURROGATE_FEATURES:
        warnings.warn(f"{points} points under-determine the quadratic surrogate",
                      stacklevel=3)
    theta = np.array([[s.phi, s.theta] for s in starts], dtype=float)
    unit = np.array([stream.random((cfg.iterations, points, 2)) for stream in streams]
                    ).reshape(len(theta), cfg.iterations, points, 2)
    steps, points = [], np.empty(unit.shape[:3], POINT_DTYPE)
    for k in range(1, cfg.iterations + 1):
        delta_k, gamma_k = cfg.gains(k)
        # uniform(low, high) is low + (high - low) * random()
        offsets = -delta_k + (delta_k - (-delta_k)) * unit[:, k - 1]
        batch = theta[:, None, :] + offsets
        est = evaluate(batch)
        variances = est.std_err ** 2
        mean_var = variances.mean(axis=1)
        noiseless = mean_var == 0.0
        weights = 1.0 / np.where(noiseless[:, None], 1.0,
                                 np.maximum(variances, 1e-12 * mean_var[:, None]))
        ridge = np.where(noiseless, 0.0, mean_var / MGD_L ** 2)
        coeffs, raw_coeffs = _fit_surrogate(offsets, np.stack([est.value, est.raw]),
                                            weights, ridge)
        _record(points[:, k - 1], batch, est)
        steps.append((theta, raw_coeffs[:, 0], coeffs[:, 0]))
        theta = theta - gamma_k * coeffs[:, 1:3]
    return _traces(steps, points, theta, exact)


def mgd_run(cfg: MgdConfig, evaluator: LockstepEvaluator, start: AnsatzParams,
            points: int, stream: np.random.Generator, exact_fn: ExactFn) -> OptTrace:
    """Batch-parallel surrogate gradient descent on one repeat:
    mgd_lockstep with R = 1, so each iteration asks evaluator for
    (1, points, 2) points."""
    return mgd_lockstep(cfg, evaluator, [start], points, [stream], _exact_of(exact_fn))[0]


# --- executor-backed evaluators ----------------------------------------------

def measure_batch(plan: BatchPlan, phi: np.ndarray, theta: np.ndarray,
                  streams) -> Estimates:
    """Run a plan's groups of batches (each group drawn from its own
    generator in streams) at angles (phi, theta) in one run_batch call and
    estimate every row's energy, in row order; NI-corrected when the
    plan's table has confusions."""
    return plan.estimate(run_batch(plan, phi, theta, streams)["histograms"])


def batch_pair_evaluator(table: PairTable, shots,
                         streams: Sequence[np.random.Generator]) -> LockstepEvaluator:
    """Different-parameters parallelism for R repeats, repeat r drawing
    from streams[r] at shots[r] shots (one int for all): each repeat's m
    points are spread over the table's rows, ceil(m/len(rows)) batches per
    repeat and call, and the estimates come back with shape (R, m). All
    batches of a call share one kernel pass, and the layout of (R, m)
    points is planned on its first call and reused by every later one.
    Repeat r keeps its generator for every call, and each call draws its
    batches from it in order, so its counts do not depend on the repeats
    beside it."""
    if not table.pairs:
        raise ValueError("need at least one pair")
    n = len(table.pairs)
    plans: dict[tuple[int, int], BatchPlan] = {}

    def evaluate(points: np.ndarray) -> Estimates:
        repeats, m = points.shape[:2]
        plan = plans.get((repeats, m))
        if plan is None:
            chunks = [np.arange(lo, min(lo + n, m)) - lo for lo in range(0, m, n)]
            plan = plans[repeats, m] = plan_batches(table, [chunks] * repeats, shots)
        flat = points.reshape(-1, 2)
        est = measure_batch(plan, flat[:, 0], flat[:, 1], streams)
        return Estimates(*(a.reshape(repeats, m) for a in est))

    return evaluate


def spsa_parallel_evaluator(table: PairTable, shots, streams: Sequence[np.random.Generator],
                            widths=None) -> LockstepEvaluator:
    """Same-parameters parallelism for R repeats, repeat r drawing from
    streams[r] at shots[r] shots (one int for all): each point of repeat r
    is one batch on the table's first widths[r] rows (one int for all;
    every row by default), drawn as batch_pair_evaluator draws, and its
    row estimates are pooled (their mean, errors in quadrature). A one-row
    table has nothing to pool: its evaluator is batch_pair_evaluator
    itself, whose value and raw are bit for bit the pooled ones and whose
    std_err is the row's own."""
    n = len(table.pairs)
    widths = np.broadcast_to(n if widths is None else widths, len(streams)).tolist()
    if not all(1 <= w <= n for w in widths):
        raise ValueError(f"row widths must lie in [1, {n}], got {widths}")
    if n == 1:
        return batch_pair_evaluator(table, shots, streams)
    runs = width_runs(widths)
    plans: dict[int, BatchPlan] = {}

    def evaluate(points: np.ndarray) -> Estimates:
        m = points.shape[1]
        plan = plans.get(m)
        if plan is None:
            plan = plans[m] = plan_batches(table, [[np.arange(w)] * m for w in widths], shots)
        flat = np.repeat(points.reshape(-1, 2), np.repeat(widths, m), axis=0)
        est = measure_batch(plan, flat[:, 0], flat[:, 1], streams)
        pooled = [aggregate_same_params(Estimates(*(a[m * lo:m * hi].reshape(-1, m, w)
                                                    for a in est))) for w, lo, hi in runs]
        return Estimates(*map(np.concatenate, zip(*pooled)))

    return evaluate


def oracle_evaluator(h: HubbardParams = HubbardParams()) -> LockstepEvaluator:
    """Noiseless evaluator backed by the exact model (std_err = 0), for
    points of any leading shape: (..., 2) -> Estimates with (...) fields."""

    def evaluate(points: np.ndarray) -> Estimates:
        value = np.array([exact_energy(AnsatzParams(*p), h)
                          for p in points.reshape(-1, 2).tolist()]).reshape(points.shape[:-1])
        return Estimates(value=value, std_err=np.zeros(value.shape), raw=value)

    return evaluate


oracle_batch_evaluator = oracle_evaluator   # the same oracle, under its earlier name
