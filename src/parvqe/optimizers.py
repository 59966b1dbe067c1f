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
within a step: each step writes its slice of (K, R, ...) arrays allocated
before the first, and the traces are built from them after the last.
Every `Evaluator` runs (R, m, 2) points, m for each of R repeats, in one
kernel call. Called, it returns one Estimates with (R, m) fields, which
MGD's fit reads every step; `step` returns only the values SPSA's update
reads, and `estimates` the recorded steps' Estimates once, after the last
step. `spsa_run` and `mgd_run` hand their evaluator to the core with R = 1.

`batch_pair_evaluator` spreads each repeat's points over the table's
rows; `spsa_parallel_evaluator` runs each point of repeat r on the
table's first widths[r] rows and pools them, so runs of several pair
counts share one table and one lockstep call. Optimizer randomness comes only from injected streams:
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
_EYE = np.eye(N_SURROGATE_FEATURES)


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
    then the plus and minus points), a view of one (R, K, m) array (its
    base) that its lockstep core builds for all repeats after the last
    step."""

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
# (N, 2) array of centres -> their N exact energies
ExactCentres = Callable[[np.ndarray], Sequence[float]]


def _traces(batch: np.ndarray, est: Estimates, centres: np.ndarray, e_ni: np.ndarray,
            e_raw: np.ndarray, exact: ExactCentres) -> list[OptTrace]:
    """One trace per repeat from the step arrays its lockstep core filled
    (K steps, R repeats): the (K, R, m, 2) points and the (K, R, m)
    Estimates read there, the (K + 1, R, 2) centres (the last one final)
    and the (K, R) value and raw at each centre. The (R, K, m) POINT_DTYPE
    array is built here, once, and the exact energies come from one call
    of exact over every repeat's (K, 2) centres."""
    steps, repeats, m = est.value.shape
    points = np.empty((repeats, steps, m), POINT_DTYPE)
    for name, column in zip(POINT_DTYPE.names, (batch[..., 0], batch[..., 1], est.value,
                                                est.raw, est.std_err)):
        points[name] = column.swapaxes(0, 1)
    tracks = centres[:steps].swapaxes(0, 1)
    e_exact = np.asarray(exact(tracks.reshape(-1, 2)), dtype=float).reshape(repeats, steps)
    return [OptTrace(phi=tracks[r, :, 0], theta=tracks[r, :, 1], e_raw=e_raw[:, r],
                     e_ni=e_ni[:, r], e_exact=e_exact[r], points=points[r],
                     final_params=AnsatzParams(*centres[steps, r]))
            for r in range(repeats)]


def _exact_of(exact_fn: ExactFn) -> ExactCentres:
    """The one-centre oracle as an oracle over an array of centres."""
    return lambda centres: [exact_fn(AnsatzParams(*c)) for c in centres.tolist()]


def spsa_lockstep(cfg: SpsaConfig, evaluate: Evaluator, starts,
                  streams: Sequence[np.random.Generator],
                  exact: ExactCentres) -> list[OptTrace]:
    """One-stage SPSA on R independent repeats in lockstep, one trace each.

    Repeat r starts at starts[r] and draws its K Rademacher directions from
    streams[r] only, in one call before the first step (the same values
    and stream state as one size-2 draw per step). Each iteration asks
    `evaluate.step` once for all repeats' three points: the centre
    (recorded in the trace) and the two perturbed points for the gradient,
    which depend only on the centre. The update reads only their values;
    the trace's errors and raw estimates come from one
    `evaluate.estimates()` call after the last step. A repeat's trace
    therefore does not depend on R as long as the evaluator's does not.
    """
    repeats, steps = len(starts), cfg.iterations
    directions = _SIGNS[np.array([stream.integers(0, 2, size=(steps, 2)) for stream in streams],
                                 dtype=int).reshape(repeats, steps, 2)]
    batch = np.empty((steps, repeats, 3, 2))
    centres = np.empty((steps + 1, repeats, 2))
    centres[0] = [[s.phi, s.theta] for s in starts]
    gains = [cfg.gains(k) for k in range(1, steps + 1)]
    shifts = np.array([c_k for _, c_k in gains])[:, None] * directions
    for k, (a_k, c_k) in enumerate(gains):
        delta, theta, points = directions[:, k], centres[k], batch[k]
        points[:, 0] = theta
        np.add(theta, shifts[:, k], out=points[:, 1])
        np.subtract(theta, shifts[:, k], out=points[:, 2])
        value = evaluate.step(points)
        e_diff = value[:, 1] - value[:, 2]
        grad = (e_diff / (2.0 * c_k))[:, None] * delta   # 1/delta_i == delta_i
        np.subtract(theta, a_k * grad, out=centres[k + 1])
    est = evaluate.estimates()
    return _traces(batch, est, centres, est.value[..., 0], est.raw[..., 0], exact)


def spsa_run(cfg: SpsaConfig, evaluator: Evaluator, start: AnsatzParams,
             stream: np.random.Generator, exact_fn: ExactFn) -> OptTrace:
    """One-stage SPSA on one repeat: spsa_lockstep with R = 1, so each
    iteration steps evaluator on (1, 3, 2) points, in order the centre,
    recorded in the trace, then the two perturbed points for the
    gradient."""
    return spsa_lockstep(cfg, evaluator, [start], [stream], _exact_of(exact_fn))[0]


def _fit_surrogate(offsets: np.ndarray, values: np.ndarray, weights: np.ndarray,
                   ridge: np.ndarray) -> np.ndarray:
    """(R, 6) coefficients of R quadratic surrogates, each fitted to its m
    (offset, value) points by weighted least squares with its own ridge:
    offsets (R, m, 2), values and weights (R, m), ridge (R,). Values of
    shape (C, R, m) fit C value columns on the same points and weights in
    one solve, giving (C, R, 6). The (R, m, 6) design is written in place:
    its constant column, the offsets and the three quadratic terms. A
    zero-ridge repeat whose normal matrix is singular raises
    UnderDeterminedFit."""
    x, y = offsets[..., 0], offsets[..., 1]
    design = np.empty((*x.shape, N_SURROGATE_FEATURES))
    design[..., 0] = 1.0
    design[..., 1:3] = offsets
    np.multiply(x, x, out=design[..., 3])
    np.multiply(x, y, out=design[..., 4])
    np.multiply(y, y, out=design[..., 5])
    wx_t = (design * weights[..., None]).transpose(0, 2, 1)
    normal = wx_t @ design + ridge[:, None, None] * _EYE
    unregularised = ridge == 0.0
    if unregularised.any() and np.any(
            np.linalg.matrix_rank(normal[unregularised]) < N_SURROGATE_FEATURES):
        raise UnderDeterminedFit(
            f"{offsets.shape[1]} points cannot determine {N_SURROGATE_FEATURES} "
            "surrogate coefficients without regularisation")
    # values[..., None] gives each value column one contiguous (R, m, 1)
    # right-hand side (mgd_lockstep passes a (2, R, m) slice, not an (R, m,
    # C) stack), keeping each repeat's product and solve bit-identical to a
    # one-repeat fit; the columns share the normal matrices and one solve
    return np.linalg.solve(normal, wx_t @ values[..., None])[..., 0]


def mgd_lockstep(cfg: MgdConfig, evaluate: Evaluator, starts, points: int,
                 streams: Sequence[np.random.Generator],
                 exact: ExactCentres) -> list[OptTrace]:
    """Batch-parallel surrogate gradient descent on R independent repeats
    in lockstep, one trace each.

    Each iteration, repeat r samples `points` offsets uniformly from the
    trust box [-delta_k, delta_k]^2 with streams[r], and `evaluate` runs
    every repeat's points at once. Each repeat draws all its K iterations'
    unit offsets in one call before the first step and scales each step's
    as numpy's uniform does, so its values and stream state are those
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
    repeats, steps = len(starts), cfg.iterations
    unit = np.array([stream.random((steps, points, 2)) for stream in streams]
                    ).reshape(repeats, steps, points, 2)
    batch = np.empty((steps, repeats, points, 2))
    values, std_err = np.empty((steps, 2, repeats, points)), np.empty((steps, repeats, points))
    centres, fitted = np.empty((steps + 1, repeats, 2)), np.empty((steps, 2, repeats))
    centres[0] = [[s.phi, s.theta] for s in starts]
    gains = [cfg.gains(k) for k in range(1, steps + 1)]
    delta = np.array([delta_k for delta_k, _ in gains])[:, None, None]
    # every step's uniform(low, high) at once: low + (high - low) * random()
    every_offset = -delta + (delta - (-delta)) * unit
    for k, (_, gamma_k) in enumerate(gains):
        offsets = every_offset[:, k]
        np.add(centres[k][:, None, :], offsets, out=batch[k])
        est = evaluate(batch[k])
        values[k, 0], std_err[k], values[k, 1] = est
        variances = est.std_err ** 2
        mean_var = variances.sum(axis=1) / points    # numpy's mean, bit for bit
        noiseless = mean_var == 0.0
        weights = 1.0 / np.where(noiseless[:, None], 1.0,
                                 np.maximum(variances, 1e-12 * mean_var[:, None]))
        ridge = np.where(noiseless, 0.0, mean_var / MGD_L ** 2)
        coeffs = _fit_surrogate(offsets, values[k], weights, ridge)
        fitted[k] = coeffs[..., 0]
        np.subtract(centres[k], gamma_k * coeffs[0, :, 1:3], out=centres[k + 1])
    return _traces(batch, Estimates(values[:, 0], std_err, values[:, 1]), centres,
                   fitted[:, 0], fitted[:, 1], exact)


def mgd_run(cfg: MgdConfig, evaluator: Evaluator, start: AnsatzParams,
            points: int, stream: np.random.Generator, exact_fn: ExactFn) -> OptTrace:
    """Batch-parallel surrogate gradient descent on one repeat:
    mgd_lockstep with R = 1, so each iteration asks evaluator for
    (1, points, 2) points."""
    return mgd_lockstep(cfg, evaluator, [start], points, [stream], _exact_of(exact_fn))[0]


# --- evaluators ---------------------------------------------------------------

# rows of recorded counts an evaluator estimates in one call: a one-pair SPSA
# step (15 rows) waits for 34 more, a paper-scale one (9,900) is estimated
# as it runs; the counts held and a call's temporaries stay small
BLOCK_ROWS = 512


class Evaluator:
    """A lockstep evaluator of (R, m, 2) points: called, evaluate(points),
    an Estimates with (R, m) fields; step(points) runs the same, records it
    and returns its (R, m) values; estimates() returns the (K, R, m)
    Estimates of the K steps (of one m) recorded since its last call."""

    def __init__(self, evaluate=None):
        self.evaluate, self._done = evaluate, []     # recorded steps, (k, R, m) blocks

    def __call__(self, points: np.ndarray) -> Estimates:
        return self.evaluate(points)

    def step(self, points: np.ndarray) -> np.ndarray:
        est = self(points)
        self._done.append(Estimates(*(a[None] for a in est)))
        return est.value

    def estimates(self) -> Estimates:
        done, self._done = self._done, []
        return Estimates(*map(np.concatenate, zip(*done)))


def measure_batch(plan: BatchPlan, phi: np.ndarray, theta: np.ndarray,
                  streams) -> Estimates:
    """Run a plan's groups of batches (each group drawn from its own
    generator in streams) at angles (phi, theta) in one run_batch call and
    estimate every row's energy, in row order; NI-corrected when the
    plan's table has confusions."""
    return plan.estimate(run_batch(plan, phi, theta, streams)["histograms"])


class _TableEvaluator(Evaluator):
    """batch_pair_evaluator (widths None) and spsa_parallel_evaluator: a
    step records its counts and computes only its values, and the counts
    are estimated in one call per BLOCK_ROWS rows."""

    def __init__(self, table: PairTable, shots, streams, widths=None):
        super().__init__()
        self.table, self.shots, self.streams, self.widths = table, shots, streams, widths
        # widths all 1 pool nothing: one row's mean and sqrt(s * s) are its own bits
        self.runs = width_runs(widths) if widths and max(widths) > 1 else None
        self.plans, self._pending, self._m = {}, [], 0   # plans by m; counts of steps of _m

    def _run(self, points: np.ndarray) -> tuple[BatchPlan, np.ndarray]:
        repeats, m = points.shape[:2]
        if repeats != len(self.streams):
            raise ValueError(f"points for {repeats} repeats but {len(self.streams)} streams")
        flat, n = points.reshape(-1, 2), len(self.table.pairs)
        if m not in self.plans:
            spread = [np.arange(lo, min(lo + n, m)) - lo for lo in range(0, m, n)]
            self.plans[m] = plan_batches(self.table, [[np.arange(w)] * m for w in self.widths]
                                         if self.widths else [spread] * repeats, self.shots)
        if self.runs:
            flat = np.repeat(flat, np.repeat(self.widths, m), axis=0)
        return self.plans[m], run_batch(self.plans[m], flat[:, 0], flat[:, 1],
                                        self.streams)["histograms"]

    def _per_point(self, est: Estimates, shape: tuple[int, ...]) -> Estimates:
        """Estimates of shape (R, m), or (k, R, m), from the row estimates of
        one step, or of k steps, of m points each."""
        if not self.runs:
            return Estimates(*(a.reshape(shape) for a in est))
        m = shape[-1]
        k = len(est.value) // (m * self.runs[-1][2])     # the rows of one step: m * sum(widths)
        pooled = [aggregate_same_params(Estimates(*(a.reshape(k, -1)[:, m * lo:m * hi]
                                                    .reshape(-1, m, w) for a in est)))
                  for w, lo, hi in self.runs]
        return Estimates(*(np.concatenate([a.reshape(k, -1, m) for a in field], axis=1)
                           .reshape(shape) for field in zip(*pooled)))

    def __call__(self, points: np.ndarray) -> Estimates:
        plan, counts = self._run(points)
        return self._per_point(plan.estimate(counts), points.shape[:2])

    def step(self, points: np.ndarray) -> np.ndarray:
        m = points.shape[1]
        if (self._done or self._pending) and m != self._m:
            raise ValueError(f"a step of {m} points after steps of {self._m}")
        plan, counts = self._run(points)
        self._pending.append(counts)
        self._m = m
        if len(self._pending) * len(counts) >= BLOCK_ROWS:
            self._flush()
            return self._done[-1].value[-1]
        value = plan.value(counts)
        if not self.runs:
            return value.reshape(-1, m)
        # pooled as aggregate_same_params pools a value, bit for bit
        return np.concatenate([value[m * lo:m * hi].reshape(-1, m, w).mean(axis=-1)
                               for w, lo, hi in self.runs])

    def _flush(self) -> None:
        if self._pending:
            counts = self._pending[0] if len(self._pending) == 1 else np.concatenate(self._pending)
            self._done.append(self._per_point(self.plans[self._m].estimate(counts),
                                              (len(self._pending), len(self.streams), self._m)))
            self._pending = []

    def estimates(self) -> Estimates:
        self._flush()
        return super().estimates()


def batch_pair_evaluator(table: PairTable, shots,
                         streams: Sequence[np.random.Generator]) -> Evaluator:
    """Different-parameters parallelism for R repeats, repeat r drawing
    from streams[r] at shots[r] shots (one int for all): each repeat's m
    points are spread over the table's rows, ceil(m/len(rows)) batches per
    repeat, all in one kernel pass on the layout planned on the first call
    with m points. Repeat r draws its batches from its own generator, in
    order, so its counts do not depend on the repeats beside it."""
    if not table.pairs:
        raise ValueError("need at least one pair")
    return _TableEvaluator(table, shots, streams)


def spsa_parallel_evaluator(table: PairTable, shots, streams: Sequence[np.random.Generator],
                            widths=None) -> Evaluator:
    """Same-parameters parallelism for R repeats, repeat r drawing from
    streams[r] at shots[r] shots (one int for all): each point of repeat r
    is one batch on the table's first widths[r] rows (one int for all;
    every row by default), drawn as batch_pair_evaluator draws, and its
    row estimates are pooled (their mean, errors in quadrature)."""
    n = len(table.pairs)
    widths = np.broadcast_to(n if widths is None else widths, len(streams)).tolist()
    if not all(1 <= w <= n for w in widths):
        raise ValueError(f"row widths must lie in [1, {n}], got {widths}")
    return _TableEvaluator(table, shots, streams, widths)


def oracle_evaluator(h: HubbardParams = HubbardParams()) -> Evaluator:
    """Noiseless evaluator backed by the exact model (std_err = 0), for
    points of any leading shape: (..., 2) -> Estimates with (...) fields."""

    def evaluate(points: np.ndarray) -> Estimates:
        value = np.array([exact_energy(AnsatzParams(*p), h)
                          for p in points.reshape(-1, 2).tolist()]).reshape(points.shape[:-1])
        return Estimates(value=value, std_err=np.zeros(value.shape), raw=value)

    return Evaluator(evaluate)


oracle_batch_evaluator = oracle_evaluator   # the same oracle, under its earlier name
