"""Batched execution of pair circuits, energy estimation and cost modelling.

A run compiles its selected pairs once into a PairTable. A batch assigns
ansatz parameters to vertex-disjoint rows of the table and runs both
measurement settings on every row. Every run is a list of groups of such
batches, one group per key path (an optimizer repeat, a command's
measurement stage), each with the one generator that key path keeps for
its whole run. plan_batches checks and gathers a layout of groups once
into a BatchPlan, and every run_batch call on it simulates all its
batches in one vectorized pass, holding no per-pair objects, and draws
each group's histograms in one multinomial draw on its generator, in
batch order. Each batch keeps its own crosstalk flags, so a key path's
counts depend only on its own batches, never on the groups beside it.

Wall-clock time of a batched run on a remote device is modelled, not
measured, as

    batches * (t_base + beta * pairs + settings * shots * (tau + kappa * pairs)),

a fixed per-batch cost, a per-pair cost, a per-shot cost and a readout
volume term: every shot returns a bitstring for each active qubit, so the
data a batch returns grows as pairs x shots. The shipped model is fitted
to observed (pairs, batches, shots, settings, seconds) tuples by
nonnegative least squares in tools/fit_cost_model.py.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .device import DeviceTopology, Pair
from .hubbard import AnsatzParams, HubbardParams
from .mitigation import ConfusionMatrix, check_confusions
from .records import Record
from .simulator import (HOPPING_SIGNS, ONSITE_ZZ_SIGN, Z0_OUTCOMES, Z1_OUTCOMES, ZZ_OUTCOMES,
                        PairNoiseSpec, apply_terms, confusion_maps, fidelity_to_depolarizing,
                        kernel_terms)


class Estimates(NamedTuple):
    """Energy estimates of a batch's rows: value (noise-inverted when the
    table has confusions), its multinomial standard error, and raw, the
    estimate before readout inversion (value itself without NI). Fields
    are arrays of any one shape, or floats for a single estimate."""

    value: np.ndarray
    std_err: np.ndarray
    raw: np.ndarray


class PairTable(Record, frozen=True):
    """A selection of pairs compiled once for every batch run on it.

    Row i holds pair i's kernel_terms, from its readout map and its
    depolarizing probability without (base[0, i], slope[0, i]) and with
    (base[1, i], slope[1, i]) crosstalk, and its (2, 4) estimation
    coefficients: per setting, inverse.T @ c with matrix i of the confusion
    stack compile_pairs was given, the raw outcome coefficients c without
    one; no field holds an object per pair. neighbours[i, j] says rows i and j
    are joined by an edge; it is None when crosstalk_p is 0. A batch runs
    any subset of rows, so the table itself need not be vertex-disjoint.
    """

    pairs: tuple[Pair, ...]
    qubits: np.ndarray                # (n, 2)
    neighbours: np.ndarray | None     # (n, n) bool
    base: np.ndarray                  # (2, n, 2, 4)
    slope: np.ndarray                 # (2, n, 2, 4)
    coeffs: np.ndarray                # (n, 2, 4)
    raw_coeffs: np.ndarray | None     # (2, 4) with NI, else None
    offset: float                     # u/2, the constant energy term


def setting_coefficients(h: HubbardParams) -> np.ndarray:
    """Outcome coefficients c of the two settings, shape (2, 4), onsite
    then hopping: E = u/2 + c[0] @ p_onsite + c[1] @ p_hopping."""
    return np.array([(h.u / 2.0) * ONSITE_ZZ_SIGN * ZZ_OUTCOMES,
                     -h.t * (HOPPING_SIGNS[0] * Z0_OUTCOMES + HOPPING_SIGNS[1] * Z1_OUTCOMES)])


def compile_pairs(topology: DeviceTopology, pairs, h: HubbardParams = HubbardParams(),
                  confusions: np.ndarray | None = None,
                  crosstalk_p: float = 0.0) -> PairTable:
    """Compile pairs (each an edge of the topology) into a PairTable. With
    confusions, the (n, 4, 4) stack of the pairs' confusion matrices in pair
    order, its rows are noise-inverted: the stack is checked and inverted
    here (check_confusions, which raises IllConditionedConfusion). A
    crosstalk_p outside [0, 1] is a ValueError."""
    if not 0.0 <= crosstalk_p <= 1.0:   # NaN fails too
        raise ValueError(f"crosstalk_p must be in [0, 1], got {crosstalk_p}")
    pairs = tuple(pairs)
    n = len(pairs)
    neighbours = None
    if crosstalk_p > 0.0:
        neighbours = np.array([[i != j and topology.pairs_are_neighbors(a, b)
                                for j, b in enumerate(pairs)]
                               for i, a in enumerate(pairs)], dtype=bool).reshape(n, n)
    c = setting_coefficients(h)
    if confusions is None:
        coeffs = np.broadcast_to(c, (n, 2, 4))
    else:
        coeffs = np.einsum("nji,kj->nki", check_confusions(confusions).reshape(n, 4, 4), c)
    p = fidelity_to_depolarizing([topology.fidelity(pair) for pair in pairs])
    confusion = confusion_maps(np.array([topology.pair_readout(pair) for pair in pairs],
                                        dtype=float).reshape(n, 2, 2))
    base, slope = kernel_terms(np.concatenate([p, np.minimum(p + crosstalk_p, 1.0)]),
                               np.concatenate([confusion, confusion]))
    return PairTable(
        pairs=pairs, qubits=np.array(pairs, dtype=int).reshape(n, 2), neighbours=neighbours,
        base=base.reshape(2, n, 2, 4), slope=slope.reshape(2, n, 2, 4),
        coeffs=coeffs, raw_coeffs=None if confusions is None else c, offset=h.u / 2.0)


def _estimate(offset: float, raw_coeffs: np.ndarray | None, coeffs: np.ndarray,
              coeffs_sq: np.ndarray, shots: np.ndarray, counts: np.ndarray) -> Estimates:
    """Energy estimates of n rows from (n, 2, 4) outcome counts, or expected
    counts, whose settings each sum to the row's shots, given as an (n, 1,
    1) broadcast. Per row, value = offset + sum_k coeffs_k @ f_k over the
    frequencies f, and the variance sums (coeffs_sq_k @ f_k - (coeffs_k @
    f_k)**2) / shots over the settings: the plug-in multinomial variance. A
    term within rounding of zero (at most 1e-14 of coeffs_sq_k @ f_k, which
    is what the cancellation leaves when a setting's counts all fall on
    outcomes of one coefficient) is 0. raw uses raw_coeffs, or is value
    without them (no NI)."""
    freqs = counts / shots
    mean = np.einsum("nkj,nkj->nk", coeffs, freqs)
    second = np.einsum("nkj,nkj->nk", coeffs_sq, freqs)
    value = offset + mean.sum(axis=1)
    var = second - mean ** 2
    std_err = np.sqrt(np.where(var > 1e-14 * second, var, 0.0).sum(axis=1) / shots[:, 0, 0])
    raw = value if raw_coeffs is None else offset + np.einsum("kj,nkj->n", raw_coeffs, freqs)
    return Estimates(value=value, std_err=std_err, raw=raw)


# a run_batch row: its (2, 4) outcome counts, one histogram per setting,
# onsite then hopping
COUNTS_DTYPE = np.dtype((np.record, [("histograms", np.int64, (2, 4))]))


class BatchPlan(Record, frozen=True, eq=False):
    """A checked layout of groups of batches of table rows, made once by
    plan_batches and run by every run_batch call on it.

    rows holds the rows of every batch of every group, in order; group k
    is rows[lo:hi] and draws shots shots per setting, for groups[k] =
    (shots, lo, hi). base and slope are each row's kernel_terms, taken
    from the table by its crosstalk flag; coeffs, coeffs_sq and row_shots
    (an (n, 1, 1) broadcast) feed its estimate and value.
    """

    table: PairTable
    rows: np.ndarray                  # (n,)
    groups: tuple[tuple[int, int, int], ...]   # (K,) of (shots, lo, hi)
    base: np.ndarray                  # (n, 2, 4)
    slope: np.ndarray                 # (n, 2, 4)
    coeffs: np.ndarray                # (n, 2, 4)
    coeffs_sq: np.ndarray             # (n, 2, 4)
    row_shots: np.ndarray             # (n, 1, 1)

    def estimate(self, counts: np.ndarray) -> Estimates:
        """Energy estimates of the plan's rows from their (n, 2, 4) counts,
        or of k runs of them from (k n, 2, 4) counts, row by row."""
        planned, k = (self.coeffs, self.coeffs_sq, self.row_shots), len(counts) // len(self.rows)
        if k > 1:
            planned = [np.concatenate([a] * k) for a in planned]
        return _estimate(self.table.offset, self.table.raw_coeffs, *planned, counts)

    def value(self, counts: np.ndarray) -> np.ndarray:
        """estimate(counts).value alone, bit for bit."""
        mean = np.einsum("nkj,nkj->nk", self.coeffs, counts / self.row_shots)
        return self.table.offset + mean.sum(axis=1)


def plan_batches(table: PairTable, groups, shots) -> BatchPlan:
    """Check and gather a layout of K groups of batches of table rows once.

    groups holds K groups, each a non-empty list of row arrays (batches)
    that may differ in size, and shots their K shot counts (one int applies
    to every group). Each batch's pairs must be vertex-disjoint. A row is
    flagged for crosstalk when another row of its own batch is its
    neighbour. Every batch and every shot count is checked here, so a
    plan's run_batch calls only check their angles and streams.
    """
    if not groups:
        raise ValueError("need at least one group")
    shots = (shots,) * len(groups) if isinstance(shots, (int, np.integer)) else tuple(shots)
    if len(shots) != len(groups):
        raise ValueError(f"{len(groups)} groups but {len(shots)} shot counts")
    if min(shots) < 1:
        raise ValueError("shots must be >= 1")
    if any(len(group) == 0 for group in groups):
        raise ValueError("each group needs at least one batch")
    batches = [np.asarray(batch, dtype=int) for group in groups for batch in group]
    sizes = [batch.size if batch.ndim == 1 else 0 for batch in batches]
    if 0 in sizes:
        raise ValueError("each batch needs a non-empty array of rows")
    rows = np.concatenate(batches)
    # one sort of the (batch index, qubit) keys finds a qubit used twice in a batch
    qubits = table.qubits.take(rows, axis=0)
    low = qubits.min()
    batch_of = np.repeat(np.arange(len(batches)), sizes)
    keys = np.sort((batch_of[:, None] * (qubits.max() - low + 1) + qubits - low).ravel())
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("batch pairs must be vertex-disjoint")
    terms = rows        # each row's place among the table's (2 n, 2, 4) kernel terms
    if table.neighbours is not None:    # flagged: a table row of its batch is its neighbour
        member = np.zeros((len(batches), len(table.neighbours)), dtype=bool)
        member[batch_of, rows] = True
        flagged = (table.neighbours[rows] & member[batch_of]).any(axis=1)
        terms = rows + len(table.neighbours) * flagged
    bounds = tuple(accumulate((sum(map(len, group)) for group in groups), initial=0))
    coeffs = table.coeffs.take(rows, axis=0)
    return BatchPlan(table, rows, tuple(zip(shots, bounds, bounds[1:])),
                     table.base.reshape(-1, 2, 4).take(terms, axis=0),
                     table.slope.reshape(-1, 2, 4).take(terms, axis=0), coeffs,
                     coeffs * coeffs, np.repeat(shots, np.diff(bounds))[:, None, None])


def run_batch(plan: BatchPlan, phi: np.ndarray, theta: np.ndarray, streams) -> np.ndarray:
    """Simulate a plan's groups of batches in one vectorized pass.

    streams holds the plan's K generators, one per group; phi and theta
    hold the angles of every row of the plan, in order. Group k's
    histograms come from one multinomial draw of its shots per setting on
    streams[k] over its rows in batch order, which continues that
    generator's stream: a group's counts depend only on its own batches,
    in order, its shot count and its generator's state, never on the other
    groups of the call. Returns the counts as a plain array of COUNTS_DTYPE
    records, one per row, in order: each record's histograms attribute is
    its (2, 4) counts, and the array's ["histograms"] field is the
    (rows, 2, 4) int64 count array itself, not a copy.

    The angles and streams are checked before any generator is drawn from,
    so a rejected call leaves every stream untouched.
    """
    if len(streams) != len(plan.groups):
        raise ValueError(f"{len(plan.groups)} groups but {len(streams)} streams")
    if not all(isinstance(stream, np.random.Generator) for stream in streams):
        raise TypeError("each group needs a numpy Generator as its stream")
    n = len(plan.rows)
    if len(phi) != n or len(theta) != n:
        raise ValueError(f"{n} rows but {len(phi)} phi and {len(theta)} theta")
    dists = apply_terms(plan.base, plan.slope, phi, theta)
    counts = np.concatenate([stream.multinomial(shots, dists[lo:hi])
                             for stream, (shots, lo, hi) in zip(streams, plan.groups)])
    return counts.reshape(n, 8).view(COUNTS_DTYPE)[:, 0]


def aggregate_same_params(est: Estimates) -> Estimates:
    """Pool same-parameter estimates (equal shots each) over the last axis,
    the rows of one batch: the mean, with errors in quadrature. Leading
    axes index independent batches."""
    n = est.value.shape[-1]
    if n == 0:
        raise ValueError("nothing to aggregate")
    return Estimates(value=est.value.mean(axis=-1),
                     std_err=np.sqrt(np.sum(est.std_err ** 2, axis=-1)) / n,
                     raw=est.raw.mean(axis=-1))


def width_runs(widths: list[int]) -> list[tuple[int, int, int]]:
    """(w, lo, hi) per run of consecutive equal widths w, in order, where
    entry r of a layout holds widths[r] rows and the run's entries hold
    rows lo:hi (m*lo:m*hi when each holds m batches of them). Pooling a run
    as one (entries, m, w) block keeps mean's summation order."""
    ends = list(accumulate(widths, initial=0))
    firsts = [r for r, w in enumerate(widths) if r == 0 or w != widths[r - 1]]
    return [(widths[a], ends[a], ends[b]) for a, b in zip(firsts, firsts[1:] + [len(widths)])]


def exact_expectation_energy(a: AnsatzParams, h: HubbardParams,
                             noise: PairNoiseSpec,
                             confusion: ConfusionMatrix | None = None,
                             crosstalk_active: bool = False) -> Estimates:
    """Full pipeline in exact-expectation mode: the pair compiled as a
    one-edge device, its kernel's distributions estimated as one shot's
    expected counts, as an Estimates of floats (std_err = 0.0);
    noise-inverted with a confusion matrix, raw staying uninverted."""
    table = compile_pairs(DeviceTopology(qubits=(0, 1), edges=((0, 1, noise.cz_fidelity),),
                                         readout=dict(enumerate(noise.readout))),
                          [(0, 1)], h, None if confusion is None else confusion.matrix[None],
                          noise.crosstalk_p)
    flag = int(crosstalk_active)
    est = _estimate(table.offset, table.raw_coeffs, table.coeffs, table.coeffs * table.coeffs,
                    np.ones((1, 1, 1)), apply_terms(table.base[flag], table.slope[flag],
                                                    np.array([a.phi]), np.array([a.theta])))
    return Estimates(value=float(est.value[0]), std_err=0.0, raw=float(est.raw[0]))


# --- wall-clock cost model ---------------------------------------------------

class CostModel(Record, frozen=True):
    t_base: float       # seconds per batch, fixed
    beta: float         # seconds per parallel pair per batch
    tau: float          # seconds per shot per setting
    kappa: float = 0.0  # seconds per parallel pair per shot per setting

    def __post_init__(self):
        # NaN fails both comparisons
        if not all(0.0 <= v < math.inf for v in (self.t_base, self.beta, self.tau, self.kappa)):
            raise ValueError("cost model parameters must be finite and nonnegative")


def predict_wall_time(m: CostModel, pairs: int, batches: int, shots: int,
                      settings: int = 2) -> float:
    """Modelled seconds for `batches` runs of `pairs` parallel circuits.

    batches * (t_base + beta*pairs + settings*shots*(tau + kappa*pairs)).
    kappa is the readout-volume cost: each shot returns a bitstring for
    every active qubit, so per-batch data grows as pairs x shots.
    """
    if min(pairs, batches, shots, settings) < 1:
        raise ValueError("pairs, batches, shots and settings must all be >= 1")
    return batches * (m.t_base + m.beta * pairs
                      + settings * shots * (m.tau + m.kappa * pairs))


def load_cost_model(path: str | Path) -> CostModel:
    """Read a cost model; a file without "kappa" (affine model) has kappa = 0."""
    with open(path) as fh:
        raw = json.load(fh)
    return CostModel(t_base=float(raw["t_base"]), beta=float(raw["beta"]),
                     tau=float(raw["tau"]), kappa=float(raw.get("kappa", 0.0)))
