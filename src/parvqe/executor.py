"""Batched execution of pair circuits, energy estimation and cost modelling.

A batch assigns ansatz parameters to vertex-disjoint qubit pairs and runs
both measurement settings on every pair. Execution is deterministic: the
random stream of each (pair, setting) task is derived from the job seed
and the task indices, so results are identical bytes no matter how many
workers carry out the simulation.

Wall-clock time of a batched run on a remote device is modelled, not
measured, as

    batches * (t_base + beta * pairs + settings * shots * (tau + kappa * pairs)),

a fixed per-batch cost, a per-pair cost, a per-shot cost and a readout
volume term: every shot returns a bitstring for each active qubit, so the
data a batch returns grows as pairs x shots. The model is calibrated from
observed (pairs, batches, shots, settings, seconds) tuples by nonnegative
least squares.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuits import (
    HOPPING_SIGNS,
    ONSITE_ZZ_SIGN,
    Z0_OUTCOMES,
    Z1_OUTCOMES,
    ZZ_OUTCOMES,
    MeasurementSetting,
    build_circuit,
)
from .device import DeviceTopology, Pair, noise_spec_for_pair
from .hubbard import AnsatzParams, HubbardParams
from .mitigation import ConfusionMatrix
from .seeding import derive_rng
from .simulator import PairNoiseSpec, ShotHistogram, run_circuit, exact_distribution, sample_shots

SETTINGS = (MeasurementSetting.ONSITE, MeasurementSetting.HOPPING)


@dataclass(frozen=True)
class BatchJob:
    """One parallel run: parameters per pair, shot count and seed.

    Both measurement settings are always executed for every assignment.
    The executor returns raw histograms; readout inversion belongs to
    estimation.
    """

    assignments: tuple[tuple[Pair, AnsatzParams], ...]
    shots: int
    seed: int

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("batch needs at least one assignment")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        used = [q for pair, _ in self.assignments for q in pair]
        if len(set(used)) != len(used):
            raise ValueError("assigned pairs must be vertex-disjoint")


@dataclass(frozen=True)
class PairRunResult:
    pair: Pair
    params: AnsatzParams
    histograms: dict[MeasurementSetting, ShotHistogram]


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy value with its multinomial standard error.

    raw_value holds the uncorrected estimate when readout inversion was
    applied (and is None otherwise).
    """

    value: float
    std_err: float
    shots_per_setting: int | None
    raw_value: float | None = None

    def __post_init__(self):
        if self.std_err < 0:
            raise ValueError("std_err must be nonnegative")


def run_batch(job: BatchJob, topology: DeviceTopology, workers: int = 1,
              crosstalk_p: float = 0.0) -> list[PairRunResult]:
    """Simulate every (pair, setting) task of the job and sample histograms.

    A pair is flagged for crosstalk when crosstalk_p > 0 and any endpoint
    of another active pair is connected to one of its endpoints.
    """
    pairs = [pair for pair, _ in job.assignments]
    for pair in pairs:
        if not topology.has_edge(pair):
            raise ValueError(f"pair {pair} is not an edge of the topology")
    flags = []
    for i, p in enumerate(pairs):
        active = crosstalk_p > 0.0 and any(
            topology.pairs_are_neighbors(p, q) for j, q in enumerate(pairs) if j != i)
        flags.append(active)

    def simulate(task):
        i, k = task
        pair, params = job.assignments[i]
        noise = noise_spec_for_pair(topology, pair, crosstalk_p=crosstalk_p)
        circuit = build_circuit(params, SETTINGS[k])
        rho = run_circuit(circuit, noise, crosstalk_active=flags[i])
        stream = derive_rng(job.seed, i, k)
        return (i, k), sample_shots(rho, noise, job.shots, stream)

    tasks = [(i, k) for i in range(len(job.assignments)) for k in range(len(SETTINGS))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = dict(pool.map(simulate, tasks))
    else:
        outcomes = dict(map(simulate, tasks))

    results = []
    for i, (pair, params) in enumerate(job.assignments):
        hists = {SETTINGS[k]: outcomes[(i, k)] for k in range(len(SETTINGS))}
        results.append(PairRunResult(pair=pair, params=params, histograms=hists))
    return results


def _as_distribution(measured) -> tuple[np.ndarray, int | None]:
    if measured is None:
        raise ValueError("both measurement settings are required")
    if isinstance(measured, ShotHistogram):
        return measured.frequencies(), measured.shots
    arr = np.asarray(measured, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected a length-4 distribution, got shape {arr.shape}")
    return arr, None


def _plugin_variance(coeffs: np.ndarray, freqs: np.ndarray, shots: int) -> float:
    mean = float(coeffs @ freqs)
    second = float((coeffs ** 2) @ freqs)
    return max(second - mean ** 2, 0.0) / shots


def estimate_energy(onsite, hopping, h: HubbardParams = HubbardParams(),
                    confusion: ConfusionMatrix | None = None) -> EnergyEstimate:
    """Combine the two settings' distributions into an energy estimate.

    value = (u/2) (1 + <ZZ>) - t (<X(x)I> + <I(x)X>) under the frozen
    sign map. Inputs are ShotHistograms or plain probability vectors
    (exact-expectation mode, std_err = 0). With a confusion matrix the
    distributions are noise-inverted first and the standard error is
    propagated through the inversion.
    """
    p_on, shots_on = _as_distribution(onsite)
    p_hop, shots_hop = _as_distribution(hopping)
    if (shots_on is None) != (shots_hop is None):
        raise ValueError("cannot mix exact distributions with histograms")
    if shots_on is not None and shots_on != shots_hop:
        raise ValueError(f"shot mismatch between settings: {shots_on} vs {shots_hop}")

    c_on = (h.u / 2.0) * ONSITE_ZZ_SIGN * ZZ_OUTCOMES
    c_hop = -h.t * (HOPPING_SIGNS[0] * Z0_OUTCOMES + HOPPING_SIGNS[1] * Z1_OUTCOMES)

    def combine(con, chop):
        return h.u / 2.0 + float(con @ p_on) + float(chop @ p_hop)

    raw = combine(c_on, c_hop)
    if confusion is None:
        value, raw_value = raw, None
        eff_on, eff_hop = c_on, c_hop
    else:
        eff_on = confusion.inverse.T @ c_on
        eff_hop = confusion.inverse.T @ c_hop
        value, raw_value = combine(eff_on, eff_hop), raw

    if shots_on is None:
        std_err = 0.0
    else:
        var = _plugin_variance(eff_on, p_on, shots_on) \
            + _plugin_variance(eff_hop, p_hop, shots_hop)
        std_err = float(np.sqrt(var))
    return EnergyEstimate(value=value, std_err=std_err,
                          shots_per_setting=shots_on, raw_value=raw_value)


def estimate_for_result(result: PairRunResult, h: HubbardParams = HubbardParams(),
                        confusion: ConfusionMatrix | None = None) -> EnergyEstimate:
    return estimate_energy(result.histograms[MeasurementSetting.ONSITE],
                           result.histograms[MeasurementSetting.HOPPING],
                           h, confusion)


def aggregate_same_params(estimates: list[EnergyEstimate]) -> EnergyEstimate:
    """Pool same-parameter estimates: shot-weighted mean, errors in quadrature."""
    if not estimates:
        raise ValueError("nothing to aggregate")
    weights = np.array([e.shots_per_setting if e.shots_per_setting else 1.0
                        for e in estimates], dtype=float)
    weights = weights / weights.sum()
    value = float(np.dot(weights, [e.value for e in estimates]))
    std_err = float(np.sqrt(np.sum((weights * [e.std_err for e in estimates]) ** 2)))
    raws = [e.raw_value for e in estimates]
    raw_value = float(np.dot(weights, raws)) if all(r is not None for r in raws) else None
    shots = estimates[0].shots_per_setting
    same_shots = all(e.shots_per_setting == shots for e in estimates)
    return EnergyEstimate(value=value, std_err=std_err,
                          shots_per_setting=shots if same_shots else None,
                          raw_value=raw_value)


def exact_expectation_energy(a: AnsatzParams, h: HubbardParams,
                             noise: PairNoiseSpec,
                             confusion: ConfusionMatrix | None = None,
                             crosstalk_active: bool = False) -> EnergyEstimate:
    """Full pipeline in exact-expectation mode (no sampling)."""
    dists = {}
    for setting in SETTINGS:
        circuit = build_circuit(a, setting)
        rho = run_circuit(circuit, noise, crosstalk_active=crosstalk_active)
        dists[setting] = exact_distribution(rho, noise)
    return estimate_energy(dists[MeasurementSetting.ONSITE],
                           dists[MeasurementSetting.HOPPING], h, confusion)


# --- wall-clock cost model ---------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    t_base: float       # seconds per batch, fixed
    beta: float         # seconds per parallel pair per batch
    tau: float          # seconds per shot per setting
    kappa: float = 0.0  # seconds per parallel pair per shot per setting

    def __post_init__(self):
        if min(self.t_base, self.beta, self.tau, self.kappa) < 0:
            raise ValueError("cost model parameters must be nonnegative")


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


class DegenerateCalibration(ValueError):
    """Observations do not determine the cost model parameters."""


def calibrate_cost_model(observations) -> tuple[CostModel, np.ndarray]:
    """Fit (t_base, beta, tau, kappa) to observed timings by nonnegative
    least squares.

    observations: iterable of (pairs, batches, shots, settings, seconds).
    The 4-column design needs full rank: the observations must span at
    least 2 pair counts and 2 settings*shots values (with one value, beta
    and kappa are collinear). Returns the model and the per-observation
    residuals (predicted minus observed seconds).
    """
    from scipy.optimize import nnls   # deferred: scipy is slow to import

    obs = list(observations)
    if len(obs) < 4:
        raise DegenerateCalibration("need at least 4 observations")
    if len({p for p, *_ in obs}) < 2:
        raise DegenerateCalibration("observations must span at least 2 pair counts")
    if len({settings * shots for _, _, shots, settings, _ in obs}) < 2:
        raise DegenerateCalibration(
            "observations must span at least 2 settings*shots values; with one, "
            "the per-pair (beta) and readout-volume (kappa) terms are collinear")
    design = np.array([[b, b * p, b * settings * shots, b * p * settings * shots]
                       for p, b, shots, settings, _ in obs], dtype=float)
    target = np.array([seconds for *_, seconds in obs], dtype=float)
    if np.linalg.matrix_rank(design) < 4:
        raise DegenerateCalibration("design matrix is rank deficient (need rank 4)")
    coef, _ = nnls(design, target)
    model = CostModel(t_base=float(coef[0]), beta=float(coef[1]), tau=float(coef[2]),
                      kappa=float(coef[3]))
    residuals = design @ coef - target
    return model, residuals


def save_cost_model(m: CostModel, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump({"t_base": m.t_base, "beta": m.beta, "tau": m.tau, "kappa": m.kappa},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_cost_model(path: str | Path) -> CostModel:
    """Read a cost model; a file without "kappa" (affine model) has kappa = 0."""
    with open(path) as fh:
        raw = json.load(fh)
    return CostModel(t_base=float(raw["t_base"]), beta=float(raw["beta"]),
                     tau=float(raw["tau"]), kappa=float(raw.get("kappa", 0.0)))
