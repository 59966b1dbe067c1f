"""Experiment harness: reproducible runs emitting CSV, JSON and SVG files.

Every experiment takes an ExperimentConfig (seed mandatory), writes its
data files into the output directory and returns a RunRecord holding the
settings it reads (COMMANDS), derived metrics and artifact list. Identical
configurations produce byte-identical data files; wall-clock cost is
modelled (never measured) so records stay reproducible.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .csvio import write_csv
from .device import (
    CalibrationError,
    DeviceTopology,
    Pair,
    PairSelection,
    greedy_select,
    load_calibration,
    max_weight_matching,
    noise_spec_for_pair,
)
from .executor import (
    CostModel,
    PairTable,
    compile_pairs,
    load_cost_model,
    predict_wall_time,
)
from .hubbard import (
    AnsatzParams,
    HubbardParams,
    closed_form_energy,
    exact_energy,
    exact_ground_energy,
    optimal_params,
)
from .mitigation import measure_confusion, tflo_correct
from .optimizers import (
    MgdConfig,
    OptTrace,
    SpsaConfig,
    batch_pair_evaluator,
    measure_batch,
    mgd_lockstep,
    n_points_from_eta,
    spsa_lockstep,
    spsa_parallel_evaluator,
)
from .seeding import derive_rng, derive_seed
from . import svgplot

SCHEMA_VERSION = 1

# stream namespaces (first derivation key after the base seed); _NS_FINAL
# leads the key paths of final points inside _NS_RUN and _NS_REF
_NS_CONFUSION = 1
_NS_RUN = 2
_NS_REF = 3
_NS_EVAL = 4
_NS_FINAL = 5
_NS_OPT = 6

MITIGATION_LEVELS = ("raw", "ni", "tflo", "tflo_ni")
# --mitigation -> the level a command reports
_LEVEL_OF_MITIGATION = {"none": "raw", "ni": "ni", "tflo": "tflo", "ni+tflo": "tflo_ni"}
# the values ExperimentConfig accepts for its named-choice fields
CHOICES = {"select": ("greedy", "matching"), "optimizer": ("spsa", "mgd"),
           "mitigation": tuple(_LEVEL_OF_MITIGATION)}


def default_calibration_path() -> Path:
    return Path(resources.files("parvqe").joinpath("data/aspen_m1_like.json"))


def default_cost_model_path() -> Path:
    return Path(resources.files("parvqe").joinpath("data/default_cost_model.json"))


class InputError(ValueError):
    """An input the run cannot satisfy, rejected before any output
    directory exists."""


# the most surrogate points one mgd iteration may ask for through eta
MAX_POINTS_PER_ITERATION = 1000


@dataclass
class ExperimentConfig:
    """Every setting of an experiment run. Impossible values raise
    InputError, and so does an eta whose n_points_from_eta(eta) exceeds
    MAX_POINTS_PER_ITERATION (1000 points, so eta must be below 166.75):
    uncapped, an eta of 1e9 would ask mgd_lockstep for 6e9 points per
    iteration."""

    seed: int
    out_dir: Path
    calibration: Path = field(default_factory=default_calibration_path)
    cost_model: Path = field(default_factory=default_cost_model_path)
    pairs: int | None = None
    select: str = "greedy"
    cap: float | None = None
    shots: int = 1000
    confusion_shots: int = 10_000
    optimizer: str = "spsa"
    iterations: int | None = None
    mitigation: str = "ni+tflo"
    repeats: int = 1
    workers: int = 1                    # accepted for --workers; has no effect
    eta: float = 2.0
    start: tuple[float, float] = (0.6, 0.8)
    grid: int = 20
    shots_list: tuple[int, ...] = (100, 1000, 10_000)
    pair_counts: tuple[int, ...] = (2, 4, 6, 9, 12, 25)
    crosstalk_p: float = 0.0

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.calibration = Path(self.calibration)
        self.cost_model = Path(self.cost_model)
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InputError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("pairs", "shots", "confusion_shots", "iterations", "repeats", "grid",
                     "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")
        for name in ("shots_list", "pair_counts"):
            values = getattr(self, name)
            if min(values, default=1) < 1:
                raise InputError(f"{name} entries must be >= 1, got {values}")
            if len(set(values)) < len(values):
                raise InputError(f"{name} entries must be distinct, got {values}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise InputError(f"eta must be positive, got {self.eta}")
        if n_points_from_eta(self.eta) > MAX_POINTS_PER_ITERATION:
            raise InputError(f"eta {self.eta} asks for more than {MAX_POINTS_PER_ITERATION} "
                             "surrogate points per iteration")
        if not 0.0 <= self.crosstalk_p <= 1.0:
            raise InputError(f"crosstalk_p must be in [0, 1], got {self.crosstalk_p}")
        if not all(map(math.isfinite, self.start)):
            raise InputError(f"start angles must be finite, got {self.start}")
        if not self.calibration.exists():
            raise FileNotFoundError(f"calibration file {self.calibration} not found")
        if not self.cost_model.exists():
            raise FileNotFoundError(f"cost model file {self.cost_model} not found")
        if self.workers > 1:
            warnings.warn(f"workers={self.workers} has no effect: each batch runs as a "
                          "single vectorized pass", UserWarning, stacklevel=3)

    @property
    def level(self) -> str:
        """The mitigation level the command reports."""
        return _LEVEL_OF_MITIGATION[self.mitigation]

    @property
    def ni(self) -> bool:
        return "ni" in self.mitigation.split("+")

    @property
    def tflo(self) -> bool:
        return "tflo" in self.mitigation.split("+")

    def snapshot(self, fields) -> dict:
        """seed, out_dir and the named fields, paths as strings."""
        values = {name: getattr(self, name) for name in ("seed", "out_dir", *fields)}
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items()}


@dataclass
class RunRecord:
    command: str
    config: dict
    metrics: dict
    artifacts: list[str]
    code_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def write(self, path: Path) -> None:
        payload = {"schema_version": self.schema_version, "command": self.command,
                   "code_version": self.code_version, "config": self.config,
                   "metrics": self.metrics, "artifacts": self.artifacts}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def select_pairs(topology: DeviceTopology, select: str, pairs: int | None,
                 cap: float | None) -> PairSelection:
    """At most `pairs` pairs at CZ fidelity >= cap, best first. For matching,
    the pairs of the maximum-weight matching are ranked by fidelity, ties
    broken by pair id. An empty selection is an InputError."""
    if select == "matching":
        ranked = sorted((p for p in max_weight_matching(topology).pairs
                         if cap is None or topology.fidelity(p) >= cap),
                        key=lambda p: (-topology.fidelity(p), p))
        selection = PairSelection(pairs=tuple(ranked[:pairs]), fidelity_cap=cap)
    else:
        selection = greedy_select(topology, max_pairs=pairs, fidelity_cap=cap)
    if not selection.pairs:
        raise InputError("selection produced no pairs")
    return selection


class _Run:
    """What every experiment sets up first (clock, output directory, Hubbard
    parameters and ground energy, calibration, the compiled pair table)
    and its write-record-then-print ending."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.t_start = time.perf_counter()
        self.h = HubbardParams()
        self.e0 = exact_ground_energy(self.h)

    @cached_property
    def out_dir(self) -> Path:
        # made on first use, so inputs rejected before then leave no directory
        self.cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return self.cfg.out_dir

    @cached_property
    def topology(self) -> DeviceTopology:
        # loaded on first use: the modelled speedup sweep reads no calibration
        try:
            return load_calibration(self.cfg.calibration)
        except CalibrationError as exc:
            raise InputError(str(exc)) from exc

    def select(self, method: str, cap: float | None,
               default: int | None = None) -> tuple[Pair, ...]:
        """The pairs `method` selects: exactly cfg.pairs when it is set (a
        shorter selection is an InputError), else at most `default`."""
        want = self.cfg.pairs
        pairs = select_pairs(self.topology, method, default if want is None else want,
                             cap).pairs
        if want is not None and len(pairs) != want:
            raise InputError(f"selection yields {len(pairs)} pairs, requested {want}")
        return pairs

    def pair_table(self, pairs, ni: bool = True) -> PairTable:
        """The pairs compiled for every later batch on them; with ni, each
        pair's confusion matrix is measured first and its estimates are
        noise-inverted."""
        cfg = self.cfg
        confusions = None
        if ni:
            confusions = {
                pair: measure_confusion(noise_spec_for_pair(self.topology, pair),
                                        cfg.confusion_shots,
                                        derive_rng(cfg.seed, _NS_CONFUSION, *pair))
                for pair in pairs}
        return compile_pairs(self.topology, pairs, self.h, confusions, cfg.crosstalk_p)

    def finish(self, command: str, metrics: dict, artifacts: list[str],
               summary: str) -> RunRecord:
        record = RunRecord(command=command, config=self.cfg.snapshot(COMMANDS[command].reads),
                           metrics=metrics, artifacts=artifacts)
        record.write(self.out_dir / "record.json")
        print(f"{summary}; sim time {time.perf_counter() - self.t_start:.1f}s")
        return record


def _measure(run: _Run, table: PairTable, groups, phi, theta, key_paths,
             tflo: bool) -> dict:
    """Mitigation levels of groups of batches of table rows at angles
    (phi, theta), as arrays over every row in order. Group k is one key
    path's batches, drawn from the stream of key_paths[k] in the run
    namespace. One measure_batch call over the groups gives raw and ni (ni
    equals raw without NI); with tflo, a second call over their phi=0
    reference points, in the same layout and drawn from the reference
    namespace, adds tflo and tflo_ni."""
    seed, shots = run.cfg.seed, run.cfg.shots
    est = measure_batch(table, groups, phi, theta, shots,
                        [derive_rng(seed, _NS_RUN, *path) for path in key_paths])
    levels = {"raw": est.raw, "ni": est.value}
    if tflo:
        zeros = np.zeros_like(theta)
        ref = measure_batch(table, groups, zeros, theta, shots,
                            [derive_rng(seed, _NS_REF, *path) for path in key_paths])
        ref_exact = closed_form_energy(zeros, theta, run.h)
        levels["tflo"] = tflo_correct(est.raw, ref_exact, ref.raw)
        levels["tflo_ni"] = tflo_correct(est.value, ref_exact, ref.value)
    return levels


def _final_points(run: _Run, table: PairTable, finals: list[AnsatzParams],
                  keys) -> list[dict]:
    """Mitigation levels of each final params measured on every row of the
    table, with its phi=0 reference, pooled over the rows; all finals share
    one _measure call, and finals[i] draws from its own stream, keyed by
    keys[i]."""
    n = len(table.pairs)
    levels = _measure(run, table, [[np.arange(n)]] * len(finals),
                      np.repeat([f.phi for f in finals], n),
                      np.repeat([f.theta for f in finals], n),
                      [(_NS_FINAL, key) for key in keys], tflo=True)
    pooled = {level: v.reshape(len(finals), n).mean(axis=1).tolist()
              for level, v in levels.items()}
    return [dict(zip(pooled, values)) for values in zip(*pooled.values())]


def _optimize(run: _Run, table: PairTable, optimizer, iterations, points, shots,
              key_paths, start=ExperimentConfig.start) -> list[OptTrace]:
    """SPSA or surrogate-descent runs from `start` (only vqe sets it), one
    per key path, in lockstep on the evaluator that matches the optimizer's
    parallelism. Each run's evaluator seed and optimizer stream derive from
    its own key path, so its trace does not depend on the runs beside it."""
    cfg, h = run.cfg, run.h
    eval_seeds = [derive_seed(cfg.seed, _NS_EVAL, *keys) for keys in key_paths]
    streams = [derive_rng(cfg.seed, _NS_OPT, *keys) for keys in key_paths]
    starts = [AnsatzParams(*start)] * len(key_paths)
    exact = lambda centres: closed_form_energy(centres[:, 0], centres[:, 1], h)
    if optimizer == "spsa":
        return spsa_lockstep(SpsaConfig(iterations=iterations),
                             spsa_parallel_evaluator(table, shots, eval_seeds), starts,
                             streams, exact)
    return mgd_lockstep(MgdConfig(iterations=iterations),
                        batch_pair_evaluator(table, shots, eval_seeds), starts, points,
                        streams, exact)


# --- benchmark-pairs ----------------------------------------------------------

def rank_correlation(x, y) -> float:
    """Spearman's rho: the Pearson correlation of the ranks, where tied
    values share the mean of the ranks they span."""
    def ranks(values):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def cmd_benchmark_pairs(cfg: ExperimentConfig) -> RunRecord:
    """Per-pair benchmark at the optimal parameters, individually and in
    increasingly parallel greedy batches, at all mitigation levels."""
    run = _Run(cfg)
    topology, e0 = run.topology, run.e0
    opt = optimal_params(run.h)
    all_pairs = sorted(topology.edge_map())
    # every edge, so the rows overlap: each batch picks disjoint ones
    table = run.pair_table(all_pairs)
    row_of = {pair: row for row, pair in enumerate(all_pairs)}

    # (a) every usable pair individually: one-row batches, one stream
    n = len(all_pairs)
    indiv = _measure(run, table, [[[idx] for idx in range(n)]], np.full(n, opt.phi),
                     np.full(n, opt.theta), [(0,)], tflo=True)
    fidelity = [topology.fidelity(pair) for pair in all_pairs]
    indiv_path = run.out_dir / "individual_pairs.csv"
    write_csv(indiv_path, ["pair_a", "pair_b", "fidelity",
                           "e_raw", "e_ni", "e_tflo", "e_tflo_ni"],
              [*np.array(all_pairs).T, fidelity, *(indiv[m] for m in MITIGATION_LEVELS)])
    svgplot.scatter_plot(
        run.out_dir / "individual_pairs.svg",
        {level: (fidelity, indiv[level].tolist()) for level in MITIGATION_LEVELS},
        "energy vs CZ fidelity (individual pairs)", "CZ fidelity", "energy",
        hlines={"exact ground": e0})

    # (b) greedy-parallel sweep: the first p greedy pairs for every p
    selection = greedy_select(topology)
    greedy_rows = [row_of[pair] for pair in selection.pairs]
    sizes = list(range(1, len(greedy_rows) + 1))
    total = sum(sizes)
    swept = _measure(run, table, [[greedy_rows[:p] for p in sizes]],
                     np.full(total, opt.phi), np.full(total, opt.theta), [(1,)], tflo=True)
    per_p = {level: np.split(values, np.cumsum(sizes)[:-1]) for level, values in swept.items()}
    mean_err = {m: [float(np.mean(np.abs(v - e0))) for v in per_p[m]]
                for m in MITIGATION_LEVELS}
    pooled_err = {m: [abs(float(np.mean(v)) - e0) for v in per_p[m]]
                  for m in MITIGATION_LEVELS}
    sweep_path = run.out_dir / "parallel_sweep.csv"
    write_csv(sweep_path,
              ["p"] + [f"mean_abs_err_{m}" for m in MITIGATION_LEVELS]
              + [f"pooled_abs_err_{m}" for m in MITIGATION_LEVELS],
              [sizes, *mean_err.values(), *pooled_err.values()])
    svgplot.line_plot(
        run.out_dir / "parallel_sweep.svg",
        {level: (sizes, mean_err[level]) for level in MITIGATION_LEVELS},
        "mean |error| vs pairs in parallel", "pairs in parallel", "mean |error|")

    # pair i of the greedy order is active from p = i + 1 on
    matrix_path = run.out_dir / "pair_by_p_matrix.csv"
    write_csv(matrix_path,
              ["pair_a", "pair_b", "fidelity", "individual_err"]
              + [f"err_p{p}" for p in sizes],
              [*np.array(selection.pairs).T, [fidelity[row] for row in greedy_rows],
               indiv["tflo"][greedy_rows] - e0,
               *((tflo - e0).tolist() + [None] * (len(sizes) - p)
                 for p, tflo in zip(sizes, per_p["tflo"]))])

    rho = rank_correlation(sizes, mean_err["raw"])
    frac_below = float(np.mean(np.less(mean_err["tflo"], mean_err["raw"])))
    metrics = {
        "pairs_benchmarked": len(all_pairs),
        "greedy_pairs": len(selection.pairs),
        "optimal_phi": opt.phi,
        "optimal_theta": opt.theta,
        "exact_ground_energy": e0,
        "spearman_mean_abs_err_raw_vs_p": rho,
        "fraction_p_tflo_below_raw": frac_below,
    }
    return run.finish("benchmark-pairs", metrics,
                      [p.name for p in (indiv_path, sweep_path, matrix_path)],
                      f"benchmark-pairs: {len(all_pairs)} pairs individually, "
                      f"sweep to p={len(selection.pairs)}")


# --- heatmap ------------------------------------------------------------------

def cmd_heatmap(cfg: ExperimentConfig) -> RunRecord:
    """Energy-landscape heatmap: exact, simulated in parallel batches, and
    the absolute error between them; plus modelled wall times."""
    run = _Run(cfg)
    h = run.h
    n = cfg.grid
    axis = np.linspace(-math.pi, math.pi, n)
    # the grid in row-major (phi, theta) order
    phi, theta = np.repeat(axis, n), np.tile(axis, n)
    pairs = run.select(cfg.select, cfg.cap, default=25)

    exact = closed_form_energy(phi, theta, h)
    exact_path = run.out_dir / "heatmap_exact.csv"
    write_csv(exact_path, ["phi", "theta", "e_exact"], [phi, theta, exact])

    table = run.pair_table(pairs, cfg.ni)
    # the grid in batches of len(pairs) points, all measured in one call
    batches = [np.arange(min(len(pairs), n * n - lo)) for lo in range(0, n * n, len(pairs))]
    levels = _measure(run, table, [batches], phi, theta, [()], cfg.tflo)
    value = levels[cfg.level]
    err = np.abs(value - exact)
    sim_path = run.out_dir / "heatmap_simulated.csv"
    write_csv(sim_path, ["phi", "theta", "pair_a", "pair_b",
                         "e_estimate", "e_corrected", "abs_err"],
              [phi, theta, *table.qubits[np.concatenate(batches)].T, levels["ni"], value, err])

    extent = (-math.pi, math.pi, -math.pi, math.pi)
    svgplot.heatmap(run.out_dir / "heatmap_exact.svg", exact.reshape(n, n),
                    "exact energy landscape", "phi", "theta", extent)
    svgplot.heatmap(run.out_dir / "heatmap_simulated.svg", value.reshape(n, n),
                    "simulated energy landscape", "phi", "theta", extent)
    svgplot.heatmap(run.out_dir / "heatmap_error.svg", err.reshape(n, n),
                    "absolute error", "phi", "theta", extent)

    cost = load_cost_model(cfg.cost_model)
    seconds_parallel = predict_wall_time(cost, len(pairs), len(batches), cfg.shots)
    seconds_single = predict_wall_time(cost, 1, n * n, cfg.shots)
    metrics = {
        "grid": n,
        "points": n * n,
        "pairs": len(pairs),
        "batches": len(batches),
        "modeled_seconds_parallel": seconds_parallel,
        "modeled_seconds_single_pair": seconds_single,
        "modeled_speedup": seconds_single / seconds_parallel,
        "max_abs_err": float(err.max()),
        "mean_abs_err": float(err.mean()),
        "exact_ground_energy": run.e0,
    }
    return run.finish("heatmap", metrics, [exact_path.name, sim_path.name],
                      f"heatmap: {n * n} points on {len(pairs)} pairs in "
                      f"{len(batches)} batches, modeled speedup "
                      f"{metrics['modeled_speedup']:.1f}x")


# --- vqe ------------------------------------------------------------------------

def modeled_vqe_wall_times(cost: CostModel, optimizer: str, pairs: int,
                           points: int, iterations: int,
                           shots: int) -> tuple[float, float]:
    """(parallel_seconds, single_pair_equivalent_seconds) for one VQE run.

    SPSA runs 3 evaluations per iteration, each one batch, at any pair
    count. The batch-parallel optimizer evaluates `points` points per
    iteration: ceil(points/pairs) batches in parallel, `points` sequential
    batches on a single pair.
    """
    if optimizer == "spsa":
        batches = 3 * iterations
        return (predict_wall_time(cost, pairs, batches, shots),
                predict_wall_time(cost, 1, batches, shots))
    batches_parallel = iterations * math.ceil(points / pairs)
    batches_single = iterations * points
    return (predict_wall_time(cost, pairs, batches_parallel, shots),
            predict_wall_time(cost, 1, batches_single, shots))


def cmd_vqe(cfg: ExperimentConfig) -> RunRecord:
    """Full optimisation runs, with repeats."""
    run = _Run(cfg)
    h, e0 = run.h, run.e0
    pairs = run.select(cfg.select, cfg.cap)
    table = run.pair_table(pairs, cfg.ni)
    default_iterations = 50 if cfg.optimizer == "spsa" else 40
    iterations = cfg.iterations if cfg.iterations is not None else default_iterations
    points = (len(pairs) if cfg.optimizer == "spsa" or len(pairs) > 1
              else n_points_from_eta(cfg.eta))

    traces = _optimize(run, table, cfg.optimizer, iterations, points, cfg.shots,
                       [(rep,) for rep in range(cfg.repeats)], cfg.start)
    final_params = [trace.final_params for trace in traces]
    finals = _final_points(run, table, final_params, range(cfg.repeats))
    artifacts = []
    for rep, trace in enumerate(traces):
        trace_path = run.out_dir / f"trace_rep{rep}.csv"
        trace.write(trace_path, run.out_dir / f"trace_rep{rep}.json")
        artifacts.append(trace_path.name)
    records = traces[0].records
    its = [r.iteration for r in records]
    svgplot.line_plot(
        run.out_dir / "trace_rep0.svg",
        {"estimate": (its, [r.e_ni for r in records]),
         "raw": (its, [r.e_raw for r in records]),
         "exact at params": (its, [r.e_exact for r in records])},
        f"{cfg.optimizer} on {len(pairs)} pair(s)", "iteration", "energy",
        hlines={"exact ground": e0})

    corrected = [levels[cfg.level] for levels in finals]
    abs_err = [abs(value - e0) for value in corrected]
    summary_path = run.out_dir / "summary.csv"
    write_csv(summary_path,
              ["repeat", "final_phi", "final_theta", "final_raw", "final_ni",
               "final_tflo", "final_tflo_ni", "final_corrected",
               "final_abs_err", "exact_err_at_final"],
              [list(range(cfg.repeats)), [f.phi for f in final_params],
               [f.theta for f in final_params],
               *([levels[m] for levels in finals] for m in MITIGATION_LEVELS),
               corrected, abs_err, [exact_energy(f, h) - e0 for f in final_params]])
    artifacts.append(summary_path.name)

    seconds_parallel, seconds_single = modeled_vqe_wall_times(
        load_cost_model(cfg.cost_model), cfg.optimizer, len(pairs), points, iterations,
        cfg.shots)
    errs = sorted(abs_err)
    metrics = {
        "optimizer": cfg.optimizer,
        "pairs": len(pairs),
        "points_per_iteration": points if cfg.optimizer == "mgd" else None,
        "iterations": iterations,
        "repeats": cfg.repeats,
        "median_final_abs_err": float(np.median(abs_err)),
        "min_final_abs_err": errs[0],
        "max_final_abs_err": errs[-1],
        "modeled_seconds_parallel": seconds_parallel,
        "modeled_seconds_single_pair_equivalent": seconds_single,
        "modeled_speedup": seconds_single / seconds_parallel,
        "exact_ground_energy": e0,
    }
    return run.finish("vqe", metrics, artifacts,
                      f"vqe[{cfg.optimizer}]: {cfg.repeats} repeat(s) on {len(pairs)} "
                      f"pair(s), median |err| {metrics['median_final_abs_err']:.4f}")


def cmd_speedup_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Modelled speedup of both optimizers over cfg.pair_counts; nothing is
    simulated."""
    run = _Run(cfg)
    cost = load_cost_model(cfg.cost_model)
    counts = list(cfg.pair_counts)
    speedups = {}
    for optimizer in ("spsa", "mgd"):
        # both times scale with the iteration count, so one iteration models the ratio
        times = [modeled_vqe_wall_times(cost, optimizer, p, p, 1, cfg.shots) for p in counts]
        speedups[optimizer] = [single / parallel for parallel, single in times]
    path = run.out_dir / "speedup_sweep.csv"
    write_csv(path, ["p", "spsa_speedup", "mgd_speedup"], [counts, *speedups.values()])
    svgplot.line_plot(run.out_dir / "speedup_sweep.svg",
                      {name: (counts, values) for name, values in speedups.items()},
                      "modelled speedup vs pairs", "pairs in parallel", "speedup")
    metrics = {"pair_counts": counts,
               "spsa_speedups": speedups["spsa"],
               "mgd_speedups": speedups["mgd"]}
    return run.finish("speedup-sweep", metrics, [path.name],
                      f"speedup-sweep: {len(counts)} pair counts modelled")


# --- shots-sweep ----------------------------------------------------------------

def cmd_shots_sweep(cfg: ExperimentConfig) -> RunRecord:
    """SPSA at several shot counts on the capped greedy selection. It runs
    no reference point, so a mitigation with tflo is an InputError."""
    allowed = COMMANDS["shots-sweep"].choices["mitigation"]
    if cfg.mitigation not in allowed:
        raise InputError(f"shots-sweep mitigation must be one of {allowed}, "
                         f"got {cfg.mitigation!r}")
    run = _Run(cfg)
    h, e0 = run.h, run.e0
    cap = cfg.cap if cfg.cap is not None else 0.90
    pairs = run.select("greedy", cap)
    table = run.pair_table(pairs, cfg.ni)
    iterations = cfg.iterations if cfg.iterations is not None else 50

    artifacts, traces = [], {}
    for si, shots in enumerate(cfg.shots_list):
        trace, = _optimize(run, table, "spsa", iterations, len(pairs), shots, [(si,)])
        trace_path = run.out_dir / f"trace_shots{shots}.csv"
        trace.write(trace_path)
        artifacts.append(trace_path.name)
        traces[shots] = trace
    final_params = [trace.final_params for trace in traces.values()]
    final_err = {shots: exact_energy(f, h) - e0 for shots, f in zip(traces, final_params)}
    summary_path = run.out_dir / "shots_summary.csv"
    write_csv(summary_path, ["shots", "final_phi", "final_theta",
                             "final_exact_err", "best_exact_err"],
              [list(traces), [f.phi for f in final_params], [f.theta for f in final_params],
               list(final_err.values()),
               [min(r.e_exact - e0 for r in trace.records) for trace in traces.values()]])
    artifacts.append(summary_path.name)
    series = {f"{shots} shots": ([r.iteration for r in trace.records],
                                 [r.e_exact for r in trace.records])
              for shots, trace in traces.items()}
    svgplot.line_plot(run.out_dir / "shots_sweep.svg", series,
                      f"SPSA on {len(pairs)} pairs: exact energy at iterates",
                      "iteration", "exact energy", hlines={"exact ground": e0})

    metrics = {
        "pairs": len(pairs),
        "fidelity_cap": cap,
        "iterations": iterations,
        "final_exact_err_by_shots": {str(s): final_err[s] for s in cfg.shots_list},
    }
    if 1000 in final_err and 10_000 in final_err:
        metrics["err_gap_1k_vs_10k"] = abs(final_err[1000] - final_err[10_000])
        metrics["matches_within_0.05"] = metrics["err_gap_1k_vs_10k"] < 0.05
    return run.finish("shots-sweep", metrics, artifacts,
                      f"shots-sweep: {len(cfg.shots_list)} shot counts on "
                      f"{len(pairs)} pairs")


# --- optimizer-compare ----------------------------------------------------------

def cmd_optimizer_compare(cfg: ExperimentConfig) -> RunRecord:
    """Final accuracy of both optimizers across pair counts (medians over
    repeats of the fully corrected final energy)."""
    run = _Run(cfg)
    plans = {"spsa": {"iterations": 20, "repeats": 4},
             "mgd": {"iterations": 10, "repeats": 5}}

    greedy = greedy_select(run.topology).pairs
    if max(cfg.pair_counts) > len(greedy):
        raise InputError(f"pair count {max(cfg.pair_counts)} exceeds the {len(greedy)} "
                         "pairs greedy selection provides")

    rows, summary = [], []
    for p_count in cfg.pair_counts:
        pairs = greedy[:p_count]
        table = run.pair_table(pairs)
        for index, (name, plan) in enumerate(plans.items()):
            traces = _optimize(run, table, name, plan["iterations"], len(pairs), cfg.shots,
                               [(p_count, rep, index) for rep in range(plan["repeats"])])
            finals = _final_points(run, table, [trace.final_params for trace in traces],
                                   [1000 * p_count + 10 * rep + index
                                    for rep in range(plan["repeats"])])
            errs = [abs(levels["tflo_ni"] - run.e0) for levels in finals]
            rows += [(name, p_count, rep, trace.final_params.phi, trace.final_params.theta,
                      levels["tflo_ni"], err)
                     for rep, (trace, levels, err) in enumerate(zip(traces, finals, errs))]
            summary.append((name, p_count, float(np.median(errs)), min(errs), max(errs)))

    # both tables are built a row per run; write_csv takes their columns
    runs_path = run.out_dir / "compare_runs.csv"
    write_csv(runs_path, ["optimizer", "p", "repeat", "final_phi", "final_theta",
                          "final_tflo_ni", "final_abs_err"], list(zip(*rows)))
    summary_path = run.out_dir / "compare_summary.csv"
    write_csv(summary_path, ["optimizer", "p", "median_abs_err",
                             "min_abs_err", "max_abs_err"], list(zip(*summary)))
    svgplot.line_plot(
        run.out_dir / "compare_summary.svg",
        {name: ([r[1] for r in summary if r[0] == name],
                [r[2] for r in summary if r[0] == name]) for name in plans},
        "median final |error| vs pairs", "pairs in parallel", "median |error|")

    metrics = {"pair_counts": list(cfg.pair_counts),
               "summary": {f"{name}_p{p}": med
                           for name, p, med, _, _ in summary}}
    return run.finish("optimizer-compare", metrics, [runs_path.name, summary_path.name],
                      f"optimizer-compare: p in {list(cfg.pair_counts)}")


# --- the command table ----------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, and the ExperimentConfig fields it reads
    besides seed and out_dir. Those fields are what its record.json lists
    and, where they have a flag, the flags the CLI accepts. `defaults` and
    `choices` narrow ExperimentConfig's defaults and CHOICES for it."""

    handler: Callable[[ExperimentConfig], RunRecord]
    help: str
    reads: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    choices: dict = field(default_factory=dict)


# what every command that runs circuits reads, and what heatmap and vqe add
_RUNS = ("calibration", "workers", "crosstalk_p", "confusion_shots")
_SELECTS = ("cost_model", "pairs", "select", "cap", "shots", "mitigation")

COMMANDS = {
    "benchmark-pairs": Command(cmd_benchmark_pairs,
                               "benchmark every pair and the greedy parallel sweep",
                               _RUNS + ("shots",), {"shots": 10_000}),
    "heatmap": Command(cmd_heatmap, "energy landscape heatmaps", _RUNS + _SELECTS + ("grid",),
                       {"shots": 10_000}),
    "vqe": Command(cmd_vqe, "full optimisation runs",
                   _RUNS + _SELECTS + ("iterations", "repeats", "optimizer", "eta", "start")),
    "speedup-sweep": Command(cmd_speedup_sweep,
                             "modelled speedup of both optimizers; runs nothing",
                             ("cost_model", "shots", "pair_counts"),
                             {"pair_counts": (2, 4, 8, 12, 16, 20, 25)}),
    "shots-sweep": Command(cmd_shots_sweep, "SPSA at several shot counts",
                           _RUNS + ("pairs", "cap", "iterations", "mitigation", "shots_list"),
                           {"mitigation": "ni"}, {"mitigation": ("none", "ni")}),
    "optimizer-compare": Command(cmd_optimizer_compare,
                                 "SPSA vs surrogate descent across pair counts",
                                 _RUNS + ("shots", "pair_counts")),
}


def config_for(command: str, **settings) -> ExperimentConfig:
    """The config `command` runs with: ExperimentConfig's defaults, then the
    command's default overrides, then settings. The CLI builds its config
    here too, so a direct call and the same flags run alike."""
    return ExperimentConfig(**{**COMMANDS[command].defaults, **settings})
