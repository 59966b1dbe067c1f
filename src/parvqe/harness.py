"""Experiment harness: reproducible runs emitting CSV and .npy files.

Every experiment takes an ExperimentConfig (seed mandatory), opens a
`_Run`, which applies its COMMANDS entry, and hands its files and metrics
to `_Run.finish`, the one writing stage, so a run that fails leaves no
output. finish returns a RunRecord: settings read, metrics and artifacts.
Identical configurations produce byte-identical data files; wall-clock
cost is modelled (never measured) so records stay reproducible. The
commands draw no plots: tools/plot.py renders them from a run's files.
"""

from __future__ import annotations

import json
import math
import time
import warnings
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
)
from .executor import (
    CostModel,
    PairTable,
    compile_pairs,
    load_cost_model,
    plan_batches,
    predict_wall_time,
    width_runs,
)
from .hubbard import (
    AnsatzParams,
    closed_form_energy,
    exact_energy,
    exact_ground_energy,
    optimal_params,
)
from .mitigation import measure_confusions, tflo_correct
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
from .records import Record, factory
from .seeding import derive_rng

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


class ExperimentConfig(Record):
    """Every setting of an experiment run. Impossible values raise
    InputError, and so does an eta whose n_points_from_eta(eta) is 0 or
    exceeds MAX_POINTS_PER_ITERATION (1000 points), so eta must be at
    least 1/12 and below 166.75: uncapped, an eta of 1e9 would ask
    mgd_lockstep for 6e9 points per iteration. eta None (unset) leaves mgd
    its default point count."""

    seed: int
    out_dir: Path
    calibration: Path = factory(default_calibration_path)
    cost_model: Path = factory(default_cost_model_path)
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
    eta: float | None = None
    start: tuple[float, float] = (0.6, 0.8)
    grid: int = 20
    shots_list: tuple[int, ...] = (100, 1000, 10_000)
    pair_counts: tuple[int, ...] = (2, 4, 6, 9, 12, 25)
    crosstalk_p: float = 0.0

    def __post_init__(self):
        if self.out_dir == "":         # Path("") would be the working directory
            raise InputError("out_dir must not be empty")
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
            if not values:
                raise InputError(f"{name} must not be empty")
            if min(values) < 1:
                raise InputError(f"{name} entries must be >= 1, got {values}")
            if len(set(values)) < len(values):
                raise InputError(f"{name} entries must be distinct, got {values}")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise InputError(f"eta must be positive, got {self.eta}")
        if self.eta is not None and n_points_from_eta(self.eta) > MAX_POINTS_PER_ITERATION:
            raise InputError(f"eta {self.eta} asks for more than {MAX_POINTS_PER_ITERATION} "
                             "surrogate points per iteration")
        if self.eta is not None and n_points_from_eta(self.eta) < 1:
            raise InputError(f"eta {self.eta} asks for no surrogate points per iteration; "
                             "it must be at least 1/12")
        if self.cap is not None and not math.isfinite(self.cap):
            raise InputError(f"cap must be finite, got {self.cap}")
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


class RunRecord(Record):
    command: str
    config: dict
    metrics: dict
    artifacts: list[str]

    def write(self, path: Path) -> None:
        payload = {"schema_version": SCHEMA_VERSION, "code_version": __version__, **vars(self)}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def select_pairs(topology: DeviceTopology, select: str, pairs: int | None,
                 cap: float | None) -> PairSelection:
    """At most `pairs` pairs at CZ fidelity >= cap, best first. For matching,
    the pairs of the maximum-weight matching are ranked by fidelity, ties
    broken by pair id. An empty selection is an InputError."""
    if select == "matching":
        try:
            matched = max_weight_matching(topology).pairs
        except ImportError as exc:
            raise InputError(str(exc)) from exc
        ranked = sorted((p for p in matched if cap is None or topology.fidelity(p) >= cap),
                        key=lambda p: (-topology.fidelity(p), p))
        selection = PairSelection(pairs=tuple(ranked[:pairs]))
    else:
        selection = greedy_select(topology, max_pairs=pairs, fidelity_cap=cap)
    if not selection.pairs:
        raise InputError("selection produced no pairs")
    return selection


class _Run:
    """What every experiment sets up first (clock, ground energy, cost
    model, calibration and its one compiled pair table) and its ending,
    which writes every file and the record. It applies `command`'s COMMANDS
    entry before any output: a value outside its choices, an eta given to
    spsa, or a setting off its default that the command does not read is an
    InputError, as on the command line; the cost model is loaded exactly
    when the command reads it."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        entry = COMMANDS[command]
        for name, allowed in entry.choices.items():
            if getattr(cfg, name) not in allowed:
                raise InputError(f"{command} {name} must be one of {allowed}, "
                                 f"got {getattr(cfg, name)!r}")
        if "eta" in entry.reads and cfg.eta is not None and cfg.optimizer == "spsa":
            raise InputError("eta sets mgd's points per iteration; spsa reads no eta")
        # every field but seed and out_dir has a default; a factory's is a fresh call
        unread = [name for name, default in ExperimentConfig._defaults.items()
                  if name not in entry.reads and getattr(cfg, name)
                  != (default.fn() if isinstance(default, factory) else default)]
        if unread:
            raise InputError(f"{command} reads no {', '.join(unread)}; leave them unset")
        self.cfg, self.command, self.reads = cfg, command, entry.reads
        self.t_start = time.perf_counter()
        self.e0 = exact_ground_energy()
        # read up front, so a bad model leaves no output
        self.cost: CostModel | None = None
        if "cost_model" in entry.reads:
            try:
                self.cost = load_cost_model(cfg.cost_model)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise InputError(f"cannot read cost model {cfg.cost_model}: "
                                 f"{type(exc).__name__}: {exc}") from exc

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
        """The pairs compiled for every later batch on them; with ni, their
        estimates are noise-inverted by each pair's confusion matrix. The
        matrices are measured as one stack, each pair on its own stream, so
        a pair's matrix does not depend on the other pairs of the table."""
        cfg = self.cfg
        confusions = None
        if ni:
            readouts = np.array([self.topology.pair_readout(pair) for pair in pairs])
            confusions = measure_confusions(
                readouts, cfg.confusion_shots,
                [derive_rng(cfg.seed, _NS_CONFUSION, *pair) for pair in pairs])
        return compile_pairs(self.topology, pairs, confusions=confusions,
                             crosstalk_p=cfg.crosstalk_p)

    def finish(self, files: dict, metrics: dict, summary: str) -> RunRecord:
        """Make the output directory and write `files` in order, each name
        mapped to an .npy array, a CSV's (header, columns), or an OptTrace,
        whose CSV table is built only as it is written; then the command's
        record.json, whose artifacts are those names. Print the summary."""
        out_dir = self.cfg.out_dir
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise InputError(f"out_dir {out_dir} is not a directory") from exc
        for name, content in files.items():
            if name.endswith(".npy"):
                np.save(out_dir / name, content)
            else:
                write_csv(out_dir / name, *getattr(content, "table", content))
        config = {name: getattr(self.cfg, name) for name in ("seed", "out_dir", *self.reads)}
        record = RunRecord(command=self.command, metrics=metrics, artifacts=list(files),
                           config={k: str(v) if isinstance(v, Path) else v
                                   for k, v in config.items()})
        record.write(out_dir / "record.json")
        print(f"{summary}; sim time {time.perf_counter() - self.t_start:.1f}s")
        return record


def _measure(run: _Run, table: PairTable, groups, phi, theta, key_paths,
             tflo: bool) -> dict:
    """Mitigation levels of groups of batches of table rows at angles
    (phi, theta), as arrays over every row in order. Group k is one key
    path's batches, drawn from the stream of key_paths[k] in the run
    namespace. The layout is planned once; one measure_batch call over the
    groups gives raw and ni (ni equals raw without NI); with tflo, a second
    call over their phi=0 reference points, on the same plan and drawn
    from the reference namespace, adds tflo and tflo_ni."""
    seed = run.cfg.seed
    plan = plan_batches(table, groups, run.cfg.shots)
    est = measure_batch(plan, phi, theta,
                        [derive_rng(seed, _NS_RUN, *path) for path in key_paths])
    levels = {"raw": est.raw, "ni": est.value}
    if tflo:
        zeros = np.zeros_like(theta)
        ref = measure_batch(plan, zeros, theta,
                            [derive_rng(seed, _NS_REF, *path) for path in key_paths])
        ref_exact = closed_form_energy(zeros, theta)
        levels["tflo"] = tflo_correct(est.raw, ref_exact, ref.raw)
        levels["tflo_ni"] = tflo_correct(est.value, ref_exact, ref.value)
    return levels


def _final_points(run: _Run, table: PairTable, finals: list[AnsatzParams],
                  keys, widths: list[int]) -> dict[str, np.ndarray]:
    """Mitigation levels of each final params measured on the table's first
    widths[i] rows, with its phi=0 reference, pooled over those rows: one
    (len(finals),) column per level. All finals share one _measure call,
    and finals[i] draws from its own stream, keyed by keys[i]."""
    levels = _measure(run, table, [[np.arange(w)] for w in widths],
                      np.repeat([f.phi for f in finals], widths),
                      np.repeat([f.theta for f in finals], widths),
                      [(_NS_FINAL, key) for key in keys], tflo=True)
    return {level: np.concatenate([v[lo:hi].reshape(-1, w).mean(axis=1)
                                   for w, lo, hi in width_runs(widths)])
            for level, v in levels.items()}


def _optimize(run: _Run, table: PairTable, optimizer, iterations, points, shots,
              key_paths, start=ExperimentConfig.start) -> list[OptTrace]:
    """SPSA or surrogate-descent runs from `start` (only vqe sets it), one
    per key path, in lockstep on the evaluator that matches the optimizer's
    parallelism, at `shots` shots each (or shots[i] for key path i). MGD
    spreads `points` points per iteration over the table's rows; SPSA pools
    each point over the table's first `points` rows (or points[i] for key
    path i). Each run's evaluator and optimizer streams derive from its
    own key path, so its trace does not depend on the runs beside it."""
    cfg = run.cfg
    eval_streams = [derive_rng(cfg.seed, _NS_EVAL, *keys) for keys in key_paths]
    streams = [derive_rng(cfg.seed, _NS_OPT, *keys) for keys in key_paths]
    starts = [AnsatzParams(*start)] * len(key_paths)
    exact = lambda centres: closed_form_energy(centres[:, 0], centres[:, 1])
    if optimizer == "spsa":
        return spsa_lockstep(SpsaConfig(iterations=iterations),
                             spsa_parallel_evaluator(table, shots, eval_streams, points), starts,
                             streams, exact)
    return mgd_lockstep(MgdConfig(iterations=iterations),
                        batch_pair_evaluator(table, shots, eval_streams), starts, points,
                        streams, exact)


def _median(values: np.ndarray) -> float:
    """numpy's median of a non-empty 1-D float array, bit for bit (NaN if
    any value is NaN), without the numpy.ma import that numpy's median
    makes on its first call in a process."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):    # sort puts NaN last
        return float("nan")
    half = len(ordered) // 2
    return float(np.mean(ordered[half - 1 + len(ordered) % 2:half + 1]))


# --- benchmark-pairs ----------------------------------------------------------

def rank_correlation(x, y) -> float | None:
    """Spearman's rho: the Pearson correlation of the ranks, where tied
    values share the mean of the ranks they span. None (JSON null) when
    either input is constant, one value included, since rho is undefined."""
    def ranks(values):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rx, ry = ranks(x), ranks(y)
    if np.all(rx == rx[:1]) or np.all(ry == ry[:1]):
        return None
    return float(np.corrcoef(rx, ry)[0, 1])


def cmd_benchmark_pairs(cfg: ExperimentConfig) -> RunRecord:
    """Per-pair benchmark at the optimal parameters, individually and in
    increasingly parallel greedy batches, at all mitigation levels."""
    run = _Run(cfg, "benchmark-pairs")
    topology, e0 = run.topology, run.e0
    opt = optimal_params()
    all_pairs = sorted(topology.edge_map())
    # every edge, so the rows overlap: each batch picks disjoint ones
    table = run.pair_table(all_pairs)
    row_of = {pair: row for row, pair in enumerate(all_pairs)}

    # (a) every usable pair individually: one-row batches, one stream
    n = len(all_pairs)
    indiv = _measure(run, table, [[[idx] for idx in range(n)]], np.full(n, opt.phi),
                     np.full(n, opt.theta), [(0,)], tflo=True)
    fidelity = [topology.fidelity(pair) for pair in all_pairs]

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

    files = {
        "individual_pairs.csv": (
            ["pair_a", "pair_b", "fidelity", "e_raw", "e_ni", "e_tflo", "e_tflo_ni"],
            [*np.array(all_pairs).T, fidelity, *(indiv[m] for m in MITIGATION_LEVELS)]),
        "parallel_sweep.csv": (
            ["p"] + [f"mean_abs_err_{m}" for m in MITIGATION_LEVELS]
            + [f"pooled_abs_err_{m}" for m in MITIGATION_LEVELS],
            [sizes, *mean_err.values(), *pooled_err.values()]),
        # pair i of the greedy order is active from p = i + 1 on
        "pair_by_p_matrix.csv": (
            ["pair_a", "pair_b", "fidelity", "individual_err"] + [f"err_p{p}" for p in sizes],
            [*np.array(selection.pairs).T, [fidelity[row] for row in greedy_rows],
             indiv["tflo"][greedy_rows] - e0,
             *((tflo - e0).tolist() + [None] * (len(sizes) - p)
               for p, tflo in zip(sizes, per_p["tflo"]))]),
    }
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
    return run.finish(files, metrics,
                      f"benchmark-pairs: {len(all_pairs)} pairs individually, "
                      f"sweep to p={len(selection.pairs)}")


# --- heatmap ------------------------------------------------------------------

def cmd_heatmap(cfg: ExperimentConfig) -> RunRecord:
    """Energy-landscape heatmap: exact, simulated in parallel batches, and
    the absolute error between them; plus modelled wall times."""
    run = _Run(cfg, "heatmap")
    n = cfg.grid
    axis = np.linspace(-math.pi, math.pi, n)
    # the grid in row-major (phi, theta) order
    phi, theta = np.repeat(axis, n), np.tile(axis, n)
    pairs = run.select(cfg.select, cfg.cap, default=25)
    table = run.pair_table(pairs, cfg.ni)
    exact = closed_form_energy(phi, theta)

    # the grid in batches of len(pairs) points, all measured in one call
    batches = [np.arange(min(len(pairs), n * n - lo)) for lo in range(0, n * n, len(pairs))]
    levels = _measure(run, table, [batches], phi, theta, [()], cfg.tflo)
    value = levels[cfg.level]
    err = np.abs(value - exact)
    files = {
        "heatmap_exact.csv": (["phi", "theta", "e_exact"], [phi, theta, exact]),
        "heatmap_simulated.csv": (
            ["phi", "theta", "pair_a", "pair_b", "e_estimate", "e_corrected", "abs_err"],
            [phi, theta, *table.qubits[np.concatenate(batches)].T, levels["ni"], value, err]),
    }

    seconds_parallel = predict_wall_time(run.cost, len(pairs), len(batches), cfg.shots)
    seconds_single = predict_wall_time(run.cost, 1, n * n, cfg.shots)
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
    return run.finish(files, metrics,
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
    parallel, single = (3, 3) if optimizer == "spsa" else (math.ceil(points / pairs), points)
    return (predict_wall_time(cost, pairs, iterations * parallel, shots),
            predict_wall_time(cost, 1, iterations * single, shots))


def cmd_vqe(cfg: ExperimentConfig) -> RunRecord:
    """Full optimisation runs, with repeats: per repeat a trace CSV, and
    for all repeats one (repeats, iterations, points) array of every point
    the optimizer evaluated and the estimates it read there."""
    run = _Run(cfg, "vqe")
    e0 = run.e0
    pairs = run.select(cfg.select, cfg.cap)
    table = run.pair_table(pairs, cfg.ni)
    default_iterations = 50 if cfg.optimizer == "spsa" else 40
    iterations = cfg.iterations if cfg.iterations is not None else default_iterations
    # mgd: n_points_from_eta(--eta) points; unset, one per pair, or 12 (eta 2) on one
    eta = 2.0 if cfg.eta is None and len(pairs) == 1 else cfg.eta
    points = len(pairs) if cfg.optimizer == "spsa" or eta is None else n_points_from_eta(eta)

    traces = _optimize(run, table, cfg.optimizer, iterations, points, cfg.shots,
                       [(rep,) for rep in range(cfg.repeats)], cfg.start)
    final_params = [trace.final_params for trace in traces]
    finals = _final_points(run, table, final_params, range(cfg.repeats),
                           [len(pairs)] * cfg.repeats)
    abs_err = np.abs(finals[cfg.level] - e0)
    files = {
        **{f"trace_rep{rep}.csv": t for rep, t in enumerate(traces)},
        "trace_points.npy": traces[0].points.base,      # every repeat's points, uncopied
        # lists, as in OptTrace.table: distinct values gain nothing from csvio's np.unique path
        "summary.csv": (
            ["repeat", "final_phi", "final_theta", "final_raw", "final_ni",
             "final_tflo", "final_tflo_ni", "final_corrected",
             "final_abs_err", "exact_err_at_final"],
            [list(range(cfg.repeats)), [f.phi for f in final_params],
             [f.theta for f in final_params],
             *(finals[m].tolist() for m in (*MITIGATION_LEVELS, cfg.level)),
             abs_err.tolist(), [exact_energy(f) - e0 for f in final_params]]),
    }

    seconds_parallel, seconds_single = modeled_vqe_wall_times(
        run.cost, cfg.optimizer, len(pairs), points, iterations, cfg.shots)
    metrics = {
        "optimizer": cfg.optimizer,
        "pairs": len(pairs),
        "points_per_iteration": points if cfg.optimizer == "mgd" else None,
        "iterations": iterations,
        "repeats": cfg.repeats,
        "median_final_abs_err": _median(abs_err),
        "min_final_abs_err": float(abs_err.min()),
        "max_final_abs_err": float(abs_err.max()),
        "modeled_seconds_parallel": seconds_parallel,
        "modeled_seconds_single_pair_equivalent": seconds_single,
        "modeled_speedup": seconds_single / seconds_parallel,
        "exact_ground_energy": e0,
    }
    return run.finish(files, metrics,
                      f"vqe[{cfg.optimizer}]: {cfg.repeats} repeat(s) on {len(pairs)} "
                      f"pair(s), median |err| {metrics['median_final_abs_err']:.4f}")


def cmd_speedup_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Modelled speedup of both optimizers over cfg.pair_counts; nothing is
    simulated."""
    run = _Run(cfg, "speedup-sweep")
    counts = list(cfg.pair_counts)
    speedups = {}
    for optimizer in ("spsa", "mgd"):
        # both times scale with the iteration count, so one iteration models the ratio
        times = [modeled_vqe_wall_times(run.cost, optimizer, p, p, 1, cfg.shots)
                 for p in counts]
        speedups[optimizer] = [single / parallel for parallel, single in times]
    files = {"speedup_sweep.csv": (["p", "spsa_speedup", "mgd_speedup"],
                                   [counts, *speedups.values()])}
    metrics = {"pair_counts": counts,
               "spsa_speedups": speedups["spsa"],
               "mgd_speedups": speedups["mgd"]}
    return run.finish(files, metrics, f"speedup-sweep: {len(counts)} pair counts modelled")


# --- shots-sweep ----------------------------------------------------------------

def cmd_shots_sweep(cfg: ExperimentConfig) -> RunRecord:
    """SPSA at several shot counts on the capped greedy selection. It runs
    no reference point, so its choices (COMMANDS) leave out tflo."""
    run = _Run(cfg, "shots-sweep")
    e0 = run.e0
    cap = cfg.cap if cfg.cap is not None else 0.90
    pairs = run.select("greedy", cap)
    table = run.pair_table(pairs, cfg.ni)
    iterations = cfg.iterations if cfg.iterations is not None else 50

    # every shot count is one lockstep repeat, keyed by its index
    traces = dict(zip(cfg.shots_list, _optimize(
        run, table, "spsa", iterations, len(pairs), cfg.shots_list,
        [(si,) for si in range(len(cfg.shots_list))])))
    final_params = [trace.final_params for trace in traces.values()]
    final_err = {shots: exact_energy(f) - e0 for shots, f in zip(traces, final_params)}
    files = {
        **{f"trace_shots{shots}.csv": t for shots, t in traces.items()},
        "shots_summary.csv": (
            ["shots", "final_phi", "final_theta", "final_exact_err", "best_exact_err"],
            [list(traces), [f.phi for f in final_params], [f.theta for f in final_params],
             list(final_err.values()),
             [min((trace.e_exact - e0).tolist()) for trace in traces.values()]]),
    }

    metrics = {
        "pairs": len(pairs),
        "fidelity_cap": cap,
        "iterations": iterations,
        "final_exact_err_by_shots": {str(s): final_err[s] for s in cfg.shots_list},
    }
    if 1000 in final_err and 10_000 in final_err:
        metrics["err_gap_1k_vs_10k"] = abs(final_err[1000] - final_err[10_000])
        metrics["matches_within_0.05"] = metrics["err_gap_1k_vs_10k"] < 0.05
    return run.finish(files, metrics,
                      f"shots-sweep: {len(cfg.shots_list)} shot counts on "
                      f"{len(pairs)} pairs")


# --- optimizer-compare ----------------------------------------------------------

def cmd_optimizer_compare(cfg: ExperimentConfig) -> RunRecord:
    """Final accuracy of both optimizers across pair counts (medians over
    repeats of the fully corrected final energy), all on one table of the
    largest count's greedy pairs: greedy order is a prefix order, so a
    count of p runs on the table's first p rows."""
    run = _Run(cfg, "optimizer-compare")
    plans = {"spsa": {"iterations": 20, "repeats": 4},
             "mgd": {"iterations": 10, "repeats": 5}}

    greedy = greedy_select(run.topology).pairs
    if max(cfg.pair_counts) > len(greedy):
        raise InputError(f"pair count {max(cfg.pair_counts)} exceeds the {len(greedy)} "
                         "pairs greedy selection provides")
    table = run.pair_table(greedy[:max(cfg.pair_counts)])

    # the key paths (p, rep, index) of each (p, optimizer), in output order
    keys = {(p, name): [(p, rep, index) for rep in range(plan["repeats"])]
            for p in cfg.pair_counts for index, (name, plan) in enumerate(plans.items())}
    # every spsa run in one lockstep call, each pooling over its first p
    # rows; mgd spreads p points per iteration, so one call per count
    spsa = [key for p in cfg.pair_counts for key in keys[p, "spsa"]]
    traces = dict(zip(spsa, _optimize(run, table, "spsa", plans["spsa"]["iterations"],
                                      [p for p, _, _ in spsa], cfg.shots, spsa)))
    for p in cfg.pair_counts:
        traces.update(zip(keys[p, "mgd"], _optimize(run, table, "mgd",
                                                    plans["mgd"]["iterations"], p,
                                                    cfg.shots, keys[p, "mgd"])))
    ordered = [key for group in keys.values() for key in group]
    finals = [traces[key].final_params for key in ordered]
    tflo_ni = _final_points(run, table, finals,
                            [1000 * p + 10 * rep + index for p, rep, index in ordered],
                            [p for p, _, _ in ordered])["tflo_ni"]
    errs = np.abs(tflo_ni - run.e0)
    ends = np.cumsum([len(group) for group in keys.values()])
    summary = [(name, p, _median(e), float(e.min()), float(e.max()))
               for (p, name), e in zip(keys, np.split(errs, ends[:-1]))]

    files = {
        "compare_runs.csv": (
            ["optimizer", "p", "repeat", "final_phi", "final_theta",
             "final_tflo_ni", "final_abs_err"],
            [[name for (_, name), group in keys.items() for _ in group],
             [p for p, _, _ in ordered], [rep for _, rep, _ in ordered],
             [f.phi for f in finals], [f.theta for f in finals],
             tflo_ni.tolist(), errs.tolist()]),
        # the summary is built a row per (optimizer, p); a CSV takes its columns
        "compare_summary.csv": (
            ["optimizer", "p", "median_abs_err", "min_abs_err", "max_abs_err"],
            list(zip(*summary))),
    }

    metrics = {"pair_counts": list(cfg.pair_counts),
               "summary": {f"{name}_p{p}": med
                           for name, p, med, _, _ in summary}}
    return run.finish(files, metrics, f"optimizer-compare: p in {list(cfg.pair_counts)}")


# --- the command table ----------------------------------------------------------

class Command(Record, frozen=True):
    """A subcommand: its handler, and the ExperimentConfig fields it reads
    besides seed and out_dir. Those fields are what its record.json lists
    and, where they have a flag, the flags the CLI accepts. `defaults` and
    `choices` narrow ExperimentConfig's defaults and CHOICES for it."""

    handler: Callable[[ExperimentConfig], RunRecord]
    help: str
    reads: tuple[str, ...]
    defaults: dict = factory(dict)
    choices: dict = factory(dict)


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
    here too, so a direct call and the same flags run alike (and the
    handler's _Run refuses alike what the command does not accept)."""
    return ExperimentConfig(**{**COMMANDS[command].defaults, **settings})
