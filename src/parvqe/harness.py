"""Experiment harness: reproducible runs emitting CSV, JSON and SVG files.

Every experiment takes an ExperimentConfig (seed mandatory), writes its
data files into the output directory and returns a RunRecord describing
the resolved configuration, derived metrics and artifact list. Identical
configurations produce byte-identical data files regardless of worker
count; wall-clock cost is modelled (never measured) so records stay
reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .device import (
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
    EnergyEstimate,
    aggregate_same_params,
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
from .mitigation import ConfusionMatrix, measure_confusion, tflo_correct
from .optimizers import (
    MgdConfig,
    OptTrace,
    SpsaConfig,
    batch_pair_evaluator,
    measure_batch,
    mgd_run,
    n_points_from_eta,
    spsa_parallel_evaluator,
    spsa_run,
)
from .seeding import derive_rng, derive_seed
from . import svgplot

SCHEMA_VERSION = 1

# stream namespaces (first derivation key after the base seed)
_NS_CONFUSION = 1
_NS_RUN = 2
_NS_REF = 3
_NS_EVAL = 4
_NS_FINAL = 5
_NS_OPT = 6

MITIGATION_LEVELS = ("raw", "ni", "tflo", "tflo_ni")
# (ni, tflo) flags of --mitigation -> the level a command reports
_LEVEL_OF_FLAGS = {(False, False): "raw", (True, False): "ni",
                   (False, True): "tflo", (True, True): "tflo_ni"}


def default_calibration_path() -> Path:
    return Path(resources.files("parvqe").joinpath("data/aspen_m1_like.json"))


def default_cost_model_path() -> Path:
    return Path(resources.files("parvqe").joinpath("data/default_cost_model.json"))


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: Path
    calibration: Path = field(default_factory=default_calibration_path)
    cost_model: Path = field(default_factory=default_cost_model_path)
    pairs: int | None = None
    select: str = "greedy"              # greedy | matching
    cap: float | None = None
    shots: int = 1000
    confusion_shots: int = 10_000
    optimizer: str = "spsa"             # spsa | mgd
    iterations: int | None = None
    mitigation: str = "ni+tflo"         # none | ni | tflo | ni+tflo
    repeats: int = 1
    workers: int = 1
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
        if self.select not in ("greedy", "matching"):
            raise ValueError(f"unknown selection method {self.select!r}")
        if not self.calibration.exists():
            raise FileNotFoundError(f"calibration file {self.calibration} not found")
        if not self.cost_model.exists():
            raise FileNotFoundError(f"cost model file {self.cost_model} not found")

    def mitigation_flags(self) -> tuple[bool, bool]:
        """(ni, tflo)"""
        token = self.mitigation.lower().replace(" ", "")
        mapping = {"none": (False, False), "ni": (True, False),
                   "tflo": (False, True), "ni+tflo": (True, True),
                   "tflo+ni": (True, True)}
        if token not in mapping:
            raise ValueError(f"unknown mitigation {self.mitigation!r}")
        return mapping[token]

    def snapshot(self) -> dict:
        d = asdict(self)
        d["out_dir"] = str(self.out_dir)
        d["calibration"] = str(self.calibration)
        d["cost_model"] = str(self.cost_model)
        return d


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


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def select_pairs(topology: DeviceTopology, select: str, pairs: int | None,
                 cap: float | None) -> PairSelection:
    if select == "matching":
        sel = max_weight_matching(topology)
        if pairs is not None:
            sel = PairSelection(pairs=sel.pairs[:pairs], selection_method="matching")
        return sel
    return greedy_select(topology, max_pairs=pairs, fidelity_cap=cap)


def measure_confusions(topology: DeviceTopology, pairs, shots: int,
                       seed: int) -> dict[Pair, ConfusionMatrix]:
    """One confusion matrix per pair, measured once per run and reused."""
    out = {}
    for pair in pairs:
        noise = noise_spec_for_pair(topology, pair)
        stream = derive_rng(seed, _NS_CONFUSION, pair[0], pair[1])
        out[pair] = measure_confusion(noise, shots, stream)
    return out


def _with_reference(topology, pairs, params, h, cfg, confusions, run_seed, ref_seed,
                    crosstalk_p):
    """Measure params and its phi=0 reference on every pair, one batch each.
    Returns (per-pair estimates, per-pair reference estimates, exact
    reference energy)."""
    ref_params = AnsatzParams(0.0, params.theta)
    ests = measure_batch(topology, ((p, params) for p in pairs), h, cfg.shots, run_seed,
                         confusions, cfg.workers, crosstalk_p)
    refs = measure_batch(topology, ((p, ref_params) for p in pairs), h, cfg.shots,
                         ref_seed, confusions, cfg.workers, crosstalk_p)
    return ests, refs, exact_energy(ref_params, h)


def _mitigated(est: EnergyEstimate, ref: EnergyEstimate | None = None,
               ref_exact: float | None = None) -> dict:
    """Mitigation levels of a measurement: raw and ni, and with its phi=0
    reference also tflo and tflo_ni. Without confusions ni equals raw."""
    def raw_and_ni(e):
        return {"raw": e.value if e.raw_value is None else e.raw_value, "ni": e.value}

    levels = raw_and_ni(est)
    if ref is not None:
        ref_levels = raw_and_ni(ref)
        for base, level in (("raw", "tflo"), ("ni", "tflo_ni")):
            levels[level] = tflo_correct(levels[base], ref_exact, ref_levels[base])
    return levels


def _optimize(cfg, topology, pairs, h, confusions, optimizer, iterations, points,
              shots, keys) -> OptTrace:
    """One SPSA or surrogate-descent run from cfg.start on the evaluator that
    matches its parallelism. Its evaluator seed and optimizer stream derive
    from the key path `keys`."""
    eval_seed = derive_seed(cfg.seed, _NS_EVAL, *keys)
    opt_stream = derive_rng(cfg.seed, _NS_OPT, *keys)
    start = AnsatzParams(*cfg.start)
    exact_fn = lambda params: exact_energy(params, h)
    if optimizer == "spsa":
        evaluator = spsa_parallel_evaluator(topology, pairs, h, shots, eval_seed,
                                            confusions, cfg.workers, cfg.crosstalk_p)
        return spsa_run(SpsaConfig(iterations=iterations), evaluator, start,
                        opt_stream, exact_fn)
    evaluator = batch_pair_evaluator(topology, pairs, h, shots, eval_seed, confusions,
                                     cfg.workers, cfg.crosstalk_p)
    return mgd_run(MgdConfig(iterations=iterations), evaluator, start, points,
                   opt_stream, exact_fn)


# --- benchmark-pairs ----------------------------------------------------------

def cmd_benchmark_pairs(cfg: ExperimentConfig) -> RunRecord:
    """Per-pair benchmark at the optimal parameters, individually and in
    increasingly parallel greedy batches, at all mitigation levels."""
    from scipy.stats import spearmanr   # deferred: scipy.stats is slow to import

    t_start = time.perf_counter()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    topology = load_calibration(cfg.calibration)
    h = HubbardParams()
    opt = optimal_params(h)
    e0 = exact_ground_energy(h)

    all_pairs = sorted(topology.edge_map())
    confusions = measure_confusions(topology, all_pairs, cfg.confusion_shots, cfg.seed)

    # (a) every usable pair individually
    indiv_rows, indiv_levels = [], {}
    for idx, pair in enumerate(all_pairs):
        (est,), (ref,), ref_exact = _with_reference(
            topology, [pair], opt, h, cfg, confusions, derive_seed(cfg.seed, _NS_RUN, idx),
            derive_seed(cfg.seed, _NS_REF, idx), 0.0)
        levels = _mitigated(est, ref, ref_exact)
        indiv_levels[pair] = levels
        indiv_rows.append([pair[0], pair[1], topology.fidelity(pair),
                           levels["raw"], levels["ni"], levels["tflo"],
                           levels["tflo_ni"]])
    indiv_path = cfg.out_dir / "individual_pairs.csv"
    write_csv(indiv_path, ["pair_a", "pair_b", "fidelity",
                           "e_raw", "e_ni", "e_tflo", "e_tflo_ni"], indiv_rows)
    svgplot.scatter_plot(
        cfg.out_dir / "individual_pairs.svg",
        {level: ([r[2] for r in indiv_rows],
                 [r[3 + i] for r in indiv_rows])
         for i, level in enumerate(MITIGATION_LEVELS)},
        "energy vs CZ fidelity (individual pairs)", "CZ fidelity", "energy",
        hlines={"exact ground": e0})

    # (b) greedy-parallel sweep
    selection = greedy_select(topology)
    sweep_rows = []
    matrix: dict[Pair, dict[int, float]] = {p: {} for p in selection.pairs}
    for p_count in range(1, len(selection.pairs) + 1):
        active = selection.pairs[:p_count]
        ests, refs, ref_exact = _with_reference(
            topology, active, opt, h, cfg, confusions,
            derive_seed(cfg.seed, _NS_RUN, 1000 + p_count),
            derive_seed(cfg.seed, _NS_REF, 1000 + p_count), cfg.crosstalk_p)
        per_level = {level: [] for level in MITIGATION_LEVELS}
        for pair, est, ref in zip(active, ests, refs):
            levels = _mitigated(est, ref, ref_exact)
            matrix[pair][p_count] = levels["tflo"] - e0
            for level in MITIGATION_LEVELS:
                per_level[level].append(levels[level])
        row = [p_count]
        for level in MITIGATION_LEVELS:
            row.append(float(np.mean(np.abs(np.array(per_level[level]) - e0))))
        for level in MITIGATION_LEVELS:
            row.append(abs(float(np.mean(per_level[level])) - e0))
        sweep_rows.append(row)
    sweep_path = cfg.out_dir / "parallel_sweep.csv"
    write_csv(sweep_path,
              ["p"] + [f"mean_abs_err_{m}" for m in MITIGATION_LEVELS]
              + [f"pooled_abs_err_{m}" for m in MITIGATION_LEVELS], sweep_rows)
    svgplot.line_plot(
        cfg.out_dir / "parallel_sweep.svg",
        {level: ([r[0] for r in sweep_rows], [r[1 + i] for r in sweep_rows])
         for i, level in enumerate(MITIGATION_LEVELS)},
        "mean |error| vs pairs in parallel", "pairs in parallel", "mean |error|")

    matrix_rows = []
    for pair in selection.pairs:
        row = [pair[0], pair[1], topology.fidelity(pair),
               indiv_levels[pair]["tflo"] - e0]
        for p_count in range(1, len(selection.pairs) + 1):
            row.append(matrix[pair].get(p_count))
        matrix_rows.append(row)
    matrix_path = cfg.out_dir / "pair_by_p_matrix.csv"
    write_csv(matrix_path,
              ["pair_a", "pair_b", "fidelity", "individual_err"]
              + [f"err_p{p}" for p in range(1, len(selection.pairs) + 1)],
              matrix_rows)

    raw_errs = [r[1] for r in sweep_rows]
    tflo_errs = [r[3] for r in sweep_rows]
    rho = float(spearmanr(range(1, len(sweep_rows) + 1), raw_errs)[0])
    frac_below = float(np.mean([t < r for t, r in zip(tflo_errs, raw_errs)]))
    metrics = {
        "pairs_benchmarked": len(all_pairs),
        "greedy_pairs": len(selection.pairs),
        "optimal_phi": opt.phi,
        "optimal_theta": opt.theta,
        "exact_ground_energy": e0,
        "spearman_mean_abs_err_raw_vs_p": rho,
        "fraction_p_tflo_below_raw": frac_below,
    }
    record = RunRecord(command="benchmark-pairs", config=cfg.snapshot(), metrics=metrics,
                       artifacts=[p.name for p in
                                  (indiv_path, sweep_path, matrix_path)])
    record.write(cfg.out_dir / "record.json")
    print(f"benchmark-pairs: {len(all_pairs)} pairs individually, "
          f"sweep to p={len(selection.pairs)}; sim time "
          f"{time.perf_counter() - t_start:.1f}s (not recorded in artifacts)")
    return record


# --- heatmap ------------------------------------------------------------------

def cmd_heatmap(cfg: ExperimentConfig) -> RunRecord:
    """Energy-landscape heatmap: exact, simulated in parallel batches, and
    the absolute error between them; plus modelled wall times."""
    t_start = time.perf_counter()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    topology = load_calibration(cfg.calibration)
    h = HubbardParams()
    e0 = exact_ground_energy(h)
    ni_on, tflo_on = cfg.mitigation_flags()
    n = cfg.grid
    axis = np.linspace(-math.pi, math.pi, n)
    points = [AnsatzParams(float(phi), float(theta)) for phi in axis for theta in axis]

    exact_grid = [[float(closed_form_energy(phi, theta, h)) for theta in axis]
                  for phi in axis]
    exact_rows = [[float(p.phi), float(p.theta),
                   exact_grid[i // n][i % n]] for i, p in enumerate(points)]
    exact_path = cfg.out_dir / "heatmap_exact.csv"
    write_csv(exact_path, ["phi", "theta", "e_exact"], exact_rows)

    n_pairs = cfg.pairs if cfg.pairs is not None else 25
    selection = select_pairs(topology, cfg.select, n_pairs, cfg.cap)
    pairs = selection.pairs
    if not pairs:
        raise ValueError("selection produced no pairs")
    confusions = (measure_confusions(topology, pairs, cfg.confusion_shots, cfg.seed)
                  if ni_on else None)

    level = _LEVEL_OF_FLAGS[ni_on, tflo_on]
    sim_rows = []
    batches = 0
    for lo in range(0, len(points), len(pairs)):
        chunk = points[lo:lo + len(pairs)]
        active = pairs[:len(chunk)]
        ref_chunk = [AnsatzParams(0.0, p.theta) for p in chunk]
        ests = measure_batch(topology, zip(active, chunk), h, cfg.shots,
                             derive_seed(cfg.seed, _NS_RUN, batches), confusions,
                             cfg.workers, cfg.crosstalk_p)
        refs = (measure_batch(topology, zip(active, ref_chunk), h, cfg.shots,
                              derive_seed(cfg.seed, _NS_REF, batches), confusions,
                              cfg.workers, cfg.crosstalk_p)
                if tflo_on else [None] * len(chunk))
        for pair, params, ref_params, est, ref in zip(active, chunk, ref_chunk, ests, refs):
            value = _mitigated(est, ref, exact_energy(ref_params, h) if tflo_on
                               else None)[level]
            e_exact = exact_energy(params, h)
            sim_rows.append([params.phi, params.theta, pair[0], pair[1], est.value,
                             value, abs(value - e_exact)])
        batches += 1

    sim_path = cfg.out_dir / "heatmap_simulated.csv"
    write_csv(sim_path, ["phi", "theta", "pair_a", "pair_b",
                         "e_estimate", "e_corrected", "abs_err"], sim_rows)

    sim_grid = [[0.0] * n for _ in range(n)]
    err_grid = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(sim_rows):
        sim_grid[i // n][i % n] = row[5]
        err_grid[i // n][i % n] = row[6]
    extent = (-math.pi, math.pi, -math.pi, math.pi)
    svgplot.heatmap(cfg.out_dir / "heatmap_exact.svg", exact_grid,
                    "exact energy landscape", "phi", "theta", extent)
    svgplot.heatmap(cfg.out_dir / "heatmap_simulated.svg", sim_grid,
                    "simulated energy landscape", "phi", "theta", extent)
    svgplot.heatmap(cfg.out_dir / "heatmap_error.svg", err_grid,
                    "absolute error", "phi", "theta", extent)

    cost = load_cost_model(cfg.cost_model)
    seconds_parallel = predict_wall_time(cost, len(pairs), batches, cfg.shots)
    seconds_single = predict_wall_time(cost, 1, len(points), cfg.shots)
    metrics = {
        "grid": n,
        "points": len(points),
        "pairs": len(pairs),
        "batches": batches,
        "modeled_seconds_parallel": seconds_parallel,
        "modeled_seconds_single_pair": seconds_single,
        "modeled_speedup": seconds_single / seconds_parallel,
        "max_abs_err": max(r[6] for r in sim_rows),
        "mean_abs_err": float(np.mean([r[6] for r in sim_rows])),
        "exact_ground_energy": e0,
    }
    record = RunRecord(command="heatmap", config=cfg.snapshot(), metrics=metrics,
                       artifacts=[exact_path.name, sim_path.name])
    record.write(cfg.out_dir / "record.json")
    print(f"heatmap: {len(points)} points on {len(pairs)} pairs in {batches} batches, "
          f"modeled speedup {metrics['modeled_speedup']:.1f}x; sim time "
          f"{time.perf_counter() - t_start:.1f}s")
    return record


# --- vqe ------------------------------------------------------------------------

def _final_tflo_point(topology, pairs, final_params, h, cfg, confusions, rep):
    """Measure the final point and its phi=0 reference, returning all
    mitigation levels of the pooled estimate."""
    ests, refs, ref_exact = _with_reference(
        topology, pairs, final_params, h, cfg, confusions,
        derive_seed(cfg.seed, _NS_FINAL, 2 * rep),
        derive_seed(cfg.seed, _NS_FINAL, 2 * rep + 1), cfg.crosstalk_p)
    return _mitigated(aggregate_same_params(ests), aggregate_same_params(refs),
                      ref_exact)


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


def cmd_vqe(cfg: ExperimentConfig, speedup_sweep: bool = False) -> RunRecord:
    """Full optimisation runs (with repeats) or a modelled speedup sweep."""
    t_start = time.perf_counter()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cost = load_cost_model(cfg.cost_model)
    if cfg.optimizer not in ("spsa", "mgd"):
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    if speedup_sweep:
        rows = []
        iterations = cfg.iterations or (50 if cfg.optimizer == "spsa" else 10)
        for p in cfg.pair_counts:
            spsa_par, spsa_single = modeled_vqe_wall_times(
                cost, "spsa", p, p, iterations, cfg.shots)
            mgd_par, mgd_single = modeled_vqe_wall_times(
                cost, "mgd", p, p, iterations, cfg.shots)
            rows.append([p, spsa_single / spsa_par, mgd_single / mgd_par])
        path = cfg.out_dir / "speedup_sweep.csv"
        write_csv(path, ["p", "spsa_speedup", "mgd_speedup"], rows)
        svgplot.line_plot(cfg.out_dir / "speedup_sweep.svg",
                          {"spsa": ([r[0] for r in rows], [r[1] for r in rows]),
                           "mgd": ([r[0] for r in rows], [r[2] for r in rows])},
                          "modelled speedup vs pairs", "pairs in parallel", "speedup")
        metrics = {"pair_counts": list(cfg.pair_counts),
                   "spsa_speedups": [r[1] for r in rows],
                   "mgd_speedups": [r[2] for r in rows]}
        record = RunRecord(command="vqe-speedup-sweep", config=cfg.snapshot(),
                           metrics=metrics, artifacts=[path.name])
        record.write(cfg.out_dir / "record.json")
        return record

    topology = load_calibration(cfg.calibration)
    h = HubbardParams()
    e0 = exact_ground_energy(h)
    ni_on, tflo_on = cfg.mitigation_flags()
    selection = select_pairs(topology, cfg.select, cfg.pairs, cfg.cap)
    pairs = selection.pairs
    if cfg.pairs is not None and len(pairs) != cfg.pairs:
        raise ValueError(f"selection yields {len(pairs)} pairs, requested {cfg.pairs}")
    confusions = (measure_confusions(topology, pairs, cfg.confusion_shots, cfg.seed)
                  if ni_on else None)
    iterations = cfg.iterations or (50 if cfg.optimizer == "spsa" else 40)
    points = (len(pairs) if cfg.optimizer == "spsa" or len(pairs) > 1
              else n_points_from_eta(cfg.eta))
    level = _LEVEL_OF_FLAGS[ni_on, tflo_on]

    summary_rows = []
    artifacts = []
    for rep in range(cfg.repeats):
        trace = _optimize(cfg, topology, pairs, h, confusions, cfg.optimizer,
                          iterations, points, cfg.shots, (rep,))
        final = trace.final_params
        levels = _final_tflo_point(topology, pairs, final, h, cfg, confusions, rep)
        corrected = levels[level]
        trace_path = cfg.out_dir / f"trace_rep{rep}.csv"
        trace.write(trace_path, cfg.out_dir / f"trace_rep{rep}.json")
        artifacts.append(trace_path.name)
        summary_rows.append([rep, final.phi, final.theta,
                             levels["raw"], levels["ni"], levels["tflo"],
                             levels["tflo_ni"], corrected,
                             abs(corrected - e0), exact_energy(final, h) - e0])
        if rep == 0:
            its = [r.iteration for r in trace.records]
            svgplot.line_plot(
                cfg.out_dir / "trace_rep0.svg",
                {"estimate": (its, [r.e_ni for r in trace.records]),
                 "raw": (its, [r.e_raw for r in trace.records]),
                 "exact at params": (its, [r.e_exact for r in trace.records])},
                f"{cfg.optimizer} on {len(pairs)} pair(s)", "iteration", "energy",
                hlines={"exact ground": e0})

    summary_path = cfg.out_dir / "summary.csv"
    write_csv(summary_path,
              ["repeat", "final_phi", "final_theta", "final_raw", "final_ni",
               "final_tflo", "final_tflo_ni", "final_corrected",
               "final_abs_err", "exact_err_at_final"],
              summary_rows)
    artifacts.append(summary_path.name)

    seconds_parallel, seconds_single = modeled_vqe_wall_times(
        cost, cfg.optimizer, len(pairs), points, iterations, cfg.shots)
    errs = sorted(r[8] for r in summary_rows)
    metrics = {
        "optimizer": cfg.optimizer,
        "pairs": len(pairs),
        "points_per_iteration": points if cfg.optimizer == "mgd" else None,
        "iterations": iterations,
        "repeats": cfg.repeats,
        "median_final_abs_err": float(np.median([r[8] for r in summary_rows])),
        "min_final_abs_err": errs[0],
        "max_final_abs_err": errs[-1],
        "modeled_seconds_parallel": seconds_parallel,
        "modeled_seconds_single_pair_equivalent": seconds_single,
        "modeled_speedup": seconds_single / seconds_parallel,
        "exact_ground_energy": e0,
    }
    record = RunRecord(command="vqe", config=cfg.snapshot(), metrics=metrics,
                       artifacts=artifacts)
    record.write(cfg.out_dir / "record.json")
    print(f"vqe[{cfg.optimizer}]: {cfg.repeats} repeat(s) on {len(pairs)} pair(s), "
          f"median |err| {metrics['median_final_abs_err']:.4f}; sim time "
          f"{time.perf_counter() - t_start:.1f}s")
    return record


# --- shots-sweep ----------------------------------------------------------------

def cmd_shots_sweep(cfg: ExperimentConfig) -> RunRecord:
    """SPSA at several shot counts on the capped greedy selection."""
    t_start = time.perf_counter()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    topology = load_calibration(cfg.calibration)
    h = HubbardParams()
    e0 = exact_ground_energy(h)
    cap = cfg.cap if cfg.cap is not None else 0.90
    selection = greedy_select(topology, max_pairs=cfg.pairs, fidelity_cap=cap)
    pairs = selection.pairs
    ni_on, _ = cfg.mitigation_flags()
    confusions = (measure_confusions(topology, pairs, cfg.confusion_shots, cfg.seed)
                  if ni_on else None)
    iterations = cfg.iterations or 50

    rows, artifacts, series = [], [], {}
    final_err = {}
    for si, shots in enumerate(cfg.shots_list):
        trace = _optimize(cfg, topology, pairs, h, confusions, "spsa", iterations,
                          len(pairs), shots, (si,))
        err = exact_energy(trace.final_params, h) - e0
        final_err[shots] = err
        trace_path = cfg.out_dir / f"trace_shots{shots}.csv"
        trace.write(trace_path)
        artifacts.append(trace_path.name)
        rows.append([shots, trace.final_params.phi, trace.final_params.theta, err,
                     min(r.e_exact - e0 for r in trace.records)])
        series[f"{shots} shots"] = ([r.iteration for r in trace.records],
                                    [r.e_exact for r in trace.records])
    summary_path = cfg.out_dir / "shots_summary.csv"
    write_csv(summary_path, ["shots", "final_phi", "final_theta",
                             "final_exact_err", "best_exact_err"], rows)
    artifacts.append(summary_path.name)
    svgplot.line_plot(cfg.out_dir / "shots_sweep.svg", series,
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
    record = RunRecord(command="shots-sweep", config=cfg.snapshot(), metrics=metrics,
                       artifacts=artifacts)
    record.write(cfg.out_dir / "record.json")
    print(f"shots-sweep: {len(cfg.shots_list)} shot counts on {len(pairs)} pairs; "
          f"sim time {time.perf_counter() - t_start:.1f}s")
    return record


# --- optimizer-compare ----------------------------------------------------------

def cmd_optimizer_compare(cfg: ExperimentConfig) -> RunRecord:
    """Final accuracy of both optimizers across pair counts (medians over
    repeats of the fully corrected final energy)."""
    t_start = time.perf_counter()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    topology = load_calibration(cfg.calibration)
    h = HubbardParams()
    e0 = exact_ground_energy(h)
    plans = {"spsa": {"iterations": 20, "repeats": 4},
             "mgd": {"iterations": 10, "repeats": 5}}

    rows, summary = [], []
    for p_count in cfg.pair_counts:
        selection = greedy_select(topology, max_pairs=p_count)
        pairs = selection.pairs
        if len(pairs) < p_count:
            raise ValueError(f"topology only provides {len(pairs)} pairs")
        confusions = measure_confusions(topology, pairs, cfg.confusion_shots, cfg.seed)
        for name, plan in plans.items():
            finals = []
            for rep in range(plan["repeats"]):
                trace = _optimize(cfg, topology, pairs, h, confusions, name,
                                  plan["iterations"], len(pairs), cfg.shots,
                                  (p_count, rep, 0 if name == "spsa" else 1))
                levels = _final_tflo_point(topology, pairs, trace.final_params, h,
                                           cfg, confusions,
                                           1000 * p_count + 10 * rep
                                           + (0 if name == "spsa" else 1))
                err = abs(levels["tflo_ni"] - e0)
                finals.append(err)
                rows.append([name, p_count, rep, trace.final_params.phi,
                             trace.final_params.theta, levels["tflo_ni"], err])
            summary.append([name, p_count, float(np.median(finals)),
                            min(finals), max(finals)])

    runs_path = cfg.out_dir / "compare_runs.csv"
    write_csv(runs_path, ["optimizer", "p", "repeat", "final_phi", "final_theta",
                          "final_tflo_ni", "final_abs_err"], rows)
    summary_path = cfg.out_dir / "compare_summary.csv"
    write_csv(summary_path, ["optimizer", "p", "median_abs_err",
                             "min_abs_err", "max_abs_err"], summary)
    svgplot.line_plot(
        cfg.out_dir / "compare_summary.svg",
        {name: ([r[1] for r in summary if r[0] == name],
                [r[2] for r in summary if r[0] == name]) for name in plans},
        "median final |error| vs pairs", "pairs in parallel", "median |error|")

    metrics = {"pair_counts": list(cfg.pair_counts),
               "summary": {f"{name}_p{p}": med
                           for name, p, med, _, _ in summary}}
    record = RunRecord(command="optimizer-compare", config=cfg.snapshot(),
                       metrics=metrics, artifacts=[runs_path.name, summary_path.name])
    record.write(cfg.out_dir / "record.json")
    print(f"optimizer-compare: p in {list(cfg.pair_counts)}; sim time "
          f"{time.perf_counter() - t_start:.1f}s")
    return record
