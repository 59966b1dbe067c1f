"""Experiment-harness tests: file outputs, schemas, reproducibility, CLI."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import parvqe
from parvqe.cli import build_parser, config_from_args, main as cli_main
from parvqe.executor import load_cost_model, predict_wall_time
from parvqe.harness import (
    ExperimentConfig,
    cmd_benchmark_pairs,
    cmd_heatmap,
    cmd_optimizer_compare,
    cmd_shots_sweep,
    cmd_vqe,
    modeled_vqe_wall_times,
)
from parvqe import __version__


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, out_dir=tmp_path, select="best")
    with pytest.raises(FileNotFoundError):
        ExperimentConfig(seed=1, out_dir=tmp_path, calibration=tmp_path / "nope.json")
    cfg = ExperimentConfig(seed=1, out_dir=tmp_path, mitigation="tflo+ni")
    assert cfg.mitigation_flags() == (True, True)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, out_dir=tmp_path, mitigation="magic").mitigation_flags()


def test_benchmark_outputs(tmp_path):
    cfg = ExperimentConfig(seed=5, out_dir=tmp_path / "bench", shots=500,
                           confusion_shots=500)
    record = cmd_benchmark_pairs(cfg)
    indiv = read_csv(tmp_path / "bench" / "individual_pairs.csv")
    assert len(indiv) == 97
    assert set(indiv[0]) == {"pair_a", "pair_b", "fidelity", "e_raw", "e_ni",
                             "e_tflo", "e_tflo_ni"}
    sweep = read_csv(tmp_path / "bench" / "parallel_sweep.csv")
    assert len(sweep) == 33
    matrix = read_csv(tmp_path / "bench" / "pair_by_p_matrix.csv")
    assert len(matrix) == 33
    # a pair joining at rank k appears only from p = k onward
    assert matrix[-1]["err_p1"] == ""
    assert matrix[-1]["err_p33"] != ""
    assert record.metrics["greedy_pairs"] == 33
    payload = json.loads((tmp_path / "bench" / "record.json").read_text())
    assert payload["code_version"] == __version__
    assert payload["config"]["seed"] == 5
    assert (tmp_path / "bench" / "individual_pairs.svg").exists()


def test_heatmap_batch_count_and_exact_panel(tmp_path):
    cfg = ExperimentConfig(seed=9, out_dir=tmp_path / "heat", shots=100, pairs=25)
    record = cmd_heatmap(cfg)
    assert record.metrics["batches"] == 16          # ceil(400 / 25)
    assert record.metrics["points"] == 400
    cost = load_cost_model(cfg.cost_model)
    want = (predict_wall_time(cost, 1, 400, 100)
            / predict_wall_time(cost, 25, 16, 100))
    assert record.metrics["modeled_speedup"] == pytest.approx(want, rel=1e-12)
    exact_rows = read_csv(tmp_path / "heat" / "heatmap_exact.csv")
    assert len(exact_rows) == 400
    for name in ("heatmap_exact.svg", "heatmap_simulated.svg", "heatmap_error.svg"):
        assert (tmp_path / "heat" / name).exists()


def test_heatmap_noiseless_errors_within_shot_noise(tmp_path, make_uniform_calibration):
    cal = make_uniform_calibration(25, fidelity=1.0)
    cfg = ExperimentConfig(seed=3, out_dir=tmp_path / "clean", calibration=cal,
                           shots=10_000, pairs=25, mitigation="none")
    record = cmd_heatmap(cfg)
    # 4-sigma multinomial envelope at 10,000 shots (sigma <= 0.02)
    assert record.metrics["max_abs_err"] < 0.08


def test_vqe_spsa_noiseless_single_pair_converges(tmp_path, make_uniform_calibration):
    cal = make_uniform_calibration(1, fidelity=1.0)
    cfg = ExperimentConfig(seed=3, out_dir=tmp_path / "vqe", calibration=cal,
                           optimizer="spsa", pairs=1, shots=10_000,
                           iterations=100, mitigation="none")
    record = cmd_vqe(cfg)
    rows = read_csv(tmp_path / "vqe" / "summary.csv")
    assert float(rows[0]["exact_err_at_final"]) < 0.01
    trace = read_csv(tmp_path / "vqe" / "trace_rep0.csv")
    assert len(trace) == 100
    assert set(trace[0]) == {"iteration", "phi", "theta", "e_raw", "e_ni", "e_exact"}
    assert record.metrics["modeled_speedup"] == pytest.approx(1.0)


def test_vqe_repeats_and_modeled_times(tmp_path):
    cfg = ExperimentConfig(seed=21, out_dir=tmp_path / "mgd", optimizer="mgd",
                           pairs=12, shots=200, iterations=5, repeats=3,
                           confusion_shots=500)
    record = cmd_vqe(cfg)
    rows = read_csv(tmp_path / "mgd" / "summary.csv")
    assert len(rows) == 3
    cost = load_cost_model(cfg.cost_model)
    par, single = modeled_vqe_wall_times(cost, "mgd", 12, 12, 5, 200)
    assert record.metrics["modeled_seconds_parallel"] == pytest.approx(par)
    assert record.metrics["modeled_speedup"] == pytest.approx(single / par)
    assert record.metrics["points_per_iteration"] == 12


def test_vqe_csvs_hold_plain_floats(tmp_path):
    # optimizers build AnsatzParams from numpy array elements
    cfg = ExperimentConfig(seed=4, out_dir=tmp_path / "vqe", pairs=2, shots=100,
                           iterations=2, repeats=2)
    cmd_vqe(cfg)
    for path in cfg.out_dir.glob("*.csv"):
        assert "np." not in path.read_text(), path.name


def test_vqe_rejects_unknown_optimizer(tmp_path):
    cfg = ExperimentConfig(seed=1, out_dir=tmp_path / "x", optimizer="adam")
    with pytest.raises(ValueError):
        cmd_vqe(cfg)


def test_speedup_sweep_matches_cost_model(tmp_path):
    cfg = ExperimentConfig(seed=1, out_dir=tmp_path / "sweep", shots=1000,
                           iterations=10, pair_counts=(2, 8, 25))
    record = cmd_vqe(cfg, speedup_sweep=True)
    rows = read_csv(tmp_path / "sweep" / "speedup_sweep.csv")
    cost = load_cost_model(cfg.cost_model)
    for row in rows:
        p = int(row["p"])
        spsa_par, spsa_single = modeled_vqe_wall_times(cost, "spsa", p, p, 10, 1000)
        mgd_par, mgd_single = modeled_vqe_wall_times(cost, "mgd", p, p, 10, 1000)
        assert float(row["spsa_speedup"]) == pytest.approx(spsa_single / spsa_par)
        assert float(row["mgd_speedup"]) == pytest.approx(mgd_single / mgd_par)
    mgd_speedups = record.metrics["mgd_speedups"]
    assert all(b > a for a, b in zip(mgd_speedups, mgd_speedups[1:]))
    for p, s in zip(record.metrics["pair_counts"], mgd_speedups):
        assert s <= p  # parallelism can never beat the ideal factor


def test_shots_sweep_uses_capped_selection_and_reports_gap(tmp_path):
    cfg = ExperimentConfig(seed=2022, out_dir=tmp_path / "shots",
                           shots_list=(1000, 10_000), iterations=25,
                           confusion_shots=1000)
    record = cmd_shots_sweep(cfg)
    assert record.metrics["pairs"] == 26
    assert record.metrics["fidelity_cap"] == 0.90
    assert "err_gap_1k_vs_10k" in record.metrics
    assert record.metrics["matches_within_0.05"]


def test_shots_sweep_tiny_shot_budget_degrades(tmp_path):
    cfg = ExperimentConfig(seed=11, out_dir=tmp_path / "shots10",
                           shots_list=(10, 1000), confusion_shots=1000)
    record = cmd_shots_sweep(cfg)
    errs = record.metrics["final_exact_err_by_shots"]
    assert errs["10"] > errs["1000"]


def test_optimizer_compare_plans_and_spread(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = ExperimentConfig(seed=2022, out_dir=tmp_path / "cmp", shots=1000,
                               pair_counts=(2, 4, 6, 12), confusion_shots=1000)
        cmd_optimizer_compare(cfg)
    runs = read_csv(tmp_path / "cmp" / "compare_runs.csv")
    by_opt = {}
    for row in runs:
        by_opt.setdefault((row["optimizer"], int(row["p"])), []).append(row)
    for p in (2, 4, 6, 12):
        assert len(by_opt[("spsa", p)]) == 4
        assert len(by_opt[("mgd", p)]) == 5
    summary = read_csv(tmp_path / "cmp" / "compare_summary.csv")
    spread = {(r["optimizer"], int(r["p"])): float(r["max_abs_err"]) - float(r["min_abs_err"])
              for r in summary}
    # repeat scatter of the surrogate optimizer is dominated by the
    # under-determined small-p fits
    wins = sum(spread[("mgd", p)] > spread[("mgd", 12)] for p in (2, 4, 6))
    assert wins >= 2


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "cli_heat"
    rc = cli_main(["heatmap", "--seed", "4", "--out", str(out), "--grid", "6",
                   "--pairs", "4", "--shots", "200"])
    assert rc == 0
    assert (out / "record.json").exists()
    assert (out / "heatmap_simulated.csv").exists()


def test_cli_default_shots_per_command(tmp_path):
    args = build_parser().parse_args(
        ["benchmark-pairs", "--seed", "1", "--out", str(tmp_path)])
    assert config_from_args(args).shots == 10_000
    args = build_parser().parse_args(["vqe", "--seed", "1", "--out", str(tmp_path)])
    assert config_from_args(args).shots == 1000


def test_record_reproducibility_same_dir(tmp_path):
    out = tmp_path / "rep"
    cfg = dict(seed=8, out_dir=out, shots=300, pairs=4, grid=6)
    cmd_heatmap(ExperimentConfig(**cfg))
    first = {p.name: p.read_bytes() for p in out.glob("*")}
    cmd_heatmap(ExperimentConfig(**cfg))
    second = {p.name: p.read_bytes() for p in out.glob("*")}
    assert first == second


# flags each subcommand would not read; they must be argparse errors
UNREAD_FLAGS = {
    "benchmark-pairs": ["--pairs 4", "--select matching", "--cap 0.9", "--iterations 5",
                        "--mitigation ni", "--repeats 2", "--cost-model m.json"],
    "heatmap": ["--iterations 5", "--repeats 2"],
    "shots-sweep": ["--shots 100", "--select matching", "--repeats 2",
                    "--cost-model m.json", "--mitigation tflo", "--mitigation ni+tflo"],
    "optimizer-compare": ["--pairs 4", "--select matching", "--cap 0.9",
                          "--iterations 5", "--mitigation ni", "--repeats 2",
                          "--cost-model m.json"],
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                          for f in flags])
def test_cli_rejects_unread_flags(command, flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--seed", "1", "--out", str(tmp_path),
                                   *flag.split()])
    assert exc.value.code == 2


def test_cli_parses_benchmark_workloads(tmp_path):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    for wl in bench.WORKLOADS.values():
        for argv in filter(None, (wl.argv, wl.serial_argv)):
            args = build_parser().parse_args([*argv, "--seed", "7", "--out", str(tmp_path)])
            assert config_from_args(args).seed == 7


def test_cli_import_leaves_scipy_and_networkx_unloaded():
    code = ("import sys, parvqe.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))")
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
