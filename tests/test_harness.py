"""Experiment-harness tests: file outputs, schemas, reproducibility, CLI."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import parvqe
from parvqe import harness, optimizers
from parvqe.cli import build_parser, config_from_args, main as cli_main
from parvqe.device import DeviceTopology, max_weight_matching
from parvqe.executor import load_cost_model, predict_wall_time
from parvqe.harness import (
    COMMANDS,
    MAX_POINTS_PER_ITERATION,
    ExperimentConfig,
    InputError,
    _Run,
    _optimize,
    cmd_benchmark_pairs,
    cmd_heatmap,
    cmd_optimizer_compare,
    cmd_shots_sweep,
    cmd_speedup_sweep,
    cmd_vqe,
    config_for,
    modeled_vqe_wall_times,
    rank_correlation,
    select_pairs,
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
    for workers in (0, -2):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, out_dir=tmp_path, workers=workers)
    for name in ("iterations", "repeats", "grid", "shots", "confusion_shots", "pairs"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            ExperimentConfig(seed=1, out_dir=tmp_path, **{name: 0})
    for name in ("shots_list", "pair_counts"):
        with pytest.raises(ValueError, match=f"{name} entries must be >= 1"):
            ExperimentConfig(seed=1, out_dir=tmp_path, **{name: (2, 0)})
    with pytest.raises(ValueError, match="unknown optimizer"):
        ExperimentConfig(seed=1, out_dir=tmp_path, optimizer="adam")
    for mitigation in ("magic", "tflo+ni", "NI", "ni + tflo"):
        with pytest.raises(ValueError, match="unknown mitigation"):
            ExperimentConfig(seed=1, out_dir=tmp_path, mitigation=mitigation)
    with pytest.warns(UserWarning, match="no effect") as caught:
        ExperimentConfig(seed=1, out_dir=tmp_path, workers=2)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentConfig(seed=1, out_dir=tmp_path, workers=1)


def test_eta_is_bounded(tmp_path):
    # eta = 1e9 would ask for 6e9 surrogate points per iteration
    out = tmp_path / "out"
    with pytest.raises(InputError, match=f"more than {MAX_POINTS_PER_ITERATION} surrogate"):
        ExperimentConfig(seed=1, out_dir=out, eta=1e9)
    with pytest.raises(InputError):
        ExperimentConfig(seed=1, out_dir=out, eta=167.0)       # 1002 points
    assert ExperimentConfig(seed=1, out_dir=out, eta=166.0).eta == 166.0   # 996 points
    assert not out.exists()


def test_mitigation_picks_level_and_corrections(tmp_path):
    want = {"none": ("raw", False, False), "ni": ("ni", True, False),
            "tflo": ("tflo", False, True), "ni+tflo": ("tflo_ni", True, True)}
    for mitigation, (level, ni, tflo) in want.items():
        cfg = ExperimentConfig(seed=1, out_dir=tmp_path, mitigation=mitigation)
        assert (cfg.level, cfg.ni, cfg.tflo) == (level, ni, tflo)


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
    with pytest.raises(ValueError):
        cfg = ExperimentConfig(seed=1, out_dir=tmp_path / "x", optimizer="adam")
        cmd_vqe(cfg)
    assert not (tmp_path / "x").exists()


def test_speedup_sweep_matches_cost_model(tmp_path):
    cfg = ExperimentConfig(seed=1, out_dir=tmp_path / "sweep", shots=1000,
                           pair_counts=(2, 8, 25))
    record = cmd_speedup_sweep(cfg)
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


def test_under_determined_mgd_run_warns_once(tmp_path):
    # --eta 0.5 gives 3 points for the 6-term surrogate: one condition, one warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["vqe", "--optimizer", "mgd", "--pairs", "1", "--eta", "0.5",
                         "--iterations", "2", "--shots", "50", "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == [
        "3 points under-determine the quadratic surrogate"]


def test_seeding_calls_do_not_grow_with_iterations(tmp_path, monkeypatch):
    # every key path derives its streams once; no batch derives a seed
    calls = []
    for module in (harness, optimizers):
        for name in ("derive_seed", "derive_rng"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *keys, fn=original: calls.append(keys) or fn(*keys))
    counts = []
    for iterations in (2, 20):
        calls.clear()
        assert cli_main(["vqe", "--optimizer", "spsa", "--repeats", "3", "--iterations",
                         str(iterations), "--shots", "50", "--seed", "1",
                         "--out", str(tmp_path / str(iterations))]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_matching_selection_keeps_best_pairs_above_cap(shipped_topology):
    topo = shipped_topology
    matched = max_weight_matching(topo).pairs
    best_first = sorted(matched, key=lambda p: (-topo.fidelity(p), p))
    fids = lambda sel: [topo.fidelity(p) for p in sel.pairs]

    sel = select_pairs(topo, "matching", 25, None)
    assert sel.pairs == tuple(best_first[:25])
    assert sum(fids(sel)) / 25 == pytest.approx(0.94712, abs=1e-5)   # first 25 by id: 0.906
    assert fids(sel) == sorted(fids(sel), reverse=True)

    capped = select_pairs(topo, "matching", 25, 0.95)
    assert min(fids(capped)) >= 0.95
    assert capped.pairs == tuple(p for p in best_first if topo.fidelity(p) >= 0.95)
    assert capped.fidelity_cap == 0.95
    assert select_pairs(topo, "matching", None, None).pairs == tuple(best_first)

    # equal fidelities rank by pair id
    tied = DeviceTopology(qubits=tuple(range(6)),
                          edges=((4, 5, 0.9), (2, 3, 0.9), (0, 1, 0.9)), readout={})
    assert select_pairs(tied, "matching", 2, None).pairs == ((0, 1), (2, 3))


def test_shots_sweep_uses_capped_selection_and_reports_gap(tmp_path):
    cfg = config_for("shots-sweep", seed=2022, out_dir=tmp_path / "shots",
                     shots_list=(1000, 10_000), iterations=25, confusion_shots=1000)
    record = cmd_shots_sweep(cfg)
    assert record.metrics["pairs"] == 26
    assert record.metrics["fidelity_cap"] == 0.90
    assert "err_gap_1k_vs_10k" in record.metrics
    assert record.metrics["matches_within_0.05"]


def test_shots_sweep_tiny_shot_budget_degrades(tmp_path):
    # on one pair, 10 shots leave SPSA's final point several times further
    # from the ground state than 1000 shots; pooled over the 26 capped pairs
    # the gap mostly vanishes, so it is measured on one pair, as a median
    # over seeds
    errs = {"10": [], "1000": []}
    for seed in range(11, 16):
        cfg = config_for("shots-sweep", seed=seed, out_dir=tmp_path / f"shots{seed}",
                         pairs=1, shots_list=(10, 1000), confusion_shots=1000)
        by_shots = cmd_shots_sweep(cfg).metrics["final_exact_err_by_shots"]
        for shots in errs:
            errs[shots].append(by_shots[shots])
    assert np.median(errs["10"]) > 2 * np.median(errs["1000"])


@pytest.mark.parametrize("mitigation", ["tflo", "ni+tflo"])
def test_shots_sweep_rejects_tflo_before_output(mitigation, tmp_path):
    # shots-sweep runs no reference point, so it cannot apply tflo
    cfg = ExperimentConfig(seed=1, out_dir=tmp_path / "out", mitigation=mitigation)
    with pytest.raises(InputError, match="mitigation must be one of"):
        cmd_shots_sweep(cfg)
    assert not (tmp_path / "out").exists()


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


# four pairs on a chain, each joined to the next by a poor edge: the
# matching keeps the four pairs, and neighbouring pairs share batches
CHAIN_CALIBRATION = {
    "name": "chain8",
    "qubits": list(range(8)),
    "edges": [[0, 1, 0.97], [2, 3, 0.96], [4, 5, 0.95], [6, 7, 0.94],
              [1, 2, 0.5], [3, 4, 0.5], [5, 6, 0.5]],
    "readout": {str(q): [0.01 + 0.005 * q, 0.03] for q in range(8)},
}


@pytest.mark.parametrize("optimizer, points", [("spsa", 4), ("mgd", 7)])
def test_repeat_trace_does_not_depend_on_its_group(optimizer, points, tmp_path):
    """A repeat run in lockstep with others writes the same trace bytes as
    its key path run alone or in another group order, with NI and
    crosstalk on (mgd's 7 points fill one full and one partial batch)."""
    cal = tmp_path / "chain8.json"
    cal.write_text(json.dumps(CHAIN_CALIBRATION))
    run = _Run(ExperimentConfig(seed=13, out_dir=tmp_path / "out", calibration=cal,
                                crosstalk_p=0.1, confusion_shots=2000))
    table = run.pair_table(run.select("matching", 0.9))
    assert table.ni and table.neighbours.any()
    keys = [(0,), (1,), (2,)]
    group = _optimize(run, table, optimizer, 3, points, 200, keys)
    assert len({trace.to_csv() for trace in group}) == 3
    reversed_group = _optimize(run, table, optimizer, 3, points, 200, keys[::-1])[::-1]
    for key, trace, other in zip(keys, group, reversed_group):
        alone, = _optimize(run, table, optimizer, 3, points, 200, [key])
        assert trace.to_csv() == alone.to_csv() == other.to_csv()
        assert trace.to_json() == alone.to_json() == other.to_json()


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "cli_heat"
    rc = cli_main(["heatmap", "--seed", "4", "--out", str(out), "--grid", "6",
                   "--pairs", "4", "--shots", "200"])
    assert rc == 0
    assert (out / "record.json").exists()
    assert (out / "heatmap_simulated.csv").exists()


def test_cli_default_shots_per_command(tmp_path):
    want = [("benchmark-pairs", "shots", 10_000), ("heatmap", "shots", 10_000),
            ("vqe", "shots", 1000),
            ("speedup-sweep", "pair_counts", (2, 4, 8, 12, 16, 20, 25)),
            ("optimizer-compare", "pair_counts", (2, 4, 6, 9, 12, 25)),
            ("shots-sweep", "mitigation", "ni"), ("vqe", "mitigation", "ni+tflo"),
            ("heatmap", "grid", 20)]
    for command, name, value in want:
        args = build_parser().parse_args([command, "--seed", "1", "--out", str(tmp_path)])
        assert getattr(config_from_args(args), name) == value, (command, name)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_for_matches_the_cli(command, tmp_path):
    """A config built in code for a command equals the one its flags give,
    with and without flags, so a direct call runs what the CLI runs."""
    parse = build_parser().parse_args
    base = ["--seed", "1", "--out", str(tmp_path)]
    assert config_for(command, seed=1, out_dir=tmp_path) == config_from_args(
        parse([command, *base]))
    settings = {"heatmap": ({"shots": 300, "grid": 5}, ["--shots", "300", "--grid", "5"]),
                "shots-sweep": ({"mitigation": "none", "shots_list": (50,)},
                                ["--mitigation", "none", "--shots-list", "50"])}
    given, flags = settings.get(command, ({}, []))
    assert config_for(command, seed=1, out_dir=tmp_path, **given) == config_from_args(
        parse([command, *base, *flags]))


def test_config_for_applies_command_defaults(tmp_path):
    # a bare ExperimentConfig runs 1,000 shots and ni+tflo; the commands
    # that override those defaults get theirs through config_for
    assert config_for("benchmark-pairs", seed=1, out_dir=tmp_path).shots == 10_000
    assert config_for("benchmark-pairs", seed=1, out_dir=tmp_path, shots=20).shots == 20
    assert config_for("shots-sweep", seed=1, out_dir=tmp_path).mitigation == "ni"
    assert config_for("vqe", seed=1, out_dir=tmp_path) == ExperimentConfig(
        seed=1, out_dir=tmp_path)


# every setting a command reads, besides seed and out_dir, as record.json
# lists it; written out by hand so that the command table is checked
RUN_SETTINGS = {"calibration", "workers", "crosstalk_p", "confusion_shots"}
SELECT_SETTINGS = {"cost_model", "pairs", "select", "cap", "shots", "mitigation"}
RECORDED = {
    "benchmark-pairs": RUN_SETTINGS | {"shots"},
    "heatmap": RUN_SETTINGS | SELECT_SETTINGS | {"grid"},
    "vqe": RUN_SETTINGS | SELECT_SETTINGS | {"iterations", "repeats", "optimizer", "eta",
                                             "start"},
    "speedup-sweep": {"cost_model", "shots", "pair_counts"},
    "shots-sweep": RUN_SETTINGS | {"pairs", "cap", "iterations", "mitigation", "shots_list"},
    "optimizer-compare": RUN_SETTINGS | {"shots", "pair_counts"},
}
TINY_RUNS = {
    "benchmark-pairs": "--shots 20",
    "heatmap": "--grid 2 --pairs 1 --shots 10",
    "vqe": "--pairs 1 --iterations 1 --shots 10",
    "speedup-sweep": "--pair-counts 2",
    "shots-sweep": "--pairs 1 --iterations 1 --shots-list 10",
    "optimizer-compare": "--shots 10 --pair-counts 1",
}


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_record_config_lists_the_settings_the_command_reads(command, tmp_path,
                                                            make_uniform_calibration):
    cal = make_uniform_calibration(2, fidelity=0.95, readout=(0.02, 0.03))
    argv = [command, "--seed", "3", "--out", str(tmp_path / "out"),
            *TINY_RUNS[command].split()]
    if "calibration" in RECORDED[command]:
        argv += ["--calibration", str(cal)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # one-pair surrogate fits are under-determined
        assert cli_main(argv) == 0
    config = json.loads((tmp_path / "out" / "record.json").read_text())["config"]
    assert set(config) == {"seed", "out_dir"} | RECORDED[command]
    assert config["seed"] == 3


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
    # the sweep is a subcommand of its own; vqe reads no sweep flag
    "vqe": ["--pair-counts 3", "--speedup-sweep"],
    # the modelled sweep runs nothing, so it reads none of the run flags
    "speedup-sweep": ["--mitigation ni", "--workers 1", "--pairs 4",
                      "--select greedy", "--cap 0.9", "--repeats 2",
                      "--crosstalk 0.0", "--eta 2.0", "--start 0.6 0.8",
                      "--calibration c.json", "--pairs=4", "--optimizer mgd",
                      "--iterations 7"],
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                          for f in flags])
def test_cli_rejects_unread_flags(command, flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main([*command.split(), "--seed", "1", "--out", str(tmp_path / "out"),
                  *flag.split()])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


ZERO_COUNTS = ["vqe --iterations 0", "vqe --repeats 0", "heatmap --grid 0",
               "shots-sweep --iterations 0", "vqe --optimizer mgd --pairs 0",
               "shots-sweep --shots-list 100,0", "optimizer-compare --pair-counts 0",
               "speedup-sweep --pair-counts 2,0"]


@pytest.mark.parametrize("args", ZERO_COUNTS)
def test_cli_rejects_zero_counts(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([*args.split(), "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rank_correlation_matches_spearman_with_ties():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 5, n)            # few distinct values: many ties
        x[:2] = (0, 1)                       # never constant
        y = np.round(rng.normal(size=n), 1)
        y[rng.integers(n)] = y[0]            # at least one tie in y too
        assert rank_correlation(x, y) == pytest.approx(spearmanr(x, y)[0], abs=1e-12)


# inputs the shipped calibration (33 greedy pairs) or the file system cannot satisfy
IMPOSSIBLE = {
    "compare-pair-counts": ("optimizer-compare --pair-counts 2,40 --shots 20",
                            "exceeds the 33 pairs"),
    "vqe-pairs": ("vqe --pairs 40", "selection yields 33 pairs"),
    "empty-selection": ("shots-sweep --cap 0.999 --iterations 2",
                        "selection produced no pairs"),
    "calibration": ("vqe --calibration {missing}", "not found"),
    "cost-model": ("heatmap --cost-model {missing}", "not found"),
    "malformed-calibration": ("vqe --calibration {malformed}", "fidelity 1.5 out of"),
    "heatmap-pairs": ("heatmap --pairs 40", "selection yields 33 pairs, requested 40"),
    "shots-sweep-pairs": ("shots-sweep --pairs 40", "selection yields 26 pairs, requested 40"),
    # bad values are argparse errors, not tracebacks
    "eta": ("vqe --optimizer mgd --pairs 1 --eta 0", "eta must be positive"),
    "eta-above-cap": ("vqe --optimizer mgd --pairs 1 --eta 200 --iterations 1",
                      "more than 1000 surrogate points"),
    "crosstalk-above-1": ("vqe --crosstalk 1.5", "crosstalk_p must be in [0, 1]"),
    "crosstalk-negative": ("vqe --crosstalk -0.1", "crosstalk_p must be in [0, 1]"),
    "start-nan": ("vqe --start nan 0.1", "start angles must be finite"),
    # a repeated entry would write the same artifact twice
    "repeated-shots": ("shots-sweep --shots-list 100,100", "entries must be distinct"),
    "repeated-pair-counts": ("speedup-sweep --pair-counts 2,2", "entries must be distinct"),
}


@pytest.mark.parametrize("case", sorted(IMPOSSIBLE))
def test_cli_rejects_impossible_inputs_before_output(case, tmp_path, capsys):
    args, message = IMPOSSIBLE[case]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"name": "malformed", "qubits": [0, 1],
                                     "edges": [[0, 1, 1.5]], "readout": {}}))
    argv = args.format(missing=tmp_path / "missing.json", malformed=malformed).split()
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def load_benchmark_module(name):
    """A module of benchmarks/, loaded read-only and not left in sys.modules."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_cli_parses_benchmark_workloads(tmp_path):
    bench = load_benchmark_module("run")
    for wl in bench.WORKLOADS.values():
        for argv in filter(None, (wl.argv, wl.serial_argv)):
            args = build_parser().parse_args([*argv, "--seed", "7", "--out", str(tmp_path)])
            assert config_from_args(args).seed == 7


def test_readme_usage_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    usage = readme.read_text().split("## Command-line usage", 1)[1].split("```")[1]
    lines = [line for line in usage.replace("\\\n", " ").splitlines()
             if line.startswith("parvqe ")]
    assert len(lines) == 6
    for line in lines:
        args = build_parser().parse_args(line.split()[1:])
        assert config_from_args(args).seed == 7, line


def test_cli_import_leaves_scipy_and_networkx_unloaded(tmp_path, make_uniform_calibration):
    # importing the CLI, a whole benchmark-pairs run, and a matching heatmap
    # on the shipped (bipartite) calibration load neither
    cal = make_uniform_calibration(4, fidelity=0.95, readout=(0.02, 0.03))
    run = (f"parvqe.cli.main(['benchmark-pairs', '--seed', '3', '--shots', '100', "
           f"'--calibration', {str(cal)!r}, '--out', {str(tmp_path / 'out')!r}]); ")
    matching = ("parvqe.cli.main(['heatmap', '--select', 'matching', '--grid', '2', "
                f"'--shots', '10', '--seed', '3', '--out', {str(tmp_path / 'hm')!r}]); ")
    report = "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))"
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1])}
    for code in ("import sys, parvqe.cli; " + report,
                 "import sys, parvqe.cli; " + run + report,
                 "import sys, parvqe.cli; " + matching + report):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]"


def test_benchmark_tracer_counts_batch_circuits(tmp_path):
    # the benchmark's end-to-end circuits_per_s is read from the results of
    # parvqe.optimizers.run_batch; losing that binding loses every metric
    runs = {
        # SPSA on 2 pairs: 3 batches per iteration, then the final point
        # and its reference: 8 batches, 16 active pairs, 2 settings each;
        # one run_batch call per iteration and two per final point
        "vqe": (["vqe", "--pairs", "2", "--iterations", "2", "--shots", "50"], 32, 16, 4),
        # three SPSA repeats in lockstep still count each repeat's batches:
        # 24 batches, 48 active pairs, in one call per iteration for all
        # repeats and two calls for all repeats' final points
        "vqe-repeats": (["vqe", "--pairs", "2", "--iterations", "2", "--repeats", "3",
                         "--shots", "50"], 96, 48, 4),
        # three MGD repeats on 1 pair with 9 points per iteration: 9
        # one-pair batches per repeat and iteration plus the final points
        # and their references, 60 batches of one pair in 2 + 2 calls
        "vqe-mgd-repeats": (["vqe", "--optimizer", "mgd", "--pairs", "1", "--eta", "1.5",
                             "--iterations", "2", "--repeats", "3", "--shots", "50"],
                            120, 60, 4),
        # the landscape workload's path: 16 grid points in batches of 3
        # pairs, each batch with its phi=0 reference batch, the whole grid
        # in one call and its references in another
        "heatmap": (["heatmap", "--grid", "4", "--pairs", "3", "--shots", "50",
                     "--mitigation", "ni+tflo", "--select", "matching"], 64, 32, 2),
        # the shipped calibration's 97 edges one at a time and its 33-step
        # greedy sweep (1 + ... + 33 = 561 active pairs), each batch with
        # its reference: 2 * (97 + 561) active pairs, in one call for the
        # individual pairs, one for the sweep and one for each's references
        "benchmark-pairs": (["benchmark-pairs", "--shots", "50"], 2632, 1316, 4),
    }
    tracer_module = load_benchmark_module("tracer")
    for name, (argv, circuits, active_pairs, calls) in runs.items():
        tracer = tracer_module.Tracer()
        try:
            tracer.install()
            code = tracer.call(tracer_module.ROOT, cli_main,
                               ([*argv, "--seed", "7", "--out", str(tmp_path / name)],))
        finally:
            tracer.uninstall()
        assert code == 0
        summary = tracer.summary()
        assert summary["counters"].get("executor.circuits") == circuits, name
        assert summary["counters"].get("executor.active_pairs") == active_pairs, name
        assert summary["names"]["executor.run_batch"]["calls"] == calls, name
        assert summary["orphans"] == 0
