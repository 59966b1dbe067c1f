"""Experiment-harness tests: file outputs, schemas, reproducibility, CLI."""

import ast
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import parvqe
from parvqe import cli, harness, optimizers
from parvqe.cli import FLAGS, build_parser, config_from_args, main as cli_main
from parvqe.csvio import csv_chunks
from parvqe.device import DeviceTopology, max_weight_matching
from parvqe.executor import compile_pairs, load_cost_model, predict_wall_time
from parvqe.mitigation import IllConditionedConfusion
from parvqe.harness import (
    CHOICES,
    COMMANDS,
    Command,
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
from conftest import write_calibration
from reference import plot


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
    with pytest.raises(InputError, match="no surrogate points"):
        ExperimentConfig(seed=1, out_dir=out, eta=0.08)        # 0 points
    assert ExperimentConfig(seed=1, out_dir=out, eta=1 / 12).eta == 1 / 12   # 1 point
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
    assert plot.main([str(tmp_path / "bench")]) == 0
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
    assert plot.main([str(tmp_path / "heat")]) == 0
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
    # every key path derives its streams once; no batch derives a stream
    calls = []
    monkeypatch.setattr(harness, "derive_rng",
                        lambda *keys, fn=harness.derive_rng: calls.append(keys) or fn(*keys))
    counts = []
    for iterations in (2, 20):
        calls.clear()
        assert cli_main(["vqe", "--optimizer", "spsa", "--repeats", "3", "--iterations",
                         str(iterations), "--shots", "50", "--seed", "1",
                         "--out", str(tmp_path / str(iterations))]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _generator_builders(node, scope):
    """(scope, name) of every use of default_rng or SeedSequence under an
    AST node, scope naming its enclosing module, class and function defs."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        names = {getattr(child, field, None) for field in ("attr", "id", "name")}
        for name in sorted(names & {"default_rng", "SeedSequence"}):
            yield inner, name
        yield from _generator_builders(child, inner)


def test_only_derive_rng_builds_a_generator():
    """Within the package, default_rng and SeedSequence appear only in
    seeding.derive_rng: every stream is derive_rng of its key path."""
    found = [use for module in sorted(Path(parvqe.__file__).parent.glob("*.py"))
             for use in _generator_builders(ast.parse(module.read_text()), module.stem)]
    assert found == [("seeding.derive_rng", "default_rng")]


def _module_names(tree):
    """The names a module's top level defines: its functions, its classes
    and every name it assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _uses(tree):
    """Every name a tree reads: a loaded name, an attribute, an import, and
    each word of a string of only names (as "a b.c" or "a")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.replace(".", " ").split()
            if all(word.isidentifier() for word in words):
                yield from words


def test_every_module_level_name_is_used():
    """Every function, class and assigned name at the top level of a
    package module (dunders apart) is read somewhere in src, tests or
    tools besides its own definition."""
    root = Path(__file__).parents[1]
    used = {name for folder in ("src", "tests", "tools")
            for path in sorted((root / folder).rglob("*.py"))
            for name in _uses(ast.parse(path.read_text()))}
    defined = [(module.stem, name) for module in sorted(Path(parvqe.__file__).parent.glob("*.py"))
               for name in _module_names(ast.parse(module.read_text()))
               if not (name.startswith("__") and name.endswith("__"))]
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []


def test_planning_calls_do_not_grow_with_iterations(tmp_path, monkeypatch):
    # the evaluator plans its (repeats, 3) layout on its first step and
    # reuses it, and the final points plan once for their main and
    # reference calls: two plans however many iterations run
    calls = []
    for module in (harness, optimizers):
        count_calls(monkeypatch, module, "plan_batches", calls)
    counts = []
    for iterations in (2, 20):
        calls.clear()
        assert cli_main(["vqe", "--optimizer", "spsa", "--repeats", "3", "--iterations",
                         str(iterations), "--shots", "50", "--seed", "1",
                         "--out", str(tmp_path / str(iterations))]) == 0
        counts.append(len(calls))
    assert counts == [2, 2]


def count_calls(monkeypatch, module, name, calls, weight=lambda *args: 1):
    """Wrap module.name so that each call appends its name to calls,
    weight(*args) times."""
    original = getattr(module, name)

    def counting(*args, **kw):
        calls.extend([name] * weight(*args))
        return original(*args, **kw)

    monkeypatch.setattr(module, name, counting)


def test_readme_scale_runs_measure_once(tmp_path, monkeypatch):
    # shots-sweep runs its 3 shot counts as lockstep repeats of one
    # optimizer run, one run_batch call per iteration for all of them.
    # optimizer-compare compiles one table for its largest count and
    # measures each of its 25 pairs' confusion once; all 24 spsa runs
    # share one lockstep call (20 run_batch calls), mgd runs once per count
    # (6 calls of 10) and every final point shares one _final_points call
    # (2 run_batch calls: the points and their references). Confusions are
    # counted as the matrices measured, one per readout handed to
    # measure_confusions
    calls = []
    for module, name in ((optimizers, "run_batch"), (harness, "_optimize"),
                         (harness, "_final_points"), (harness, "compile_pairs")):
        count_calls(monkeypatch, module, name, calls)
    count_calls(monkeypatch, harness, "measure_confusions", calls,
                weight=lambda readouts, *args: len(readouts))
    expected = {"shots-sweep": {"run_batch": 50, "measure_confusions": 26, "_optimize": 1,
                                "compile_pairs": 1},
                "optimizer-compare": {"run_batch": 82, "measure_confusions": 25,
                                      "_optimize": 7, "_final_points": 1,
                                      "compile_pairs": 1}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command, counts in expected.items():
            calls.clear()
            assert cli_main([command, "--seed", "7", "--out", str(tmp_path / command)]) == 0
            assert {name: calls.count(name) for name in set(calls)} == counts, command


def test_ill_conditioned_confusion_raises_before_output_and_matrices_are_per_pair(tmp_path):
    """A table holding one ill-conditioned confusion raises
    IllConditionedConfusion before the run writes anything, and a pair's
    noise inversion does not depend on the other pairs of its table: its
    row is bit for bit the row of a table of the pair alone."""
    readout = {q: (0.02, 0.03) for q in range(4)} | {4: (0.47, 0.47), 5: (0.47, 0.47)}
    cal = write_calibration(tmp_path / "cal.json", range(6),
                            [(0, 1, 0.95), (2, 3, 0.95), (4, 5, 0.95)], readout)
    cfg = ExperimentConfig(seed=5, out_dir=tmp_path / "out", calibration=cal,
                           confusion_shots=2000, pairs=3)
    with pytest.raises(IllConditionedConfusion):
        cmd_vqe(cfg)
    assert not cfg.out_dir.exists()
    run = _Run(cfg, "vqe")
    assert not hasattr(run, "confusions")
    both = run.pair_table([(0, 1), (2, 3)])
    for row, pair in enumerate(both.pairs):
        alone = run.pair_table([pair])
        assert np.array_equal(both.coeffs[row], alone.coeffs[0])


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
    assert select_pairs(topo, "matching", None, None).pairs == tuple(best_first)

    # equal fidelities rank by pair id
    tied = DeviceTopology(qubits=tuple(range(6)),
                          edges=((4, 5, 0.9), (2, 3, 0.9), (0, 1, 0.9)), readout={})
    assert select_pairs(tied, "matching", 2, None).pairs == ((0, 1), (2, 3))


def test_odd_cycle_matching_without_networkx_is_an_input_error(tmp_path, monkeypatch):
    # a triangle of couplers has an odd cycle, so only networkx can match it
    qubits = (0, 1, 2)
    cal = write_calibration(tmp_path / "triangle.json", qubits,
                            [(0, 1, 0.97), (1, 2, 0.96), (0, 2, 0.95)],
                            {q: (0.01, 0.02) for q in qubits})
    monkeypatch.setitem(sys.modules, "networkx", None)
    out = tmp_path / "out"
    cfg = config_for("heatmap", seed=1, out_dir=out, calibration=cal, select="matching",
                     grid=2, shots=10)
    with pytest.raises(InputError, match=r"networkx.*parvqe\[test\]"):
        cmd_heatmap(cfg)
    assert not out.exists()


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


def trace_text(trace) -> str:
    """The bytes of a trace's CSV file."""
    return "".join(csv_chunks(*trace.table))


@pytest.mark.parametrize("optimizer, points", [("spsa", 4), ("mgd", 7)])
def test_repeat_trace_does_not_depend_on_its_group(optimizer, points, tmp_path):
    """A repeat run in lockstep with others writes the same trace bytes as
    its key path run alone or in another group order, with NI and
    crosstalk on (mgd's 7 points fill one full and one partial batch),
    also when each repeat runs at its own shot count."""
    cal = tmp_path / "chain8.json"
    cal.write_text(json.dumps(CHAIN_CALIBRATION))
    run = _Run(ExperimentConfig(seed=13, out_dir=tmp_path / "out", calibration=cal,
                                crosstalk_p=0.1, confusion_shots=2000), "vqe")
    table = run.pair_table(run.select("matching", 0.9))
    assert table.raw_coeffs is not None and table.neighbours.any()
    keys = [(0,), (1,), (2,)]
    group = _optimize(run, table, optimizer, 3, points, 200, keys)
    assert len({trace_text(trace) for trace in group}) == 3
    reversed_group = _optimize(run, table, optimizer, 3, points, 200, keys[::-1])[::-1]
    for key, trace, other in zip(keys, group, reversed_group):
        alone, = _optimize(run, table, optimizer, 3, points, 200, [key])
        assert trace_text(trace) == trace_text(alone) == trace_text(other)
        assert trace.points.tobytes() == alone.points.tobytes() == other.points.tobytes()
    shots = [200, 50, 800]
    mixed = _optimize(run, table, optimizer, 3, points, shots, keys)
    assert trace_text(mixed[0]) == trace_text(group[0])
    for key, n, trace in zip(keys, shots, mixed):
        alone, = _optimize(run, table, optimizer, 3, points, n, [key])
        assert trace_text(trace) == trace_text(alone)
        assert trace.points.tobytes() == alone.points.tobytes()


VQE_POINTS = ["vqe", "--pairs", "3", "--iterations", "4", "--shots", "200"]


def vqe_points(tmp_path, name, *flags):
    """The trace points array and the trace CSVs of one small vqe run."""
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # mgd's 3 points under-determine its surrogate
        assert cli_main([*VQE_POINTS, *flags, "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert "trace_points.npy" in record["artifacts"]
    traces = [read_csv(out / f"trace_rep{r}.csv") for r in range(record["metrics"]["repeats"])]
    return out / "trace_points.npy", traces


@pytest.mark.parametrize("optimizer", ["spsa", "mgd"])
def test_trace_points_file_is_seeded_and_per_repeat(optimizer, tmp_path):
    """trace_points.npy is one (repeats, iterations, points) array of
    optimizers.POINT_DTYPE; two same-seed runs write the same bytes, and
    repeat 0 of a two-repeat run is byte for byte a one-repeat run's."""
    flags = ["--optimizer", optimizer, "--seed", "5"]
    two, _ = vqe_points(tmp_path, "two", *flags, "--repeats", "2")
    again, _ = vqe_points(tmp_path, "again", *flags, "--repeats", "2")
    one, _ = vqe_points(tmp_path, "one", *flags)
    assert two.read_bytes() == again.read_bytes()
    points, alone = np.load(two), np.load(one)
    assert points.dtype == alone.dtype == optimizers.POINT_DTYPE
    assert points.shape == (2, 4, 3) and alone.shape == (1, 4, 3)
    assert points[:1].tobytes() == alone.tobytes()
    assert points[1].tobytes() != alone[0].tobytes()


def test_trace_points_hold_what_the_optimizers_consumed(tmp_path):
    """From trace_points.npy and the trace CSVs alone: SPSA's point 0 is
    the centre and its value and raw are e_ni and e_raw bit for bit; each
    MGD step's surrogate, refitted to its points and estimates with the
    weights and ridge of their std_err, gives e_ni and e_raw within 1e-12
    (not bit for bit: point - centre may differ from the drawn offset in
    its last bit)."""
    path, traces = vqe_points(tmp_path, "spsa", "--optimizer", "spsa", "--seed", "3",
                              "--repeats", "2")
    for points, trace in zip(np.load(path), traces):
        column = {name: np.array([float(row[name]) for row in trace]) for name in trace[0]}
        centre = points[:, 0]
        for field, name in (("phi", "phi"), ("theta", "theta"), ("value", "e_ni"),
                            ("raw", "e_raw")):
            assert np.array_equal(centre[field], column[name]), field
    path, traces = vqe_points(tmp_path, "mgd", "--optimizer", "mgd", "--seed", "3",
                              "--repeats", "2", "--eta", "1.5")
    l_scale = optimizers.MGD_L
    for points, trace in zip(np.load(path), traces):
        column = {name: np.array([float(row[name]) for row in trace]) for name in trace[0]}
        offsets = np.stack([points["phi"] - column["phi"][:, None],
                            points["theta"] - column["theta"][:, None]], axis=-1)
        variances = points["std_err"] ** 2
        assert np.all(variances > 0)
        mean_var = variances.mean(axis=1)
        coeffs = optimizers._fit_surrogate(
            offsets, np.stack([points["value"], points["raw"]]),
            1.0 / np.maximum(variances, 1e-12 * mean_var[:, None]), mean_var / l_scale ** 2)
        assert np.abs(coeffs[0, :, 0] - column["e_ni"]).max() < 1e-12
        assert np.abs(coeffs[1, :, 0] - column["e_raw"]).max() < 1e-12


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


def parse_outcome(parser, argv):
    """What parsing argv gives: the namespace (None on exit), stdout,
    stderr and the exit status (None when parsing succeeds)."""
    out, err, args, code = io.StringIO(), io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return args, out.getvalue(), err.getvalue(), code


def main_outcome(argv, plain=True):
    """What main(argv) gives with every command's handler stubbed out:
    stdout, stderr, the exit status and the warnings raised; plain=False
    sends argv through argparse even when read_plain could read it."""
    out, err, code = io.StringIO(), io.StringIO(), None
    stub = lambda cfg: types.SimpleNamespace(artifacts=())
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        for name, command in COMMANDS.items():
            patch.setitem(COMMANDS, name, Command(stub, command.help, command.reads,
                                                  command.defaults, command.choices))
        if not plain:
            patch.setattr(cli, "read_plain", lambda argv: None)
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, [str(w.message) for w in caught]


def flag_values(setting):
    """Values to give a setting's flag: valid ones for its type and
    choices (twice, so that most draws are valid), a bad and a negative one."""
    kind = FLAGS[setting][1].get("type")
    valid = CHOICES.get(setting) or {int: ("1", "3", "0"), float: ("0.5", "1.5", "nan"),
                                     None: ("out", "")}.get(kind, ("2,4", ",", "2,2"))
    return [*valid, *valid, "bogus", "-1"]


@st.composite
def command_lines(draw):
    """A command (or none, or an unknown one), maybe after an option, then
    (mostly) the required flags and up to four more, mostly ones the
    command reads, each with (mostly) as many values as it takes, in any
    order; a flag may repeat, be unread, be written --flag=value, or be -h,
    --help or --."""
    often = lambda common, *rare: st.sampled_from([common] * 4 * len(rare) + list(rare))
    head = draw(often([], ["--seed", "1"], ["-h"], ["--"]))
    command = draw(st.sampled_from([*sorted(COMMANDS), "bogus", None]))
    reads = [s for s in COMMANDS[command].reads if s in FLAGS] if command in COMMANDS else []
    pieces = [["--seed", "1"], ["--out", "out"]] if draw(often(True, False)) else []
    for _ in range(draw(st.integers(0, 4))):
        setting = draw(st.sampled_from(reads) if reads and draw(often(True, False))
                       else st.sampled_from(sorted(FLAGS)))
        flag = FLAGS[setting][0]
        n = draw(often(2, 1, 3) if setting == "start" else often(1, 0, 2))
        values = draw(st.lists(st.sampled_from(flag_values(setting)), min_size=n, max_size=n))
        pieces.append(draw(often([flag, *values], [f"{flag}={values[0]}" if values else flag],
                                 ["-h"], ["--help"], ["--", *values])))
    pieces = draw(st.permutations(pieces))
    return [*head, *([] if command is None else [command]), *(t for p in pieces for t in p)]


def named_command_cases(command):
    """Help, flags the command does not read, a missing --seed, bad,
    negative and repeated values, values that look like options,
    --flag=value, unknown commands and options before the command."""
    reads = COMMANDS[command].reads
    unread = "--grid" if "eta" in reads else "--eta"
    choice = next((FLAGS[s][0] for s in reads if s in CHOICES), None)
    run = [command, "--seed", "1", "--out", "out"]
    cases = [run, [command, "--help"], [*run, unread, "2"],
             [command, "--out", "out"], [*run, "--shots", "many"], ["bogus", *run[1:]],
             ["--seed", "1", command, "--out", "out"], ["--out", *run],
             [*run, "vqe"], ["--", *run], [*run, "--seed", "2"], [*run, "--seed=2"],
             [command, "--seed", "-1", "--out", "out"], [*run[:3], "--out", "-h"],
             [*run[:3], "--out", "--"], [*run[:3], "--out", "-out"]]
    if choice:
        cases.append([*run, choice, "bogus"])
    return cases


OTHER_CASES = [["--help"], [],
               ["vqe", "--seed", "1", "--out", "out", "--start", "0.1", "-0.2"],
               ["vqe", "--seed", "1", "--out", "out", "--start", "0.1"],
               ["vqe", "--seed", "1", "--out", "out", "--crosstalk", "-0.1"],
               ["vqe", "--seed", "1", "--out", "out", "--workers", "3"],
               ["shots-sweep", "--seed", "1", "--out", "out", "--mitigation", "tflo"],
               ["shots-sweep", "--seed", "1", "--out", "out", "--shots-list", ","]]


def assert_plain_matches_argparse(argv):
    """read_plain gives nothing or exactly argparse's namespace, and main
    prints and exits as it does through argparse alone."""
    plain = cli.read_plain(argv)
    if plain is not None:
        args, *output = parse_outcome(build_parser(), argv)
        # compared by repr, so that a nan equals itself and 1 differs from 1.0
        settings = lambda namespace: repr(sorted(vars(namespace).items()))
        assert output == ["", "", None] and settings(plain) == settings(args)
    assert main_outcome(argv) == main_outcome(argv, plain=False)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_named_command_parser_parses_as_the_full_one(command):
    """The plain reader, which reads only the named command's flags, gives
    argparse's namespace, output, errors and exit status on each of the
    command's cases, and reads a plain run of it."""
    for argv in named_command_cases(command):
        assert_plain_matches_argparse(argv)
    assert cli.read_plain([command, "--seed", "1", "--out", "out"]).command == command


def with_examples(cases):
    def decorate(test):
        for argv in cases:
            test = example(argv=argv)(test)
        return test
    return decorate


@given(argv=command_lines())
@with_examples(OTHER_CASES)
def test_plain_reader_matches_argparse(argv):
    assert_plain_matches_argparse(argv)


def test_vqe_rejects_an_eta_given_to_spsa(tmp_path):
    """vqe refuses an eta when it is given and the optimizer is spsa, and
    only then, before any output: the unset eta (None) of an spsa run, and
    any eta of an mgd run, pass the check. A config built directly, not
    through config_for, is refused alike."""
    out = tmp_path / "out"
    for cfg in (config_for("vqe", seed=1, out_dir=out, eta=2.0),
                config_for("vqe", seed=1, out_dir=out, optimizer="spsa", eta=0.5),
                ExperimentConfig(seed=1, out_dir=out, eta=2.0, pairs=2, iterations=2)):
        with pytest.raises(InputError, match="spsa reads no eta"):
            cmd_vqe(cfg)
        assert not out.exists()
    assert config_for("vqe", seed=1, out_dir=out).eta is None
    assert config_for("vqe", seed=1, out_dir=out, optimizer="mgd", eta=0.5).eta == 0.5
    for cfg in (config_for("vqe", seed=1, out_dir=out, pairs=2),
                config_for("vqe", seed=1, out_dir=out, optimizer="mgd", eta=0.5)):
        assert _Run(cfg, "vqe").cfg is cfg
    assert not out.exists()


def test_direct_call_rejects_settings_its_command_does_not_read(tmp_path):
    """A handler called directly refuses, before any output, every setting
    outside seed, out_dir and its command's reads that differs from
    ExperimentConfig's default; a setting equal to its default (a factory
    default compared with a fresh call) passes."""
    out = tmp_path / "out"
    with pytest.raises(InputError, match="speedup-sweep reads no optimizer, grid"):
        cmd_speedup_sweep(ExperimentConfig(seed=1, out_dir=out, grid=5, optimizer="mgd"))
    with pytest.raises(InputError, match="shots-sweep reads no shots;"):
        cmd_shots_sweep(config_for("shots-sweep", seed=1, out_dir=out, shots=10))
    assert not out.exists()
    for command in COMMANDS:
        _Run(config_for(command, seed=1, out_dir=out, grid=20, optimizer="spsa",
                        calibration=harness.default_calibration_path()), command)
    assert not out.exists()


def test_list_valued_settings_equal_their_tuple_defaults(tmp_path):
    """start, shots_list and pair_counts given as lists are stored as
    tuples, so a list equal to a default passes the unread check of a
    command that does not read it."""
    out = tmp_path / "out"
    lists = dict(start=[0.6, 0.8], shots_list=[100, 1000, 10_000],
                 pair_counts=[2, 4, 6, 9, 12, 25])
    cfg = ExperimentConfig(seed=1, out_dir=out, **lists)
    assert {name: getattr(cfg, name) for name in lists} == {
        name: ExperimentConfig._defaults[name] for name in lists}
    for command in ("heatmap", "benchmark-pairs"):
        _Run(cfg, command)
    assert not out.exists()


@pytest.mark.parametrize("argv", ["heatmap --seed -1 --grid 4", "vqe --seed -3",
                                  "speedup-sweep --seed -1"])
def test_a_negative_seed_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    """A seed below 0 exits 2 with nothing written, rather than dying in
    numpy's seeding or being recorded; a seed that is not an integer is
    refused alike by a direct config."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv.split(), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            ExperimentConfig(seed=seed, out_dir=tmp_path / "out")


def test_eta_sets_mgd_points_at_any_pair_count(tmp_path):
    # --eta is honoured on several pairs too: round(6 * eta) points per
    # iteration, spread over the pairs; without it, one point per pair
    base = ["vqe", "--optimizer", "mgd", "--pairs", "4", "--iterations", "2",
            "--shots", "100", "--seed", "3"]
    runs = {}
    for name, extra in (("default", []), ("eta2", ["--eta", "2"]), ("eta5", ["--eta", "5"])):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main([*base, *extra, "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        runs[name] = ((out / "trace_rep0.csv").read_bytes(),
                      (out / "summary.csv").read_bytes(), record)
    assert [runs[name][2]["metrics"]["points_per_iteration"] for name in runs] == [4, 12, 30]
    assert [runs[name][2]["config"]["eta"] for name in runs] == [None, 2.0, 5.0]
    cost = load_cost_model(harness.default_cost_model_path())
    for name, points in (("eta2", 12), ("eta5", 30)):
        parallel, single = harness.modeled_vqe_wall_times(cost, "mgd", 4, points, 2, 100)
        assert runs[name][2]["metrics"]["modeled_seconds_parallel"] == parallel
        assert runs[name][2]["metrics"]["modeled_seconds_single_pair_equivalent"] == single
    # 12 points on 4 pairs keep the default's speedup; 30 points fill 8 batches
    for a, b, keys in (("eta2", "eta5", ("modeled_speedup",)), ("default", "eta2", ())):
        assert runs[a][0] != runs[b][0] and runs[a][1] != runs[b][1]
        assert all(runs[a][2]["metrics"][key] != runs[b][2]["metrics"][key]
                   for key in ("modeled_seconds_parallel",
                               "modeled_seconds_single_pair_equivalent", *keys))


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
    # a constant input has no rank order: None, where Pearson's formula
    # would give NaN with a divide warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in (([1, 2, 3], [4.0, 4.0, 4.0]), ([2, 2], [1.0, 3.0]), ([1], [0.5]),
                     ([7, 7, 7], [0.1, 0.1, 0.1])):
            assert rank_correlation(x, y) is None
            assert rank_correlation(y, x) is None


def test_benchmark_pairs_record_is_strict_json_with_one_greedy_pair(tmp_path):
    """On a 3-qubit chain greedy selection takes one pair, so the sweep has
    one p and no rank correlation: record.json holds null (not NaN) and the
    run emits no RuntimeWarning."""
    chain = write_calibration(tmp_path / "chain.json", range(3),
                              [(0, 1, 0.95), (1, 2, 0.9)], {q: (0.02, 0.03) for q in range(3)})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["benchmark-pairs", "--calibration", str(chain), "--shots", "200",
                         "--seed", "1", "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"record.json holds {constant}")

    record = json.loads((out / "record.json").read_text(), parse_constant=refuse)
    assert record["metrics"]["greedy_pairs"] == 1
    assert record["metrics"]["spearman_mean_abs_err_raw_vs_p"] is None


# the values that tie, change sign, overflow or poison a median
MEDIAN_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | MEDIAN_EDGES,
                min_size=1, max_size=40))
@example([-0.0])
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([1.0, 1.0, 2.0, 2.0])
@example([math.inf, -math.inf])
@example([-math.inf, 1.0, math.inf])
@example([1.0, math.nan])
def test_median_is_bitwise_np_median(values):
    values = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf in a mean
        got, want = harness._median(values), float(np.median(values))
    assert type(got) is float
    assert np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64)) or (
        math.isnan(got) and math.isnan(want))


# inputs the shipped calibration (33 greedy pairs) or the file system cannot satisfy
IMPOSSIBLE = {
    "compare-pair-counts": ("optimizer-compare --pair-counts 2,40 --shots 20",
                            "exceeds the 33 pairs"),
    "vqe-pairs": ("vqe --pairs 40", "selection yields 33 pairs"),
    "empty-selection": ("shots-sweep --cap 0.999 --iterations 2",
                        "selection produced no pairs"),
    "calibration": ("vqe --calibration {missing}", "not found"),
    "cost-model": ("heatmap --cost-model {missing}", "not found"),
    # read before any output, not after the CSVs and SVGs are written
    "malformed-cost-model": ("heatmap --cost-model {malformed} --grid 4 --shots 100",
                             "cannot read cost model"),
    "malformed-cost-model-vqe": ("vqe --cost-model {malformed} --iterations 1",
                                 "cannot read cost model"),
    "out-file": ("heatmap --grid 4 --shots 100 --out {malformed}", "is not a directory"),
    "out-under-file": ("heatmap --grid 4 --shots 100 --out {malformed}/sub",
                       "is not a directory"),
    "malformed-calibration": ("vqe --calibration {malformed}", "fidelity 1.5 out of"),
    "heatmap-pairs": ("heatmap --pairs 40", "selection yields 33 pairs, requested 40"),
    "shots-sweep-pairs": ("shots-sweep --pairs 40", "selection yields 26 pairs, requested 40"),
    # bad values are argparse errors, not tracebacks
    "eta": ("vqe --optimizer mgd --pairs 1 --eta 0", "eta must be positive"),
    "eta-above-cap": ("vqe --optimizer mgd --pairs 1 --eta 200 --iterations 1",
                      "more than 1000 surrogate points"),
    # spsa evaluates one point per pair, so an eta would be silently ignored
    "eta-spsa": ("vqe --optimizer spsa --pairs 1 --eta 3", "spsa reads no eta"),
    "eta-default-optimizer": ("vqe --eta 2.0", "spsa reads no eta"),
    # round(6 * eta) is 0 below eta = 1/12: mgd would be asked for no points
    "eta-below-twelfth": ("vqe --optimizer mgd --pairs 2 --eta 0.05 --iterations 2",
                          "asks for no surrogate points"),
    # a one-shot estimate has a plug-in std_err of 0, so mgd fits its 2
    # points as noiseless, with no ridge
    "mgd-one-shot": ("vqe --optimizer mgd --pairs 2 --shots 1 --iterations 3",
                     "cannot determine 6 surrogate coefficients"),
    "compare-one-shot": ("optimizer-compare --shots 1 --pair-counts 2",
                         "cannot determine 6 surrogate coefficients"),
    "crosstalk-above-1": ("vqe --crosstalk 1.5", "crosstalk_p must be in [0, 1]"),
    "crosstalk-negative": ("vqe --crosstalk -0.1", "crosstalk_p must be in [0, 1]"),
    "start-nan": ("vqe --start nan 0.1", "start angles must be finite"),
    # a NaN cap selects every edge greedily and none by matching
    "cap-nan": ("heatmap --cap nan --grid 4 --shots 100", "cap must be finite"),
    "cap-nan-matching": ("vqe --select matching --cap nan", "cap must be finite"),
    "cap-inf": ("shots-sweep --cap inf", "cap must be finite"),
    # Path("") is the working directory
    "out-empty": ("speedup-sweep --out {empty}", "out_dir must not be empty"),
    # a repeated entry would write the same artifact twice
    "repeated-shots": ("shots-sweep --shots-list 100,100", "entries must be distinct"),
    "repeated-pair-counts": ("speedup-sweep --pair-counts 2,2", "entries must be distinct"),
    # an empty list would crash the run or write one with nothing in it
    "empty-shots-list": ("shots-sweep --shots-list ,", "shots_list must not be empty"),
    "empty-compare-pair-counts": ("optimizer-compare --pair-counts ,",
                                  "pair_counts must not be empty"),
    "empty-sweep-pair-counts": ("speedup-sweep --pair-counts ,",
                                "pair_counts must not be empty"),
    # an empty entry among others is a typo, not a shorter list
    "empty-shots-entry": ("shots-sweep --shots-list 100,,1000", "invalid int_list value"),
    "empty-compare-pair-counts-entry": ("optimizer-compare --pair-counts 2,",
                                        "invalid int_list value"),
    "empty-sweep-pair-counts-entry": ("speedup-sweep --pair-counts 2,",
                                      "invalid int_list value"),
    # valid readout rates whose confusion matrix is too ill-conditioned to
    # invert: heatmap compiles its table before it writes its exact CSV
    "ill-conditioned-heatmap": ("heatmap --calibration {ill} --grid 4 --shots 100",
                                "condition number"),
    "ill-conditioned-vqe": ("vqe --calibration {ill} --iterations 1", "condition number"),
}


@pytest.mark.parametrize("case", sorted(IMPOSSIBLE))
def test_cli_rejects_impossible_inputs_before_output(case, tmp_path, capsys, monkeypatch):
    """Each case exits 2 with its message and writes nothing, neither to
    --out (tmp_path/out unless the case gives its own) nor to the working
    directory (tmp_path)."""
    args, message = IMPOSSIBLE[case]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"name": "malformed", "qubits": [0, 1],
                                     "edges": [[0, 1, 1.5]], "readout": {}}))
    ill = write_calibration(tmp_path / "ill.json", range(4), [(0, 1, 0.95), (2, 3, 0.95)],
                            {0: (0.02, 0.03), 1: (0.02, 0.03), 2: (0.47, 0.47), 3: (0.47, 0.47)})
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(missing=tmp_path / "missing.json", malformed=malformed, ill=ill,
                       empty="")
            for arg in args.split()]
    out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--seed", "1", *out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ill.json", "malformed.json"]


@pytest.mark.parametrize("command, fails_on, settings", [
    ("heatmap", 1, dict(grid=4, pairs=3, shots=100)),
    ("benchmark-pairs", 2, dict(shots=100)),
], ids=["heatmap", "benchmark-pairs"])
def test_a_run_that_dies_midway_leaves_no_output(command, fails_on, settings, tmp_path,
                                                  monkeypatch):
    """A run that raises in its fails_on-th measurement, after heatmap's
    exact grid and benchmark-pairs' individual pairs are known, leaves no
    output directory: every file is written at the end of the run."""
    measure, calls = harness._measure, []

    def dies(*args, **kwargs):
        calls.append(args)
        if len(calls) == fails_on:
            raise RuntimeError("measurement failed")
        return measure(*args, **kwargs)

    monkeypatch.setattr(harness, "_measure", dies)
    out = tmp_path / "out"
    cfg = config_for(command, seed=2, out_dir=out, **settings)
    with pytest.raises(RuntimeError, match="measurement failed"):
        COMMANDS[command].handler(cfg)
    assert len(calls) == fails_on and not out.exists()


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


TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL_NAMES = sorted(path.stem for path in TOOLS.glob("*.py"))


@pytest.mark.parametrize("name", TOOL_NAMES)
def test_tool_imports(name, monkeypatch):
    """Every tool imports, with tools/ on sys.path and without running, so a
    package name a tool imports cannot go without a failure here. The tools
    are not left in sys.modules, and sys.path is restored."""
    monkeypatch.syspath_prepend(str(TOOLS))
    try:
        importlib.import_module(name)
    finally:
        for stem in TOOL_NAMES:
            sys.modules.pop(stem, None)


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
    # on the shipped (bipartite) calibration load neither, nor any plot module
    cal = make_uniform_calibration(4, fidelity=0.95, readout=(0.02, 0.03))
    run = (f"parvqe.cli.main(['benchmark-pairs', '--seed', '3', '--shots', '100', "
           f"'--calibration', {str(cal)!r}, '--out', {str(tmp_path / 'out')!r}]); ")
    matching = ("parvqe.cli.main(['heatmap', '--select', 'matching', '--grid', '2', "
                f"'--shots', '10', '--seed', '3', '--out', {str(tmp_path / 'hm')!r}]); ")
    report = ("print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'} "
              "| {m for m in sys.modules if 'plot' in m}))")
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1])}
    for code in ("import sys, parvqe.cli; " + report,
                 "import sys, parvqe.cli; " + run + report,
                 "import sys, parvqe.cli; " + matching + report):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]"
    # nor dataclasses (record classes generate no code) nor the circuits
    # module, which no command runs; a run imports no further parvqe module
    loaded = "sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('parvqe'))"
    code = f"import sys, parvqe.cli; print({loaded}); {run}print({loaded})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    lines = out.stdout.strip().splitlines()
    at_import, after_run = eval(lines[0]), eval(lines[-1])
    assert "dataclasses" not in at_import and "parvqe.circuits" not in at_import
    assert after_run == at_import
    # the lazy package namespace still resolves every public name
    code = ("import parvqe; names = {n: getattr(parvqe, n) for n in parvqe.__all__}; "
            "ns = {}; exec('from parvqe import *', ns); "
            "print(len(names) == len(set(parvqe.__all__)) == len(ns) - 1, "
            "all(ns[n] is v for n, v in names.items()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.split() == ["True", "True"]


def test_plain_runs_leave_argparse_unloaded(tmp_path, monkeypatch):
    # argparse and the gettext and locale it loads cost a fresh process
    # about 5 ms; importing the CLI and a plain run of each benchmark
    # workload load none of them, and --help is still argparse's
    bench = load_benchmark_module("run")
    report = "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    code = "import sys, parvqe.cli; " + report + "".join(
        f"; parvqe.cli.main({[*wl.argv, '--seed', '7', '--out', str(tmp_path / name)]!r}); "
        + report for name, wl in bench.WORKLOADS.items())
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1]),
           "COLUMNS": "100"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    lines = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[]"] * (1 + len(bench.WORKLOADS))
    help_run = subprocess.run([sys.executable, "-m", "parvqe.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
    monkeypatch.setenv("COLUMNS", "100")
    assert (help_run.returncode, help_run.stdout) == (0, build_parser().format_help())


def test_vqe_and_optimizer_compare_leave_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call in a process, about 15 ms
    # of every CLI run; the harness takes its medians without it
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1])}
    runs = {"spsa": ["vqe", "--optimizer", "spsa", "--pairs", "2", "--iterations", "3",
                     "--repeats", "3", "--shots", "100"],
            "mgd": ["vqe", "--optimizer", "mgd", "--pairs", "6", "--iterations", "3",
                    "--repeats", "2", "--shots", "100"],
            "compare": ["optimizer-compare", "--shots", "50", "--pair-counts", "6"]}
    for name, argv in runs.items():
        argv = [*argv, "--seed", "3", "--out", str(tmp_path / name)]
        code = (f"import sys, parvqe.cli; parvqe.cli.main({argv!r}); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "False", name


def test_measure_batch_reads_counts_from_optimizers_run_batch(monkeypatch):
    """The benchmark counts circuits from what parvqe.optimizers.run_batch
    returns (benchmarks/tracer.py::_count_batch): one record array over the
    rows of a measure_batch call, whose records each give a (2, 4)
    histograms view."""
    results = []

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    original = optimizers.run_batch
    monkeypatch.setattr(optimizers, "run_batch", recording)
    topo = DeviceTopology(qubits=tuple(range(6)),
                          edges=tuple((2 * i, 2 * i + 1, 0.95) for i in range(3)),
                          readout={q: (0.01, 0.02) for q in range(6)})
    table = compile_pairs(topo, [(0, 1), (2, 3), (4, 5)])
    groups = [[np.arange(3), np.arange(2)], [np.arange(1)]]
    angles = np.full(6, 0.3)
    est = optimizers.measure_batch(optimizers.plan_batches(table, groups, [100, 40]),
                                   angles, angles,
                                   [np.random.default_rng(seed) for seed in (1, 2)])
    batch, = results
    assert len(batch) == len(est.value) == 6
    assert all(row.histograms.shape == (2, 4) for row in batch)
    assert load_benchmark_module("tracer")._count_batch(batch) == {
        "executor.active_pairs": 6, "executor.circuits": 12}


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
        # the spsa-serial workload's path: two SPSA repeats on 1 pair, 3
        # one-pair batches per repeat and iteration (18 active pairs) in one
        # call per iteration, then each repeat's final point and its
        # reference (4 more) in two calls
        "vqe-spsa-serial": (["vqe", "--optimizer", "spsa", "--pairs", "1", "--iterations",
                             "3", "--repeats", "2", "--shots", "50"], 44, 22, 5),
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
