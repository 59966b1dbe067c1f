"""parvqe benchmark: host time of the CLI on three workloads.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload landscape --seed 7 --seconds 25 --trace 0

Every sample is a fresh interpreter (``child.py``) that imports
``parvqe.cli`` from ``src/`` and calls ``main(argv)`` once, closed loop,
one process at a time. Samples repeat until ``--seconds`` is used up.
Each sample's outputs are checked against the ``parvqe.hubbard`` oracle
and its CSV files must be byte-identical to the first sample's.

Timed seconds are corrected for the host's speed at the time of the
sample: the child times a fixed probe before and after ``main(argv)``,
and times are multiplied by ``PROBE_REF_S`` over the probe's mean. Wall
times of runs with a thread pool use the run's median probe instead. The
raw times are printed on ``#`` lines.

With ``--trace 0`` every sample is untraced and the result holds the
end-to-end metrics. With ``--trace 1`` untraced and traced samples
alternate; the result holds the per-layer metrics of the traced samples
(``tracer.py``) and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0     # stop starting samples; every invocation ends within 180 s
MIN_SAMPLES = 3
# Reference probe time: timed seconds are rescaled to a host on which
# child.probe() takes this long (see README.md, "Host-speed correction").
PROBE_REF_S = 0.30

ORACLE_TOL = 1e-9      # recomputed oracle values vs. values in the CSVs


class CheckFailed(Exception):
    """A sample ran but its outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, "Workload"], dict]
    tolerances: dict[str, float]      # physics bounds on the check's statistics,
                                      # set as README.md explains
    serial_argv: tuple[str, ...] | None = None   # must give the same CSV bytes

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def threaded(self) -> bool:
        """Runs a thread pool, so the single-threaded probe tracks its speed
        over a run but not sample by sample (see README.md)."""
        return "--workers" in self.argv and int(self.arg("--workers")) > 1


def _oracle():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from parvqe import hubbard
    return hubbard


def _num(text: str) -> float:
    """A CSV float; tolerates the ``np.float64(x)`` form numpy 2 reprs give."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _bounded(stats: dict, wl: Workload) -> dict:
    for name, bound in wl.tolerances.items():
        _require(stats[name] <= bound, f"{name} {stats[name]:.4f} above tolerance {bound}")
    return stats


def check_landscape(out: Path, wl: Workload) -> dict:
    """Exact grid equals the oracle; the simulated grid's mean |error|
    against the oracle is recomputed and bounded."""
    hubbard = _oracle()
    energy = lambda phi, theta: hubbard.exact_energy(hubbard.AnsatzParams(phi, theta))
    n = int(wl.arg("--grid"))
    exact = _rows(out / "heatmap_exact.csv")
    sim = _rows(out / "heatmap_simulated.csv")
    _require(len(exact) == n * n and len(sim) == n * n,
             f"expected {n * n} grid rows, got {len(exact)} and {len(sim)}")
    for row in exact:
        e = energy(_num(row["phi"]), _num(row["theta"]))
        _require(abs(_num(row["e_exact"]) - e) <= ORACLE_TOL,
                 f"heatmap_exact differs from the oracle at {row}")
    errs = []
    for row in sim:
        err = abs(_num(row["e_corrected"]) - energy(_num(row["phi"]), _num(row["theta"])))
        _require(abs(err - _num(row["abs_err"])) <= ORACLE_TOL,
                 f"abs_err column disagrees with the oracle at {row}")
        errs.append(err)
    mean_err = statistics.fmean(errs)
    metrics = json.loads((out / "record.json").read_text())["metrics"]
    _require(abs(metrics["mean_abs_err"] - mean_err) <= ORACLE_TOL,
             "record.json mean_abs_err disagrees with the CSV")
    return _bounded({"mean_abs_err": mean_err,
                     "modeled_speedup": metrics["modeled_speedup"]}, wl)


def check_vqe(out: Path, wl: Workload) -> dict:
    """Each repeat's final point is re-scored with the oracle; the medians
    over repeats of |corrected - E0| and E(final) - E0 are bounded."""
    hubbard = _oracle()
    e0 = hubbard.exact_ground_energy()
    repeats, iterations = int(wl.arg("--repeats")), int(wl.arg("--iterations"))
    rows = _rows(out / "summary.csv")
    _require(len(rows) == repeats, f"expected {repeats} summary rows, got {len(rows)}")
    final_errs, exact_errs = [], []
    for row in rows:
        trace = _rows(out / f"trace_rep{row['repeat']}.csv")
        _require(len(trace) == iterations,
                 f"repeat {row['repeat']}: {len(trace)} trace rows, expected {iterations}")
        final = hubbard.AnsatzParams(_num(row["final_phi"]), _num(row["final_theta"]))
        exact_err = hubbard.exact_energy(final) - e0
        _require(exact_err >= -ORACLE_TOL, "final energy below the ground state")
        _require(abs(exact_err - _num(row["exact_err_at_final"])) <= ORACLE_TOL,
                 f"exact_err_at_final disagrees with the oracle: {row}")
        final_err = abs(_num(row["final_corrected"]) - e0)
        _require(abs(final_err - _num(row["final_abs_err"])) <= ORACLE_TOL,
                 f"final_abs_err disagrees with final_corrected: {row}")
        final_errs.append(final_err)
        exact_errs.append(exact_err)
    metrics = json.loads((out / "record.json").read_text())["metrics"]
    return _bounded({"final_abs_err": statistics.median(final_errs),
                     "exact_err_at_final": statistics.median(exact_errs),
                     "modeled_speedup": metrics["modeled_speedup"]}, wl)


_MGD = ("vqe", "--optimizer", "mgd", "--pairs", "12", "--iterations", "40",
        "--repeats", "5")

WORKLOADS = {
    "landscape": Workload(
        "landscape",
        ("heatmap", "--pairs", "25", "--shots", "10000", "--mitigation", "ni+tflo",
         "--select", "matching", "--grid", "40"),
        check_landscape, {"mean_abs_err": 0.30}),
    "mgd-descent": Workload(
        "mgd-descent", _MGD + ("--workers", "2"), check_vqe,
        {"final_abs_err": 0.15, "exact_err_at_final": 0.10},
        serial_argv=_MGD + ("--workers", "1")),
    "spsa-serial": Workload(
        "spsa-serial",
        ("vqe", "--optimizer", "spsa", "--pairs", "1", "--iterations", "200",
         "--repeats", "5"),
        check_vqe, {"final_abs_err": 0.20, "exact_err_at_final": 0.02}),
}


# --- per-layer metrics from a traced sample -------------------------------------

def _sum(names: dict, prefix: str, key: str) -> float:
    return sum(v[key] for k, v in names.items()
               if k == prefix or k.startswith(prefix + "."))


def layer_metrics(summary: dict, wall: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample; span seconds are multiplied
    by the sample's host-speed `scale`, shares use the raw traced `wall`."""
    names, counters = summary["names"], summary["counters"]
    calls = lambda p: _sum(names, p, "calls")
    self_s = lambda p: scale * _sum(names, p, "self_s")
    incl_s = lambda p: scale * _sum(names, p, "incl_s")
    share = lambda p: 100.0 * _sum(names, p, "self_s") / wall
    batches, selections = calls("executor.run_batch"), calls("device.select")
    fill = 0.0
    if batches and selections and counters.get("device.selected_pairs"):
        fill = (counters["executor.active_pairs"] / batches) \
            / (counters["device.selected_pairs"] / selections)
    attributed = sum(v["self_s"] for k, v in names.items() if k != "main")
    return {
        "circuits.build_circuit.calls": calls("circuits.build_circuit"),
        "circuits.gate_matrix.calls": calls("circuits.gate_matrix"),
        "circuits.self_s": self_s("circuits"),
        "simulator.run_circuit.calls": calls("simulator.run_circuit"),
        "simulator.run_circuit.self_s": self_s("simulator.run_circuit"),
        "simulator.sample_shots.calls": calls("simulator.sample_shots"),
        "simulator.sample_shots.self_s": self_s("simulator.sample_shots"),
        "simulator.shots": counters.get("simulator.shots", 0),
        "seeding.calls": calls("seeding"),
        "seeding.self_s": self_s("seeding"),
        "executor.run_batch.calls": batches,
        "executor.run_batch.self_s": self_s("executor.run_batch"),
        "executor.batch_fill": fill,
        "executor.circuits": counters.get("executor.circuits", 0),
        "executor.estimate.calls": calls("executor.estimate"),
        "executor.estimate.self_s": self_s("executor.estimate"),
        "executor.aggregate.calls": calls("executor.aggregate"),
        "executor.aggregate.self_pct": share("executor.aggregate"),
        "executor.self_s": self_s("executor"),
        "optimizers.iterations": counters.get("optimizers.iterations", 0),
        "optimizers.fit.calls": calls("optimizers.fit"),
        "optimizers.self_pct": share("optimizers"),
        "hubbard.calls": calls("hubbard"),
        "hubbard.self_s": self_s("hubbard"),
        "device.load_calibration_s": incl_s("device.load_calibration"),
        "device.select_s": incl_s("device.select"),
        "device.noise_spec_for_pair.calls": calls("device.noise_spec_for_pair"),
        "mitigation.measure_confusion.calls": calls("mitigation.measure_confusion"),
        "mitigation.self_s": self_s("mitigation"),
        "harness.self_s": self_s("harness"),
        "harness.write_s": incl_s("harness.write"),
        "svgplot.self_s": self_s("svgplot"),
        "cli.self_s": self_s("cli"),
        "trace.attributed_ratio": attributed / wall,
    }


def unit(name: str) -> str:
    if name in ("circuits_per_s", "peak_rss_mb"):
        return {"circuits_per_s": "1/s", "peak_rss_mb": "MiB"}[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "batch_fill")):
        return "ratio"
    return "count"


# --- sampling -------------------------------------------------------------------

@dataclass
class Sample:
    traced: bool
    raw_wall_s: float
    raw_setup_s: float
    probe_s: float          # mean of the probes before and after main(argv)
    peak_rss_mb: float
    trace: dict | None
    info: dict
    wall_scale: float = 1.0     # host-speed correction, set by measure()

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.wall_scale

    @property
    def setup_s(self) -> float:
        return self.raw_setup_s * PROBE_REF_S / self.probe_s


class Session:
    """Runs samples of one workload and keeps the failure accounting."""

    def __init__(self, wl: Workload, seed: int, started: float):
        self.wl, self.seed, self.started = wl, seed, started
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.work = WORK / f"{wl.name}-{os.getpid()}"

    def run(self, traced: bool, argv: tuple[str, ...] | None = None) -> Sample | None:
        self.attempted += 1
        out = self.work / f"s{self.attempted}"
        report = self.work / f"s{self.attempted}.json"
        cli = [*(argv or self.wl.argv), "--seed", str(self.seed), "--out", str(out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report),
                 "1" if traced else "0", "--", *cli],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            rep = json.loads(report.read_text())
            _require(Path(rep["package_file"]).resolve().is_relative_to(SRC),
                     f"parvqe was imported from {rep['package_file']}, not {SRC}")
            info = self.wl.check(out, self.wl)
            digest = csv_digest(out)
            if self.digest is None:
                self.digest = digest
            _require(digest == self.digest, "CSV bytes differ between same-seed runs")
            if traced:
                _require(rep["trace"]["orphans"] == 0,
                         f"{rep['trace']['orphans']} spans without a parent")
        except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError,
                KeyError) as exc:
            self.failed += 1
            print(f"# sample {self.attempted} failed: {type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            report.unlink(missing_ok=True)
        return Sample(traced=traced, raw_wall_s=rep["wall_s"],
                      raw_setup_s=rep["ready_monotonic"] - spawned,
                      probe_s=(rep["probe_before_s"] + rep["probe_after_s"]) / 2,
                      peak_rss_mb=rep["peak_rss_kib"] / 1024.0,
                      trace=rep["trace"], info=info)


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            min_samples: int = MIN_SAMPLES) -> dict:
    """Warm up once (traced, untimed: compiles bytecode and counts the
    circuits), then sample for `seconds`; returns the result object."""
    started = time.monotonic()
    session = Session(wl, seed, started)
    load_before = os.getloadavg()
    samples: list[Sample] = []
    try:
        warm = session.run(traced=True)
        window, n = time.monotonic(), 0
        while time.monotonic() - started < DEADLINE_S - 30:
            elapsed = time.monotonic() - window
            if n >= min_samples and elapsed + elapsed / n > seconds:
                break
            sample = session.run(traced=trace and n % 2 == 1)
            n += 1
            if sample is not None:
                samples.append(sample)
        if wl.serial_argv is not None:
            session.run(traced=False, argv=wl.serial_argv)   # same digest required
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
    load_after = os.getloadavg()

    if samples:
        run_speed = PROBE_REF_S / statistics.median(s.probe_s for s in samples)
        for s in samples:
            s.wall_scale = run_speed if wl.threaded else PROBE_REF_S / s.probe_s
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    circuits = warm.trace["counters"].get("executor.circuits") if warm else None
    problems: list[str] = []
    end_to_end, per_layer = {}, {}
    if plain and circuits:
        end_to_end = {
            "wall_s": [s.wall_s for s in plain],
            "circuits_per_s": [circuits / s.wall_s for s in plain],
            "setup_s": [s.setup_s for s in samples],
            "peak_rss_mb": [s.peak_rss_mb for s in plain],
        }
    if traced and plain:
        layers = [layer_metrics(s.trace, s.raw_wall_s, s.wall_scale) for s in traced]
        for name in layers[0]:
            per_layer[name] = [m[name] for m in layers]
            if unit(name) == "count" and len(set(per_layer[name])) != 1:
                problems.append(f"{name} differs between traced samples")
        if per_layer["executor.circuits"][0] != circuits:
            problems.append("circuit count differs between warm-up and traced samples")
        per_layer["trace.overhead_s"] = [
            statistics.median(s.wall_s for s in traced)
            - statistics.median(s.wall_s for s in plain)]

    context = {
        "workload": wl.name, "seed": seed, "argv": list(wl.argv),
        "serial_argv": None if wl.serial_argv is None else list(wl.serial_argv),
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": load_after, "python": platform.python_version(),
        **_versions(), "commit": _commit(), "source_sha256": _source_digest(),
        "circuits": circuits, "samples": len(plain), "traced_samples": len(traced),
        "checks": samples[0].info if samples else None,
        "absent": warm.trace["absent"] if warm else None,
    }
    print("# context " + json.dumps(context, sort_keys=True))
    raw = {"raw_wall_s": [s.raw_wall_s for s in plain],
           "raw_setup_s": [s.raw_setup_s for s in samples],
           "probe_s": [s.probe_s for s in samples]}
    for name, values in {**end_to_end, **per_layer, **raw}.items():
        print("# " + _describe(name, values))
    for problem in problems:
        print(f"# inconsistent: {problem}")
    print(f"# error_rate {session.failed / session.attempted:.4f} ratio "
          f"({session.failed} failed / {session.attempted} attempted)")

    chosen = per_layer if trace else end_to_end
    return {
        "correct": session.failed == 0 and not problems and bool(chosen),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit(name)}
                    for name, values in chosen.items()},
    }


def _describe(name: str, values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{name} {med:.6g} {unit(name)} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{name} {med:.6g} {unit(name)} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def _versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _commit() -> str | None:
    """HEAD of the checkout's git repository, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "parvqe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parvqe" / "cli.py").is_file():
        print(f"error: no parvqe sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
