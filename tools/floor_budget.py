"""Print each benchmark workload's in-process time next to its floor.

For every benchmark workload (its argv read from benchmarks/run.py, as
artifact_digest.py reads them), this process runs
`parvqe.cli.main(argv --seed S --out DIR)` once to capture its draws and
artifacts, --repeats times untouched and --repeats times with eight
layers timed, and prints one line with the median of main(argv) and:

- draws: every run_batch call's per-group multinomial draws, replayed at
  the same shots and distributions on fresh generators, the floor under
  today's stream layout;
- repr: repr() of one float per distinct bit pattern in the run's CSV
  and JSON artifacts (csvio, too, formats by bit pattern), the floor
  under today's formats;
- the medians of eight layers: the pair matching (max_weight_matching),
  batch planning (plan_batches), the pair selection (_Run.select, the
  calibration load and the matching included), the pair table
  (_Run.pair_table: the confusion draws and compile_pairs), the whole
  parse step (cli.parse), the artifact writes (harness.write_csv,
  optimizer traces included, and np.save), the optimizer steps (the
  lockstep cores spsa_lockstep and mgd_lockstep, their evaluators'
  batches included) and energy estimation (every call that turns counts
  into energies: executor's _estimate and the value-only BatchPlan.value
  that SPSA's steps read);
- step - draws: the step layer less the draws floor, what the optimizer
  loop costs beyond its multinomial draws (a lower bound, since the floor
  also holds the draws of the run's batches outside the loop); shown when
  the run has optimizer steps;
- plot: the median seconds tools/plot.py takes to render and write the
  run's SVGs from its tables, time a user who wants the plots pays
  outside main.

The draws and repr floors are the fastest of --repeats replays. Before
the workloads, one line gives the import floor: the median spawn-to-ready
seconds of fresh interpreters (SPAWNS each, interleaved) that run
`pass`, `import numpy` and `import parvqe.cli` on a copy of src without
bytecode, once compiling it in every process (PYTHONDONTWRITEBYTECODE=1)
and once with it cached in a scratch PYTHONPYCACHEPREFIX, and the median
seconds of the parse step (cli.parse of the first workload's argv) in a
fresh interpreter that has imported parvqe.cli. Interpreter
start alone includes the site-packages .pth processing of the host
environment, which lies outside the package. Run from the repository
root:

    python tools/floor_budget.py [--seed 7] [--repeats 9]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import plot  # noqa: E402
from artifact_digest import workload_argv  # noqa: E402
from parvqe import cli, executor, harness, optimizers  # noqa: E402
from parvqe.simulator import apply_terms  # noqa: E402

# (module or class, name, layer): the bindings main(argv) calls each layer by
LAYERS = [(harness, "max_weight_matching", "matching"),
          (harness, "plan_batches", "plan"),
          (optimizers, "plan_batches", "plan"),
          (harness._Run, "select", "select"),
          (harness._Run, "pair_table", "table"),
          (cli, "parse", "parse"),
          (harness, "write_csv", "write"),
          (np, "save", "write"),
          (harness, "spsa_lockstep", "step"),
          (harness, "mgd_lockstep", "step"),
          (executor, "_estimate", "estimate"),
          (executor.BatchPlan, "value", "estimate")]


@contextlib.contextmanager
def patched(module, name, wrapper):
    original = getattr(module, name)
    setattr(module, name, wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def run_main(argv, seed: int) -> tuple[float, dict[str, str]]:
    """Seconds of one main(argv) call and the artifacts it wrote (read
    before its temporary directory goes)."""
    with tempfile.TemporaryDirectory() as tmp:
        full = [*argv, "--seed", str(seed), "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            cli.main(full)
            seconds = time.perf_counter() - t0
        artifacts = {path.name: path.read_text() for path in Path(tmp).iterdir()
                     if path.suffix in (".csv", ".json")}
    return seconds, artifacts


def plot_times(argv, seed: int, repeats: int) -> list[float]:
    """Seconds of plot.main on one run's output directory, repeats times."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cli.main([*argv, "--seed", str(seed), "--out", tmp])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            plot.main([tmp])
            times.append(time.perf_counter() - t0)
    return times


def artifact_floats(artifacts: dict[str, str]) -> list[float]:
    """One float per distinct bit pattern written to a CSV cell or a JSON
    number: 0.0 and -0.0 stay apart, and NaNs of one pattern count once."""
    found: dict[bytes, float] = {}

    def add(value: float):
        found[struct.pack("<d", value)] = value

    def walk(value):
        if isinstance(value, float):
            add(value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    for name, text in artifacts.items():
        if name.endswith(".json"):
            walk(json.loads(text))
            continue
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    int(cell)
                except ValueError:
                    with contextlib.suppress(ValueError):
                        add(float(cell))
    return list(found.values())


def captured_draws(argv, seed: int):
    """(distributions, groups) of every run_batch call of one run, and that
    run's artifacts."""
    calls = []

    def capture(run_batch):
        def wrapper(plan, phi, theta, streams):
            calls.append((apply_terms(plan.base, plan.slope, phi, theta), plan.groups))
            return run_batch(plan, phi, theta, streams)
        return wrapper

    with patched(optimizers, "run_batch", capture):
        _, artifacts = run_main(argv, seed)
    return calls, artifacts


def replay_draws(calls) -> float:
    streams = [np.random.default_rng(k) for k, (_, groups) in enumerate(calls)
               for _ in groups]
    t0 = time.perf_counter()
    k = 0
    for dists, groups in calls:
        for n, lo, hi in groups:
            streams[k].multinomial(n, dists[lo:hi])
            k += 1
    return time.perf_counter() - t0


def layer_times(argv, seed: int) -> dict[str, float]:
    """Seconds main(argv) spends in each of LAYERS."""
    spent = dict.fromkeys((layer for *_, layer in LAYERS), 0.0)

    def timer(layer):
        def wrap(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                spent[layer] += time.perf_counter() - t0
                return result
            return timed
        return wrap

    with contextlib.ExitStack() as stack:
        for module, name, layer in LAYERS:
            stack.enter_context(patched(module, name, timer(layer)))
        run_main(argv, seed)
    return spent


def budget(argv, seed: int, repeats: int) -> str:
    calls, artifacts = captured_draws(argv, seed)
    floats = artifact_floats(artifacts)
    wall = statistics.median(run_main(argv, seed)[0] for _ in range(repeats))
    draws = min(replay_draws(calls) for _ in range(repeats))
    reprs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        list(map(repr, floats))
        reprs.append(time.perf_counter() - t0)
    layers = [layer_times(argv, seed) for _ in range(repeats)]
    medians = {name: statistics.median(t[name] for t in layers) for name in layers[0]}
    layer_text = ", ".join(f"{name} {seconds * 1e3:.2f} ms" for name, seconds in medians.items())
    if medians["step"] > 0.0:
        layer_text += f" (step - draws {(medians['step'] - draws) * 1e3:.2f} ms)"
    plotting = statistics.median(plot_times(argv, seed, repeats))
    return (f"main {wall * 1e3:.2f} ms | draws {draws * 1e3:.2f} ms "
            f"({sum(len(shots) for _, shots, _ in calls)} groups) | repr {min(reprs) * 1e3:.2f} ms "
            f"({len(floats)} floats) | {layer_text} | plot {plotting * 1e3:.2f} ms")


IMPORTS = {"pass": "pass", "numpy": "import numpy", "parvqe.cli": "import parvqe.cli"}
SPAWNS = 15   # fresh interpreters per import floor entry and mode


def spawn_to_ready(statement: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until statement has run."""
    code = f"{statement}; import sys, time; sys.stdout.write(repr(time.monotonic()))"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout) - t0


def fresh_parse(argv, env: dict) -> float:
    """Seconds of cli.parse(argv) in a fresh interpreter."""
    code = ("import sys, time, parvqe.cli; t0 = time.perf_counter(); "
            f"parvqe.cli.parse({list(argv)!r}); "
            "sys.stdout.write(repr(time.perf_counter() - t0))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def import_floor(argv) -> str:
    """Median spawn-to-ready of each of IMPORTS, and median seconds of the
    parse step of argv, compiling src in every process and with its
    bytecode cached."""
    with tempfile.TemporaryDirectory() as tmp:
        src = shutil.copytree(ROOT / "src", Path(tmp) / "src",
                              ignore=shutil.ignore_patterns("__pycache__"))
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(src)
        modes = {"compiled": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
                 "cached": {**base, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")}}
        for statement in IMPORTS.values():    # fills the cache
            spawn_to_ready(statement, modes["cached"])
        names = [*IMPORTS, "parse"]
        times = {(mode, name): [] for mode in modes for name in names}
        for _ in range(SPAWNS):
            for mode, env in modes.items():
                for name, statement in IMPORTS.items():
                    times[mode, name].append(spawn_to_ready(statement, env))
                times[mode, "parse"].append(fresh_parse(argv, env))
    return "import floor (spawn-to-ready medians; parse: fresh cli.parse) | " + " | ".join(
        f"{mode}: " + ", ".join(f"{name} {statistics.median(times[mode, name]) * 1e3:.2f} ms"
                                for name in names) for mode in modes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    commands = list(workload_argv().values())
    print(import_floor([*commands[0], "--seed", str(args.seed), "--out", "out"]), flush=True)
    for command in commands:
        print(f"{budget(command, args.seed, args.repeats)} | {' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
