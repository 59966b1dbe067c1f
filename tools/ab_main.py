"""Time one benchmark workload's main(argv) on two package sources, paired.

Each round runs one fresh interpreter per side, in alternating order (A
then B, then B then A). Each interpreter imports parvqe.cli from its
--src, warms numpy.random with benchmarks/child.py's probe, as a
benchmark sample does, and times one `parvqe.cli.main(argv --seed S
--out DIR)`; the workload's argv is read from benchmarks/run.py, as
artifact_digest.py reads it. The report gives each side's median and
quartiles, the median of the per-round ratios B/A and the rounds B won.
On a host whose speed drifts, only such paired, interleaved numbers
compare two sources. Run from the repository root:

    python tools/ab_main.py --src A/src --src B/src WORKLOAD [--rounds 20] [--seed 7]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from artifact_digest import workload_argv  # noqa: E402

# one timed main(argv) in a fresh interpreter: sys.argv[1:] is the CLI argv
CHILD = """\
import contextlib, io, sys, time, warnings
import parvqe.cli
from child import probe
probe()
with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    code = parvqe.cli.main(sys.argv[1:])
    seconds = time.perf_counter() - t0
if code:
    sys.exit(f"main exited with {code}")
sys.stdout.write(repr(seconds))
"""


def time_main(src: Path, argv, seed: int) -> float:
    """Seconds of one main(argv) in a fresh interpreter importing src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "benchmarks")])}
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", CHILD, *argv, "--seed", str(seed),
                              "--out", str(Path(tmp) / "out")],
                             env=env, check=True, capture_output=True, text=True).stdout
    return float(out)


def summary(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"median {q2 * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f})"


def main(argv: list[str] | None = None) -> int:
    workloads = workload_argv()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True)
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give exactly two --src")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    srcs = [src.resolve() for src in args.src]
    times: list[list[float]] = [[], []]
    for k in range(args.rounds):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            times[side].append(time_main(srcs[side], workloads[args.workload], args.seed))
    ratios = [b / a for a, b in zip(*times)]
    for name, src, side in zip("AB", srcs, times):
        print(f"{name} {summary(side)} | {src}")
    print(f"B/A median ratio {statistics.median(ratios):.3f} | B faster in "
          f"{sum(r < 1.0 for r in ratios)} of {args.rounds} rounds | {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
