"""Time one benchmark workload's main(argv) on two package sources, paired.

Each round runs one fresh interpreter per side, in alternating order (A
then B, then B then A). Each interpreter imports parvqe.cli from its
--src, warms numpy.random with benchmarks/child.py's probe, as a
benchmark sample does, and times one `parvqe.cli.main(argv --seed S
--out DIR)`; the workload's argv is read from benchmarks/run.py, as
artifact_digest.py reads it, or given literally after `--` in place of a
workload name (say, a paper-scale run). The report gives each side's
median and quartiles, its median peak RSS (the interpreter's ru_maxrss),
the median of the per-round ratios B/A and the rounds B won. On a host
whose speed drifts, only such paired, interleaved numbers compare two
sources. Run from the repository root:

    python tools/ab_main.py --src A/src --src B/src WORKLOAD [--rounds 20] [--seed 7]
    python tools/ab_main.py --src A/src --src B/src [--rounds 20] -- vqe --repeats 100
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

# one timed main(argv) in a fresh interpreter: sys.argv[1:] is the CLI argv;
# it prints its seconds and its peak RSS (ru_maxrss, KiB on Linux)
CHILD = """\
import contextlib, io, resource, sys, time, warnings
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
sys.stdout.write(f"{seconds!r} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
"""


def time_main(src: Path, argv, seed: int) -> tuple[float, int]:
    """Seconds and peak RSS (KiB) of one main(argv) in a fresh interpreter
    importing src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "benchmarks")])}
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", CHILD, *argv, "--seed", str(seed),
                              "--out", str(Path(tmp) / "out")],
                             env=env, check=True, capture_output=True, text=True).stdout
    seconds, rss = out.split()
    return float(seconds), int(rss)


def summary(samples: list[tuple[float, int]]) -> str:
    times = [seconds for seconds, _ in samples]
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    rss = statistics.median(kib for _, kib in samples) / 1024
    return (f"median {q2 * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f}), "
            f"peak RSS median {rss:.2f} MiB")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = None
    if "--" in argv:
        argv, command = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    workloads = workload_argv()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True)
    parser.add_argument("workload", nargs="?", choices=sorted(workloads))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give exactly two --src")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if (args.workload is None) == (not command):
        parser.error("give either a WORKLOAD or a CLI argv after --")
    run_argv = workloads[args.workload] if command is None else command
    srcs = [src.resolve() for src in args.src]
    samples: list[list[tuple[float, int]]] = [[], []]
    for k in range(args.rounds):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            samples[side].append(time_main(srcs[side], run_argv, args.seed))
    ratios = [b / a for (a, _), (b, _) in zip(*samples)]
    for name, src, side in zip("AB", srcs, samples):
        print(f"{name} {summary(side)} | {src}")
    print(f"B/A median ratio {statistics.median(ratios):.3f} | B faster in "
          f"{sum(r < 1.0 for r in ratios)} of {args.rounds} rounds | "
          f"{args.workload or ' '.join(run_argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
