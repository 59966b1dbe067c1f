"""Print one sha256 per command over every artifact of its run and its plots.

The commands are the benchmark workloads' argv (read from
benchmarks/run.py), the README-scale `benchmark-pairs`, `shots-sweep` and
`optimizer-compare` at their defaults, and the paper-scale
`vqe --repeats 100` runs with SPSA and with MGD on the 33 greedy pairs.
Each runs once, as a fresh `python -m parvqe.cli` process, into a
temporary directory, and then `tools/plot.py` renders its SVGs there;
its digest covers every file there except record.json (which holds the
output path), as the sha256 of each name, a NUL byte and the file's
bytes, in name order.
Two checkouts that print the same lines wrote the same bytes.

Run from the repository root:

    python tools/artifact_digest.py [--seed 7] [--src path/to/src]

--src picks the package sources to run (default: this checkout's src), so
the same script digests another checkout's outputs. The plots are always
rendered by this checkout's tools/plot.py (on a checkout whose commands
still draw their own SVGs, it rewrites them from the run's tables).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README_SCALE = [("benchmark-pairs",), ("shots-sweep",), ("optimizer-compare",)]
PAPER_SCALE = [("vqe", "--optimizer", "spsa", "--repeats", "100"),
               ("vqe", "--optimizer", "mgd", "--repeats", "100")]


def workload_argv() -> dict[str, tuple[str, ...]]:
    """The argv of every benchmark workload by name, in name order."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "benchmarks" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.WORKLOADS[name].argv for name in sorted(module.WORKLOADS)}


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "record.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(argv, seed: int, src: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        subprocess.run([sys.executable, "-W", "ignore", "-m", "parvqe.cli", *argv,
                        "--seed", str(seed), "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, str(ROOT / "tools" / "plot.py"), str(out)],
                       env=env, check=True)
        return digest(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    for command in [*workload_argv().values(), *README_SCALE, *PAPER_SCALE]:
        print(run(command, args.seed, args.src.resolve()), " ".join(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
