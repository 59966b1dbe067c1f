"""One benchmark sample: a fresh interpreter that runs ``parvqe.cli.main``.

Usage: python3 child.py REPORT.json TRACE(0|1) -- CLI-ARGS...

The parent takes the spawn time; this process notes when
``import parvqe.cli`` has returned, so the parent can compute set-up time
from the two monotonic clocks. Around the ``main(argv)`` call it times a
fixed probe (``probe()``) that does not touch parvqe, so the parent can
correct for the host's speed at the time of the sample. The report holds
the ready instant, the probe times, the host seconds of ``main(argv)``,
the peak resident set size and, when tracing, the span summary.
"""

import sys
import time

import parvqe.cli

READY = time.monotonic()

import json  # noqa: E402  (after the set-up measurement)
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by parvqe)

from tracer import ROOT, Tracer  # noqa: E402


def probe(rounds: int = 8000) -> float:
    """Seconds for a fixed mix of interpreter work and tiny numpy calls,
    like the simulator's own mix; about 0.3 s on an unloaded 2 GHz core."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    gate = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    for i in range(rounds):
        u = np.kron(gate, np.eye(2))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho = u @ rho @ u.conj().T
        p = np.clip(np.real(np.diag(rho)), 0.0, None)
        rng.multinomial(100, p / p.sum())
        record = {"k": i, "v": [j * 0.5 for j in range(20)]}
        sum(record["v"])
    return time.perf_counter() - t0


def main() -> int:
    report_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- CLI-ARGS...")
    tracer = Tracer() if trace_flag == "1" else None
    probe_before = probe()
    if tracer is None:
        t0 = time.perf_counter()
        code = parvqe.cli.main(argv)
        wall = time.perf_counter() - t0
    else:
        tracer.install()
        t0 = time.perf_counter()
        code = tracer.call(ROOT, parvqe.cli.main, (argv,))
        wall = time.perf_counter() - t0
        tracer.uninstall()
    probe_after = probe()
    report = {
        "ready_monotonic": READY,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "wall_s": wall,
        "exit_code": code,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package_file": parvqe.cli.__file__,
        "trace": None if tracer is None else tracer.summary(),
    }
    Path(report_path).write_text(json.dumps(report))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
