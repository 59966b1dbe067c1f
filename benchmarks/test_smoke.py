"""Smoke test of the benchmark at tiny sizes (kept out of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py

It drives the whole pipeline: fresh-interpreter samples, output checks,
same-seed digests, the ``--workers 1`` digest check, the tracer and the
metric reduction, and asserts that every metric named in BENCHMARK.json
is emitted with its unit.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))   # in-process tracer tests import parvqe

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


TINY = {"--grid": "4", "--iterations": "2", "--repeats": "1"}


def _shrink(argv):
    out = list(argv)
    for flag, value in TINY.items():
        if flag in out:
            out[out.index(flag) + 1] = value
    return tuple(out)


def _tiny(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    # two iterations do not converge, so only the accuracy bounds are lifted;
    # the oracle consistency checks still apply
    return replace(wl, argv=_shrink(wl.argv),
                   tolerances={k: float("inf") for k in wl.tolerances},
                   serial_argv=wl.serial_argv and _shrink(wl.serial_argv))


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_pipeline_emits_every_metric(name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(_tiny(name), seed=7, seconds=0.1, trace=trace,
                             min_samples=2)
        assert result["correct"], result
        assert result["failed"] == 0
        assert set(result["metrics"]) == _names(kind)
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]


def test_every_target_is_present():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


def test_absent_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.install(targets=(Target("parvqe.executor", "no_such_function", "executor.gone"),),
                   pools=())
    tracer.uninstall()
    assert tracer.absent == ["parvqe.executor.no_such_function"]


def test_pool_children_nest_under_the_submitting_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    pool_cls = tracer._traced_pool(ThreadPoolExecutor)

    def work(i):
        return tracer.call("leaf.work", lambda: i)

    def batch():
        with pool_cls(max_workers=2) as pool:
            return list(pool.map(work, range(4)))

    tracer.call("main", batch)
    summary = tracer.summary()
    assert summary["orphans"] == 0
    assert summary["names"]["leaf.work"]["calls"] == 4
