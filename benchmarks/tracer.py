"""Outside-in tracer for parvqe: spans around calls into its modules.

The tracer never edits the package. Each target is a name bound in some
module's namespace (or on a class) that callers look up at call time, such
as ``parvqe.executor.run_circuit``, which ``executor.run_batch`` calls.
``Tracer.install`` replaces the binding with a wrapper that records a span
(id, parent id, name, start, end, counters) and then calls the original.
A span's name is ``<layer>.<operation>``; the layer is a package module.

Every thread keeps its own span stack. The thread pool that
``executor.run_batch`` opens is swapped for a subclass whose tasks start
with the submitting thread's open span as their parent, so spans from
``--workers 2`` nest under their ``run_batch``.

A target that no longer exists (a later refactor renamed or removed it)
is listed in ``Tracer.absent`` instead of failing; the time it would have
recorded falls into its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT = "main"   # the measured call itself; its self time is unattributed


@dataclass(frozen=True)
class Target:
    """A binding to wrap: ``module`` namespace, dotted ``attr`` inside it."""

    module: str
    attr: str
    span: str
    # result -> counter increments; counters are read from return values so
    # that they do not depend on how callers pass arguments
    count: Callable[[object], dict[str, float]] | None = None


def _count_batch(results) -> dict[str, float]:
    return {"executor.active_pairs": len(results),
            "executor.circuits": sum(len(r.histograms) for r in results)}


TARGETS = (
    Target("parvqe.cli", "build_parser", "cli.parse"),
    Target("parvqe.cli", "config_from_args", "cli.parse"),
    *(Target("parvqe.cli", name, "harness.cmd")
      for name in ("cmd_benchmark_pairs", "cmd_heatmap", "cmd_vqe",
                   "cmd_shots_sweep", "cmd_optimizer_compare")),
    Target("parvqe.harness", "write_csv", "harness.write"),
    Target("parvqe.harness", "RunRecord.write", "harness.write"),
    Target("parvqe.optimizers", "OptTrace.write", "harness.write"),
    Target("parvqe.harness", "load_calibration", "device.load_calibration"),
    Target("parvqe.harness", "select_pairs", "device.select",
           lambda sel: {"device.selected_pairs": len(sel.pairs)}),
    Target("parvqe.harness", "noise_spec_for_pair", "device.noise_spec_for_pair"),
    Target("parvqe.executor", "noise_spec_for_pair", "device.noise_spec_for_pair"),
    Target("parvqe.harness", "measure_confusion", "mitigation.measure_confusion"),
    Target("parvqe.harness", "tflo_correct", "mitigation.tflo_correct"),
    Target("parvqe.harness", "exact_energy", "hubbard.exact_energy"),
    Target("parvqe.harness", "closed_form_energy", "hubbard.closed_form_energy"),
    Target("parvqe.harness", "exact_ground_energy", "hubbard.exact_ground_energy"),
    Target("parvqe.harness", "optimal_params", "hubbard.optimal_params"),
    Target("parvqe.harness", "derive_rng", "seeding.derive_rng"),
    Target("parvqe.harness", "derive_seed", "seeding.derive_seed"),
    Target("parvqe.optimizers", "derive_seed", "seeding.derive_seed"),
    Target("parvqe.executor", "derive_rng", "seeding.derive_rng"),
    Target("parvqe.harness", "BatchJob", "executor.batch_job"),
    Target("parvqe.optimizers", "BatchJob", "executor.batch_job"),
    Target("parvqe.harness", "run_batch", "executor.run_batch", _count_batch),
    Target("parvqe.optimizers", "run_batch", "executor.run_batch", _count_batch),
    Target("parvqe.harness", "estimate_for_result", "executor.estimate"),
    Target("parvqe.optimizers", "estimate_for_result", "executor.estimate"),
    Target("parvqe.harness", "aggregate_same_params", "executor.aggregate"),
    Target("parvqe.optimizers", "aggregate_same_params", "executor.aggregate"),
    Target("parvqe.harness", "load_cost_model", "executor.cost_model"),
    Target("parvqe.harness", "predict_wall_time", "executor.cost_model"),
    Target("parvqe.executor", "build_circuit", "circuits.build_circuit"),
    Target("parvqe.simulator", "gate_matrix", "circuits.gate_matrix"),
    Target("parvqe.executor", "run_circuit", "simulator.run_circuit"),
    Target("parvqe.executor", "sample_shots", "simulator.sample_shots",
           lambda hist: {"simulator.shots": hist.shots}),
    Target("parvqe.harness", "spsa_run", "optimizers.spsa_run",
           lambda trace: {"optimizers.iterations": len(trace.records)}),
    Target("parvqe.harness", "mgd_run", "optimizers.mgd_run",
           lambda trace: {"optimizers.iterations": len(trace.records)}),
    Target("parvqe.optimizers", "_fit_surrogate", "optimizers.fit"),
    *(Target("parvqe.svgplot", name, "svgplot.plot")
      for name in ("heatmap", "line_plot", "scatter_plot")),
)

# thread pools whose tasks must nest under the span that submitted them
POOLS = (("parvqe.executor", "ThreadPoolExecutor"),)


class Tracer:
    """Records spans in memory; ``summary()`` reduces them after the run."""

    def __init__(self):
        self.spans: list[tuple] = []    # (id, parent, name, t0, t1, counters)
        self.absent: list[str] = []
        self._ids = itertools.count(1)  # next() on it is atomic under the GIL
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            counters = count(result) if count is not None and result is not None else None
            self.spans.append((sid, parent, name, t0, t1, counters))

    def _run_under(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)    # borrowed: spans opened here get this parent
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(target.span, fn, args, kwargs, target.count)
        return traced

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._run_under, parent, fn, *args, **kwargs)

        return TracedPool

    def _bind(self, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def install(self, targets=TARGETS, pools=POOLS) -> None:
        for t in targets:
            self._bind(t.module, t.attr, lambda fn, t=t: self._wrap(fn, t))
        for module, attr in pools:
            self._bind(module, attr, self._traced_pool)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; counter sums.

        Self time is a span's duration minus the union of its children's
        intervals (children from pool threads may overlap each other).
        """
        children = defaultdict(list)
        for sid, parent, _, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0,
                                                      "self_s": 0.0})
        counters: dict[str, float] = defaultdict(int)
        orphans = 0
        for sid, parent, name, t0, t1, extra in self.spans:
            entry = names[name]
            entry["calls"] += 1
            entry["incl_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - _union_length(children.get(sid, ()))
            if parent is None and name != ROOT:
                orphans += 1
            for key, value in (extra or {}).items():
                counters[key] += value
        return {"names": dict(names), "counters": dict(counters),
                "orphans": orphans, "spans": len(self.spans),
                "absent": list(self.absent)}


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
