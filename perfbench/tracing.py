"""Per-layer tracing from outside the library.

The tracer replaces chosen library functions with wrappers that record one
span per call: (name, start, end, parent span, job id). A function is
replaced in every ``kuramoto_rc`` module namespace that binds it, because
callers reach it through their own imports (``phase_step`` is bound in
``network``, ``reservoir``, ``metrics``, ``experiments`` and the package).
Spans stay in memory; a layer's self time is the duration of its spans
minus the time their child spans cover. Every attribute is restored on
exit.

A layer whose functions no longer all exist is reported as absent, never
as 0, so renames in the library show up instead of reading as a speed-up.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from contextlib import contextmanager

# Span name -> (module, attribute) of each function whose calls it records.
LAYERS = {
    "experiments.job": [("experiments", "_pipeline_job"), ("experiments", "_weight_job")],
    "network.phase_step": [("network", "phase_step")],
    "network.coupling_step": [("network", "coupling_step")],
    "network.rescale": [("network", "_rescale_warm"), ("network", "rescale_to_radius")],
    "network.rescale.fallback": [("network", "_norm_limit_radius")],
    "reservoir.develop_and_collect": [("reservoir", "develop_and_collect")],
    "reservoir.train_readout": [("reservoir", "train_readout")],
    "reservoir.predict": [("reservoir", "predict")],
    "reservoir.build_features": [("reservoir", "build_features")],
    "tasks.make_task": [("tasks", "make_task")],
    "metrics.memory_capacity": [("metrics", "memory_capacity")],
    "metrics.weight_histogram": [("metrics", "weight_histogram")],
    "cli.write_result": [("cli", "write_result")],
}

# Metric names where they differ from "<span>.calls" and "<span>.self_ms".
METRIC_NAMES = {
    "network.rescale.fallback": (
        "network.rescale.fallback_calls",
        "network.rescale.fallback_ms",
    ),
}

_MARK = "__perfbench_original__"


def package_modules() -> dict[str, object]:
    """Every imported ``kuramoto_rc`` module by its name inside the package."""
    return {
        name.partition(".")[2] or name: module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "kuramoto_rc" or name.startswith("kuramoto_rc."))
    }


def leftover_wrappers() -> list[str]:
    """Module attributes that are still tracing wrappers."""
    return [
        f"{mod_name}.{attr}"
        for mod_name, module in package_modules().items()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]


class Tracer:
    """Span recorder for one traced study."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.absent: list[str] = []
        self.task_keys: set[str] = set()
        self.written_rows = 0
        self.written_bytes = 0
        self._stack: list[int] = []
        self._job = -1
        self._jobs = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = package_modules()
        try:
            for span, targets in LAYERS.items():
                fns = [getattr(modules.get(m), attr, None) for m, attr in targets]
                if any(fn is None for fn in fns):
                    self.absent.append(span)
                    continue
                index = len(self.names)
                self.names.append(span)
                for fn in fns:
                    self._patch(modules, fn, self._wrap(fn, index, span))
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def _patch(self, modules, fn, wrapper):
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, index: int, span: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        # A job span opens a new job id; the spans inside it carry that id.
        opens_job = span == "experiments.job"
        on_return = {
            "tasks.make_task": self._task_called,
            "cli.write_result": self._result_written,
        }.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_job = self._job
            if opens_job:
                self._job = self._jobs
                self._jobs += 1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self._job)
                self._job = outer_job
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def _task_called(self, args, kwargs, result):
        self.task_keys.add(repr((args, sorted(kwargs.items()))))

    def _result_written(self, args, kwargs, paths):
        result = args[0] if args else kwargs["result"]
        self.written_rows += len(result.records) + len(result.aggregates)
        self.written_rows += sum(len(rows) for _, rows in result.tables.values())
        self.written_bytes += sum(os.path.getsize(p) for p in paths)

    def layer_stats(self) -> dict[str, tuple[int, int]]:
        """(calls, self time in ns) per present span name."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_ns[index] += end - start - covered[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this study as name -> (value, unit)."""
        stats = self.layer_stats()
        out: dict[str, tuple[float, str]] = {}
        for span, (calls, self_ns) in stats.items():
            calls_name, ms_name = METRIC_NAMES.get(
                span, (f"{span}.calls", f"{span}.self_ms")
            )
            out[calls_name] = (calls, "count")
            out[ms_name] = (self_ns / 1e6, "ms")
        if "network.rescale" in stats and "network.rescale.fallback" in stats:
            calls = stats["network.rescale"][0]
            if calls:
                fallback = stats["network.rescale.fallback"][0]
                out["network.rescale.fast_path_ratio"] = (1.0 - fallback / calls, "ratio")
        if "tasks.make_task" in stats:
            calls = stats["tasks.make_task"][0]
            if calls:
                out["tasks.make_task.distinct_ratio"] = (len(self.task_keys) / calls, "ratio")
        if "cli.write_result" in stats:
            out["cli.write_result.rows"] = (self.written_rows, "count")
            out["cli.write_result.bytes"] = (self.written_bytes, "B")
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines; a span's parent and its
        own index are line numbers, counted from 0."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[index],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
