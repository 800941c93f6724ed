"""Spans recorded from outside the program, around its public functions.

A :class:`Tracer` replaces each listed function at the module attribute
its caller resolves (``syncenergy.runner.smib_simulate`` is what
``execute_scenario`` calls, ``syncenergy.pipeline.pll_run`` what
``analyze`` calls) with a wrapper that records a span: name, start, end,
parent span and an optional count taken from the call's arguments or
result after the clock has stopped.  A function that no longer exists is
reported as a missing span; the program itself is never edited.

A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time


# counts read after the clock stops; each returns a number for the span
def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sim_steps(args, kwargs, result):
    # computed: one RK4 step per grid interval actually integrated
    return result.grid.n - 1


def _pll_steps(args, kwargs, result):
    return args[0].grid.n - 1


def _samples(args, kwargs, result):
    return args[0].grid.n


def _rel_gap(args, kwargs, result):
    return result.rel_gap


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, count); span names are
# "<defining module>.<function>", so one span may have several sites
SITES = (
    ("syncenergy.cli", "main", "cli.main", None),
    ("syncenergy.cli", "load_document", "config.load_document", None),
    ("syncenergy.cli", "parse_scenario", "config.parse_scenario", _one),
    ("syncenergy.cli", "parse_sweep", "config.parse_sweep", None),
    ("syncenergy.cli", "run_scenario", "runner.run_scenario", None),
    ("syncenergy.cli", "run_sweep", "runner.run_sweep", None),
    ("syncenergy.cli", "verify_scenario", "runner.verify_scenario", None),
    ("syncenergy.config", "load_document", "config.load_document", None),
    ("syncenergy.config", "parse_scenario", "config.parse_scenario", _one),
    ("syncenergy.config", "parse_sweep", "config.parse_sweep", None),
    ("syncenergy.runner", "parse_scenario", "config.parse_scenario", _one),
    ("syncenergy.runner", "run_scenario", "runner.run_scenario", None),
    ("syncenergy.runner", "run_sweep", "runner.run_sweep", None),
    ("syncenergy.runner", "verify_scenario", "runner.verify_scenario", None),
    ("syncenergy.runner", "execute_scenario", "runner.execute_scenario", None),
    ("syncenergy.runner", "write_series_csv", "runner.write_series_csv", _file_bytes),
    ("syncenergy.runner", "read_series_csv", "runner.read_series_csv", _file_bytes),
    ("syncenergy.runner", "smib_simulate", "simulator.smib_simulate", _sim_steps),
    ("syncenergy.runner", "synthetic_signal", "simulator.synthetic_signal", None),
    ("syncenergy.runner", "complex_power", "signals.complex_power", None),
    ("syncenergy.runner", "analyze", "pipeline.analyze", _samples),
    ("syncenergy.runner", "classify_sync", "metric.classify_sync", None),
    ("syncenergy.runner", "identity_gap", "pipeline.identity_gap", _rel_gap),
    ("syncenergy.pipeline", "complex_power", "signals.complex_power", None),
    ("syncenergy.pipeline", "complex_frequency", "signals.complex_frequency", None),
    ("syncenergy.pipeline", "pll_run", "pll.pll_run", _pll_steps),
    ("syncenergy.pipeline", "se_from_cf", "metric.se_from_cf", None),
    ("syncenergy.pipeline", "se_numeric", "metric.se_numeric", None),
    ("syncenergy.pipeline", "normalized_se", "metric.normalized_se", None),
)

# spans that make up the analysis kernels of ``pipeline.analyze``
ANALYSIS_SPANS = (
    "pipeline.analyze",
    "signals.complex_power",
    "signals.complex_frequency",
    "pll.pll_run",
    "metric.se_from_cf",
    "metric.se_numeric",
    "metric.normalized_se",
)


class Tracer:
    """Installs span-recording wrappers; spans stay in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, count]
        self.missing: list = []
        self.count_errors: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> "Tracer":
        for module_name, attr, span, counter in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counter))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its record."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record[1], record[2] = start, time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    record[4] = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    self.count_errors.append(f"{name}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for k, (name, start, end, parent, count) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[k]
        if count is not None:
            entry["count"] += count
    return out


def max_count(spans: list, name: str) -> float:
    values = [c for n, _, _, _, c in spans if n == name and c is not None and c == c]
    return max(values) if values else 0.0
