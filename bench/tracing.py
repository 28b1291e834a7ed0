"""Spans and counters around plumecpd's layers, installed from outside.

The tracer replaces a layer's public function, in each module that looks
it up by name, with a wrapper that records a span (op id, span id,
parent span id, name, start, end) and, for some functions, counts read
from the arguments and the return value. Nothing under ``src/`` changes:
``Tracer.op`` installs the wrappers for one op and puts the originals
back when it ends. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the part of it that its child
spans cover. Functions in ``COUNTED`` run so often that a span would
dominate their cost, so they are only counted and their time stays in
the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (defining module, function, modules that look the function up by name)
SPANNED = [
    ("cli", "cmd_ingest", ["cli"]),
    ("cli", "cmd_calibrate", ["cli"]),
    ("cli", "cmd_detect", ["cli"]),
    ("cli", "cmd_sweep", ["cli"]),
    ("dataio", "read_raw_samples", ["dataio"]),
    ("dataio", "read_met", ["dataio"]),
    ("dataio", "read_passes", ["dataio"]),
    ("dataio", "experiments_from_passes", ["dataio"]),
    ("dataio", "write_passes_csv", ["dataio"]),
    ("dataio", "write_pass_reports_csv", ["dataio"]),
    ("dataio", "write_events_json", ["dataio"]),
    ("dataio", "write_report_csv", ["dataio"]),
    ("dataio", "atomic_write_text", ["dataio"]),
    ("transport", "ambient_baseline", ["cli"]),
    ("transport", "cross_plume_integrate", ["cli"]),
    ("transport", "build_forward_model", ["cli", "metrics"]),
    ("inference", "likelihood_vector", ["detector", "bocd"]),
    ("inference", "bayes_update_from_likelihood", ["detector", "bocd"]),
    ("inference", "posterior_mode", ["detector", "cli"]),
    ("inference", "posterior_mean_std", ["detector", "cli"]),
    ("inference", "estimate_sigma_e", ["cli"]),
    ("bocd", "bocd_step", ["detector"]),
    ("detector", "detect_series", ["cli", "metrics"]),
    ("synthesis", "synthesize_batch", ["cli", "metrics"]),
    ("synthesis", "signal_stats", ["cli"]),
    ("metrics", "evaluate_cell", ["cli"]),
    ("metrics", "bootstrap_ci", ["metrics"]),
    ("metrics", "classify_outcome", ["metrics"]),
]
COUNTED = [("transport", "ppm_to_mass_concentration", ["cli"])]

# Incoming run length k of a bocd_step call -> bucket label; a bucket
# spans the geometric midpoints between neighbouring labels.
STEP_BUCKETS = [(3, "k1"), (19, "k14"), (55, "k28"), (223, "k112"), (None, "k448")]

PER_LAYER = [
    ("bocd.bocd_step.calls", "count"),
    ("bocd.bocd_step.self_s", "s"),
    *[(f"bocd.step_us.{label}", "us") for _, label in STEP_BUCKETS],
    ("bocd.live_ratio", "ratio"),
    ("bocd.max_run_length", "count"),
    ("inference.likelihood_vector.self_s", "s"),
    ("inference.bayes_update_from_likelihood.self_s", "s"),
    ("inference.posterior_summary.self_s", "s"),
    ("inference.estimate_sigma_e.self_s", "s"),
    ("detector.detect_series.calls", "count"),
    ("detector.detect_series.self_s", "s"),
    ("detector.alarms", "count"),
    ("detector.post_alarm_pass_ratio", "ratio"),
    ("synthesis.synthesize_batch.self_s", "s"),
    ("synthesis.instances", "count"),
    ("metrics.evaluate_cell.self_s", "s"),
    ("metrics.bootstrap_ci.calls", "count"),
    ("metrics.bootstrap_ci.self_s", "s"),
    ("metrics.classify_outcome.self_s", "s"),
    ("dataio.read_raw_samples.self_s", "s"),
    ("dataio.read_raw_samples.rows", "count"),
    ("dataio.read_passes.self_s", "s"),
    ("dataio.write_passes_csv.self_s", "s"),
    ("dataio.write_pass_reports_csv.self_s", "s"),
    ("dataio.write_report_csv.self_s", "s"),
    ("dataio.atomic_write_text.calls", "count"),
    ("dataio.atomic_write_text.bytes", "bytes"),
    ("transport.ppm_to_mass_concentration.calls", "count"),
    ("transport.cross_plume_integrate.self_s", "s"),
    ("transport.ambient_baseline.self_s", "s"),
    ("cli.cmd_detect.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.cmd_ingest.self_s", "s"),
    ("cli.cmd_calibrate.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _step_bucket(k: int) -> str:
    return next(label for upper, label in STEP_BUCKETS if upper is None or k <= upper)


def _count_bocd_step(counts, args, kwargs, result, seconds) -> None:
    k = _arg(args, kwargs, 0, "state").k
    counts["step_us"][_step_bucket(k)].append(seconds * 1e6)
    live = np.flatnonzero(result.weights)
    counts["live"] += live.size
    counts["slots"] += result.weights.size
    counts["max_run_length"] = max(counts["max_run_length"], int(live[-1]))


def _count_detect_series(counts, args, kwargs, result, seconds) -> None:
    n = len(_arg(args, kwargs, 0, "cys"))
    events = result[1]
    counts["detector_passes"] += n
    counts["alarms"] += len(events)
    if events:
        indices = _arg(args, kwargs, 3, "pass_indices")
        if indices is None:
            indices = range(1, n + 1)
        first = min(e.pass_index for e in events)
        counts["post_alarm_passes"] += sum(1 for i in indices if i > first)


def _count_synthesize_batch(counts, args, kwargs, result, seconds) -> None:
    counts["instances"] += len(result)


def _count_read_raw_samples(counts, args, kwargs, result, seconds) -> None:
    counts["raw_rows"] += sum(len(s) for passes in result.values() for s in passes.values())


def _count_atomic_write_text(counts, args, kwargs, result, seconds) -> None:
    counts["write_bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


HOOKS = {
    "bocd.bocd_step": _count_bocd_step,
    "detector.detect_series": _count_detect_series,
    "synthesis.synthesize_batch": _count_synthesize_batch,
    "dataio.read_raw_samples": _count_read_raw_samples,
    "dataio.atomic_write_text": _count_atomic_write_text,
}


def _module(name: str):
    return importlib.import_module(f"plumecpd.{name}")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[int, defaultdict] = {}
        self._first_span: dict[int, int] = {}
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._current: defaultdict | None = None

    def _span_wrapper(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self._op_id, span_id, parent, name, start, end)
            if hook is not None:
                hook(self._current, args, kwargs, result, end - start)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def _installed(self):
        targets = [(spec, False) for spec in SPANNED] + [(spec, True) for spec in COUNTED]
        restore = []
        try:
            for (mod, fn, sites), count_only in targets:
                original = getattr(_module(mod), fn, None)
                if original is None:
                    continue
                name = f"{mod}.{fn}"
                wrapper = (
                    self._count_wrapper(name, original)
                    if count_only
                    else self._span_wrapper(name, original, HOOKS.get(name))
                )
                for site in map(_module, sites):
                    if getattr(site, fn, None) is original:
                        setattr(site, fn, wrapper)
                        restore.append((site, fn, original))
            yield
        finally:
            for site, fn, original in reversed(restore):
                setattr(site, fn, original)

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: a root span named ``op`` over the layers' spans."""
        self._op_id = op_id
        self._current = self.counts[op_id] = defaultdict(int)
        self._current["step_us"] = defaultdict(list)
        root = self._first_span[op_id] = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        start = perf_counter()
        try:
            with self._installed():
                yield
        finally:
            self._stack.pop()
            self.spans[root] = (op_id, root, None, "op", start, perf_counter())
            self._op_id = self._current = None

    def layer_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced op (all but trace.overhead_ratio)."""
        first = self._first_span[op_id]
        spans = [s for s in self.spans[first:] if s[0] == op_id]
        children = defaultdict(list)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for _, span_id, _, name, start, end in spans:
            self_s[name] += (end - start) - _covered(children[span_id])
            calls[name] += 1
        c = self.counts[op_id]
        step_us = c["step_us"]
        metrics = {
            "bocd.live_ratio": c["live"] / c["slots"] if c["slots"] else 0.0,
            "bocd.max_run_length": c["max_run_length"],
            "inference.posterior_summary.self_s": self_s["inference.posterior_mode"]
            + self_s["inference.posterior_mean_std"],
            "detector.alarms": c["alarms"],
            "detector.post_alarm_pass_ratio": (
                c["post_alarm_passes"] / c["detector_passes"] if c["detector_passes"] else 0.0
            ),
            "synthesis.instances": c["instances"],
            "dataio.read_raw_samples.rows": c["raw_rows"],
            "dataio.atomic_write_text.bytes": c["write_bytes"],
            "transport.ppm_to_mass_concentration.calls": c[
                "transport.ppm_to_mass_concentration"
            ],
        }
        for _, label in STEP_BUCKETS:
            samples = step_us.get(label)
            # 0 marks a bucket no step fell into on this workload.
            metrics[f"bocd.step_us.{label}"] = statistics.median(samples) if samples else 0.0
        for name, _ in PER_LAYER:
            if name in metrics or name == "trace.overhead_ratio":
                continue
            span_name, kind = name.rsplit(".", 1)
            metrics[name] = calls[span_name] if kind == "calls" else self_s[span_name]
        return metrics

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: op, span id, parent id, name, start, end."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
