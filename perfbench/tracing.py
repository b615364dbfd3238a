"""Spans, counts and self times for the benchmark's traced run.

Tracing lives entirely in the benchmark: ``traced`` swaps the public functions
of each dirout layer, at the module attributes their callers look up, for
thin wrappers that record one span per call, and puts the originals back on
exit. Wrappers pass arguments and results through untouched.

A span's self time is its duration minus the time covered by its direct
children, so the self times of all spans of one pass add up to the duration
of the root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

ROOT_SPAN = "bench.pass"


class Tracer:
    """In-memory span recorder for one caller (no threads)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def root_seconds(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _method(args, kwargs) -> str:
    # train(groups, method, ...)
    return str(kwargs["method"] if "method" in kwargs else args[1]).upper()


def _train_span(args, kwargs) -> str:
    return f"classify.train.{_method(args, kwargs)}_s"


def _predict_span(args, kwargs) -> str:
    # predict_batch(model, curves)
    model = kwargs["model"] if "model" in kwargs else args[0]
    return f"classify.predict.{model.method}_s"


def _csv_rows(args, kwargs, result) -> int:
    groups, _ = result
    return sum(g.n * g.grid.m for g in groups.values())


# (module under dirout, attribute, span name or function of (args, kwargs),
#  None or (count name, function of (args, kwargs, result)))
LAYERS = (
    ("experiment", "run_experiment", "experiment.self_s", None),
    ("experiment", "generate", "simulate.generate_s", ("simulate.curves", lambda a, k, r: r.n)),
    ("experiment", "derivative_dataset", "simulate.generate_s",
     ("simulate.curves", lambda a, k, r: r.n)),
    ("experiment", "train", _train_span, None),
    ("experiment", "predict_batch", _predict_span,
     ("classify.scored_curves", lambda a, k, r: len(r))),
    ("classify", "reference_frame", "outlyingness.frame_s",
     ("outlyingness.frame_calls", lambda a, k, r: 1)),
    ("classify", "summarize_values", "outlyingness.summarize_s",
     ("outlyingness.summarized_curves", lambda a, k, r: r.vo.shape[0])),
    ("classify", "mcd_fit", "robust.mcd_s", ("robust.mcd_fits", lambda a, k, r: 1)),
    ("outlyingness", "geometric_medians_batch", "pointwise.geomedian_s",
     ("pointwise.geomedian_calls", lambda a, k, r: 1)),
    ("robust", "c_step", "robust.c_step_s", ("robust.c_steps", lambda a, k, r: 1)),
    ("simulate", "derivative_augment", "curves.derivative_s", None),
    ("cli", "main", "cli.self_s", None),
    ("cli", "read_groups_csv", "curves.read_csv_s", ("curves.csv_rows", _csv_rows)),
    ("cli", "train", _train_span, None),
    ("cli", "predict_batch", _predict_span,
     ("classify.scored_curves", lambda a, k, r: len(r))),
)


def _wrap(tracer: Tracer, fn, name, counter):
    span_name = name if callable(name) else (lambda a, k: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(span_name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            tracer.count(counter[0], counter[1](args, kwargs, result))
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer, layers=LAYERS):
    """Install span-recording wrappers on ``layers``; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, name, counter in layers:
            module = importlib.import_module(f"dirout.{mod_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
