"""In-memory spans around the package's public calls, for traced runs.

Wrapping happens in the benchmark process only; nothing under src/ changes.
A wrapped function is replaced in every ssmcompose module namespace that holds
it, and a wrapped method on its class.  Package code looks those names up at
call time, so a span nests inside its caller:
store.insert -> model.encode_context -> model.layer_scan.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np
from ssmcompose import compose, corpus, model, store, trainer


class Span:
    __slots__ = ("name", "phase", "request", "parent", "start", "end", "count")

    def __init__(self, name: str, phase: str, request: int | None, parent: int):
        self.name = name
        self.phase = phase
        self.request = request
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.count: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans: name, start, end, parent span, request id and phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.request: int | None = None
        self.scores = 0  # similarity scores computed, while scores_counted
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, self.phase, self.request, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """A root span around one operation of the benchmark itself."""
        self.request = request
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)
            self.request = None

    def wrap(
        self,
        fn: Callable,
        name: str,
        size: Callable | None = None,
        delta: Callable[[], int] | None = None,
    ) -> Callable:
        """`fn` recording a span; `size(args)` or the change in `delta()` is its count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            before = delta() if delta else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if size:
                    span.count = size(args)
                elif delta:
                    span.count = delta() - before
                tracer._finish(span)

        return traced

    def write(self, path: str) -> None:
        rows = [
            [s.name, s.phase, s.request, s.parent, s.start, s.end, s.count] for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(
                {"columns": ["name", "phase", "request", "parent", "start", "end", "count"], "spans": rows},
                f,
            )


class _ScoringNumpy:
    """numpy as seen by the store module, adding to `tracer.scores` the
    similarity scores its `dot` calls compute: one per stored vector a query is
    compared with.  Scoring by other means bypasses the count and fails the
    run."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, *args, **kwargs):
        out = np.dot(*args, **kwargs)
        self._tracer.scores += int(np.size(out))
        return out


@contextmanager
def scores_counted(tracer: Tracer):
    """Count the store's similarity scores for the duration of the block.

    The count costs a Python call per score, so it stays out of timed phases.
    """
    original = store.np
    store.np = _ScoringNumpy(tracer)
    try:
        yield
    finally:
        store.np = original


def _package_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "ssmcompose" or n.startswith("ssmcompose.")]


#: Every span a traced run must record; one that records no call fails the run.
REQUIRED_SPANS = (
    "store.query",
    "store.embed_text",
    "store.load_states",
    "store.insert",
    "store.save",
    "store.open",
    "model.encode_context",
    "model.checksum",
    "model.layer_scan",
    "model.continuation_loss",
    "compose.picaso_r",
    "compose.picaso_s",
    "trainer.grad_bptc",
    "trainer.sgd_step",
    "corpus.lm_examples",
    "corpus.composition_examples",
)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's public calls for the duration of the block."""
    functions = [
        (store.embed_text, "store.embed_text", None, None),
        (model.encode_context, "model.encode_context", None, None),
        (model.layer_scan, "model.layer_scan", lambda a: a[0].shape[0], None),
        (model.continuation_loss, "model.continuation_loss", None, None),
        (compose.compose_picaso_r, "compose.picaso_r", None, lambda: compose.OP_COUNTER.count),
        (compose.compose_picaso_s, "compose.picaso_s", None, lambda: compose.OP_COUNTER.count),
        (trainer.grad_bptc, "trainer.grad_bptc", lambda a: len(a[0].contexts), None),
        (trainer.sgd_step, "trainer.sgd_step", None, None),
        (corpus.lm_examples, "corpus.lm_examples", None, None),
        (corpus.composition_examples, "corpus.composition_examples", None, None),
    ]
    # The trainer scans with its own copy of the recurrence; its spans count
    # the scans a gradient step makes.
    if hasattr(trainer, "_scan_forward"):
        functions.append((trainer._scan_forward, "trainer.scan", None, None))
    methods = [
        (store.StateStore, "insert", "store.insert", None),
        (store.StateStore, "query", "store.query", lambda: tracer.scores),
        (store.StateStore, "load_states", "store.load_states", None),
        (store.StateStore, "save", "store.save", None),
        (store.StateStore, "open", "store.open", None),
        (model.ToyModelParams, "checksum", "model.checksum", None),
    ]
    restore: list[tuple[object, str, object]] = []
    try:
        for fn, name, size, delta in functions:
            traced = tracer.wrap(fn, name, size, delta)
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attr, value))
                        setattr(module, attr, traced)
        for cls, attr, name, delta in methods:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(original.__func__, name, None, delta)))
            else:
                setattr(cls, attr, tracer.wrap(original, name, None, delta))
        yield
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def roots(spans: list[Span]) -> list[int]:
    """Index of the outermost span that encloses each span."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out
