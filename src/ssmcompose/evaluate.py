"""Retrieval + composition evaluation over a corpus, with cost accounting.

For each query the top-k contexts are retrieved from the store and turned into
an initial model state by each requested method; the score is the mean
nats/token of the true continuation.  The composition phase is timed and
instrumented separately from the query scan, so the "zero model calls for
state-composition methods" claim is measured, not assumed.

Orderings: retrieval returns most-relevant-first.  `concat` and `caso` place
more relevant contexts closer to the query (ascending relevance), which is the
favourable ordering; `caso_worst` reverses that.  `concat` starts from the
earliest segment's stored state and re-scans only the remaining segments.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compose import METHODS, OP_COUNTER, compose_caso, compose_piconcat_r
from .corpus import CorpusItem
from .errors import ConfigMismatchError, InvalidInputError
from .model import (
    FORWARD_CALLS,
    LayerState,
    TokenSequence,
    ToyModelParams,
    continuation_loss,
    forward,
    zero_state,
)
from .store import StateStore, model_fingerprint

METHOD_CHOICES = (
    "baseline",
    "concat",
    "soup",
    "caso",
    "caso_worst",
    "picaso_s",
    "picaso_r",
    "piconcat_r",
)

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EvalRow:
    method: str
    k: int
    mean_loss: float
    mean_compose_seconds: float
    model_calls_per_query: float
    ops_per_query: float
    num_queries: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(
            "schema_version,method,k,mean_loss,mean_compose_seconds,"
            "model_calls_per_query,ops_per_query,num_queries\n"
        )
        for r in self.rows:
            buf.write(
                f"{CSV_SCHEMA_VERSION},{r.method},{r.k},{r.mean_loss:.10g},"
                f"{r.mean_compose_seconds:.6g},{r.model_calls_per_query:.10g},"
                f"{r.ops_per_query:.10g},{r.num_queries}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": CSV_SCHEMA_VERSION,
                "rows": [vars(r) for r in self.rows],
            },
            sort_keys=True,
            indent=2,
        )


def compose_init_states(
    method: str,
    store: StateStore,
    ids_desc: Sequence[str],
    params: ToyModelParams,
) -> list[LayerState]:
    """Initial per-layer states for `method` given ids in descending relevance."""
    if method == "baseline" or not ids_desc:
        return zero_state(params.config)
    ids_asc = list(reversed(ids_desc))  # most relevant ends up closest to the query
    states_asc = store.load_states(ids_asc)
    if method == "concat":
        current = states_asc[0].to_layer_states()
        for cid in ids_asc[1:]:
            _, current = forward(store.entry(cid).tokens, current, params)
        return current
    if method in METHODS:
        return METHODS[method](states_asc).to_layer_states()
    if method == "caso_worst":
        return compose_caso(list(reversed(states_asc))).to_layer_states()
    if method == "piconcat_r":
        seqs = store.load_tokens(ids_asc)
        return compose_piconcat_r(seqs, params).to_layer_states()
    raise InvalidInputError(f"unknown method: {method}")


@dataclass
class EvalOutcome:
    report: EvalReport
    per_query_losses: dict[tuple[str, int], np.ndarray]


def evaluate_methods(
    store: StateStore,
    params: ToyModelParams,
    items: Sequence[CorpusItem],
    methods: Sequence[str] = METHOD_CHOICES,
    k_values: Sequence[int] = (5,),
    max_queries: int | None = None,
) -> EvalOutcome:
    """Loss + composition cost per (method, k) over the corpus items."""
    for m in methods:
        if m not in METHOD_CHOICES:
            raise InvalidInputError(f"unknown method: {m}")
    if store.fingerprint != model_fingerprint(params):
        raise ConfigMismatchError("store was built with a different model")
    use = list(items if max_queries is None else items[:max_queries])
    report = EvalReport()
    per_query: dict[tuple[str, int], np.ndarray] = {}
    for k in k_values:
        retrieved: list[list[str]] = []
        for it in use:
            hits = store.query(it.query_tokens, k=max(k, 1)) if k > 0 else []
            retrieved.append([cid for cid, _ in hits][:k])
        for method in methods:
            losses = np.empty(len(use))
            calls = 0
            ops = 0
            seconds = 0.0
            for qi, it in enumerate(use):
                calls_before = FORWARD_CALLS.count
                ops_before = OP_COUNTER.count
                t0 = time.perf_counter()
                init = compose_init_states(method, store, retrieved[qi], params)
                seconds += time.perf_counter() - t0
                calls += FORWARD_CALLS.count - calls_before
                ops += OP_COUNTER.count - ops_before
                losses[qi] = continuation_loss(
                    it.query_tokens, it.continuation_tokens, init, params
                )
            per_query[(method, k)] = losses
            report.rows.append(
                EvalRow(
                    method=method,
                    k=k,
                    mean_loss=float(losses.mean()),
                    mean_compose_seconds=seconds / len(use),
                    model_calls_per_query=calls / len(use),
                    ops_per_query=ops / len(use),
                    num_queries=len(use),
                )
            )
    return EvalOutcome(report, per_query)


def sign_test(a: np.ndarray, b: np.ndarray) -> tuple[int, int, float]:
    """One-sided paired sign test that a < b.

    Returns (wins, ties_excluded_n, p_value) with p = P[X >= wins] for
    X ~ Binomial(n, 1/2).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InvalidInputError("paired samples must have the same shape")
    wins = int(np.sum(a < b))
    losses = int(np.sum(a > b))
    n = wins + losses
    if n == 0:
        return 0, 0, 1.0
    p = sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n
    return wins, n, p
