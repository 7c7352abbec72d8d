"""The benchmark's workloads: set-up, one closed-loop client, checks, metrics.

Every workload builds its store the way the CLI does (StateStore.insert, save,
then serve from what StateStore.open returns) from seeded fact documents, with
the model init_params(pipeline.REFERENCE_CONFIG, seed).  Its decays are the
ones a model encodes, so compose takes the path real states take.  One client
issues one operation at a time and waits for its reply, alternating two kinds:

  serve  request = store.query(k) -> load_states in ascending relevance ->
         compose_picaso_r or compose_picaso_s -> model.continuation_loss
  train  step = one SGD step of trainer.train(objective="bptc"): a pretraining
         step on corpus.lm_examples, then a fine-tuning step on
         corpus.composition_examples, and so on.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

import numpy as np
from ssmcompose import compose, corpus, model, pipeline, store, trainer
from ssmcompose.errors import SSMComposeError, TrainingDivergedError

import checks
import facts
import spans


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "serve" or "train"
    docs: int
    k: int  # top-k of serve requests, also in a traced train run's serve pass
    rounds: int  # set-ups per run, each followed by its share of the loop


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve_big_store", "serve", docs=10_000, k=5, rounds=3),
        Workload("serve_many_contexts", "serve", docs=256, k=32, rounds=10),
        Workload("train", "train", docs=256, k=5, rounds=10),
    )
}

#: The two alternating operation kinds of each path, reported as op_a and op_b.
KINDS = {"serve": ("picaso_r", "picaso_s"), "train": ("pretrain", "finetune")}

#: Operations per kind a run needs so that ten samples lie beyond its p95.
MIN_SAMPLES = 200
#: How long a run may go on past its seconds to reach MIN_SAMPLES.
EXTENSION_S = 40.0
#: The rate of the pipeline's last pretraining stage.  Its first-stage rate,
#: 0.5, diverges within a few hundred steps from some seeds' init params.
PRETRAIN_LR = pipeline.PRETRAIN_SCHEDULE[-1][1]
FINETUNE_LR = pipeline.FINETUNE_LR

#: A traced run ends with a short pass over the path its workload does not
#: load, so that every per-layer metric is measured on every workload.
COVERAGE_OPS = 16  # per kind
COVERAGE_DOCS = 32  # facts whose examples the train pass of a serve workload uses
#: Served queries replayed, untimed, to count the entries a query scores.
COUNTED_QUERIES = 16

#: Printed with the end-to-end metrics but not reported as such.  This
#: machine's speed swings between fast and slow spells lasting seconds to
#: minutes, and these move with the share of a run spent in slow spells: over
#: ten seeds their quartile spread reached 19-23% of the median (the rates,
#: store_open_s) and 27% (the p50s), against 0.25 for the largest bound a
#: metric may have.  The p95 sits at the slow spells' level and spread 13% or
#: less.
PRINTED_ONLY = (
    "ops_per_s",
    "op_a_per_s",
    "op_a_p50_ms",
    "op_b_per_s",
    "op_b_p50_ms",
    "ingest_docs_per_s",
    "store_open_s",
)


@dataclass
class Setup:
    items: list
    params: model.ToyModelParams
    store: store.StateStore
    gold: list[str]  # context id of each item's own document
    file_bytes: int
    seconds: dict[str, float]
    examples: dict[str, list] = field(default_factory=dict)


def train_examples(items, st, seed: int) -> dict[str, list]:
    return {
        "pretrain": corpus.lm_examples(items, seed=seed),
        "finetune": corpus.composition_examples(items, st, seed=seed),
    }


def set_up(wl: Workload, seed: int, workdir: str) -> Setup:
    """Input generation plus the program's set-up work, timed per stage."""
    t0 = time.perf_counter()
    items = facts.fact_documents(seed, wl.docs)
    params = model.init_params(pipeline.REFERENCE_CONFIG, seed=seed)
    t1 = time.perf_counter()
    builder = store.StateStore.create(params)
    gold = [builder.insert(it.context_tokens, params) for it in items]
    t2 = time.perf_counter()
    path = os.path.join(workdir, f"{wl.name}.ssdb")
    builder.save(path)
    t3 = time.perf_counter()
    del builder
    opened = store.StateStore.open(path)
    t4 = time.perf_counter()
    examples = train_examples(items, opened, seed) if wl.path == "train" else {}
    t5 = time.perf_counter()
    seconds = {"total": t5 - t0, "insert": t2 - t1, "save": t3 - t2, "open": t4 - t3}
    return Setup(items, params, opened, gold, os.path.getsize(path), seconds, examples)


def setup_ok(wl: Workload, su: Setup) -> bool:
    return len(su.store) == wl.docs and len(set(su.gold)) == wl.docs and su.file_bytes > 0


@dataclass
class Op:
    kind: str
    seconds: float
    loss: float
    item: int = -1  # serve: index of the requested fact
    hits: list | None = None
    contexts: list | None = None
    composed: compose.ComposedState | None = None
    forward_calls: int = 0
    error: str = ""
    ok: bool = False


def _untraced(name, request=None):
    return nullcontext()


def closed_loop(operate: Callable[[int, str], Op], kinds, ops: list[Op], seconds: float, min_samples: int = 0, max_ops: int | None = None) -> float:
    """One client: the next operation starts when the previous one returns.

    Appends to `ops` for `seconds`, then on until every kind has `min_samples`
    operations in `ops`, for at most EXTENSION_S more; `max_ops` instead fixes
    how many to add, for tests.  Kinds alternate strictly.  Returns the time
    spent.
    """
    counts = {kind: sum(op.kind == kind for op in ops) for kind in kinds}
    added = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if max_ops is not None:
            if added >= max_ops:
                break
        elif elapsed >= seconds and (
            min(counts.values()) >= min_samples or elapsed >= seconds + EXTENSION_S
        ):
            break
        kind = kinds[len(ops) % len(kinds)]
        ops.append(operate(len(ops), kind))
        counts[kind] += 1
        added += 1
    return time.perf_counter() - start


def serve_operation(su: Setup, k: int, rng: np.random.Generator, tracer: spans.Tracer | None):
    span = tracer.span if tracer else _untraced

    def operate(i: int, method: str) -> Op:
        item = int(rng.integers(len(su.items)))
        query, continuation = su.items[item].query_tokens, su.items[item].continuation_tokens
        compose_fn = getattr(compose, f"compose_{method}")
        try:
            with span(f"request.{method}", i):
                calls = model.FORWARD_CALLS.count
                t0 = time.perf_counter()
                hits = su.store.query(query, k)
                contexts = su.store.load_states([cid for cid, _ in reversed(hits)])
                composed = compose_fn(contexts)
                loss = model.continuation_loss(
                    query, continuation, composed.to_layer_states(), su.params
                )
                seconds = time.perf_counter() - t0
                calls = model.FORWARD_CALLS.count - calls
        except SSMComposeError as exc:
            return Op(method, math.nan, math.nan, item, error=repr(exc))
        return Op(method, seconds, loss, item, hits, contexts, composed, calls)

    return operate


def _step_by_hand(dataset, params, lr: float, seed: int):
    """One step of trainer.train, made through the public grad_bptc/sgd_step.

    train binds grad_bptc through a dict that a wrapper cannot reach, so a
    traced run makes the same calls itself, in the same seeded order.
    """
    example = dataset[int(np.random.default_rng(seed).integers(len(dataset)))]
    loss, grads = trainer.grad_bptc(example, params)
    if not np.isfinite(loss):
        raise TrainingDivergedError(0)
    return loss, trainer.sgd_step(params, grads, lr)


def train_operation(examples: dict, current: dict, rng: np.random.Generator, tracer: spans.Tracer | None):
    """Steps that advance `current`, the parameters of each kind, in place."""
    rates = {"pretrain": PRETRAIN_LR, "finetune": FINETUNE_LR}
    span = tracer.span if tracer else _untraced

    def operate(i: int, kind: str) -> Op:
        step_seed = int(rng.integers(2**31))
        try:
            with span(f"step.{kind}", i):
                t0 = time.perf_counter()
                if tracer is None:
                    result = trainer.train(
                        examples[kind], current[kind], steps=1, lr=rates[kind],
                        objective="bptc", seed=step_seed,
                    )
                    loss, updated = result.losses[0], result.params
                else:
                    loss, updated = _step_by_hand(examples[kind], current[kind], rates[kind], step_seed)
                seconds = time.perf_counter() - t0
        except SSMComposeError as exc:
            return Op(kind, math.nan, math.nan, error=repr(exc))
        current[kind] = updated
        return Op(kind, seconds, loss)

    return operate


def check_ops(ops: list[Op], items, k: int, reference: checks.Retrieval, rng: np.random.Generator) -> int:
    """Mark each operation ok or not; returns how many failed."""
    for op in ops:
        op.ok = not op.error and checks.loss_ok(op.loss)
        if op.ok and op.kind in KINDS["serve"]:
            op.ok = (
                op.forward_calls == 1
                and op.hits == reference.top_k(items[op.item].query_tokens, k)
                and (
                    checks.picaso_r_ok(op.contexts, op.composed)
                    if op.kind == "picaso_r"
                    else checks.picaso_s_ok(op.contexts, op.composed, rng)
                )
            )
    return sum(not op.ok for op in ops)


def _release(ops: list[Op]) -> None:
    """Drop what only the checks needed, so a later set-up can free its store."""
    for op in ops:
        op.contexts = op.composed = None


@dataclass
class Pass:
    """What one pass over a workload measured."""

    setups: list[dict]  # stage timings of each set-up
    ops: list[Op]
    loop_s: float
    failed: int
    last: Setup
    reference: checks.Retrieval


def run_pass(
    wl: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    rounds: int,
    reference: checks.Retrieval | None = None,
    tracer: spans.Tracer | None = None,
    max_ops: int | None = None,
) -> Pass:
    """`rounds` times: set up, then run the loop for its share of `seconds`.

    Spreading the set-ups over the run samples them across the machine's fast
    and slow spells, as the loop's operations are.  An untraced pass checks each
    round's operations after the round; a traced pass leaves that to the caller,
    so the checks' own calls make no spans.
    """
    ops_rng, check_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 3])
    timings, ops, loop_s, failed, current = [], [], 0.0, 0, None
    for r in range(rounds):
        su = operate = None  # free the previous round's store before building the next
        if tracer:
            tracer.phase = "setup"
        su = set_up(wl, seed, workdir)
        timings.append(su.seconds)
        failed += not setup_ok(wl, su)
        if reference is None:
            reference = checks.Retrieval(su.gold, [it.context_tokens for it in su.items])
        if tracer:
            tracer.phase = "loop"
        if wl.path == "serve":
            operate = serve_operation(su, wl.k, ops_rng, tracer)
        else:
            current = current or {"pretrain": su.params, "finetune": su.params}
            operate = train_operation(su.examples, current, ops_rng, tracer)
        first = len(ops)
        gc.collect()
        min_samples = MIN_SAMPLES if r == rounds - 1 else 0
        loop_s += closed_loop(operate, KINDS[wl.path], ops, seconds / rounds, min_samples, max_ops)
        if tracer is None:
            failed += check_ops(ops[first:], su.items, wl.k, reference, check_rng)
            _release(ops[first:])
    return Pass(timings, ops, loop_s, failed, su, reference)


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def end_to_end(wl: Workload, p: Pass, attempted: int, failed: int):
    """name -> (value, unit, sample count)."""
    a, b = KINDS[wl.path]
    lat = {kind: [op.seconds for op in p.ops if op.ok and op.kind == kind] for kind in (a, b)}
    if not (lat[a] and lat[b]):
        raise RuntimeError(f"{wl.name}: no successful {a} or {b} operation to time")
    n = len(p.setups)
    out = {
        "setup_s": (median(s["total"] for s in p.setups), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_share": (1 - failed / attempted, "share", attempted),
        "ops_per_s": ((len(lat[a]) + len(lat[b])) / p.loop_s, "1/s", len(lat[a]) + len(lat[b])),
    }
    for tag, kind in (("a", a), ("b", b)):
        out[f"op_{tag}_per_s"] = (len(lat[kind]) / sum(lat[kind]), "1/s", len(lat[kind]))
        out[f"op_{tag}_p50_ms"] = (_percentile_ms(lat[kind], 50), "ms", len(lat[kind]))
        out[f"op_{tag}_p95_ms"] = (_percentile_ms(lat[kind], 95), "ms", len(lat[kind]))
    out["ingest_docs_per_s"] = (wl.docs * n / sum(s["insert"] for s in p.setups), "1/s", n)
    out["store_open_s"] = (sum(s["open"] for s in p.setups) / n, "s", n)
    out["store_bytes_per_entry"] = (p.last.file_bytes / wl.docs, "bytes", wl.docs)
    return out


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]]  # reported
    attempted: int
    failed: int
    printed: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # shown only
    notes: list[str] = field(default_factory=list)


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: str) -> Result:
    p = run_pass(wl, seed, seconds, workdir, wl.rounds)
    attempted = wl.rounds + len(p.ops)
    metrics = end_to_end(wl, p, attempted, p.failed)
    printed = {name: metrics.pop(name) for name in PRINTED_ONLY}
    return Result(metrics, attempted, p.failed, printed)


def run_traced(
    wl: Workload, seed: int, seconds: float, workdir: str, trace_path: str | None, max_ops: int | None = None
) -> Result:
    """An untraced pass, then the same pass traced, plus the coverage pass.

    The untraced pass gives the numbers the tracing overhead is taken against.
    """
    p = run_pass(wl, seed, seconds, workdir, 1, max_ops=max_ops)
    plain = end_to_end(wl, p, 1 + len(p.ops), p.failed)
    plain_losses = [op.loss for op in p.ops]
    failed, reference = p.failed, p.reference
    p = None

    tracer = spans.Tracer()
    with spans.installed(tracer):
        p = run_pass(wl, seed, seconds, workdir, 1, reference, tracer, max_ops)
        su, cover = p.last, []
        tracer.phase = "coverage"
        rng = np.random.default_rng([seed, 4])
        if wl.path == "serve":
            examples = train_examples(su.items[:COVERAGE_DOCS], su.store, seed)
            operate = train_operation(examples, {"pretrain": su.params, "finetune": su.params}, rng, tracer)
            closed_loop(operate, KINDS["train"], cover, 0, max_ops=2 * COVERAGE_OPS)
        else:
            operate = serve_operation(su, wl.k, rng, tracer)
            closed_loop(operate, KINDS["serve"], cover, 0, max_ops=2 * COVERAGE_OPS)
        tracer.phase = "count"
        with spans.scores_counted(tracer):
            for op in [op for op in p.ops + cover if op.hits][:COUNTED_QUERIES]:
                su.store.query(su.items[op.item].query_tokens, wl.k)
    failed += p.failed + check_ops(p.ops + cover, su.items, wl.k, reference, np.random.default_rng([seed, 3]))
    if wl.path == "train":
        # The hand-made steps must reproduce trainer.train's losses exactly.
        failed += sum(x != y for x, y in zip(plain_losses, (op.loss for op in p.ops)))
    attempted = 2 + len(plain_losses) + len(p.ops) + len(cover)
    traced = end_to_end(wl, p, attempted, failed)
    metrics = per_layer(wl, tracer, su, p.ops + cover, plain, traced)
    if trace_path:
        tracer.write(trace_path)
    notes = [f"{name}: untraced {plain[name][0]:.6g}  traced {traced[name][0]:.6g} {plain[name][1]}" for name in plain]
    cfg, n = pipeline.REFERENCE_CONFIG, wl.k
    direct = 2 * n * (n + 5) * cfg.state_dim + n * cfg.embed_dim * cfg.conv_width
    notes.append(
        f"compose.picaso_r.ops at k={n}: {metrics['compose.picaso_r.ops'][0]:.0f}; the O(n^2) direct "
        f"path with all {cfg.state_dim} channels on the fallback counts {direct}"
    )
    return Result(metrics, attempted, failed, notes=notes)


def _enclosing(i: int, all_spans: list[spans.Span], name: str) -> int:
    """Index of the innermost span named `name` that encloses span i, or -1."""
    i = all_spans[i].parent
    while i >= 0 and all_spans[i].name != name:
        i = all_spans[i].parent
    return i


PER_LAYER_TIMES = (
    ("store.query", "ms"),
    ("store.embed_text", "us"),
    ("store.load_states", "us"),
    ("store.insert", "us"),
    ("store.save", "s"),
    ("store.open", "s"),
    ("model.encode_context", "us"),
    ("model.checksum", "us"),
    ("model.layer_scan", "us"),
    ("model.continuation_loss", "us"),
    ("compose.picaso_r", "us"),
    ("compose.picaso_s", "us"),
    ("trainer.sgd_step", "us"),
    ("corpus.lm_examples", "s"),
    ("corpus.composition_examples", "s"),
)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer(wl: Workload, tracer: spans.Tracer, su: Setup, ops: list[Op], plain: dict, traced: dict):
    """Per-call medians, counts, self-time shares and the tracing overhead."""
    all_spans = tracer.spans
    named, counted = defaultdict(list), []
    for i, s in enumerate(all_spans):
        if s.phase != "count":
            named[s.name].append(i)
        elif s.name == "store.query":
            counted.append(i)
    missing = [name for name in spans.REQUIRED_SPANS if not named[name]]
    if missing:
        raise RuntimeError(f"traced run recorded no call of {', '.join(missing)}")

    def med(name: str, unit: str, which=None) -> tuple[float, str, int]:
        idx = named[name] if which is None else which
        return (median(all_spans[i].seconds for i in idx) * _SCALE[unit], unit, len(idx))

    def mean_count(idx: list[int]) -> tuple[float, str, int]:
        return (float(np.mean([all_spans[i].count for i in idx])), "count", len(idx))

    out = {f"{name}.{unit}": med(name, unit) for name, unit in PER_LAYER_TIMES}

    if not counted or min(all_spans[i].count for i in counted) < 1:
        raise RuntimeError("store.query scored no stored vector through the counted numpy calls")
    out["store.query.entries_scored"] = mean_count(counted)
    served = [op for op in ops if op.hits]
    out["store.query.top1_hit_share"] = (
        float(np.mean([op.hits[0][0] == su.gold[op.item] for op in served])), "share", len(served)
    )
    out["store.file_bytes"] = (float(su.file_bytes), "bytes", 1)
    in_insert = [i for i in named["model.checksum"] if _enclosing(i, all_spans, "store.insert") >= 0]
    out["model.checksum.calls_per_insert"] = (len(in_insert) / len(named["store.insert"]), "count", len(named["store.insert"]))
    out["model.layer_scan.tokens"] = mean_count(named["model.layer_scan"])
    out["model.forward_calls_per_request"] = (float(np.mean([op.forward_calls for op in served])), "count", len(served))
    out["compose.picaso_r.ops"] = mean_count(named["compose.picaso_r"])
    out["compose.picaso_s.ops"] = mean_count(named["compose.picaso_s"])

    grads = named["trainer.grad_bptc"]
    out["trainer.grad_bptc_no_ctx.ms"] = med("trainer.grad_bptc", "ms", [i for i in grads if all_spans[i].count == 0])
    out["trainer.grad_bptc_ctx.ms"] = med("trainer.grad_bptc", "ms", [i for i in grads if all_spans[i].count > 0])
    scans = defaultdict(int)
    for i in named["trainer.scan"] + named["model.layer_scan"]:
        scans[_enclosing(i, all_spans, "trainer.grad_bptc")] += 1
    finetune = [i for i in grads if _enclosing(i, all_spans, "step.finetune") >= 0]
    if any(scans[i] == 0 for i in grads):
        raise RuntimeError("a trainer.grad_bptc call made no scan under a traced span")
    out["trainer.context_scans_per_step"] = (float(np.mean([scans[i] - 1 for i in finetune])), "count", len(finetune))

    own = spans.self_seconds(all_spans)
    top = spans.roots(all_spans)
    for method in KINDS["serve"]:
        requests = set(named[f"request.{method}"])
        total = sum(all_spans[i].seconds for i in requests)
        by_layer = defaultdict(float)
        for i, root in enumerate(top):
            if root in requests:
                by_layer[all_spans[i].layer] += own[i]
        for layer in ("store", "model", "compose"):
            out[f"share.{method}.{layer}"] = (by_layer[layer] / total, "share", len(requests))

    for name in ("setup_s", "ops_per_s", "op_a_p50_ms", "op_b_p50_ms"):
        out[f"trace_overhead.{name}"] = (traced[name][0] - plain[name][0], plain[name][1], traced[name][2])
    return out
