"""Composition cost measurement: wall time, instrumented op counts, slopes.

Costs are measured on synthetic context states (seeded random states and
decays) so the numbers isolate composition arithmetic from model scans.  The
headline quantities are log-log slopes of the instrumented operation counts of
the two weight kernels versus the number of contexts: the cyclic kernel is
linear, the symmetric kernel cubic.  piconcat_r additionally reports model
calls, which equal the number of contexts by construction; the state-mixing
methods perform zero model calls.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .compose import METHODS, OP_COUNTER, compose_piconcat_r, compose_states, mixing_weights
from .errors import InvalidInputError
from .model import FORWARD_CALLS, ContextState, TokenSequence, ToyModelConfig, init_params

BENCH_CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchRow:
    target: str
    n: int
    wall_seconds: float
    ops: int
    model_calls: int


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    slopes: dict[str, float] = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("schema_version,target,n,wall_seconds,ops,model_calls\n")
        for r in self.rows:
            buf.write(
                f"{BENCH_CSV_SCHEMA_VERSION},{r.target},{r.n},"
                f"{r.wall_seconds:.6g},{r.ops},{r.model_calls}\n"
            )
        return buf.getvalue()


def synthetic_contexts(
    n: int,
    state_dim: int,
    num_layers: int,
    rng: np.random.Generator,
    embed_dim: int = 4,
    conv_width: int = 4,
    decay_range: tuple[float, float] = (0.9, 0.999),
) -> list[ContextState]:
    """Random composable states.  The op counts of every weight kernel do not
    depend on the decay values, so the decay range does not steer the cost."""
    out = []
    for i in range(n):
        decays = tuple(
            rng.uniform(*decay_range, state_dim) for _ in range(num_layers)
        )
        out.append(
            ContextState(
                context_id=f"synth{i}",
                token_count=1,
                x_seg=tuple(rng.normal(size=state_dim) for _ in range(num_layers)),
                decay=decays,
                conv_tail=tuple(
                    rng.normal(size=(embed_dim, conv_width)) for _ in range(num_layers)
                ),
            )
        )
    return out


def loglog_slope(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def run_bench(
    n_list: Sequence[int] = (4, 8, 16, 32),
    state_dim: int = 16,
    num_layers: int = 1,
    repeats: int = 3,
    seed: int = 0,
) -> BenchReport:
    if any(n < 2 for n in n_list):
        raise InvalidInputError("bench requires n >= 2")
    rng = np.random.default_rng(seed)
    report = BenchReport()
    ops_by_target: dict[str, list[int]] = {}
    targets = {f"{name}_weights": partial(mixing_weights, name) for name in METHODS} | {
        name: partial(compose_states, name) for name in METHODS
    }

    for n in n_list:
        contexts = synthetic_contexts(n, state_dim, num_layers, rng)
        for target, fn in targets.items():
            OP_COUNTER.reset()
            FORWARD_CALLS.reset()
            fn(contexts)
            ops = OP_COUNTER.count
            calls = FORWARD_CALLS.count
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(contexts)
                best = min(best, time.perf_counter() - t0)
            report.rows.append(BenchRow(target, n, best, ops, calls))
            ops_by_target.setdefault(target, []).append(ops)

        cfg = ToyModelConfig(
            embed_dim=4, state_dim=state_dim, num_layers=num_layers, conv_width=4
        )
        params = init_params(cfg, seed=seed)
        seqs = [
            TokenSequence(rng.integers(0, 256, int(rng.integers(2, 6))))
            for _ in range(n)
        ]
        FORWARD_CALLS.reset()
        OP_COUNTER.reset()
        t0 = time.perf_counter()
        compose_piconcat_r(seqs, params)
        elapsed = time.perf_counter() - t0
        report.rows.append(
            BenchRow("piconcat_r", n, elapsed, OP_COUNTER.count, FORWARD_CALLS.count)
        )

    for target, ops in ops_by_target.items():
        report.slopes[target] = loglog_slope(list(n_list), ops)
    return report
