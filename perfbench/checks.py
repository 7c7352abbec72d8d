"""Correctness checks on the program's outputs, run outside the timed windows.

Each check returns True when the output is right.  The references are brute
force: a full cosine ranking for retrieval, and explicit averages of ordered
`compose_caso` compositions for the order-free methods.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from ssmcompose import compose, store

RTOL = 1e-9


class Retrieval:
    """Brute-force cosine ranking over `embed_text` of every stored document."""

    def __init__(self, ids: Sequence[str], documents: Sequence) -> None:
        self.ids = list(ids)
        self.vectors = [store.embed_text(doc).v for doc in documents]
        self.matrix = np.stack(self.vectors)

    def top_k(self, query_tokens, k: int) -> list[tuple[str, float]]:
        q = store.embed_text(query_tokens).v
        approx = self.matrix @ q
        k = min(k, len(self.ids))
        kth = np.partition(approx, -k)[-k]
        # Re-score the near-ties one dot product at a time, as a per-entry
        # scan does, so equal scores compare exactly and ids break the tie.
        near = np.flatnonzero(approx >= kth - 1e-9)
        exact = sorted((-float(np.dot(q, self.vectors[i])), self.ids[i]) for i in near)
        return [(cid, -neg) for neg, cid in exact[:k]]


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want))) <= RTOL * scale


def same_state(got: compose.ComposedState, want: compose.ComposedState) -> bool:
    return all(_close(a, b) for a, b in zip(got.x, want.x)) and all(
        _close(a, b) for a, b in zip(got.conv_tail, want.conv_tail)
    )


def _mean_caso(orderings) -> compose.ComposedState:
    states = [compose.compose_caso(list(o)) for o in orderings]
    return compose.ComposedState(
        tuple(np.mean([s.x[i] for s in states], axis=0) for i in range(states[0].num_layers)),
        tuple(np.mean([s.conv_tail[i] for s in states], axis=0) for i in range(states[0].num_layers)),
        (),
        "mean_caso",
    )


def picaso_r_ok(contexts: Sequence, composed: compose.ComposedState) -> bool:
    """picaso_r equals the mean of caso over the n rotations."""
    n = len(contexts)
    rotations = [list(contexts[r:]) + list(contexts[:r]) for r in range(n)]
    return same_state(composed, _mean_caso(rotations))


def picaso_s_ok(contexts: Sequence, composed: compose.ComposedState, rng: np.random.Generator) -> bool:
    """picaso_s is invariant under a shuffle of its contexts; at n <= 5 it also
    equals the mean of caso over all n! orderings."""
    shuffled = [contexts[int(i)] for i in rng.permutation(len(contexts))]
    ok = same_state(composed, compose.compose_picaso_s(shuffled))
    if len(contexts) <= 5:
        ok = ok and same_state(composed, _mean_caso(itertools.permutations(contexts)))
    return ok


def loss_ok(loss: float) -> bool:
    return math.isfinite(loss)
