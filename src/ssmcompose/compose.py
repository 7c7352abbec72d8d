"""Composition of segment states into a single generation-ready state.

Given segments u_1 .. u_n with per-layer accumulated states x_k and diagonal
accumulated decays A_k, the ordered composition (matching what a single scan
over the concatenation would produce for one pure recurrence layer) is

    caso(x, A) = x_n + sum_{i<n} (A_n * ... * A_{i+1}) * x_i.

Averaging caso over a group of orderings gives an order-free state that is
still a per-channel linear combination sum_k W_k * x_k:

  * full symmetric group: W_k = (1/n) sum_{m=0}^{n-1} e_m(A_{-k}) / C(n-1, m),
    where e_m is the m-th elementary symmetric polynomial of the n-1 decays
    with A_k excluded (computed by dynamic programming, O(n^3) overall);
  * cyclic rotations only: W_k = (1/n) [1 + sum_{m=1}^{n-1} A_{k+m} ... A_{k+1}]
    (indices mod n), computed in O(n) per channel by one division-free reverse
    recurrence over the doubled decay sequence (see _cyclic_weights_1layer).

`soup` (plain averaging) and `piconcat_r` (rotation-averaged re-scans, n model
calls) are the baselines.  Conv windows are combined by plain averaging in
every method.

All functions here are pure; arithmetic is instrumented through OP_COUNTER so
asymptotic cost can be measured (see bench module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .model import (
    ContextState,
    LayerState,
    TokenSequence,
    ToyModelParams,
    encode_context,
)

#: Symmetric weights use float binomial coefficients; beyond this they are not
#: accurate enough for the tolerances this library promises.
MAX_SYMMETRIC_N = 64


class OpCounter:
    """Scalar-equivalent arithmetic counter (vector ops add their length)."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        self.count += int(k)

    def reset(self) -> None:
        self.count = 0


OP_COUNTER = OpCounter()


@dataclass(frozen=True)
class CompositionWeights:
    """Per-layer diagonal mixing weights, one (n, m) matrix per layer."""

    per_layer: tuple[np.ndarray, ...]
    method: str

    @property
    def n(self) -> int:
        return self.per_layer[0].shape[0]


@dataclass(frozen=True)
class ComposedState:
    """A composed initial state: per-layer state vectors + averaged conv tails."""

    x: tuple[np.ndarray, ...]
    conv_tail: tuple[np.ndarray, ...]
    provenance: tuple[str, ...]
    method: str

    @property
    def num_layers(self) -> int:
        return len(self.x)

    def to_layer_states(self) -> list[LayerState]:
        return [LayerState(x, w) for x, w in zip(self.x, self.conv_tail)]


def _validate(contexts: Sequence[ContextState]) -> tuple[int, int]:
    """Check non-emptiness and shape agreement; returns (num_layers, state_dim)."""
    if not contexts:
        raise InvalidInputError("need at least one context to compose")
    first = contexts[0]
    L = first.num_layers
    m = first.x_seg[0].shape[0]
    tail_shape = first.conv_tail[0].shape
    for c in contexts:
        if (
            c.num_layers != L
            or any(x.shape != (m,) for x in c.x_seg)
            or any(t.shape != tail_shape for t in c.conv_tail)
        ):
            raise InvalidInputError("contexts come from different model configurations")
    return L, m


def _mean_tails(contexts: Sequence[ContextState], layer: int) -> np.ndarray:
    stack = np.stack([c.conv_tail[layer] for c in contexts])
    OP_COUNTER.add(stack.size)
    return stack.mean(axis=0)


def _ids(contexts: Sequence[ContextState]) -> tuple[str, ...]:
    return tuple(c.context_id for c in contexts)


def compose_caso(contexts: Sequence[ContextState]) -> ComposedState:
    """Ordered composition: right-to-left running decay product, ascending sum."""
    L, m = _validate(contexts)
    n = len(contexts)
    xs, tails = [], []
    for layer in range(L):
        states = np.stack([c.x_seg[layer] for c in contexts])  # (n, m)
        decays = np.stack([c.decay[layer] for c in contexts])
        weights = np.ones((n, m))
        run = np.ones(m)
        for i in range(n - 2, -1, -1):
            run = run * decays[i + 1]
            weights[i] = run
        OP_COUNTER.add(2 * n * m)
        xs.append(np.sum(weights * states, axis=0))
        tails.append(_mean_tails(contexts, layer))
    return ComposedState(tuple(xs), tuple(tails), _ids(contexts), "caso")


def compose_soup(contexts: Sequence[ContextState]) -> ComposedState:
    """Plain averaging of states (and conv tails)."""
    L, _ = _validate(contexts)
    xs, tails = [], []
    for layer in range(L):
        states = np.stack([c.x_seg[layer] for c in contexts])
        OP_COUNTER.add(states.size)
        xs.append(states.mean(axis=0))
        tails.append(_mean_tails(contexts, layer))
    return ComposedState(tuple(xs), tuple(tails), _ids(contexts), "soup")


# ---------------------------------------------------------------------------
# Elementary symmetric polynomial kernels
# ---------------------------------------------------------------------------


def esp_all(decays: Sequence[np.ndarray], channels: int | None = None) -> np.ndarray:
    """ESP table of k variables: row m holds e_m, per channel; shape (k+1, channels).

    Built with the one-variable-at-a-time recurrence
    e_m(v_1..v_j) = v_j * e_{m-1}(v_1..v_{j-1}) + e_m(v_1..v_{j-1}).
    """
    k = len(decays)
    if channels is None:
        channels = int(np.asarray(decays[0]).shape[0]) if k else 1
    table = np.zeros((k + 1, channels))
    table[0] = 1.0
    for j, v in enumerate(decays):
        vv = np.asarray(v, dtype=np.float64)
        for deg in range(min(j + 1, k), 0, -1):
            table[deg] = table[deg] + vv * table[deg - 1]
        OP_COUNTER.add(2 * channels * min(j + 1, k))
    return table


def esp_merge(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Merge two ESP tables over disjoint variable sets.

    e_m(union) = sum_j e_{m-j}(left) e_j(right), with j clipped to the degrees
    both halves can supply.  Equivalent to polynomial multiplication of the
    generating functions prod (1 + v_i z).
    """
    left = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right = np.atleast_2d(np.asarray(right, dtype=np.float64))
    p, q = left.shape[0] - 1, right.shape[0] - 1
    channels = max(left.shape[1], right.shape[1])
    out = np.zeros((p + q + 1, channels))
    for m in range(p + q + 1):
        lo, hi = max(m - p, 0), min(m, q)
        for j in range(lo, hi + 1):
            out[m] += left[m - j] * right[j]
            OP_COUNTER.add(2 * channels)
    return out


def _binomial_row(n: int) -> np.ndarray:
    """C(n, 0..n) by multiplicative recurrence in float64."""
    row = np.empty(n + 1)
    row[0] = 1.0
    for i in range(n):
        row[i + 1] = row[i] * (n - i) / (i + 1)
    return row


def _symmetric_weights_1layer(decays: np.ndarray) -> np.ndarray:
    """Symmetric-group weights for one layer.  decays: (n, m) -> weights (n, m).

    Each context's weight excludes its own decay: n leave-one-out ESP tables,
    each by the O(n^2) recurrence, O(n^3) in total.
    """
    n, m = decays.shape
    if n > MAX_SYMMETRIC_N:
        raise InvalidInputError(f"symmetric weights support at most n={MAX_SYMMETRIC_N}")
    inv_binom = 1.0 / _binomial_row(n - 1)
    weights = np.empty((n, m))
    for k in range(n):
        table = esp_all([decays[j] for j in range(n) if j != k], channels=m)
        weights[k] = np.tensordot(inv_binom, table, axes=1) / n
        OP_COUNTER.add(2 * n * m)
    return weights


def _cyclic_weights_1layer(decays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-group weights for one layer in O(n) per channel.  decays: (n, m).

    Over the doubled sequence D = (A_0 .. A_{n-1}, A_0 .. A_{n-1}) the reverse
    recurrence h[2n-1] = 1, h[i] = 1 + D[i+1] * h[i+1] gives h[k] = sum over
    s < 2n-k of D[k+1] ... D[k+s].  Any n consecutive factors multiply to
    P = prod A, so the terms with s >= n are P * h[k+n] and the weights are
    W_k = (h[k] - P * h[k+n]) / n: no division by a decay, one path for every
    decay value.  Returns (weights (n, m), h (2n, m)); the trainer's adjoint
    reads h.
    """
    n, m = decays.shape
    doubled = np.concatenate([decays, decays], axis=0)
    h = np.empty((2 * n, m))
    h[-1] = 1.0
    for i in range(2 * n - 2, -1, -1):  # in place: halves the per-step overhead
        np.multiply(doubled[i + 1], h[i + 1], out=h[i])
        h[i] += 1.0
    total = np.prod(decays, axis=0)
    # One context is its own only rotation: weight exactly 1, not (1 + A) - A.
    weights = (h[:n] - total * h[n:]) / n if n > 1 else np.ones((1, m))
    OP_COUNTER.add((2 * (2 * n - 1) + n + 3 * n) * m)  # recurrence, P, weights
    return weights, h


def picaso_s_weights(contexts: Sequence[ContextState]) -> CompositionWeights:
    """Per-context diagonal weights averaging caso over every ordering."""
    L, _ = _validate(contexts)
    per_layer = []
    for layer in range(L):
        decays = np.stack([c.decay[layer] for c in contexts])
        per_layer.append(_symmetric_weights_1layer(decays))
    return CompositionWeights(tuple(per_layer), "picaso_s")


def picaso_r_weights(contexts: Sequence[ContextState]) -> CompositionWeights:
    """Per-context diagonal weights averaging caso over cyclic rotations."""
    L, _ = _validate(contexts)
    per_layer = []
    for layer in range(L):
        decays = np.stack([c.decay[layer] for c in contexts])
        if decays.min() <= 0.0:
            raise InvalidInputError("cyclic weights require strictly positive decays")
        per_layer.append(_cyclic_weights_1layer(decays)[0])
    return CompositionWeights(tuple(per_layer), "picaso_r")


def _weighted_compose(
    contexts: Sequence[ContextState], weights: CompositionWeights, method: str
) -> ComposedState:
    L, m = _validate(contexts)
    xs, tails = [], []
    for layer in range(L):
        states = np.stack([c.x_seg[layer] for c in contexts])
        OP_COUNTER.add(2 * states.size)
        xs.append(np.sum(weights.per_layer[layer] * states, axis=0))
        tails.append(_mean_tails(contexts, layer))
    return ComposedState(tuple(xs), tuple(tails), _ids(contexts), method)


def compose_picaso_s(contexts: Sequence[ContextState]) -> ComposedState:
    """Order-free composition over the full symmetric group."""
    return _weighted_compose(contexts, picaso_s_weights(contexts), "picaso_s")


def compose_picaso_r(contexts: Sequence[ContextState]) -> ComposedState:
    """Rotation-invariant composition over the cyclic group."""
    return _weighted_compose(contexts, picaso_r_weights(contexts), "picaso_r")


#: The methods that mix stored states with no model call, by name.
METHODS = {
    "caso": compose_caso,
    "soup": compose_soup,
    "picaso_r": compose_picaso_r,
    "picaso_s": compose_picaso_s,
}

#: The per-context weights behind the group-averaged methods.
WEIGHTS = {"picaso_r": picaso_r_weights, "picaso_s": picaso_s_weights}


def compose_piconcat_r(
    context_sequences: Sequence[TokenSequence], params: ToyModelParams
) -> ComposedState:
    """Average the states of the n cyclic rotations of the concatenated tokens.

    Unlike the other methods this re-scans tokens: exactly n model calls.
    """
    n = len(context_sequences)
    if n == 0:
        raise InvalidInputError("need at least one context sequence")
    if any(len(s) == 0 for s in context_sequences):
        raise InvalidInputError("context sequences must be non-empty")
    L = params.config.num_layers
    acc_x = [None] * L
    acc_tail = [None] * L
    for r in range(n):
        rotated = list(context_sequences[r:]) + list(context_sequences[:r])
        state = encode_context(TokenSequence.concat(rotated), params)
        for layer in range(L):
            x, tail = state.x_seg[layer], state.conv_tail[layer]
            acc_x[layer] = x if acc_x[layer] is None else acc_x[layer] + x
            acc_tail[layer] = tail if acc_tail[layer] is None else acc_tail[layer] + tail
            OP_COUNTER.add(x.size + tail.size)
    xs = tuple(a / n for a in acc_x)
    tails = tuple(a / n for a in acc_tail)
    return ComposedState(xs, tails, (), "piconcat_r")


def caso_distance_bound(a: ContextState, b: ContextState) -> list[tuple[float, float]]:
    """Order-sensitivity diagnostic, per layer.

    Returns (lhs, rhs) with lhs the squared distance between the two orderings
    of caso(a, b) and rhs = (||pa|| + ||pb||)^2, the squared triangle bound on
    it, where pa = (1 - A_b) x_a and pb = (1 - A_a) x_b are the decay-damped
    states.  The gap is pb - pa, so lhs = ||pa||^2 + ||pb||^2 - 2<pa, pb>
    <= rhs always, with equality when pa and pb point in opposite directions.
    Both vanish as decays approach identity.
    """
    if a.num_layers != b.num_layers or any(
        xa.shape != xb.shape for xa, xb in zip(a.x_seg, b.x_seg)
    ):
        raise InvalidInputError("contexts come from different model configurations")
    out = []
    for xa, xb, da, db in zip(a.x_seg, b.x_seg, a.decay, b.decay):
        diff = (db - 1.0) * xa + (1.0 - da) * xb
        lhs = float(np.dot(diff, diff))
        pa = (1.0 - db) * xa
        pb = (1.0 - da) * xb
        rhs = float((np.linalg.norm(pa) + np.linalg.norm(pb)) ** 2)
        out.append((lhs, rhs))
    return out
