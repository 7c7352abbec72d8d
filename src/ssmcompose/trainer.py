"""Fine-tuning objectives on the single-layer model, with exact hand gradients.

Two losses over (query, continuation, retrieved contexts):

  * bptc — cross-entropy of the continuation given the query, started from the
    cyclically-averaged composition of freshly scanned context states.
    Gradients flow through the mixing weights and through every context scan.
  * bp2c — same value, but the composed state is a constant: gradients stop at
    the composition, so only the query scan contributes.

Context scans are recomputed online from raw tokens each time (the stored
database states are a cache, not the differentiation target).  Every scan is
model.layer_scan; reverse-mode derivatives are written out by hand against its
arithmetic, so they can be checked coordinate by coordinate against central
finite differences (see gradient_check).  The adjoints of the state recurrence
and of the cyclic weights are the same affine recurrence run the other way, so
they call model._affine_scan too.  Restricted to num_layers == 1: the
multi-layer composition is itself an approximation, and these gradients are
meant to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compose import _cyclic_weights_1layer
from .errors import (
    InvalidInputError,
    NumericOverflowError,
    TrainingDivergedError,
    UnsupportedConfigError,
)
from .model import (
    ContextState,
    LayerState,
    ScanResult,
    TokenSequence,
    ToyModelParams,
    _affine_scan,
    _log_softmax,
    layer_scan,
)

MAX_CONTEXTS = 10


@dataclass(frozen=True)
class RetrievedContext:
    """A retrieved context: raw tokens plus (optionally) its pre-encoded state."""

    tokens: TokenSequence
    state: ContextState | None = None

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise InvalidInputError("retrieved contexts must be non-empty")


@dataclass(frozen=True)
class TrainExample:
    query: TokenSequence
    continuation: TokenSequence
    contexts: tuple[RetrievedContext, ...] = ()

    def __post_init__(self):
        if len(self.query) == 0:
            raise InvalidInputError("query must be non-empty")
        if len(self.continuation) == 0:
            raise InvalidInputError("continuation must be non-empty")
        if len(self.contexts) > MAX_CONTEXTS:
            raise InvalidInputError(f"at most {MAX_CONTEXTS} contexts per example")


@dataclass
class GradReport:
    loss: float
    max_rel_err: dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.max_rel_err.values())


@dataclass
class TrainResult:
    params: ToyModelParams
    losses: list[float] = field(default_factory=list)


def _require_single_layer(params: ToyModelParams) -> None:
    if params.config.num_layers != 1:
        raise UnsupportedConfigError("training objectives support single-layer models only")


def _zero_grads(params: ToyModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors()}


# ---------------------------------------------------------------------------
# Scans: model.layer_scan forward, its arithmetic mirrored by the manual backward
# ---------------------------------------------------------------------------


def _scan(
    tokens: np.ndarray, params: ToyModelParams, x0: np.ndarray, win0: np.ndarray
) -> ScanResult:
    # Inputs go positionally: tracing wrappers read the scan length from args[0].
    return layer_scan(
        params.embedding[tokens], LayerState(x0, win0), params.layers[0], params.config.decay_floor
    )


def _exclusive_products(values: np.ndarray) -> np.ndarray:
    """Row t holds d prod(values) / d values[t] = (prefix excl t) * (suffix excl t).

    No divisions, so exactly-zero rows stay harmless.
    """
    prefix = np.ones_like(values)
    suffix = np.ones_like(values)
    if values.shape[0] > 1:
        prefix[1:] = np.cumprod(values[:-1], axis=0)
        suffix[:-1] = np.cumprod(values[1:][::-1], axis=0)[::-1]
    return prefix * suffix


def _scan_backward(
    tokens: np.ndarray,
    x0: np.ndarray,
    scan: ScanResult,
    params: ToyModelParams,
    grads: dict[str, np.ndarray],
    d_xs: np.ndarray | None = None,
    d_u_extra: np.ndarray | None = None,
    d_emb_extra: np.ndarray | None = None,
    g_final: np.ndarray | None = None,
    g_decay: np.ndarray | None = None,
    g_window: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate parameter grads for one scan; returns (g_x0, g_win0).

    Seeds: d_xs per-step state grads, g_final on the last state, g_decay on the
    elementwise product of the gates, g_window on the final conv window.
    """
    lp = params.layers[0]
    T, m = scan.gates.shape
    w = lp.conv_kernel.shape[1]

    # The gradient reaching xs[t], which is d_drive[t], is the forward recurrence
    # run backwards in time from g_final: g[t] = gates[t+1] * g[t+1] + d_xs[t].
    carry = np.concatenate([np.ones((1, m)), scan.gates[:0:-1]])
    seeds = np.zeros((T, m)) if d_xs is None else d_xs[::-1]
    d_drive = _affine_scan(carry, seeds, np.zeros(m) if g_final is None else g_final)[::-1]
    d_gates = d_drive * np.concatenate([x0[None], scan.xs[:-1]])
    if g_decay is not None:
        d_gates += g_decay * _exclusive_products(scan.gates)
    g_x0 = d_drive[0] * scan.gates[0]

    dz = d_gates * scan.gates * (1.0 - scan.gates)
    grads["layer0.w_decay"] += dz.T @ scan.u
    grads["layer0.b_decay"] += dz.sum(axis=0)
    grads["layer0.w_in"] += d_drive.T @ scan.u

    d_u = dz @ lp.w_decay + d_drive @ lp.w_in
    if d_u_extra is not None:
        d_u = d_u + d_u_extra

    d_pad = np.zeros_like(scan.padded)
    for j in range(w):
        d_pad[j : j + T] += d_u * lp.conv_kernel[:, j]
        grads["layer0.conv_kernel"][:, j] += (d_u * scan.padded[j : j + T]).sum(axis=0)
    if g_window is not None:
        for c in range(w):
            d_pad[T - 1 + c] += g_window[:, c]

    g_win0 = np.zeros((params.config.embed_dim, w))
    if w > 1:
        g_win0[:, 1:] = d_pad[: w - 1].T
    d_emb = d_pad[w - 1 :]
    if d_emb_extra is not None:
        d_emb = d_emb + d_emb_extra
    np.add.at(grads["embedding"], tokens, d_emb)
    return g_x0, g_win0


# ---------------------------------------------------------------------------
# Adjoint of the cyclic mixing weights (forward: compose._cyclic_weights_1layer)
# ---------------------------------------------------------------------------


def _cyclic_mix_backward(
    decays: np.ndarray, h: np.ndarray, d_weights: np.ndarray
) -> np.ndarray:
    """Gradient of the cyclic weights w.r.t. the n decays, in O(n) per channel.

    Forward: h[i] = 1 + D[i+1] * h[i+1] over the doubled decays D, then
    W_k = (h[k] - P * h[k+n]) / n with P = prod A.  The adjoint seeds h[k] and
    h[k+n], runs the recurrence in the opposite direction, folds the gradient
    of D[j] and D[j+n] onto A_j, and adds the P term through prefix and suffix
    products.
    """
    n, m = decays.shape
    g = d_weights / n
    total = np.prod(decays, axis=0)
    g_h = np.concatenate([g, -total * g], axis=0)
    doubled = np.concatenate([decays, decays], axis=0)
    # acc[i]: total gradient reaching h[i], acc[i] = D[i] * acc[i-1] + g_h[i].
    acc = np.concatenate([g_h[:1], _affine_scan(doubled[1:-1], g_h[1:-1], g_h[0])])
    d_doubled = np.zeros((2 * n, m))
    d_doubled[1:] = acc * h[1:]
    g_total = -(g * h[n:]).sum(axis=0)
    return d_doubled[:n] + d_doubled[n:] + g_total * _exclusive_products(decays)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass
class _Composition:
    x_init: np.ndarray
    win_init: np.ndarray
    scans: list[ScanResult]  # one per context, in example order
    finals: np.ndarray | None  # (n, m)
    decays: np.ndarray | None  # clamped
    weights: np.ndarray | None
    h: np.ndarray | None  # cyclic recurrence sums, read by the adjoint


def _compose_init(example: TrainExample, params: ToyModelParams) -> _Composition:
    """Scan all contexts from zero and mix them with cyclic-average weights."""
    cfg = params.config
    m, d, w = cfg.state_dim, cfg.embed_dim, cfg.conv_width
    if not example.contexts:
        return _Composition(np.zeros(m), np.zeros((d, w)), [], None, None, None, None)
    scans = [
        _scan(rc.tokens.tokens, params, np.zeros(m), np.zeros((d, w)))
        for rc in example.contexts
    ]
    finals = np.stack([res.final.x for res in scans])
    decays = np.stack([res.seg_decay for res in scans])
    weights, h = _cyclic_weights_1layer(decays)
    x_init = np.sum(weights * finals, axis=0)
    tails = np.stack([res.final.conv_window for res in scans])
    return _Composition(x_init, tails.mean(axis=0), scans, finals, decays, weights, h)


def _query_loss(
    example: TrainExample,
    params: ToyModelParams,
    x_init: np.ndarray,
    win_init: np.ndarray,
    want_grad: bool,
) -> tuple[float, dict[str, np.ndarray] | None, np.ndarray | None, np.ndarray | None]:
    """Continuation loss from a given initial state; optionally its gradients.

    Returns (loss, grads, g_x_init, g_win_init).
    """
    lp = params.layers[0]
    m, d, w = params.config.state_dim, params.config.embed_dim, params.config.conv_width
    full = np.concatenate([example.query.tokens, example.continuation.tokens])
    scan = _scan(full, params, x_init, win_init)
    start = len(example.query) - 1
    count = len(example.continuation)
    sel = np.arange(start, start + count)
    targets = example.continuation.tokens

    emb = scan.padded[w - 1 :]  # the scan's inputs
    y = scan.xs[sel] @ lp.w_out.T + scan.u[sel] @ lp.passthrough.T + emb[sel]
    logp = _log_softmax(y @ params.head.T)
    loss = float(-logp[np.arange(count), targets].mean())
    if not want_grad:
        return loss, None, None, None

    grads = _zero_grads(params)
    d_logits = np.exp(logp)
    d_logits[np.arange(count), targets] -= 1.0
    d_logits /= count
    grads["head"] += d_logits.T @ y
    d_y = d_logits @ params.head

    grads["layer0.w_out"] += d_y.T @ scan.xs[sel]
    grads["layer0.passthrough"] += d_y.T @ scan.u[sel]
    T_full = full.size
    d_xs = np.zeros((T_full, m))
    d_xs[sel] = d_y @ lp.w_out
    d_u_extra = np.zeros((T_full, d))
    d_u_extra[sel] = d_y @ lp.passthrough
    d_emb_extra = np.zeros((T_full, d))
    d_emb_extra[sel] = d_y

    g_x_init, g_win_init = _scan_backward(
        full, x_init, scan, params, grads, d_xs=d_xs, d_u_extra=d_u_extra, d_emb_extra=d_emb_extra
    )
    return loss, grads, g_x_init, g_win_init


def _evaluate(
    example: TrainExample,
    params: ToyModelParams,
    through_composition: bool,
    want_grad: bool,
) -> tuple[float, dict[str, np.ndarray] | None]:
    _require_single_layer(params)
    comp = _compose_init(example, params)
    loss, grads, g_x_init, g_win_init = _query_loss(
        example, params, comp.x_init, comp.win_init, want_grad
    )
    if not want_grad:
        return loss, None

    if through_composition and comp.scans:
        n = len(comp.scans)
        d_weights = g_x_init * comp.finals  # (n, m)
        d_finals = g_x_init * comp.weights
        d_decays = _cyclic_mix_backward(comp.decays, comp.h, d_weights)
        # The clamp passes no gradient where the gate product fell below the floor.
        d_prods = d_decays * (comp.decays > params.config.decay_floor)
        g_tail = g_win_init / n
        zero = np.zeros(params.config.state_dim)
        for k, (rc, scan) in enumerate(zip(example.contexts, comp.scans)):
            _scan_backward(
                rc.tokens.tokens,
                zero,
                scan,
                params,
                grads,
                g_final=d_finals[k],
                g_decay=d_prods[k],
                g_window=g_tail,
            )
    return loss, grads


def loss_bptc(example: TrainExample, params: ToyModelParams) -> float:
    """Continuation loss from the composed state (value only)."""
    return _evaluate(example, params, through_composition=True, want_grad=False)[0]


def loss_bp2c(example: TrainExample, params: ToyModelParams) -> float:
    """Identical value to loss_bptc; the objectives differ only in gradients."""
    return _evaluate(example, params, through_composition=False, want_grad=False)[0]


def grad_bptc(example: TrainExample, params: ToyModelParams) -> tuple[float, dict[str, np.ndarray]]:
    loss, grads = _evaluate(example, params, through_composition=True, want_grad=True)
    return loss, grads


def grad_bp2c(example: TrainExample, params: ToyModelParams) -> tuple[float, dict[str, np.ndarray]]:
    loss, grads = _evaluate(example, params, through_composition=False, want_grad=True)
    return loss, grads


_OBJECTIVES = {
    "bptc": (loss_bptc, grad_bptc),
    "bp2c": (loss_bp2c, grad_bp2c),
}


def gradient_check(
    example: TrainExample,
    params: ToyModelParams,
    objective: str = "bptc",
    coords_per_tensor: int = 20,
    step: float = 1e-5,
    seed: int = 0,
) -> GradReport:
    """Analytic vs central finite-difference gradients at sampled coordinates.

    For bptc the finite differences run through the whole objective.  For bp2c
    the composed state is a stopped constant, so the matching oracle freezes it
    at the base parameters and differences only the query path.

    Relative error uses a 1e-6 denominator floor: central differences of an
    O(1) loss at step 1e-5 carry ~6e-11 absolute roundoff, so coordinates with
    smaller true gradients are compared absolutely at that scale.
    """
    _, grad_fn = _OBJECTIVES[objective]
    loss, grads = grad_fn(example, params)

    if objective == "bptc":
        def loss_at(p: ToyModelParams) -> float:
            return loss_bptc(example, p)
    else:
        frozen = _compose_init(example, params)

        def loss_at(p: ToyModelParams) -> float:
            return _query_loss(example, p, frozen.x_init, frozen.win_init, False)[0]

    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for name, arr in params.tensors():
        flat_size = arr.size
        k = min(coords_per_tensor, flat_size)
        coords = rng.choice(flat_size, size=k, replace=False)
        worst = 0.0
        for c in coords:
            bumped = arr.copy().reshape(-1)
            bumped[c] += step
            plus = loss_at(params.with_tensors({name: bumped.reshape(arr.shape)}))
            bumped[c] -= 2 * step
            minus = loss_at(params.with_tensors({name: bumped.reshape(arr.shape)}))
            fd = (plus - minus) / (2 * step)
            an = grads[name].reshape(-1)[c]
            denom = max(abs(fd), abs(an), 1e-6)
            worst = max(worst, abs(fd - an) / denom)
        report[name] = worst
    return GradReport(loss=loss, max_rel_err=report)


def sgd_step(
    params: ToyModelParams, grads: dict[str, np.ndarray], lr: float
) -> ToyModelParams:
    return params.with_tensors(
        {name: arr - lr * grads[name] for name, arr in params.tensors()}
    )


def train(
    dataset: Sequence[TrainExample],
    params: ToyModelParams,
    steps: int,
    lr: float,
    objective: str = "bptc",
    seed: int = 0,
) -> TrainResult:
    """Plain SGD, one example per step, seeded example order."""
    if steps < 1:
        raise InvalidInputError("steps must be >= 1")
    if objective not in _OBJECTIVES:
        raise InvalidInputError(f"unknown objective: {objective}")
    if not dataset:
        raise InvalidInputError("dataset must be non-empty")
    _require_single_layer(params)
    _, grad_fn = _OBJECTIVES[objective]
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    for step_idx in range(steps):
        example = dataset[int(rng.integers(len(dataset)))]
        try:
            loss, grads = grad_fn(example, params)
        except NumericOverflowError:
            raise TrainingDivergedError(step_idx) from None
        if not np.isfinite(loss):
            raise TrainingDivergedError(step_idx)
        losses.append(loss)
        params = sgd_step(params, grads, lr)
    return TrainResult(params=params, losses=losses)
