"""Toy byte-level selective SSM language model.

The model is a stack of identical blocks, each of which runs

    u~_t = depthwise_conv(u_{t-w+1}, ..., u_t)          causal, width w
    a_t  = sigmoid(W_a u~_t + b_a)                      per-channel decay in (0,1)
    x_t  = a_t * x_{t-1} + W_in u~_t                    diagonal recurrence
    y_t  = W_out x_t + P u~_t                           readout + passthrough
    h_t  = y_t + u_t                                    residual

on top of a byte embedding (vocab fixed at 256), with a linear LM head on the
final block's output.  Because the recurrence is diagonal and the per-step
decay is strictly inside (0,1), a whole segment collapses to the pair
(accumulated state, accumulated elementwise decay product), which is what the
composition algorithms operate on.

layer_scan is the only implementation of the recurrence: forward,
encode_context and the trainer's objectives all run it.

Everything is float64 and purely functional: parameters and states are frozen
after construction, so they can be shared freely across threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, NumericOverflowError

VOCAB_SIZE = 256
INIT_SCALE = 0.02
DECAY_BIAS_INIT = 1.0


class CallCounter:
    """Counts model forward scans (used for cost accounting in eval/bench)."""

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        self.count = 0


#: Incremented once per ``forward`` invocation.  Single-threaded use assumed.
FORWARD_CALLS = CallCounter()


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TokenSequence:
    """A finite sequence of byte-valued token ids."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidInputError("token sequence must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= VOCAB_SIZE):
            raise InvalidInputError(f"token ids must lie in [0, {VOCAB_SIZE})")
        arr.flags.writeable = False
        object.__setattr__(self, "tokens", arr)

    def __len__(self) -> int:
        return int(self.tokens.size)

    @staticmethod
    def from_text(text: str) -> "TokenSequence":
        return TokenSequence(np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64))

    @staticmethod
    def from_bytes(data: bytes) -> "TokenSequence":
        return TokenSequence(np.frombuffer(data, dtype=np.uint8).astype(np.int64))

    def to_bytes(self) -> bytes:
        return bytes(self.tokens.astype(np.uint8).tolist())

    def to_text(self) -> str:
        return self.to_bytes().decode("utf-8", errors="replace")

    @staticmethod
    def concat(parts: Sequence["TokenSequence"]) -> "TokenSequence":
        if not parts:
            return TokenSequence(np.zeros(0, dtype=np.int64))
        return TokenSequence(np.concatenate([p.tokens for p in parts]))


@dataclass(frozen=True)
class ToyModelConfig:
    embed_dim: int
    state_dim: int
    num_layers: int
    conv_width: int = 4
    decay_floor: float = 1e-30
    vocab_size: int = VOCAB_SIZE

    def __post_init__(self):
        if self.vocab_size != VOCAB_SIZE:
            raise InvalidInputError(f"vocab_size is fixed at {VOCAB_SIZE}")
        if min(self.embed_dim, self.state_dim, self.num_layers, self.conv_width) < 1:
            raise InvalidInputError("embed_dim, state_dim, num_layers, conv_width must be >= 1")
        if not self.decay_floor > 0:
            raise InvalidInputError("decay_floor must be positive")

    def to_json(self) -> str:
        return json.dumps(
            {
                "embed_dim": self.embed_dim,
                "state_dim": self.state_dim,
                "num_layers": self.num_layers,
                "conv_width": self.conv_width,
                "decay_floor": self.decay_floor,
                "vocab_size": self.vocab_size,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "ToyModelConfig":
        return ToyModelConfig(**json.loads(text))


@dataclass(frozen=True)
class LayerParams:
    """Parameters of one block: decay map, input map, readout, conv kernel."""

    w_decay: np.ndarray  # (m, d)
    b_decay: np.ndarray  # (m,)
    w_in: np.ndarray  # (m, d)
    w_out: np.ndarray  # (d, m)
    passthrough: np.ndarray  # (d, d)
    conv_kernel: np.ndarray  # (d, conv_width)

    def __post_init__(self):
        for name in ("w_decay", "b_decay", "w_in", "w_out", "passthrough", "conv_kernel"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class ToyModelParams:
    config: ToyModelConfig
    embedding: np.ndarray  # (vocab, d)
    layers: tuple[LayerParams, ...]
    head: np.ndarray  # (vocab, d)

    def __post_init__(self):
        object.__setattr__(self, "embedding", _frozen(self.embedding))
        object.__setattr__(self, "head", _frozen(self.head))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) != self.config.num_layers:
            raise InvalidInputError("layer count does not match config")

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Named parameter tensors in a fixed, stable order."""
        yield "embedding", self.embedding
        for i, lp in enumerate(self.layers):
            for name in ("w_decay", "b_decay", "w_in", "w_out", "passthrough", "conv_kernel"):
                yield f"layer{i}.{name}", getattr(lp, name)
        yield "head", self.head

    def with_tensors(self, updates: dict[str, np.ndarray]) -> "ToyModelParams":
        """Return a copy with the named tensors replaced."""
        emb = updates.get("embedding", self.embedding)
        head = updates.get("head", self.head)
        layers = []
        for i, lp in enumerate(self.layers):
            kw = {
                name: updates.get(f"layer{i}.{name}", getattr(lp, name))
                for name in ("w_decay", "b_decay", "w_in", "w_out", "passthrough", "conv_kernel")
            }
            layers.append(LayerParams(**kw))
        return ToyModelParams(self.config, emb, tuple(layers), head)

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(self.config.to_json().encode())
        for name, arr in self.tensors():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def save_params(path: str, params: ToyModelParams) -> None:
    """Write parameters as an .npz archive with the config embedded."""
    arrays = {name.replace(".", "__"): arr for name, arr in params.tensors()}
    arrays["config_json"] = np.frombuffer(
        params.config.to_json().encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_params(path: str) -> ToyModelParams:
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:  # missing, unreadable or not an archive
        raise InvalidInputError(f"cannot read model parameters from {path}: {exc}") from None
    with archive as data:
        config = ToyModelConfig.from_json(bytes(data["config_json"]).decode())
        tensors = {
            key.replace("__", "."): data[key] for key in data.files if key != "config_json"
        }
    layers = tuple(
        LayerParams(
            w_decay=tensors[f"layer{i}.w_decay"],
            b_decay=tensors[f"layer{i}.b_decay"],
            w_in=tensors[f"layer{i}.w_in"],
            w_out=tensors[f"layer{i}.w_out"],
            passthrough=tensors[f"layer{i}.passthrough"],
            conv_kernel=tensors[f"layer{i}.conv_kernel"],
        )
        for i in range(config.num_layers)
    )
    return ToyModelParams(config, tensors["embedding"], layers, tensors["head"])


def init_params(config: ToyModelConfig, seed: int = 0) -> ToyModelParams:
    """Seeded init: zero-mean uniform at scale 0.02, decay bias +1, identity passthrough."""
    rng = np.random.default_rng(seed)
    d, m, w = config.embed_dim, config.state_dim, config.conv_width

    def u(*shape):
        return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)

    layers = tuple(
        LayerParams(
            w_decay=u(m, d),
            b_decay=np.full(m, DECAY_BIAS_INIT),
            w_in=u(m, d),
            w_out=u(d, m),
            passthrough=np.eye(d),
            conv_kernel=u(d, w),
        )
        for _ in range(config.num_layers)
    )
    return ToyModelParams(config, u(config.vocab_size, d), layers, u(config.vocab_size, d))


@dataclass(frozen=True)
class LayerState:
    """Recurrent state of one block: state vector + conv window (oldest column first)."""

    x: np.ndarray  # (m,)
    conv_window: np.ndarray  # (d, conv_width)

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        object.__setattr__(self, "conv_window", _frozen(self.conv_window))


def zero_state(config: ToyModelConfig) -> list[LayerState]:
    return [
        LayerState(np.zeros(config.state_dim), np.zeros((config.embed_dim, config.conv_width)))
        for _ in range(config.num_layers)
    ]


@dataclass(frozen=True)
class ContextState:
    """Everything retained about a processed segment: per-layer accumulated state,
    accumulated elementwise decay (floor-clamped) and the trailing conv window."""

    context_id: str
    token_count: int
    x_seg: tuple[np.ndarray, ...]  # per layer, (m,)
    decay: tuple[np.ndarray, ...]  # per layer, (m,), in (0, 1]
    conv_tail: tuple[np.ndarray, ...]  # per layer, (d, conv_width)

    def __post_init__(self):
        if self.token_count < 1:
            raise InvalidInputError("stored contexts must contain at least one token")
        for name in ("x_seg", "decay", "conv_tail"):
            object.__setattr__(self, name, tuple(_frozen(a) for a in getattr(self, name)))
        for dc in self.decay:
            if dc.size and (dc.min() <= 0.0 or dc.max() > 1.0):
                raise InvalidInputError("accumulated decay must lie in (0, 1]")

    @property
    def num_layers(self) -> int:
        return len(self.x_seg)

    def to_layer_states(self) -> list[LayerState]:
        return [LayerState(x, w) for x, w in zip(self.x_seg, self.conv_tail)]


class ScanResult(NamedTuple):
    final: LayerState
    seg_decay: np.ndarray  # (m,), clamped at decay_floor
    padded: np.ndarray  # (T+w-1, d), conv input: init window columns 1.. then inputs
    u: np.ndarray  # (T, d), conv output
    gates: np.ndarray  # (T, m), per-step decays
    xs: np.ndarray  # (T, m), state after each step


def embed(seq: TokenSequence, params: ToyModelParams) -> np.ndarray:
    """Embedding rows for a token sequence, shape (T, d)."""
    return params.embedding[seq.tokens]


def layer_scan(
    inputs: np.ndarray,
    init: LayerState,
    layer: LayerParams,
    decay_floor: float = 1e-30,
) -> ScanResult:
    """Run one block's recurrence over `inputs` (T, d) from `init`.

    Returns the final LayerState, the segment's accumulated decay (clamped
    below at `decay_floor`) and the intermediate arrays the trainer's backward
    pass reads.  The readout is left to the caller.  T = 0 is the empty
    product: identity decay, state unchanged.
    """
    T, d = inputs.shape
    w = layer.conv_kernel.shape[1]
    padded = np.concatenate([init.conv_window[:, 1:].T, inputs], axis=0)
    u = np.zeros((T, d))
    for j in range(w):
        u += padded[j : j + T] * layer.conv_kernel[:, j]

    gates = 1.0 / (1.0 + np.exp(-(u @ layer.w_decay.T + layer.b_decay)))  # (T, m)
    drive = u @ layer.w_in.T  # (T, m)

    xs = np.empty((T, layer.w_in.shape[0]))
    x = init.x
    for t in range(T):
        x = gates[t] * x + drive[t]
        xs[t] = x

    if not np.isfinite(xs).all():
        bad = int(np.flatnonzero(~np.isfinite(xs).all(axis=1))[0])
        raise NumericOverflowError(f"non-finite state at time step {bad}")

    seg_decay = np.maximum(np.prod(gates, axis=0), decay_floor)
    final = LayerState(xs[-1], padded[T - 1 : T + w - 1].T) if T else init
    return ScanResult(final, seg_decay, padded, u, gates, xs)


def _run_layers(
    h: np.ndarray, init_states: Sequence[LayerState], params: ToyModelParams
) -> tuple[np.ndarray, list[ScanResult]]:
    """Scan every block in turn; returns the last block's output and each scan."""
    scans = []
    for lp, st in zip(params.layers, init_states):
        res = layer_scan(h, st, lp, params.config.decay_floor)
        scans.append(res)
        h = (res.xs @ lp.w_out.T + res.u @ lp.passthrough.T) + h
    return h, scans


def forward(
    seq: TokenSequence,
    init_states: Sequence[LayerState],
    params: ToyModelParams,
) -> tuple[np.ndarray, list[LayerState]]:
    """Full model scan: returns (logits (T, vocab), final per-layer states).

    Satisfies the state sufficiency property: running the scan over u then
    continuing over v from the returned states is identical (conv windows
    included) to a single scan over the concatenation u v.
    """
    cfg = params.config
    if len(init_states) != cfg.num_layers:
        raise InvalidInputError(
            f"expected {cfg.num_layers} layer states, got {len(init_states)}"
        )
    FORWARD_CALLS.count += 1
    h, scans = _run_layers(embed(seq, params), init_states, params)
    return h @ params.head.T, [res.final for res in scans]


def encode_context(
    seq: TokenSequence, params: ToyModelParams, context_id: str = ""
) -> ContextState:
    """Scan a segment from the zero state and package its composable summary."""
    if len(seq) == 0:
        raise InvalidInputError("cannot encode an empty context")
    FORWARD_CALLS.count += 1
    _, scans = _run_layers(embed(seq, params), zero_state(params.config), params)
    return ContextState(
        context_id=context_id,
        token_count=len(seq),
        x_seg=tuple(res.final.x for res in scans),
        decay=tuple(res.seg_decay for res in scans),
        conv_tail=tuple(res.final.conv_window for res in scans),
    )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    zmax = logits.max(axis=-1, keepdims=True)
    shifted = logits - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(
    seq: TokenSequence, init_states: Sequence[LayerState], params: ToyModelParams
) -> float:
    """Mean nats/token of tokens 2..T given the preceding prefix and `init_states`."""
    if len(seq) < 2:
        raise InvalidInputError("cross_entropy needs at least one next-token target")
    logits, _ = forward(seq, init_states, params)
    logp = _log_softmax(logits[:-1])
    targets = seq.tokens[1:]
    return float(-logp[np.arange(targets.size), targets].mean())


def continuation_loss(
    prefix: TokenSequence,
    continuation: TokenSequence,
    init_states: Sequence[LayerState],
    params: ToyModelParams,
) -> float:
    """Mean nats/token over `continuation` only, conditioned on `prefix` and states."""
    if len(prefix) == 0:
        raise InvalidInputError("prefix must be non-empty")
    if len(continuation) == 0:
        raise InvalidInputError("continuation must be non-empty")
    full = TokenSequence.concat([prefix, continuation])
    logits, _ = forward(full, init_states, params)
    start = len(prefix) - 1
    rows = logits[start : start + len(continuation)]
    logp = _log_softmax(rows)
    return float(-logp[np.arange(len(continuation)), continuation.tokens].mean())
