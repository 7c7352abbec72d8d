"""Persistent database of pre-encoded segment states ("SSDB" files).

One file holds fixed-width float64 state blobs back to back, followed by a
canonical-JSON manifest and a 20-byte footer locating it:

    [0:4]   magic b"SSDB"
    [4:...] entry blobs (per layer: x_seg, decay, conv_tail as little-endian
            float64; then the raw tokens as bytes)
    [...]   manifest, canonical JSON (sorted keys, no whitespace)
    [-20:]  u64 manifest offset, u64 manifest length, magic b"SSDB"

The manifest carries the model fingerprint (config + parameter checksum) so a
store can never mix states produced by different models, plus one index row
(id, offset, length, token_count) per entry.

Retrieval is a deliberately simple deterministic embedder: signed feature
hashing of token 3-grams (FNV-1a 64-bit) into a fixed number of buckets,
L2-normalized, compared by cosine.  Embeddings are not stored: `open` derives
each one from the entry's tokens.  See docs/format.md for the byte-level
layout and the exact hash definition.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigMismatchError, InvalidInputError, NotFoundError
from .model import ContextState, TokenSequence, ToyModelConfig, ToyModelParams, encode_context

MAGIC = b"SSDB"
FORMAT_VERSION = 3
EMBED_DIM = 256
STORE_PATH_ENV = "SSMCOMPOSE_STORE"

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

#: `query` ranks by one matrix-vector product, whose scores may differ from a
#: per-entry `np.dot(q, row)` in the last bits, and re-scores with `np.dot`
#: every entry whose product is within NEAR_TIE_TOL of the k-th largest.  The
#: rule that makes this exact: every entry outside that set has at least k
#: entries that strictly beat it.  It holds because rows and queries are unit
#: (or zero) vectors of EMBED_DIM entries, so either product lies within
#: EMBED_DIM * 2**-53 (< 3e-14) of the true cosine, and NEAR_TIE_TOL exceeds
#: four times that.
NEAR_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Embedding:
    """L2-normalized retrieval vector; all-zero (degenerate) for tiny inputs."""

    v: np.ndarray
    degenerate: bool

    def __post_init__(self):
        arr = np.asarray(self.v, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "v", arr)


def _fnv1a64_trigrams(tokens: np.ndarray) -> np.ndarray:
    """FNV-1a 64-bit hash of every consecutive token 3-gram, vectorized."""
    n = tokens.size - 2
    grams = np.stack([tokens[i : i + n] for i in range(3)], axis=1).astype(np.uint64)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(3):
            h = (h ^ grams[:, j]) * _FNV_PRIME
    return h


def embed_text(tokens: TokenSequence, dim: int = EMBED_DIM) -> Embedding:
    """Signed hashed bag of token 3-grams, L2-normalized.

    Sequences shorter than 3 tokens have no 3-grams and embed to the flagged
    all-zero vector.
    """
    vec = np.zeros(dim)
    if len(tokens) >= 3:
        h = _fnv1a64_trigrams(tokens.tokens)
        buckets = (h % np.uint64(dim)).astype(np.int64)
        signs = np.where((h >> np.uint64(32)) & np.uint64(1), -1.0, 1.0)
        np.add.at(vec, buckets, signs)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return Embedding(vec, degenerate=True)
    return Embedding(vec / norm, degenerate=False)


def model_fingerprint(params: ToyModelParams) -> str:
    return params.checksum()


def _content_id(tokens: TokenSequence) -> str:
    return hashlib.sha256(tokens.to_bytes()).hexdigest()[:16]


@dataclass(frozen=True)
class StoreEntry:
    context_id: str
    state: ContextState
    tokens: TokenSequence


def _state_blob(state: ContextState, tokens: TokenSequence) -> bytes:
    parts = []
    for layer in range(state.num_layers):
        for arr in (state.x_seg[layer], state.decay[layer], state.conv_tail[layer]):
            parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    parts.append(tokens.to_bytes())
    return b"".join(parts)


def _blob_to_entry(
    blob: bytes, context_id: str, token_count: int, config: ToyModelConfig
) -> StoreEntry:
    m, d, w, L = config.state_dim, config.embed_dim, config.conv_width, config.num_layers
    xs, decays, tails = [], [], []
    off = 0

    def take(count, shape):
        nonlocal off
        out = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off += count * 8
        return out.astype(np.float64)

    for _ in range(L):
        xs.append(take(m, (m,)))
        decays.append(take(m, (m,)))
        tails.append(take(d * w, (d, w)))
    tokens = TokenSequence.from_bytes(blob[off : off + token_count])
    state = ContextState(
        context_id=context_id,
        token_count=token_count,
        x_seg=tuple(xs),
        decay=tuple(decays),
        conv_tail=tuple(tails),
    )
    return StoreEntry(context_id, state, tokens)


class StateStore:
    """In-memory view of an SSDB file; explicit save/open, single-writer lock.

    Entries keep insertion order; row i of the embedding matrix is the
    `embed_text` vector of the i-th entry, and the only in-memory copy of it.
    """

    def __init__(self, config: ToyModelConfig, fingerprint: str):
        self.config = config
        self.fingerprint = fingerprint
        self._entries: dict[str, StoreEntry] = {}
        self._ids: list[str] = []  # entry id of each matrix row
        self._matrix = np.empty((0, EMBED_DIM))  # spare rows beyond len(self) are unused
        self._checked_params: ToyModelParams | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, params: ToyModelParams) -> "StateStore":
        return cls(params.config, model_fingerprint(params))

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, context_id: str) -> bool:
        return context_id in self._entries

    def ids(self) -> list[str]:
        return list(self._ids)

    def entry(self, context_id: str) -> StoreEntry:
        try:
            return self._entries[context_id]
        except KeyError:
            raise NotFoundError(f"unknown context id: {context_id}") from None

    def _add(self, entry: StoreEntry) -> None:
        n = len(self._ids)
        if n == len(self._matrix):
            grown = np.empty((max(2 * n, 64), EMBED_DIM))
            grown[:n] = self._matrix
            self._matrix = grown
        self._matrix[n] = embed_text(entry.tokens).v
        self._ids.append(entry.context_id)
        self._entries[entry.context_id] = entry

    # -- operations --------------------------------------------------------

    def insert(self, tokens: TokenSequence, params: ToyModelParams) -> str:
        """Encode and store a segment; idempotent on content (hash id)."""
        # ToyModelParams is frozen with read-only arrays, so one object's
        # fingerprint cannot change: hash each params object once.
        if params is not self._checked_params:
            if model_fingerprint(params) != self.fingerprint:
                raise ConfigMismatchError("store was built with a different model")
            self._checked_params = params
        if len(tokens) == 0:
            raise InvalidInputError("cannot store an empty context")
        context_id = _content_id(tokens)
        if context_id in self._entries:
            return context_id
        state = encode_context(tokens, params, context_id=context_id)
        self._add(StoreEntry(context_id, state, tokens))
        return context_id

    def query(self, query_tokens: TokenSequence, k: int) -> list[tuple[str, float]]:
        """Top-k entries by cosine similarity, score-descending, id tie-break.

        Scores are `np.dot(q, row)` per entry, exactly as a full scan and sort
        would return them; see NEAR_TIE_TOL for why re-scoring only the near
        ties of one matrix-vector product gives the same list.
        """
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        n = len(self._ids)
        if n == 0:
            return []
        k = min(k, n)
        q = embed_text(query_tokens).v
        rows = self._matrix[:n]
        approx = np.dot(rows, q)
        kth = np.partition(approx, n - k)[n - k]
        near = np.flatnonzero(approx >= kth - NEAR_TIE_TOL)
        scored = [(self._ids[i], float(np.dot(q, rows[i]))) for i in near]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]

    def load_states(self, ids: Sequence[str]) -> list[ContextState]:
        return [self.entry(cid).state for cid in ids]

    def load_tokens(self, ids: Sequence[str]) -> list[TokenSequence]:
        return [self.entry(cid).tokens for cid in ids]

    # -- serialization -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the whole store atomically, holding `<path>.lock` meanwhile."""
        lock_path = path + ".lock"
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:  # a live or a stale writer's lock: leave it in place
            raise InvalidInputError(f"store is locked: {lock_path} exists") from None
        except OSError as exc:  # e.g. the directory does not exist
            raise InvalidInputError(f"cannot write store: {exc}") from None
        try:
            blob_parts = []
            index = []
            offset = 4
            for cid, e in self._entries.items():
                blob = _state_blob(e.state, e.tokens)
                index.append(
                    {
                        "id": cid,
                        "offset": offset,
                        "length": len(blob),
                        "token_count": len(e.tokens),
                    }
                )
                blob_parts.append(blob)
                offset += len(blob)
            manifest = {
                "format_version": FORMAT_VERSION,
                "model": {
                    "config": json.loads(self.config.to_json()),
                    "fingerprint": self.fingerprint,
                },
                "entries": index,
            }
            manifest_bytes = json.dumps(
                manifest, sort_keys=True, separators=(",", ":")
            ).encode()
            footer = (
                offset.to_bytes(8, "little")
                + len(manifest_bytes).to_bytes(8, "little")
                + MAGIC
            )
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                for blob in blob_parts:
                    f.write(blob)
                f.write(manifest_bytes)
                f.write(footer)
                f.flush()
                os.fsync(f.fileno())  # the data is durable before the rename publishes it
            os.replace(tmp, path)
        finally:
            os.close(fd)
            os.unlink(lock_path)

    @classmethod
    def open(cls, path: str) -> "StateStore":
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read store: {exc}") from None
        if len(data) < 24 or data[:4] != MAGIC or data[-4:] != MAGIC:
            raise InvalidInputError(f"not an SSDB file: {path}")
        manifest_offset = int.from_bytes(data[-20:-12], "little")
        manifest_length = int.from_bytes(data[-12:-4], "little")
        try:  # a cut or corrupted manifest fails to decode, parse or index
            manifest = json.loads(data[manifest_offset : manifest_offset + manifest_length])
            if manifest["format_version"] != FORMAT_VERSION:
                raise InvalidInputError(
                    f"unsupported store format version {manifest['format_version']}"
                )
            config = ToyModelConfig(**manifest["model"]["config"])
            store = cls(config, manifest["model"]["fingerprint"])
            rows = manifest["entries"]
            store._matrix = np.empty((len(rows), EMBED_DIM))
            for row in rows:
                if row["id"] in store._entries:
                    raise InvalidInputError(
                        f"damaged store manifest in {path}: id {row['id']} listed twice"
                    )
                blob = data[row["offset"] : row["offset"] + row["length"]]
                store._add(_blob_to_entry(blob, row["id"], row["token_count"], config))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"damaged store manifest in {path}: {exc!r}") from None
        return store


def default_store_path() -> str | None:
    return os.environ.get(STORE_PATH_ENV)


STATE_MAGIC = b"SSBL"


def save_composed_state(path: str, composed, config: ToyModelConfig) -> None:
    """Write a composed state: magic, JSON header, then the per-layer float64
    x / conv_tail blobs in the same encoding SSDB entries use."""
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": json.loads(config.to_json()),
            "method": composed.method,
            "provenance": list(composed.provenance),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    try:
        f = open(path, "wb")
    except OSError as exc:  # e.g. the directory does not exist
        raise InvalidInputError(f"cannot write composed state: {exc}") from None
    with f:
        f.write(STATE_MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for layer in range(composed.num_layers):
            f.write(np.ascontiguousarray(composed.x[layer], dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(composed.conv_tail[layer], dtype="<f8").tobytes())


def load_composed_state(path: str):
    from .compose import ComposedState

    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read composed state: {exc}") from None
    if data[:4] != STATE_MAGIC:
        raise InvalidInputError(f"not a composed-state file: {path}")
    header_len = int.from_bytes(data[4:12], "little")
    try:  # a cut or corrupted header fails to decode, parse or index
        header = json.loads(data[12 : 12 + header_len])
        if header["format_version"] != FORMAT_VERSION:
            raise InvalidInputError(f"unsupported format version {header['format_version']}")
        config = ToyModelConfig(**header["config"])
        provenance, method = tuple(header["provenance"]), header["method"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"damaged composed-state header in {path}: {exc!r}") from None
    m, d, w = config.state_dim, config.embed_dim, config.conv_width
    off = 12 + header_len
    if len(data) != off + config.num_layers * (m + d * w) * 8:
        raise InvalidInputError(f"composed-state file {path} has the wrong length")
    xs, tails = [], []
    for _ in range(config.num_layers):
        xs.append(np.frombuffer(data, dtype="<f8", count=m, offset=off).astype(np.float64))
        off += m * 8
        tails.append(
            np.frombuffer(data, dtype="<f8", count=d * w, offset=off)
            .reshape(d, w)
            .astype(np.float64)
        )
        off += d * w * 8
    return ComposedState(x=tuple(xs), conv_tail=tuple(tails), provenance=provenance, method=method)
