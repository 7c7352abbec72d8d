"""Synthetic fact-recall corpus.

Each document states one key -> value fact, e.g. "fegda : wroms . ", and its
evaluation item asks for the value back:

    query        "fegda :"
    continuation " wroms"

Keys and values are seeded random words from disjoint letter pools (keys a-m,
values n-z) so a recalled value is cleanly distinguishable from query echo.
No word is a prefix of another and template words are reserved, so every
" value" string occurs in exactly one document.  Documents end with a
separator, which makes a concatenation of raw documents followed by a query
reproduce the streams the reference model is trained on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .model import TokenSequence
from .store import StateStore
from .trainer import RetrievedContext, TrainExample

KEY_LETTERS = np.frombuffer(b"abcdefghijklm", dtype=np.uint8)
VALUE_LETTERS = np.frombuffer(b"nopqrstuvwxyz", dtype=np.uint8)

CORPUS_SCHEMA_FIELDS = ("id", "context_text", "query", "continuation")


@dataclass(frozen=True)
class CorpusItem:
    doc_id: str
    context_text: str
    query: str
    continuation: str

    @property
    def context_tokens(self) -> TokenSequence:
        return TokenSequence.from_text(self.context_text)

    @property
    def query_tokens(self) -> TokenSequence:
        return TokenSequence.from_text(self.query)

    @property
    def continuation_tokens(self) -> TokenSequence:
        return TokenSequence.from_text(self.continuation)


def generate_corpus(seed: int, num_docs: int) -> list[CorpusItem]:
    """Deterministic fact corpus; same seed, same bytes."""
    if num_docs < 1:
        raise InvalidInputError("num_docs must be >= 1")
    rng = np.random.default_rng(seed)
    used: set[str] = set()
    prefixes: set[str] = set()  # every non-empty prefix of a used word

    def use(w: str) -> None:
        used.add(w)
        prefixes.update(w[:i] for i in range(1, len(w) + 1))

    for reserved in ("the", "code", "is"):
        use(reserved)

    def fresh_word(letters: np.ndarray, lo: int, hi: int) -> str:
        while True:
            w = bytes(rng.choice(letters, int(rng.integers(lo, hi))).tolist()).decode()
            # Reject w if it is a prefix of a used word or a used word is a prefix of it.
            if w not in prefixes and not any(w[:i] in used for i in range(1, len(w))):
                use(w)
                return w

    items = []
    for i in range(num_docs):
        key = fresh_word(KEY_LETTERS, 3, 7)
        value = fresh_word(VALUE_LETTERS, 4, 8)
        items.append(
            CorpusItem(
                doc_id=f"doc{i:05d}",
                context_text=f"{key} : {value} . ",
                query=f"{key} :",
                continuation=f" {value}",
            )
        )
    return items


def write_jsonl(items: Sequence[CorpusItem], path: str) -> None:
    try:
        f = open(path, "w")
    except OSError as exc:  # e.g. the directory does not exist
        raise InvalidInputError(f"cannot write corpus: {exc}") from None
    with f:
        for it in items:
            f.write(
                json.dumps(
                    {
                        "id": it.doc_id,
                        "context_text": it.context_text,
                        "query": it.query,
                        "continuation": it.continuation,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_jsonl(path: str) -> list[CorpusItem]:
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read corpus: {exc}") from None
    items = []
    for number, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
            items.append(
                CorpusItem(row["id"], row["context_text"], row["query"], row["continuation"])
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"cannot read corpus {path}, line {number}: {exc!r}") from None
    return items


def lm_examples(items: Sequence[CorpusItem], seed: int) -> list[TrainExample]:
    """Zero-context language-modeling examples for pretraining a reference model.

    Each example is a stream of whole documents followed by the query, with the
    loss on the continuation only.  The mixture deliberately varies how far the
    relevant fact sits from the query and how strongly it is represented:

      * 60%: relevant doc shuffled among 0-3 distractors (forces carrying the
        value across intervening text),
      * 20%: relevant doc repeated 2-3 times among 0-2 distractors (exposes the
        readout to varying trace magnitudes, which composed states produce),
      * 20%: relevant doc among 4-6 distractors (longer range).
    """
    rng = np.random.default_rng(seed)
    out = []
    n_others = len(items) - 1
    for idx, it in enumerate(items):
        mode = rng.random()

        def pick(count):
            # Draw from the other items: index p skips over idx.
            chosen = rng.choice(n_others, size=min(count, n_others), replace=False)
            return [items[int(p) + (int(p) >= idx)].context_text for p in chosen]

        if mode < 0.6:
            docs = [it.context_text] + pick(int(rng.integers(0, 4)))
        elif mode < 0.8:
            docs = [it.context_text] * int(rng.integers(2, 4)) + pick(int(rng.integers(0, 3)))
        else:
            docs = [it.context_text] + pick(int(rng.integers(4, 7)))
        order = rng.permutation(len(docs))
        stream = "".join(docs[int(o)] for o in order)
        out.append(
            TrainExample(
                query=TokenSequence.from_text(stream + it.query),
                continuation=it.continuation_tokens,
                contexts=(),
            )
        )
    return out


def composition_examples(
    items: Sequence[CorpusItem],
    store: StateStore,
    seed: int,
    max_contexts: int = 10,
) -> list[TrainExample]:
    """Fine-tuning examples: each query gets its top-k retrieved contexts with
    k drawn uniformly from {0..max_contexts}."""
    rng = np.random.default_rng(seed)
    out = []
    for it in items:
        k = int(rng.integers(0, max_contexts + 1))
        contexts = ()
        if k > 0:
            hits = store.query(it.query_tokens, k)
            contexts = tuple(
                RetrievedContext(tokens=store.entry(cid).tokens, state=store.entry(cid).state)
                for cid, _ in hits
            )
        out.append(
            TrainExample(
                query=it.query_tokens,
                continuation=it.continuation_tokens,
                contexts=contexts,
            )
        )
    return out
