"""Seeded, linear-time fact documents for the benchmark workloads.

`corpus.generate_corpus` checks each new word against every earlier one for
prefixes, so it is super-linear: 0.8 s at 1k documents, 15 s at 4k and 69 s at
8k.  It cannot build a 10 000-document store inside a run's set-up.  Here every
key and every value has one fixed length, so no word can be a prefix of
another; uniqueness comes from drawing distinct integers and spelling them in
base 13 over the disjoint letter pools (keys a-m, values n-z).
"""

from __future__ import annotations

import numpy as np
from ssmcompose.corpus import KEY_LETTERS, VALUE_LETTERS, CorpusItem

KEY_LEN = 5
VALUE_LEN = 6


def _distinct_words(rng: np.random.Generator, letters: np.ndarray, length: int, count: int) -> list[str]:
    base = letters.size
    codes = rng.choice(base**length, size=count, replace=False)
    digits = (codes[:, None] // base ** np.arange(length)) % base
    spelled = np.ascontiguousarray(letters[digits]).view(f"S{length}").ravel()
    return [w.decode() for w in spelled]


def fact_documents(seed: int, count: int) -> list[CorpusItem]:
    """`count` documents "key : value . " with unique keys and unique values."""
    rng = np.random.default_rng(seed)
    keys = _distinct_words(rng, KEY_LETTERS, KEY_LEN, count)
    values = _distinct_words(rng, VALUE_LETTERS, VALUE_LEN, count)
    return [
        CorpusItem(
            doc_id=f"doc{i:05d}",
            context_text=f"{key} : {value} . ",
            query=f"{key} :",
            continuation=f" {value}",
        )
        for i, (key, value) in enumerate(zip(keys, values))
    ]
