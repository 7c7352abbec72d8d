"""Context attribution for a question/answer pair.

Two selectors over a candidate context list:

  * leave_one_in — condition on each candidate alone; the most relevant
    context is the one minimizing the answer loss.
  * leave_one_out — condition on the composition of all candidates and on each
    composition-with-one-removed; the most relevant context is the one whose
    removal increases the answer loss the most.

Answer loss is the per-token mean over answer tokens only.  Ties resolve to
the lowest index.  leave_one_out is parameterized by the composition method;
with the symmetric or cyclic group weights the scores inherit the weights'
order insensitivity, while concat scores depend on the list order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compose import METHODS, compose_concat, compose_states
from .errors import InvalidInputError
from .model import (
    LayerState,
    TokenSequence,
    ToyModelParams,
    continuation_loss,
)
from .trainer import RetrievedContext

LOO_METHODS = ("concat", *METHODS)


@dataclass(frozen=True)
class AttributionResult:
    scores: np.ndarray
    selected: int
    method: str

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)


def _composed_states(
    contexts: Sequence[RetrievedContext], params: ToyModelParams, method: str
) -> list[LayerState]:
    states = [c.state for c in contexts]
    if any(s is None for s in states):
        raise InvalidInputError(f"{method} attribution needs pre-encoded context states")
    if method == "concat":
        return compose_concat(states[0], [c.tokens for c in contexts[1:]], params)
    return compose_states(method, states).to_layer_states()


def leave_one_in(
    question: TokenSequence,
    answer: TokenSequence,
    contexts: Sequence[RetrievedContext],
    params: ToyModelParams,
) -> AttributionResult:
    """Score each context by the answer loss when conditioning on it alone."""
    if not contexts:
        raise InvalidInputError("need at least one candidate context")
    if len(answer) == 0:
        raise InvalidInputError("answer must be non-empty")
    scores = np.empty(len(contexts))
    for i, c in enumerate(contexts):
        if c.state is None:
            raise InvalidInputError("leave_one_in needs pre-encoded context states")
        scores[i] = continuation_loss(question, answer, c.state.to_layer_states(), params)
    return AttributionResult(scores=scores, selected=int(np.argmin(scores)), method="loi")


def leave_one_out(
    question: TokenSequence,
    answer: TokenSequence,
    contexts: Sequence[RetrievedContext],
    params: ToyModelParams,
    method: str = "picaso_r",
) -> AttributionResult:
    """Score each context by the loss increase its removal causes."""
    if len(contexts) < 2:
        raise InvalidInputError("leave_one_out needs at least two contexts")
    if len(answer) == 0:
        raise InvalidInputError("answer must be non-empty")
    if method not in LOO_METHODS:
        raise InvalidInputError(f"unknown composition method: {method}")
    full_loss = continuation_loss(
        question, answer, _composed_states(contexts, params, method), params
    )
    scores = np.empty(len(contexts))
    for i in range(len(contexts)):
        rest = [c for j, c in enumerate(contexts) if j != i]
        loss_without = continuation_loss(
            question, answer, _composed_states(rest, params, method), params
        )
        scores[i] = loss_without - full_loss
    return AttributionResult(
        scores=scores, selected=int(np.argmax(scores)), method=f"loo_{method}"
    )
