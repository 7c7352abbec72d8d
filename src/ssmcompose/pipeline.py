"""Reference-model preparation used by the evaluation suite and demo scripts.

The pipeline is: pretrain a single-layer model as a plain language model on
document streams (teaching it to carry facts in its state), then fine-tune for
500 steps on retrieval-composed states.  The pretrained checkpoint is the
starting point for measuring how fine-tuning closes the composed-vs-concat
loss gap; the fine-tuned checkpoint is the reference model for method-ordering
and attribution comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusItem, composition_examples, lm_examples
from .model import ToyModelConfig, ToyModelParams, init_params
from .store import StateStore
from .trainer import train

REFERENCE_CONFIG = ToyModelConfig(embed_dim=32, state_dim=64, num_layers=1)

#: (steps, lr) stages; constant-rate plain SGD within each stage.
PRETRAIN_SCHEDULE = ((6000, 0.5), (6000, 0.2), (30000, 0.1))
FINETUNE_STEPS = 500
FINETUNE_LR = 0.1


@dataclass
class ReferenceModels:
    pretrained: ToyModelParams
    bptc: ToyModelParams
    bp2c: ToyModelParams


def build_store(items: Sequence[CorpusItem], params: ToyModelParams) -> StateStore:
    store = StateStore.create(params)
    for it in items:
        store.insert(it.context_tokens, params)
    return store


def prepare_reference_models(
    train_items: Sequence[CorpusItem],
    schedule: Sequence[tuple[int, float]] = PRETRAIN_SCHEDULE,
) -> ReferenceModels:
    """Staged plain-SGD pretraining on zero-context document streams, then one
    composition fine-tune per objective from the pretrained checkpoint."""
    pretrained = init_params(REFERENCE_CONFIG, seed=7)
    lm = lm_examples(train_items, seed=11)
    for stage, (steps, lr) in enumerate(schedule):
        pretrained = train(
            lm, pretrained, steps=steps, lr=lr, objective="bptc", seed=13 + stage
        ).params
    store = build_store(train_items, pretrained)
    examples = composition_examples(train_items, store, seed=31)
    bptc = train(
        examples, pretrained, steps=FINETUNE_STEPS, lr=FINETUNE_LR, objective="bptc", seed=41
    ).params
    bp2c = train(
        examples, pretrained, steps=FINETUNE_STEPS, lr=FINETUNE_LR, objective="bp2c", seed=41
    ).params
    return ReferenceModels(pretrained=pretrained, bptc=bptc, bp2c=bp2c)
