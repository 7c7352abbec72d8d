"""Composable SSM states: encode segments once, mix their states at query time."""

from .compose import (
    ComposedState,
    CompositionWeights,
    caso_distance_bound,
    compose_caso,
    compose_picaso_r,
    compose_picaso_s,
    compose_piconcat_r,
    compose_soup,
    esp_all,
    esp_merge,
    picaso_r_weights,
    picaso_s_weights,
)
from .errors import (
    ConfigMismatchError,
    InvalidInputError,
    NotFoundError,
    NumericOverflowError,
    SSMComposeError,
    TrainingDivergedError,
    UnsupportedConfigError,
)
from .attribution import AttributionResult, leave_one_in, leave_one_out
from .model import (
    ContextState,
    LayerState,
    TokenSequence,
    ToyModelConfig,
    ToyModelParams,
    continuation_loss,
    cross_entropy,
    embed,
    encode_context,
    forward,
    init_params,
    layer_scan,
    load_params,
    save_params,
    zero_state,
)
from .store import Embedding, StateStore, embed_text
from .trainer import (
    GradReport,
    RetrievedContext,
    TrainExample,
    TrainResult,
    grad_bp2c,
    grad_bptc,
    gradient_check,
    loss_bp2c,
    loss_bptc,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
