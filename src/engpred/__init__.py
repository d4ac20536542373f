"""Engagement metrics and prediction for short videos.

Computes per-video engagement aggregates (AWT, AWP, ECR) from watch-event
logs, fits the duration-dependent watch-time ceiling to normalize them
(NAWP), trains a multi-modal clip-fusion regressor on precomputed feature
tensors, and evaluates predictions with rank/linear correlation and top-K
error metrics. A seeded synthetic generator provides planted ground truth
for end-to-end verification at desk scale.
"""

from .aggregate import (
    CorpusAggregator,
    ParseFailure,
    parse_events,
)
from .autodiff import Tape, Tensor
from .envelope import (
    DistributionReport,
    EnvelopeModel,
    annotate_nawp,
    bimodality_coefficient,
    distribution_report,
    fit_envelope,
    metric_correlation,
    nawp,
)
from .errors import DataError, EngpredError, FitError, NonFiniteError, NumericError
from .metrics import (
    EvalReport,
    evaluate_predictions,
    grouped_srcc,
    plcc,
    rmse,
    rmse_topk,
    srcc,
)
from .model import (
    FeatureBundle,
    ModelConfig,
    forward,
    init_params,
    predict,
)
from .optim import AdamState, FlatParams, adam_step, cosine_lr
from .records import VideoMeta, VideoRecord, WatchEvent
from .synth import SynthConfig, generate_events, generate_features, ridge_oracle
from .trainer import TrainConfig, compare_modes, loss_value, split_dataset, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CorpusAggregator",
    "DataError",
    "DistributionReport",
    "EngpredError",
    "EnvelopeModel",
    "EvalReport",
    "FeatureBundle",
    "FitError",
    "FlatParams",
    "ModelConfig",
    "NonFiniteError",
    "NumericError",
    "ParseFailure",
    "SynthConfig",
    "Tape",
    "Tensor",
    "TrainConfig",
    "VideoMeta",
    "VideoRecord",
    "WatchEvent",
    "adam_step",
    "annotate_nawp",
    "bimodality_coefficient",
    "compare_modes",
    "cosine_lr",
    "distribution_report",
    "evaluate_predictions",
    "fit_envelope",
    "forward",
    "generate_events",
    "generate_features",
    "grouped_srcc",
    "init_params",
    "loss_value",
    "metric_correlation",
    "nawp",
    "parse_events",
    "plcc",
    "predict",
    "ridge_oracle",
    "rmse",
    "rmse_topk",
    "split_dataset",
    "srcc",
    "train",
]
