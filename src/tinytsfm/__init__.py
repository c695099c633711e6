"""Desk-scale masked time-series modeling toolkit.

A from-scratch stack: dense f32 autodiff engine, bias-free pre-norm
transformer encoder over series patches, masked-patch pre-training,
zero-shot/linear-probe task adapters, evaluation metrics, four comparators
(naive forecaster, nearest-point interpolator, PCA, RBF-SVM) and
interpretability probes, plus a batch CLI.
"""

__version__ = "0.1.0"

from .baselines import Pca, RbfSvm, interp_nearest, naive_forecast
from .data import Series, load_csv, save_csv, synth_sine
from .errors import TsfmError
from .estimator import MaskedSeriesModel
from .metrics import (
    accuracy,
    adjusted_best_f1,
    mae,
    mse,
    roc_auc,
    smape_m4,
    spearman_rho,
    vus_roc,
)
from .model import (
    ModelConfig,
    attach_forecast_head,
    init_weights,
    load_checkpoint,
    named_config,
    save_checkpoint,
)
# NB: the bare name `pretrain` stays bound to the submodule; the training
# entry points are MaskedSeriesModel.fit and tinytsfm.pretrain.pretrain.
from .pretrain import PretrainConfig, linear_probe, masked_mse_loss
from .probes import (
    frequency_error_curve,
    mask_embedding_stats,
    sinusoid_embedding_suite,
    zero_vs_mask_probe,
)
from .tasks import (
    AnomalySpec,
    ImputationSpec,
    classify_by_representation,
    detect_anomalies,
    embed_series,
    long_forecast,
    zero_shot_impute,
    zero_shot_short_forecast,
)

__all__ = [
    "__version__",
    "AnomalySpec",
    "ImputationSpec",
    "MaskedSeriesModel",
    "ModelConfig",
    "Pca",
    "PretrainConfig",
    "RbfSvm",
    "Series",
    "TsfmError",
    "accuracy",
    "adjusted_best_f1",
    "attach_forecast_head",
    "classify_by_representation",
    "detect_anomalies",
    "embed_series",
    "frequency_error_curve",
    "init_weights",
    "interp_nearest",
    "linear_probe",
    "load_checkpoint",
    "load_csv",
    "long_forecast",
    "mae",
    "mask_embedding_stats",
    "masked_mse_loss",
    "mse",
    "naive_forecast",
    "named_config",
    "roc_auc",
    "save_checkpoint",
    "save_csv",
    "sinusoid_embedding_suite",
    "smape_m4",
    "spearman_rho",
    "synth_sine",
    "vus_roc",
    "zero_shot_impute",
    "zero_shot_short_forecast",
    "zero_vs_mask_probe",
]
