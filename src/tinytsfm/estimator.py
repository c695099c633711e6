"""Top-level estimator facade: pretraining, representations, checkpoints, and
the task adapters behind one scikit-learn-style object."""

from .base import Estimator, check_fitted
from .errors import ConfigError
from .model import (
    attach_forecast_head,
    init_weights,
    load_checkpoint,
    resolve_config,
    save_checkpoint,
)
from .pretrain import linear_probe, pretrain, train_config
from .tasks import (
    detect_anomalies,
    embed_series,
    long_forecast,
    zero_shot_impute,
    zero_shot_short_forecast,
)


class MaskedSeriesModel(Estimator):
    """Masked-patch pretrained series encoder with task methods.

    fit() runs masked pre-training over a list of Series; transform() returns
    sequence representations; impute/detect/forecast delegate to the task
    adapters. Weights live in `weights_` after fitting or loading.
    """

    def __init__(
        self,
        config="tiny",
        seed=0,
        mask_ratio=0.30,
        batch_size=64,
        epochs=2,
        total_steps=2000,
        lr_init=1e-4,
        lr_final=1e-5,
        clip_norm=5.0,
        weight_decay=0.05,
    ):
        self.config = config
        self.seed = seed
        self.mask_ratio = mask_ratio
        self.batch_size = batch_size
        self.epochs = epochs
        self.total_steps = total_steps
        self.lr_init = lr_init
        self.lr_final = lr_final
        self.clip_norm = clip_norm
        self.weight_decay = weight_decay

    # ------------------------------------------------------------ training

    def fit(self, X, y=None):
        """Masked pre-training over a list of Series; y is ignored (the
        objective is self-supervised)."""
        weights = init_weights(resolve_config(self.config), seed=self.seed)
        self.weights_, self.log_ = pretrain(weights, X, train_config(self.get_params()))
        return self

    def probe_forecast_head(self, pairs, horizon, epochs=1, freeze=True, lr_scale=1.0):
        """Attach (if needed) and linear-probe a forecasting head on
        (history Series, target vector) pairs for `epochs` epochs; the
        model's `total_steps` does not cap a probe."""
        check_fitted(self, "weights_")
        if self.weights_.horizon != horizon:
            attach_forecast_head(self.weights_, horizon, seed=self.seed)
        linear_probe(
            self.weights_,
            "forecast",
            pairs,
            epochs=epochs,
            cfg=train_config(self.get_params(), lr_scale),
            freeze=freeze,
        )
        return self

    # ------------------------------------------------------------ inference

    def transform(self, X):
        """Sequence representations, one row per Series."""
        check_fitted(self, "weights_")
        return embed_series(self.weights_, X)

    def impute(self, x):
        check_fitted(self, "weights_")
        return zero_shot_impute(self.weights_, x)

    def detect(self, x, spec=None):
        check_fitted(self, "weights_")
        return detect_anomalies(self.weights_, x, spec)

    def forecast(self, history, horizon, mode="zero-shot"):
        check_fitted(self, "weights_")
        if mode == "zero-shot":
            return zero_shot_short_forecast(self.weights_, history, horizon)
        if mode == "probed-head":
            return long_forecast(self.weights_, history, horizon)
        raise ConfigError(f"unknown forecast mode {mode!r}")

    # ------------------------------------------------------------ persistence

    def save(self, path):
        check_fitted(self, "weights_")
        return save_checkpoint(self.weights_, path)

    @classmethod
    def from_checkpoint(cls, path, **params):
        """Rebuild an estimator around a saved checkpoint."""
        weights = load_checkpoint(path)
        est = cls(**params)
        est.config = weights.config
        est.weights_ = weights
        return est
