"""Estimator facade tests: protocol compliance, fit/transform/task delegation,
and checkpoint round trips."""

import numpy as np
import pytest

from tinytsfm import estimator
from tinytsfm.baselines import RbfSvm
from tinytsfm.data import Series
from tinytsfm.errors import ConfigError, NotFittedError
from tinytsfm.estimator import MaskedSeriesModel
from tinytsfm.model import ModelConfig

from corpora import mixed_corpus, sine_forecast_pairs


SMALL = ModelConfig(seq_len=64, patch_len=8, d_model=16, n_layers=1,
                    n_heads=2, d_ff=32)


@pytest.fixture(scope="module")
def fitted():
    corpus = mixed_corpus(seed=5, n_per_freq=2, n_ar=2, length=64)
    est = MaskedSeriesModel(config=SMALL, seed=7, batch_size=4, epochs=None,
                            total_steps=30)
    return est.fit(corpus), corpus


def test_get_params_round_trip():
    est = MaskedSeriesModel(config="small", seed=3, batch_size=8)
    params = est.get_params()
    assert params["config"] == "small" and params["batch_size"] == 8
    clone = MaskedSeriesModel().set_params(**params)
    assert clone.get_params() == params
    with pytest.raises(ValueError):
        est.set_params(nonsense=1)


@pytest.mark.parametrize("est, name, valid", [(MaskedSeriesModel(), "foo", "seed"),
                                              (RbfSvm(), "bad", "gamma")],
                         ids=["MaskedSeriesModel", "RbfSvm"])
def test_set_params_unknown_name_is_a_config_error_naming_it(est, name, valid):
    # a ConfigError is a TsfmError and still a ValueError, as sklearn expects
    with pytest.raises(ConfigError, match=rf"{name!r}.*valid parameters: .*{valid!r}") as info:
        est.set_params(**{name: 1})
    assert isinstance(info.value, ValueError)


def test_unfitted_methods_raise():
    est = MaskedSeriesModel(config=SMALL)
    x = Series(values=np.zeros(64, dtype=np.float32))
    with pytest.raises(NotFittedError):
        est.transform([x])
    with pytest.raises(NotFittedError):
        est.impute(x)
    with pytest.raises(NotFittedError):
        est.save("nowhere.json")


def test_bad_config_type():
    with pytest.raises(ConfigError):
        MaskedSeriesModel(config=3.5).fit([])


def test_clip_norm_and_weight_decay_reach_training(monkeypatch):
    seen = []

    def fake_pretrain(weights, X, cfg):
        seen.append(cfg)
        return weights, None

    monkeypatch.setattr(estimator, "pretrain", fake_pretrain)
    monkeypatch.setattr(estimator, "linear_probe", lambda *a, cfg, **kw: seen.append(cfg))
    est = MaskedSeriesModel(config=SMALL, clip_norm=0.5, weight_decay=0.2, lr_init=2e-4,
                            lr_final=2e-5, epochs=None, total_steps=7)
    est.fit([]).probe_forecast_head([], horizon=8, lr_scale=0.5)
    fit_cfg, probe_cfg = seen
    assert (fit_cfg.clip_norm, fit_cfg.weight_decay) == (0.5, 0.2)
    assert (fit_cfg.epochs, fit_cfg.total_steps, fit_cfg.lr_init) == (None, 7, 2e-4)
    assert (probe_cfg.clip_norm, probe_cfg.weight_decay) == (0.5, 0.2)
    assert (probe_cfg.lr_init, probe_cfg.lr_final) == (1e-4, 1e-5)


def test_fit_returns_self_and_logs(fitted):
    est, corpus = fitted
    assert est.weights_.config == SMALL
    assert len(est.log_.records) == 30
    reps = est.transform(corpus[:3])
    assert reps.shape == (3, 16)


def test_task_delegation(fitted):
    est, corpus = fitted
    gappy = Series(
        values=corpus[0].values,
        observed=np.arange(64) % 16 != 0,  # puncture a few patches
    )
    filled = est.impute(gappy)
    assert filled.observed.all()
    result = est.detect(corpus[1])
    assert result.scores.shape == (64,)
    fc = est.forecast(corpus[2], 8)
    assert len(fc) == 8
    with pytest.raises(ConfigError):
        est.forecast(corpus[2], 8, mode="oracle")


def test_probed_forecast_path(fitted):
    est, _ = fitted
    pairs = [
        (s, np.zeros(8, dtype=np.float32))
        for s in mixed_corpus(seed=6, n_per_freq=1, n_ar=1, length=64)
    ]
    est.probe_forecast_head(pairs, horizon=8, epochs=1)
    fc = est.forecast(pairs[0][0], 8, mode="probed-head")
    assert len(fc) == 8
    with pytest.raises(ConfigError):
        est.forecast(pairs[0][0], 16, mode="probed-head")


def test_checkpoint_round_trip(tmp_path, fitted):
    est, corpus = fitted
    path = est.save(str(tmp_path / "model.json"))
    loaded = MaskedSeriesModel.from_checkpoint(path)
    assert loaded.weights_.config == est.weights_.config
    a = est.transform(corpus[:2])
    b = loaded.transform(corpus[:2])
    assert np.array_equal(a, b)
