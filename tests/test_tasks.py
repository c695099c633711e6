"""Task adapter tests: imputation copy-through and chunking, anomaly-score
protocol, masked-tail and head-based forecasting, and representation
classification."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import clone_weights
from tinytsfm import numcore as nc
from tinytsfm import pretrain, probes, tasks
from tinytsfm.baselines import interp_nearest, naive_forecast
from tinytsfm.data import Series, synth_sine
from tinytsfm.errors import (
    ConfigError,
    EmptySeriesError,
    HorizonError,
    NumericError,
    ShapeError,
    StratificationError,
)
from tinytsfm.estimator import MaskedSeriesModel
from tinytsfm.model import (
    ModelConfig,
    attach_forecast_head,
    encode_windows,
    init_weights,
    model_forward,
    named_config,
    prepare_windows,
    revin_denormalize,
)
from tinytsfm.numcore import CHUNK
from tinytsfm.pretrain import (
    _prepare_series,
    encode_forecast_pairs,
    evaluate_forecast_mse,
    linear_probe,
)
from tinytsfm.tasks import (
    IMPUTE_RATIOS,
    SVM_C_GRID,
    AnomalySpec,
    ImputationSpec,
    _stratified_holdout,
    apply_block_mask,
    classify_by_representation,
    detect_anomalies,
    embed_series,
    long_forecast,
    sample_block_mask,
    zero_shot_impute,
    zero_shot_short_forecast,
)


@pytest.fixture(scope="module")
def small_weights():
    cfg = ModelConfig(seq_len=64, patch_len=8, d_model=16, n_layers=1,
                      n_heads=2, d_ff=32)
    return init_weights(cfg, seed=3)


@pytest.fixture(scope="module")
def tiny_untrained():
    return init_weights(named_config("tiny"), seed=3)


def noisy_series(length, seed=0, scale=1.0, name="x"):
    rng = np.random.default_rng(seed)
    return Series(values=(scale * rng.normal(size=length)).astype(np.float32),
                  name=name)


def gapped_series(length, seed, name, gap=slice(8, 16)):
    x = noisy_series(length, seed=seed, name=name)
    x.observed[gap] = False
    return x


# ------------------------------------------------------------------ specs


def test_imputation_spec_accepts_the_four_ratios_verbatim():
    assert IMPUTE_RATIOS == (0.125, 0.25, 0.375, 0.5)
    for r in IMPUTE_RATIOS:
        assert ImputationSpec(ratio=r).ratio == r
    with pytest.raises(ConfigError):
        ImputationSpec(ratio=0.3)
    with pytest.raises(ConfigError):
        ImputationSpec(block_len=0)


def test_sample_block_mask_counts_and_alignment():
    spec = ImputationSpec(ratio=0.25, block_len=8, seed=5)
    mask = sample_block_mask(spec, 512)
    assert mask.sum() == 512 - 16 * 8  # floor(0.25 * 64) = 16 hidden blocks
    blocks = mask.reshape(64, 8)
    assert np.all(blocks.all(axis=1) | (~blocks).any(axis=1))
    per_block = blocks.sum(axis=1)
    assert set(per_block) <= {0, 8}  # whole blocks only: aligned + contiguous
    again = sample_block_mask(spec, 512)
    assert np.array_equal(mask, again)
    with pytest.raises(ShapeError):
        sample_block_mask(spec, 100)


def loop_block_mask(spec, length):
    """sample_block_mask as a loop over the hidden blocks."""
    n_blocks = length // spec.block_len
    n_hidden = max(1, int(spec.ratio * n_blocks))
    hidden = np.random.default_rng(spec.seed).choice(n_blocks, size=n_hidden, replace=False)
    observed = np.ones(length, dtype=bool)
    for b in hidden:
        observed[b * spec.block_len:(b + 1) * spec.block_len] = False
    return observed


@pytest.mark.parametrize("ratio", IMPUTE_RATIOS)
def test_sample_block_mask_matches_the_block_loop(ratio):
    for seed in range(20):
        for length, block_len in ((512, 8), (768, 8), (96, 3), (10, 10)):
            spec = ImputationSpec(ratio=ratio, block_len=block_len, seed=seed)
            want = loop_block_mask(spec, length)
            assert np.array_equal(sample_block_mask(spec, length), want), (seed, length)


def test_sample_block_mask_hides_at_least_one_block():
    spec = ImputationSpec(ratio=0.125, block_len=8, seed=0)
    assert (~sample_block_mask(spec, 16)).sum() == 8  # max(1, floor(0.125*2))


def test_apply_block_mask_intersects_observedness():
    x = noisy_series(64, seed=1)
    out = apply_block_mask(x, ImputationSpec(ratio=0.25, block_len=8, seed=2))
    assert out.observed.sum() < 64
    assert np.array_equal(x.values, out.values)


def test_anomaly_and_forecast_spec_validation():
    with pytest.raises(ConfigError):
        AnomalySpec(window=0)


# ------------------------------------------------------------------ imputation


def test_impute_identity_when_fully_observed(small_weights):
    x = noisy_series(64, seed=2)
    assert zero_shot_impute(small_weights, x) is x


def test_impute_preserves_observed_bitwise_and_fills_gaps(small_weights):
    x = noisy_series(64, seed=3)
    masked = apply_block_mask(x, ImputationSpec(ratio=0.25, block_len=8, seed=4))
    out = zero_shot_impute(small_weights, masked)
    assert out.observed.all()
    obs = masked.observed
    assert np.array_equal(out.values[obs], masked.values[obs])
    assert np.all(np.isfinite(out.values))
    # the filled entries come from the reconstruction, not the stale values
    assert not np.array_equal(out.values[~obs], masked.values[~obs])


def test_impute_chunks_long_series(small_weights):
    x = noisy_series(160, seed=5)
    observed = np.ones(160, dtype=bool)
    observed[40:48] = False
    observed[150:158] = False
    masked = Series(values=x.values, observed=observed, name="long")
    out = zero_shot_impute(small_weights, masked)
    assert len(out) == 160
    assert out.observed.all()
    assert np.array_equal(out.values[observed], x.values[observed])


def test_impute_partially_observed_patch_is_reconstructed_but_copied_through(
    small_weights,
):
    x = noisy_series(64, seed=6)
    observed = np.ones(64, dtype=bool)
    observed[12:14] = False  # a 2-step hole inside one patch
    masked = Series(values=x.values, observed=observed)
    out = zero_shot_impute(small_weights, masked)
    assert np.array_equal(out.values[observed], x.values[observed])
    assert np.all(np.isfinite(out.values[12:14]))


def test_impute_requires_one_fully_observed_patch(small_weights):
    observed = np.zeros(64, dtype=bool)
    observed[::2] = True  # every patch has a hole
    x = Series(values=np.ones(64, dtype=np.float32), observed=observed)
    with pytest.raises(EmptySeriesError):
        zero_shot_impute(small_weights, x)


def test_impute_deterministic(small_weights):
    masked = apply_block_mask(noisy_series(64, seed=7),
                              ImputationSpec(ratio=0.375, block_len=8, seed=8))
    a = zero_shot_impute(small_weights, masked)
    b = zero_shot_impute(small_weights, masked)
    assert np.array_equal(a.values, b.values)


# ------------------------------------------------------------------ anomalies


def test_detect_scores_every_timestep(small_weights):
    x = noisy_series(150, seed=9)
    spec = AnomalySpec(window=64)
    result = detect_anomalies(small_weights, x, spec)
    assert result.series is x  # short series: no downsampling
    assert result.scores.shape == (150,)
    assert np.all(result.scores >= 0)
    assert np.all(np.isfinite(result.scores))


def loop_detect_scores(weights, x, mask_rounds=4):
    """detect_anomalies' scores with one model_forward per masking round."""
    cfg = weights.config
    vs, obs, spans = tasks._window_grid(x.values, x.observed, cfg.seq_len)
    norm, pobs, stats = prepare_windows(cfg, vs, obs)
    patch_group = np.arange(cfg.n_patches) % mask_rounds
    recon_full = np.zeros_like(vs)
    for j in range(mask_rounds):
        group = patch_group == j
        plan = pobs & ~group[None, :].astype(np.uint8)
        _, recon = model_forward(weights, norm, plan)
        denorm = revin_denormalize(recon.data, stats)
        cols = np.repeat(group, cfg.patch_len)
        recon_full[:, cols] = denorm[:, cols]
    sq = np.where(obs, np.square(vs - recon_full), np.float32(0.0))
    scores = np.zeros(len(x), dtype=np.float32)
    for w, (lo, hi, pad) in enumerate(spans):
        scores[lo:hi] = sq[w, pad:]
    return scores


def test_detect_stacked_rounds_match_the_per_round_loop(small_weights, monkeypatch):
    # 11 windows x 4 rounds = 44 rows: the stacked encode spans several chunks
    x = gapped_series(11 * 64 - 20, seed=13, name="d", gap=slice(100, 110))
    rows = []

    def counting_encode(w, x_norm, plan, head=None):
        rows.append(len(x_norm))
        return encode_windows(w, x_norm, plan, head)

    monkeypatch.setattr(tasks, "encode_windows", counting_encode)
    got = detect_anomalies(small_weights, x, AnomalySpec(window=64)).scores
    assert rows == [44]
    np.testing.assert_allclose(got, loop_detect_scores(small_weights, x),
                               rtol=1e-6, atol=1e-6)


def test_detect_downsamples_long_series(tiny_untrained):
    x = noisy_series(5000, seed=10)
    result = detect_anomalies(tiny_untrained, x)
    assert len(result.series) == 500
    assert result.scores.shape == (500,)


@pytest.mark.parametrize("length, gap, where", [
    (200, (64, 128), ""),
    # 3,000 steps are downsampled 10x, so the gap covers processed steps 64-127.
    (3000, (640, 1280), " of the downsampled series"),
])
def test_detect_names_the_series_and_window_with_no_observed_step(
    small_weights, length, gap, where
):
    observed = np.ones(length, dtype=bool)
    observed[gap[0]:gap[1]] = False
    x = Series(values=noisy_series(length, seed=12).values, observed=observed,
               name="gappy")
    with pytest.raises(EmptySeriesError) as err:
        detect_anomalies(small_weights, x, AnomalySpec(window=64))
    assert str(err.value) == (
        f"series 'gappy': window 1 (steps [64, 128){where}) has no observed step"
    )


def test_detect_window_must_match_model(small_weights):
    with pytest.raises(ConfigError):
        detect_anomalies(small_weights, noisy_series(64), AnomalySpec(window=512))


def test_detect_deterministic(small_weights):
    x = noisy_series(128, seed=11)
    spec = AnomalySpec(window=64)
    a = detect_anomalies(small_weights, x, spec)
    b = detect_anomalies(small_weights, x, spec)
    assert np.array_equal(a.scores, b.scores)


def test_detect_spike_has_max_score_with_trained_model(trained_tiny):
    weights, _ = trained_tiny
    values = np.ones(512, dtype=np.float32)
    values[300] = 8.0
    result = detect_anomalies(weights, Series(values=values, name="spike"))
    assert int(np.argmax(result.scores)) == 300


# ------------------------------------------------------------------ forecasting


def test_short_forecast_lengths_and_tail_discard(small_weights):
    history = noisy_series(64, seed=12)
    assert len(zero_shot_short_forecast(small_weights, history, 8)) == 8
    assert len(zero_shot_short_forecast(small_weights, history, 30)) == 30


def test_short_forecast_horizon_cap(small_weights):
    history = noisy_series(64, seed=13)
    assert len(zero_shot_short_forecast(small_weights, history, 32)) == 32
    with pytest.raises(HorizonError):
        zero_shot_short_forecast(small_weights, history, 33)
    with pytest.raises(ConfigError):
        zero_shot_short_forecast(small_weights, history, 0)


def test_short_forecast_uses_only_recent_history(small_weights):
    history = noisy_series(100, seed=14)
    # H=16 -> 2 masked patches -> 48 context steps
    recent = Series(values=history.values[-48:], name="recent")
    a = zero_shot_short_forecast(small_weights, history, 16)
    b = zero_shot_short_forecast(small_weights, recent, 16)
    assert np.array_equal(a.values, b.values)


def test_short_forecast_left_pads_short_history(small_weights):
    history = noisy_series(20, seed=15)
    out = zero_shot_short_forecast(small_weights, history, 16)
    assert len(out) == 16 and np.all(np.isfinite(out.values))


def test_short_forecast_affine_equivariance(small_weights):
    history = noisy_series(64, seed=16)
    base = zero_shot_short_forecast(small_weights, history, 16).values
    a, b = 2.5, -7.0
    scaled = Series(values=(a * history.values + b).astype(np.float32))
    shifted = zero_shot_short_forecast(small_weights, scaled, 16).values
    assert np.allclose(shifted, a * base + b, atol=1e-4)


def test_short_forecast_of_constant_history_is_constant(trained_tiny):
    weights, _ = trained_tiny
    history = Series(values=np.full(512, 3.7, dtype=np.float32))
    out = zero_shot_short_forecast(weights, history, 16)
    assert np.all(np.abs(out.values - 3.7) <= 0.1)


def test_long_forecast_requires_matching_head(small_weights):
    history = noisy_series(64, seed=17)
    with pytest.raises(ConfigError):
        long_forecast(small_weights, history, 16)
    headed = clone_weights(small_weights)
    attach_forecast_head(headed, 16, seed=1)
    with pytest.raises(ConfigError):
        long_forecast(headed, history, 32)
    assert len(long_forecast(headed, history, 16)) == 16


def test_long_forecast_zero_head_returns_history_mean(small_weights):
    headed = clone_weights(small_weights)
    attach_forecast_head(headed, 12, seed=1)
    headed.params["forecast_head.weight"].data[:] = 0.0
    headed.params["forecast_head.bias"].data[:] = 0.0
    history = noisy_series(64, seed=18, scale=3.0)
    out = long_forecast(headed, history, 12)
    assert np.allclose(out.values, history.values.mean(), atol=1e-5)


@pytest.mark.parametrize("horizon", [96, 720])
def test_long_forecast_standard_horizons_constructible(small_weights, horizon):
    headed = clone_weights(small_weights)
    attach_forecast_head(headed, horizon, seed=2)
    out = long_forecast(headed, noisy_series(64, seed=19), horizon)
    assert len(out) == horizon


def test_long_forecast_truncates_to_lookback(small_weights):
    headed = clone_weights(small_weights)
    attach_forecast_head(headed, 8, seed=3)
    history = noisy_series(200, seed=20)
    recent = Series(values=history.values[-64:])
    a = long_forecast(headed, history, 8)
    b = long_forecast(headed, recent, 8)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("factor", [1.5, 3])
def test_forecast_probe_encodes_the_window_long_forecast_serves(monkeypatch, small_weights,
                                                                 factor):
    # the probe sub-sampled a history longer than seq_len at stride
    # ceil(L / seq_len), while long_forecast serves its last seq_len steps
    weights = attach_forecast_head(clone_weights(small_weights), horizon=8, seed=1)
    length = int(factor * weights.config.seq_len)
    histories = [gapped_series(length, seed=i, name=f"s{i}") for i in range(3)]
    pairs = [(h, np.zeros(8, dtype=np.float32)) for h in histories]
    seen = []

    def encode_spy(w, x_norm, plan, head=None):
        seen.append((np.array(x_norm, copy=True), np.array(plan, copy=True)))
        return encode_windows(w, x_norm, plan, head)

    monkeypatch.setattr(tasks, "encode_windows", encode_spy)
    monkeypatch.setattr(pretrain, "encode_windows", encode_spy)
    long_forecast(weights, histories, 8)
    encode_forecast_pairs(weights, pairs)
    evaluate_forecast_mse(weights, pairs)
    (served, served_plan), *probed = seen
    assert len(probed) == 2
    for x_norm, plan in probed:
        assert np.array_equal(x_norm, served) and np.array_equal(plan, served_plan)


def horizon_calls(weights):
    """name -> call of one forecasting path with a given horizon."""
    history = noisy_series(64, seed=21)
    model = MaskedSeriesModel()
    model.weights_ = weights
    return {
        "naive_forecast": lambda h: naive_forecast(history, h),
        "zero_shot_short_forecast": lambda h: zero_shot_short_forecast(weights, history, h),
        "long_forecast": lambda h: long_forecast(weights, history, h),
        "attach_forecast_head": lambda h: attach_forecast_head(clone_weights(weights), h),
        "MaskedSeriesModel.forecast": lambda h: model.forecast(history, h),
        "MaskedSeriesModel.forecast probed": lambda h: model.forecast(history, h,
                                                                      mode="probed-head"),
    }


@pytest.mark.parametrize("horizon", [4.0, True, 0, "4"])
@pytest.mark.parametrize("path", sorted(horizon_calls(None)))
def test_every_forecast_path_refuses_a_horizon_that_is_not_a_positive_int(
        small_weights, path, horizon):
    # 4.0 died in a slice or went through, True forecast one step
    weights = attach_forecast_head(clone_weights(small_weights), horizon=4, seed=1)
    with pytest.raises(ConfigError, match=f"horizon must be an int >= 1, got {horizon!r}"):
        horizon_calls(weights)[path](horizon)


# ------------------------------------------------------------------ batches of series


LIST_ADAPTERS = {
    "zero_shot_short_forecast": lambda w, x: zero_shot_short_forecast(w, x, 8),
    "long_forecast": lambda w, x: long_forecast(w, x, 8),
    "zero_shot_impute": zero_shot_impute,
}


@pytest.mark.parametrize("adapter", sorted(LIST_ADAPTERS))
def test_list_forms_match_one_series_at_a_time(small_weights, adapter):
    weights = attach_forecast_head(clone_weights(small_weights), horizon=8, seed=1)
    run = LIST_ADAPTERS[adapter]
    # lengths 40-360: 1-6 windows a series, 144 windows to impute in all
    batch = [gapped_series(40 + 8 * i, seed=i, name=f"s{i}")
             for i in range(2 * CHUNK + 9)]
    batch[5] = noisy_series(70, seed=99, name="complete")
    got = run(weights, batch)
    assert isinstance(got, list) and len(got) == len(batch)
    for x, g in zip(batch, got):
        one = run(weights, x)
        assert (g.name, g.freq) == (one.name, one.freq)
        np.testing.assert_array_equal(g.observed, one.observed)
        np.testing.assert_allclose(g.values, one.values, rtol=1e-6, atol=1e-6)
    assert run(weights, []) == []


WRONG_TYPES = {
    "detect_anomalies([s])": (lambda w, s: detect_anomalies(w, [s]), "x", "list"),
    "detect_anomalies(ndarray)": (lambda w, s: detect_anomalies(w, s.values), "x", "ndarray"),
    "detect_anomalies([])": (lambda w, s: detect_anomalies(w, []), "x", "list"),
    "zero_shot_impute(ndarray)": (lambda w, s: zero_shot_impute(w, s.values), "x", "ndarray"),
    "zero_shot_impute(['x'])": (lambda w, s: zero_shot_impute(w, ["x"]), r"x\[0\]", "str"),
    "zero_shot_short_forecast(ndarray)": (
        lambda w, s: zero_shot_short_forecast(w, s.values, 4), "history", "ndarray"),
    "embed_series(s)": (lambda w, s: embed_series(w, s), "collection", "Series"),
    "classify_by_representation(ndarray)": (
        lambda w, s: classify_by_representation(w, np.zeros((2, 64)), [0, 1], [s], [0]),
        "train", "ndarray"),
    "linear_probe(forecast, [1, 2])": (
        lambda w, s: linear_probe(w, "forecast", [1, 2]), "forecast pair 0", "int"),
    "classify_by_representation(2-D labels)": (
        lambda w, s: classify_by_representation(w, [s, s], [[0], [1]], [s], [0]),
        "train_labels", "2-D list"),
    "classify_by_representation(ragged labels)": (
        lambda w, s: classify_by_representation(w, [s, s], [[0], [1, 2]], [s], [0]),
        "train_labels", "ragged list"),
    "detect_anomalies(spec='x')": (
        lambda w, s: detect_anomalies(w, s, spec="x"), "spec", "str"),
    "naive_forecast('abc')": (lambda w, s: naive_forecast("abc", 2), "history", "str"),
    "interp_nearest(list)": (lambda w, s: interp_nearest([1.0, 2.0]), "x", "list"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_typed_adapter_input_is_a_shape_error_naming_it(small_weights, case):
    # each was a bare AttributeError or TypeError from deep inside the adapter
    weights = attach_forecast_head(clone_weights(small_weights), horizon=4, seed=1)
    call, arg, got = WRONG_TYPES[case]
    with pytest.raises(ShapeError, match=f"^{arg} must be .*, got {got}$"):
        call(weights, noisy_series(64, seed=22))


def overflowing(x):
    """x with its last 56 steps set to finite float32 values whose RevIN
    normalization overflows: 48 at -3e38, then 8 at +3e38."""
    values = x.values.copy()
    values[-56:-8], values[-8:] = -3e38, 3e38
    return replace(x, values=values)


@pytest.mark.parametrize("adapter, length, window, n, bad", [
    pytest.param("forecast", 100, 0, 5, 2, id="forecast-100-0"),
    # two windows a series; the overflow is in the second
    pytest.param("impute", 128, 1, 5, 2, id="impute-128-1"),
    pytest.param("embed", 64, 0, 5, 2, id="embed-64-0"),
    # past the first chunk: embed encodes and pools CHUNK rows at a time
    pytest.param("embed", 64, 0, 24, 21, id="embed-64-0-past-first-chunk"),
])
def test_numeric_error_names_the_series_and_window(small_weights, adapter, length,
                                                   window, n, bad):
    batch = [gapped_series(length, seed=i, name=f"s{i}") for i in range(n)]
    batch[bad] = overflowing(batch[bad])
    run = {
        "forecast": lambda: zero_shot_short_forecast(small_weights, batch, 8),
        "impute": lambda: zero_shot_impute(small_weights, batch),
        "embed": lambda: embed_series(small_weights, batch),
    }[adapter]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        run()
    assert str(err.value) == (
        f"series 's{bad}': window {window}: non-finite activation after layer 0"
    )


# ------------------------------------------------------------------ classification


def two_class_collections(n_per_class=8, length=64):
    train, labels = [], []
    rng = np.random.default_rng(21)
    t = np.arange(length)
    for k in range(n_per_class):
        flat = rng.normal(scale=0.1, size=length)
        train.append(Series(values=flat.astype(np.float32), name=f"flat{k}"))
        labels.append("flat")
        wave = 5.0 * np.sin(2 * np.pi * 8 * t / length) + rng.normal(
            scale=0.1, size=length
        )
        train.append(Series(values=wave.astype(np.float32), name=f"wave{k}"))
        labels.append("wave")
    return train, np.asarray(labels)


def test_embed_series_shape_and_determinism(small_weights):
    series, _ = two_class_collections(n_per_class=3)
    reps = embed_series(small_weights, series)
    assert reps.shape == (6, small_weights.config.d_model)
    assert np.array_equal(reps, embed_series(small_weights, series))
    with pytest.raises(EmptySeriesError):
        embed_series(small_weights, [])


def test_embed_series_memory_holds_one_chunk_of_hidden_states():
    # each chunk of windows is pooled as soon as it is encoded; holding the
    # whole batch's [B,N,D] states and their masked copy peaked 20.8 MiB
    cfg = named_config("tiny")
    weights = init_weights(cfg, seed=0)
    rng = np.random.default_rng(4)
    series = [Series(values=rng.normal(size=cfg.seq_len).astype(np.float32),
                     name=f"s{i}") for i in range(1024)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reps = embed_series(weights, series)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert reps.shape == (1024, cfg.d_model)
    assert peak < 10 * 2**20, f"embedding 1,024 tiny series peaked {peak / 2**20:.1f} MiB"


def test_embed_series_names_an_all_unobserved_series(small_weights):
    blank = Series(values=np.zeros(80, dtype=np.float32),
                   observed=np.zeros(80, dtype=bool), name="blank")
    with pytest.raises(EmptySeriesError, match="series 'blank' has no observed step"):
        embed_series(small_weights, [noisy_series(80), blank])


@pytest.mark.parametrize("path", ["short_forecast", "long_forecast", "forecast_pairs",
                                  "zero_vs_mask"])
def test_forecast_paths_name_a_series_with_an_empty_window(small_weights, path):
    blank = Series(values=np.zeros(80, dtype=np.float32),
                   observed=np.zeros(80, dtype=bool), name="blank")
    series = [noisy_series(80), blank]
    weights = attach_forecast_head(clone_weights(small_weights), horizon=8, seed=1)
    run = {
        "short_forecast": lambda: zero_shot_short_forecast(weights, series, 8),
        "long_forecast": lambda: long_forecast(weights, series, 8),
        "forecast_pairs": lambda: encode_forecast_pairs(
            weights, [(s, np.zeros(8, dtype=np.float32)) for s in series]),
        "zero_vs_mask": lambda: probes.zero_vs_mask_probe(weights, series),
    }[path]
    with pytest.raises(EmptySeriesError, match="series 'blank' has no observed step"):
        run()


def test_embedding_stage_never_sees_labels():
    assert "label" not in str(inspect.signature(embed_series)).lower()


def test_svm_c_grid_is_the_nine_decades():
    assert SVM_C_GRID == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)


def test_classify_identical_separable_sets_scores_one(small_weights):
    series, labels = two_class_collections()
    result = classify_by_representation(small_weights, series, labels, series, labels)
    assert result.accuracy == 1.0
    assert result.predictions.shape == (len(series),)
    assert result.best_c in SVM_C_GRID


def test_classify_errors(small_weights):
    series, labels = two_class_collections(n_per_class=3)
    with pytest.raises(StratificationError):
        classify_by_representation(
            small_weights, series, ["same"] * len(series), series, labels
        )
    with pytest.raises(StratificationError):
        classify_by_representation(
            small_weights, series, labels, series, ["unseen"] * len(series)
        )
    with pytest.raises(ShapeError):
        classify_by_representation(small_weights, series, labels[:-1], series, labels)


def test_stratified_holdout_covers_every_class():
    labels = np.array(["a"] * 10 + ["b"] * 10 + ["c"] * 1)
    fit_idx, val_idx = _stratified_holdout(labels, seed=13)
    assert len(fit_idx) + len(val_idx) == 21
    assert set(labels[fit_idx]) == {"a", "b", "c"}  # singleton stays in train
    assert set(labels[val_idx]) == {"a", "b"}
    assert len(np.intersect1d(fit_idx, val_idx)) == 0
    again = _stratified_holdout(labels, seed=13)
    assert np.array_equal(fit_idx, again[0]) and np.array_equal(val_idx, again[1])


# ------------------------------------------------------------------ window preparation


def near_flat(length, gap=None):
    """3 + N(0, 1e-3^2): a spread far below a revin_eps of 0.5."""
    rng = np.random.default_rng(11)
    observed = np.ones(length, dtype=bool)
    if gap is not None:
        observed[gap] = False
    values = (3.0 + 1e-3 * rng.normal(size=length)).astype(np.float32)
    return Series(values=values, observed=observed, name="flat")


def adapter_cases(weights):
    """adapter -> (series whose training window equals the adapter's first
    encoder input, call that runs the adapter)."""
    flat = near_flat(64, gap=slice(20, 28))
    history = near_flat(56)
    masked_tail = Series(
        values=np.concatenate([history.values, np.zeros(8, dtype=np.float32)]),
        observed=np.concatenate([history.observed, np.zeros(8, dtype=bool)]),
    )
    flat_sine = synth_sine("frequency", 0.0, length=64, noise=1e-3, seed=0)
    return {
        "embed_series": (flat, lambda: embed_series(weights, [flat])),
        "zero_shot_impute": (flat, lambda: zero_shot_impute(weights, flat)),
        "detect_anomalies": (flat, lambda: detect_anomalies(weights, flat)),
        "zero_shot_short_forecast": (
            masked_tail, lambda: zero_shot_short_forecast(weights, history, 8)
        ),
        "long_forecast": (flat, lambda: long_forecast(weights, flat, 8)),
        "frequency_error_curve": (
            flat_sine,
            lambda: probes.frequency_error_curve(weights, grid=[0.0, 1.0], noise=1e-3),
        ),
    }


@pytest.mark.parametrize("adapter", [
    "embed_series", "zero_shot_impute", "detect_anomalies",
    "zero_shot_short_forecast", "long_forecast", "frequency_error_curve",
])
def test_adapters_normalize_with_the_training_revin_eps(monkeypatch, adapter):
    cfg = ModelConfig(seq_len=64, patch_len=8, d_model=16, n_layers=1,
                      n_heads=2, d_ff=32, revin_eps=0.5)
    weights = attach_forecast_head(init_weights(cfg, seed=3), horizon=8)
    seen = []

    def encode_spy(w, x_norm, plan, head=None):
        seen.append(np.array(x_norm, copy=True))
        return encode_windows(w, x_norm, plan, head)

    monkeypatch.setattr(tasks, "encode_windows", encode_spy)
    monkeypatch.setattr(probes, "encode_windows", encode_spy)
    series, run = adapter_cases(weights)[adapter]
    run()
    want = _prepare_series([series], cfg)[0][0]
    assert np.abs(want).max() < 0.01  # the eps floor, not the tiny spread, scales it
    rows = seen[0].reshape(-1, want.size)  # detect encodes one row per round
    if adapter == "frequency_error_curve":
        rows = rows[:1]  # the curve encodes its whole grid at once; row 0 is the flat sine
    for row in rows:
        np.testing.assert_array_equal(row, want)


def test_read_path_records_nothing_on_an_open_tape():
    # every adapter and probe runs its encode and its head off the tape, so
    # inside a caller's open Tape none of them leaves a node (and the batch's
    # hidden states it would hold)
    cfg = ModelConfig(seq_len=64, patch_len=8, d_model=16, n_layers=1,
                      n_heads=2, d_ff=32)
    weights = attach_forecast_head(init_weights(cfg, seed=3), horizon=8)
    series = [noisy_series(80, seed=i, name=f"s{i}") for i in range(3)]
    gappy = gapped_series(64, seed=4, name="g")
    pairs = [(s.slice(0, 72), s.values[72:]) for s in series]
    calls = {
        "zero_shot_short_forecast": lambda: zero_shot_short_forecast(weights, series, 8),
        "long_forecast": lambda: long_forecast(weights, series, 8),
        "zero_shot_impute": lambda: zero_shot_impute(weights, gappy),
        "detect_anomalies": lambda: detect_anomalies(weights, series[0]),
        "embed_series": lambda: embed_series(weights, series),
        "frequency_error_curve": lambda: probes.frequency_error_curve(
            weights, grid=[1.0, 2.0, 3.0]),
        "zero_vs_mask_probe": lambda: probes.zero_vs_mask_probe(
            weights, [s.slice(0, 64) for s in series]),
        "evaluate_forecast_mse": lambda: evaluate_forecast_mse(weights, pairs),
    }
    nodes = {}
    for name, call in calls.items():
        with nc.Tape() as tape:
            call()
        nodes[name] = len(tape)
    assert nodes == dict.fromkeys(calls, 0)
