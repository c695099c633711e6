"""Architecture tests: normalization, patching, positions, encoder invariants,
heads, checkpoints, and a full-model finite-difference gradient check."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from gradcheck import check_grads
import reference_chain as rc
from tinytsfm import numcore as nc
from tinytsfm import model as tm
from tinytsfm.baselines import Pca, RbfSvm
from tinytsfm.errors import ConfigError, EmptySeriesError, NumericError, ShapeError
from tinytsfm.pretrain import PretrainConfig
from tinytsfm.tasks import AnomalySpec, ImputationSpec


def rng_for(seed):
    return np.random.default_rng(seed)


# ------------------------------------------------------------------ config


def test_default_config_is_desk_scale():
    cfg = tm.ModelConfig()
    assert (cfg.seq_len, cfg.patch_len) == (512, 8)
    assert cfg.n_patches == 64
    assert (cfg.n_rel_buckets, cfg.rel_max_distance) == (32, 128)


def test_named_configs_match_size_table():
    sizes = {
        "tiny": (1, 32, 4, 64),
        "small": (2, 64, 4, 128),
        "base": (4, 128, 8, 256),
    }
    for name, (layers, d, heads, ff) in sizes.items():
        cfg = tm.named_config(name)
        assert (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_ff) == (layers, d, heads, ff)
    with pytest.raises(ConfigError):
        tm.named_config("giant")


def test_config_validation():
    with pytest.raises(ConfigError):
        tm.ModelConfig(seq_len=510)  # not divisible by patch_len
    with pytest.raises(ConfigError):
        tm.ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ConfigError):
        tm.ModelConfig(n_layers=-1)
    with pytest.raises(ConfigError):
        tm.ModelConfig(patch_len=0)
    tm.ModelConfig(n_layers=0)  # an identity encoder is allowed


def test_config_refuses_odd_d_model():
    # the sinusoidal positions need an even d_model: refuse it before any
    # weights are built or data is loaded, not at the first encode
    with pytest.raises(ConfigError, match="even d_model, got 9"):
        tm.ModelConfig(d_model=9, n_heads=3)
    with pytest.raises(ConfigError, match="even d_model"):
        tm.named_config("tiny", d_model=33, n_heads=3)


def test_checkpoint_refuses_odd_d_model(tmp_path):
    path = tmp_path / "ckpt.json"
    tm.save_checkpoint(tm.init_weights(_small_cfg(), seed=0), str(path))
    manifest = json.loads(path.read_text())
    manifest["config"].update(d_model=9, n_heads=3)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="even d_model"):
        tm.load_checkpoint(str(path))


@pytest.mark.parametrize("field, value", [
    ("patch_len", 8.0), ("seq_len", 512.0), ("n_layers", 1.0),
    ("n_layers", True), ("n_heads", "4"), ("d_ff", None), ("revin_eps", "1e-5"),
    ("revin_eps", math.nan), ("revin_eps", math.inf),
])
def test_config_refuses_non_integer_sizes_and_bad_eps(field, value):
    with pytest.raises(ConfigError, match=field):
        tm.ModelConfig(**{field: value})


RECORDS = {
    "PretrainConfig": PretrainConfig,
    "ImputationSpec": ImputationSpec,
    "AnomalySpec": AnomalySpec,
    "RbfSvm": lambda **kw: RbfSvm(**kw).fit(np.eye(4), [0, 1, 0, 1]),
    "Pca": lambda **kw: Pca(**kw).fit(np.eye(4)),
}


@pytest.mark.parametrize("record, field, value", [
    ("PretrainConfig", "epochs", "2"), ("PretrainConfig", "batch_size", 1.5),
    ("PretrainConfig", "seed", True), ("PretrainConfig", "mask_ratio", None),
    ("PretrainConfig", "total_steps", 10.0), ("ImputationSpec", "block_len", "8"),
    ("ImputationSpec", "seed", None), ("AnomalySpec", "window", "x"),
    ("AnomalySpec", "mask_rounds", 2.0), ("RbfSvm", "C", "1"), ("RbfSvm", "C", True),
    ("Pca", "k", 1.5), ("Pca", "k", True),
])
def test_records_refuse_wrong_typed_fields(record, field, value):
    # each was a bare TypeError from a range check, or was accepted
    with pytest.raises(ConfigError, match=f"^{field} must be (int|float), got "):
        RECORDS[record](**{field: value})


@pytest.mark.parametrize("buckets, distance, field", [
    (1, 128, "n_rel_buckets"), (2, 128, "n_rel_buckets"), (3, 128, "n_rel_buckets"),
    (32, 8, "rel_max_distance"), (32, 4, "rel_max_distance"), (32, 1, "rel_max_distance"),
    (4, 1, "rel_max_distance"), (9, 2, "rel_max_distance"),
])
def test_config_refuses_buckets_relative_bucket_cannot_fill(buckets, distance, field):
    # below 4 buckets, or at distance n_rel_buckets // 4, relative_bucket
    # divided by zero; below that distance it returned negative bucket ids
    with pytest.raises(ConfigError, match=field):
        tm.ModelConfig(n_rel_buckets=buckets, rel_max_distance=distance)


@pytest.mark.parametrize("buckets, distance", [(4, 2), (5, 2), (32, 9), (32, 128), (8, 3)])
def test_smallest_accepted_bucket_settings_give_ids_in_range(buckets, distance):
    cfg = tm.ModelConfig(n_rel_buckets=buckets, rel_max_distance=distance)
    ids = [tm.relative_bucket(r, cfg.n_rel_buckets, cfg.rel_max_distance)
           for r in range(-300, 301)]
    assert min(ids) == 0 and max(ids) < buckets


# ------------------------------------------------------------------ revin


def _revin(values, observed=None):
    """revin_normalize of one window as a batch of one row, every step observed
    unless `observed` says otherwise."""
    v = np.asarray(values, dtype=np.float32)[None]
    obs = np.ones(v.shape, dtype=bool) if observed is None else np.asarray(observed)[None]
    return tm.revin_normalize(v, obs)


def test_revin_example_one_two_three():
    out, stats = _revin([1.0, 2.0, 3.0])
    assert np.allclose(out, [[-1.2247449, 0.0, 1.2247449]], atol=1e-4)
    assert np.isclose(stats.mean[0], 2.0)
    assert np.isclose(stats.std[0], math.sqrt(2.0 / 3.0), atol=1e-6)


def test_revin_uses_population_variance():
    out, stats = _revin([0.0, 2.0])
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-6)
    assert np.isclose(stats.std[0], 1.0)


def test_revin_round_trip_within_1e5():
    rng = rng_for(0)
    v = rng.normal(3.0, 7.0, size=512).astype(np.float32)
    out, stats = _revin(v)
    back = tm.revin_denormalize(out, stats)
    assert back.shape == (1, 512)
    assert np.max(np.abs(back[0] - v)) <= 1e-5


def test_revin_stats_ignore_unobserved():
    v = np.array([1.0, 2.0, 3.0, 100.0], dtype=np.float32)
    obs = np.array([True, True, True, False])
    out, stats = _revin(v, obs)
    assert np.isclose(stats.mean[0], 2.0)
    assert out[0, 3] == 0.0
    assert np.allclose(out[0, :3], [-1.2247449, 0.0, 1.2247449], atol=1e-4)


def test_revin_constant_series_uses_eps_floor():
    v = np.full(8, 5.0, dtype=np.float32)
    out, stats = _revin(v)
    assert np.all(out == 0.0)
    assert stats.std[0] == np.float32(1e-5)
    assert np.allclose(tm.revin_denormalize(out, stats), v[None])


def test_revin_garbage_under_unobserved_cannot_poison_stats():
    v = np.array([1.0, np.inf, 2.0, np.nan], dtype=np.float32)
    obs = np.array([True, False, True, False])
    out, stats = _revin(v, obs)
    assert np.all(np.isfinite(out))
    assert np.isclose(stats.mean[0], 1.5)


def test_revin_all_unobserved_raises():
    with pytest.raises(EmptySeriesError):
        tm.revin_normalize(np.zeros((1, 4)), np.zeros((1, 4), dtype=bool))


def test_revin_batch_matches_per_series():
    rng = rng_for(1)
    v = rng.normal(0, 2, size=(4, 64)).astype(np.float32)
    obs = rng.random((4, 64)) > 0.3
    obs[:, 0] = True
    batch_out, batch_stats = tm.revin_normalize(v, obs)
    for i in range(4):
        row, stats = tm.revin_normalize(v[i:i + 1], obs[i:i + 1])
        assert np.allclose(batch_out[i], row[0], atol=1e-6)
        assert np.isclose(batch_stats.mean[i], stats.mean[0])
        assert np.isclose(batch_stats.std[i], stats.std[0])


def test_revin_affine_invariance():
    rng = rng_for(2)
    y = rng.normal(0, 1, size=256).astype(np.float32)
    ny, _ = _revin(y)
    nz, _ = _revin(3.7 * y - 11.0)
    assert np.max(np.abs(ny - nz)) <= 1e-4


def test_window_helpers_refuse_a_single_window():
    with pytest.raises(ShapeError):
        tm.revin_normalize(np.arange(8.0), np.ones(8, dtype=bool))
    with pytest.raises(ShapeError):
        tm.revin_denormalize(np.arange(8.0), tm.RevinStats(np.zeros(1, np.float32),
                                                           np.ones(1, np.float32)))
    with pytest.raises(ShapeError):
        tm.sequence_representation(np.ones((3, 4)), [True, False, True])


# ------------------------------------------------------------------ patching


def test_patchify_shapes_and_order():
    p = tm.patchify(np.arange(16, dtype=np.float32), 4)
    assert p.shape == (4, 4)
    assert np.array_equal(p[1], [4, 5, 6, 7])
    batch = tm.patchify(np.zeros((3, 512), dtype=np.float32), 8)
    assert batch.shape == (3, 64, 8)
    with pytest.raises(ShapeError):
        tm.patchify(np.zeros(10), 4)


def test_left_pad_marks_prefix_unobserved():
    values, observed = tm.left_pad(np.arange(1, 101, dtype=np.float32), 512)
    assert values.shape == (512,) and observed.shape == (512,)
    assert np.all(values[:412] == 0) and not observed[:412].any()
    assert np.array_equal(values[412:], np.arange(1, 101)) and observed[412:].all()
    indicator = tm.patch_observed_indicator(observed, 8)
    assert (indicator == 0).sum() == 52  # 51 fully padded patches + 1 straddling patch


def test_left_pad_rejects_too_long():
    with pytest.raises(ShapeError):
        tm.left_pad(np.zeros(513), 512)


def test_patch_plan_all_timesteps_rule():
    obs = np.ones(16, dtype=bool)
    obs[5] = False  # one missing timestep masks the whole patch
    indicator = tm.patch_observed_indicator(obs, 4)
    assert np.array_equal(indicator, [1, 0, 1, 1])
    assert (indicator == 0).sum() == 1


def test_nonpadded_patches_any_rule():
    obs = np.zeros(16, dtype=bool)
    obs[4] = True  # one observed timestep keeps the patch
    got = tm.nonpadded_patches(obs, 4)
    assert np.array_equal(got, [False, True, False, False])


# ------------------------------------------------------------------ positions


def test_sinusoidal_pe_values():
    pe = tm.sinusoidal_pe(8, 4)
    assert pe.shape == (8, 4)
    assert np.allclose(pe[0], [0.0, 1.0, 0.0, 1.0])
    assert np.isclose(pe[1, 0], math.sin(1.0), atol=1e-6)
    assert np.isclose(pe[1, 1], math.cos(1.0), atol=1e-6)
    assert np.isclose(pe[1, 2], math.sin(1.0 / 100.0), atol=1e-6)
    with pytest.raises(ConfigError):
        tm.sinusoidal_pe(8, 5)


def test_sinusoidal_pe_is_cached_read_only():
    pe = tm.sinusoidal_pe(16, 6)
    assert tm.sinusoidal_pe(16, 6) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_relative_bucket_exact_region():
    for n in range(8):
        assert tm.relative_bucket(-n) == n
    for n in range(1, 8):
        assert tm.relative_bucket(n) == 16 + n
    assert tm.relative_bucket(0) == 0
    assert tm.relative_bucket(-8) == 8
    assert tm.relative_bucket(8) == 24


def test_relative_bucket_sign_split_and_range():
    for rel in range(-2000, 2001):
        b = tm.relative_bucket(rel)
        assert 0 <= b < 32
        if rel > 0:
            assert b >= 16
        else:
            assert b < 16


def test_relative_bucket_monotone_in_distance():
    prev_neg = prev_pos = -1
    for n in range(0, 2001):
        bn = tm.relative_bucket(-n)
        assert bn >= prev_neg
        prev_neg = bn
        if n > 0:
            bp = tm.relative_bucket(n)
            assert bp >= prev_pos
            prev_pos = bp


def test_relative_bucket_mirror_offset():
    for n in range(1, 500):
        assert tm.relative_bucket(n) == tm.relative_bucket(-n) + 16


def test_relative_bucket_saturates_past_max_distance():
    for n in range(128, 1000, 37):
        assert tm.relative_bucket(-n) == 15
        assert tm.relative_bucket(n) == 31


def test_relative_bucket_covers_all_buckets_within_range():
    seen = {tm.relative_bucket(rel) for rel in range(-128, 129)}
    # bucket 16 (positive half, distance 0) is unreachable by construction:
    # offset 0 belongs to the non-positive half
    assert seen == set(range(32)) - {16}


def test_bucket_index_matrix_matches_scalar_op():
    idx = tm._bucket_index_matrix(16, 32, 128)
    for i in range(16):
        for j in range(16):
            assert idx[i, j] == tm.relative_bucket(j - i)


# ------------------------------------------------------------------ weights


def test_init_weights_names_shapes_and_policies():
    cfg = tm.ModelConfig(seq_len=32, patch_len=8, d_model=32, n_layers=2, n_heads=4, d_ff=64)
    w = tm.init_weights(cfg, seed=3)
    assert set(w.params) == set(tm.expected_param_shapes(cfg))
    for name, shape in tm.expected_param_shapes(cfg).items():
        assert w.params[name].data.shape == shape
        assert w.params[name].requires_grad
    assert np.all(w.params["layers.0.norm1.gamma"].data == 1.0)
    assert np.all(w.params["patch_embed.bias"].data == 0.0)
    assert np.all(w.params["layers.1.attn.rel_bias"].data == 0.0)
    bound = 1.0 / math.sqrt(32)
    assert np.max(np.abs(w.params["layers.0.attn.wq"].data)) <= bound
    assert np.max(np.abs(w.params["patch_embed.weight"].data)) <= 1.0 / math.sqrt(8)
    tok = w.params["mask_token"].data
    assert 0.5 < tok.std() < 1.5 and abs(tok.mean()) < 0.7


def test_init_weights_deterministic_per_seed():
    cfg = tm.ModelConfig(seq_len=32, patch_len=8, d_model=16, n_layers=1, n_heads=2, d_ff=32)
    a = tm.init_weights(cfg, seed=7)
    b = tm.init_weights(cfg, seed=7)
    c = tm.init_weights(cfg, seed=8)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    assert not np.array_equal(a.params["patch_embed.weight"].data,
                              c.params["patch_embed.weight"].data)


# ------------------------------------------------------------------ embedding


def _small_cfg(**kw):
    base = dict(seq_len=32, patch_len=8, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    base.update(kw)
    return tm.ModelConfig(**base)


def test_embed_observed_rows_are_linear_projection():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=0)
    rng = rng_for(4)
    patches = rng.normal(size=(1, 4, 8)).astype(np.float32)
    out = tm.embed_patches(patches, np.ones((1, 4), dtype=np.uint8), w)
    manual = patches @ w.params["patch_embed.weight"].data + w.params["patch_embed.bias"].data
    assert np.allclose(out.data, manual, atol=1e-6)


def test_embed_masked_rows_equal_mask_token_bitwise():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=0)
    rng = rng_for(5)
    patches = rng.normal(size=(1, 4, 8)).astype(np.float32)
    plan = np.array([[1, 0, 0, 1]], dtype=np.uint8)
    out = tm.embed_patches(patches, plan, w)
    tok = w.params["mask_token"].data
    assert np.array_equal(out.data[0, 1], tok)
    assert np.array_equal(out.data[0, 2], tok)


def test_embed_masked_values_cannot_influence_output():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=0)
    rng = rng_for(6)
    patches = rng.normal(size=(2, 4, 8)).astype(np.float32)
    plan = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
    tampered = patches.copy()
    tampered[plan == 0] = 1e6
    a = tm.embed_patches(patches, plan, w)
    b = tm.embed_patches(tampered, plan, w)
    assert np.array_equal(a.data, b.data)


# ------------------------------------------------------------------ encoder


def test_encoder_zero_layers_is_identity():
    cfg = _small_cfg(n_layers=0)
    w = tm.init_weights(cfg, seed=0)
    rng = rng_for(7)
    e = rng.normal(size=(1, 4, 8)).astype(np.float32)
    out = tm.encoder_forward(nc.Tensor(e), w)
    assert np.array_equal(out.data, e)


def test_encoder_zeroed_output_projections_give_residual_identity():
    cfg = _small_cfg(n_layers=2)
    w = tm.init_weights(cfg, seed=1)
    for i in range(2):
        w.params[f"layers.{i}.attn.wo"].data[:] = 0.0
        w.params[f"layers.{i}.ff.w2"].data[:] = 0.0
    rng = rng_for(8)
    e = rng.normal(size=(3, 4, 8)).astype(np.float32)
    out = tm.encoder_forward(nc.Tensor(e), w)
    assert np.all(out.data == e)


def test_encoder_attention_rows_sum_to_one():
    cfg = _small_cfg(n_layers=2)
    w = tm.init_weights(cfg, seed=2)
    rng = rng_for(9)
    e = rng.normal(size=(2, 4, 8)).astype(np.float32)
    sink = []
    tm.encoder_forward(nc.Tensor(e), w, attn_sink=sink)
    assert len(sink) == 2
    for attn in sink:
        assert attn.shape == (2, cfg.n_heads, 4, 4)
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-6


def test_encoder_relative_bias_shifts_attention():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=3)
    rng = rng_for(10)
    e = rng.normal(size=(1, 4, 8)).astype(np.float32)
    sink_flat = []
    tm.encoder_forward(nc.Tensor(e), w, attn_sink=sink_flat)
    # a huge bias on the self-offset bucket (0) should pull mass onto the diagonal
    w.params["layers.0.attn.rel_bias"].data[0, :] = 50.0
    sink_biased = []
    tm.encoder_forward(nc.Tensor(e), w, attn_sink=sink_biased)
    diag = np.einsum("bhii->bhi", sink_biased[0])
    assert np.all(diag > 0.99)
    assert not np.allclose(sink_flat[0], sink_biased[0])


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))


def _encoder_run(w, e, wout):
    """hidden, attention sink and every gradient of one encoder pass."""
    sink = []
    with nc.Tape() as tape:
        h = tm.encoder_forward(e, w, attn_sink=sink)
        loss = rc.mean_(rc.mul(h, wout))
    got = nc.backward(loss, tape)
    grads = {name: got[p] for name, p in w.params.items() if p in got}
    grads["embeddings"] = got[e]
    return h.data.copy(), sink, grads


def _biased_weights(name, seed):
    cfg = tm.named_config(name)
    w = tm.init_weights(cfg, seed=seed)
    rng = rng_for(seed + 1)
    for i in range(cfg.n_layers):  # the init bias is zero; make it matter
        w.params[f"layers.{i}.attn.rel_bias"].data[:] = rng.normal(
            size=(cfg.n_rel_buckets, cfg.n_heads))
    return w, rng


def _assert_matches_chain(fused, ref, cfg, batch):
    assert _rel_err(fused[0], ref[0]) <= 1e-6
    assert len(fused[1]) == len(ref[1]) == cfg.n_layers
    for got, want in zip(fused[1], ref[1]):
        assert got.shape == (batch, cfg.n_heads, cfg.n_patches, cfg.n_patches)
        assert _rel_err(got, want) <= 1e-6
    assert set(fused[2]) == set(ref[2])
    assert "layers.0.attn.rel_bias" in fused[2]
    for key, want in ref[2].items():
        assert _rel_err(fused[2][key], want) <= 1e-5, key


@pytest.mark.parametrize("name", ["tiny", "small"])
@pytest.mark.parametrize("batch", [1, 5])
def test_fused_attention_matches_reference_chain(monkeypatch, name, batch):
    w, rng = _biased_weights(name, 21)
    cfg = w.config
    e = nc.Tensor(rng.normal(size=(batch, cfg.n_patches, cfg.d_model)), requires_grad=True)
    wout = nc.Tensor(rng.normal(size=e.shape))
    fused = _encoder_run(w, e, wout)
    monkeypatch.setattr(nc, "encoder_block", rc.reference_block)
    _assert_matches_chain(fused, _encoder_run(w, e, wout), cfg, batch)


def _encode_run(w, x, plan, wout):
    """hidden, attention sink and every parameter gradient of one encode."""
    sink = []
    with nc.Tape() as tape:
        h = tm.encode(w, x, plan, attn_sink=sink)
        loss = rc.mean_(rc.mul(h, wout))
    got = nc.backward(loss, tape)
    return h.data.copy(), sink, {name: got[p] for name, p in w.params.items() if p in got}


@pytest.mark.parametrize("name", ["tiny", "small"])
@pytest.mark.parametrize("batch", [1, 5, 2 * nc.CHUNK + 5])  # the last: three backward chunks
def test_fused_encode_matches_reference_chain(monkeypatch, name, batch):
    w, rng = _biased_weights(name, 31)
    cfg = w.config
    x = rng.normal(size=(batch, cfg.seq_len)).astype(np.float32)
    plan = (rng.random((batch, cfg.n_patches)) > 0.3).astype(np.uint8)
    wout = nc.Tensor(rng.normal(size=(batch, cfg.n_patches, cfg.d_model)))
    fused = _encode_run(w, x, plan, wout)
    monkeypatch.setattr(nc, "encoder_block", rc.reference_block)
    monkeypatch.setattr(nc, "patch_embed", rc.reference_patch_embed)
    ref = _encode_run(w, x, plan, wout)
    assert {"patch_embed.weight", "patch_embed.bias", "mask_token"} <= set(ref[2])
    _assert_matches_chain(fused, ref, cfg, batch)


def test_encoder_raises_numeric_error_naming_layer():
    cfg = _small_cfg(n_layers=2)
    w = tm.init_weights(cfg, seed=4)
    w.params["layers.1.ff.w2"].data[:] = np.inf
    rng = rng_for(11)
    e = rng.normal(size=(1, 4, 8)).astype(np.float32)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 1"):
        tm.encoder_forward(nc.Tensor(e), w)


def test_encoder_rejects_wrong_embedding_dim():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=0)
    with pytest.raises(ShapeError):
        tm.encoder_forward(nc.Tensor(np.zeros((1, 4, 16), dtype=np.float32)), w)


# ------------------------------------------------------------------ full forward


def test_model_forward_shapes_and_refuses_unbatched_input():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=5)
    rng = rng_for(12)
    x = rng.normal(size=32).astype(np.float32)
    with pytest.raises(ShapeError):
        tm.model_forward(w, x, np.ones(4, dtype=np.uint8))
    h, recon = tm.model_forward(w, x[None], np.ones((1, 4), dtype=np.uint8))
    assert h.shape == (1, 4, 8) and recon.shape == (1, 32)
    xb = rng.normal(size=(3, 32)).astype(np.float32)
    hb, reconb = tm.model_forward(w, xb, np.ones((3, 4), dtype=np.uint8))
    assert hb.shape == (3, 4, 8) and reconb.shape == (3, 32)


def test_model_forward_batch_matches_single():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=6)
    rng = rng_for(13)
    xb = rng.normal(size=(3, 32)).astype(np.float32)
    plan = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]], dtype=np.uint8)
    hb, reconb = tm.model_forward(w, xb, plan)
    for i in range(3):
        h, recon = tm.model_forward(w, xb[i:i + 1], plan[i:i + 1])
        assert np.allclose(h.data[0], hb.data[i], atol=1e-6)
        assert np.allclose(recon.data[0], reconb.data[i], atol=1e-6)


def test_encode_windows_matches_encode_in_chunks_and_records_nothing():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=8)
    rng = rng_for(15)
    n = 2 * nc.CHUNK + 5
    xb = rng.normal(size=(n, 32)).astype(np.float32)
    plan = (rng.random((n, 4)) > 0.3).astype(np.uint8)
    with nc.Tape() as tape:
        hidden = tm.encode_windows(w, xb, plan)
    assert len(tape) == 0
    assert isinstance(hidden, np.ndarray) and hidden.shape == (n, 4, 8)
    for i in (0, nc.CHUNK - 1, nc.CHUNK, n - 1):
        np.testing.assert_allclose(hidden[i], tm.encode(w, xb[i:i + 1], plan[i:i + 1]).data[0],
                                   rtol=1e-6, atol=1e-6)
    h, _ = tm.model_forward(w, xb[:3], plan[:3])
    np.testing.assert_allclose(hidden[:3], h.data, rtol=1e-6, atol=1e-6)


def test_encode_windows_reuses_the_thread_scratch_and_hands_back_none_of_it():
    # unrecorded encoder_block nodes on at most CHUNK windows draw their large
    # arrays from the thread's scratch Workspace, so each chunk writes into
    # pages the last one faulted in (glibc handed them back after each chunk)
    cfg = tm.named_config("tiny")
    w = tm.init_weights(cfg, seed=4)
    n = 2 * nc.CHUNK + 3
    xb = rng_for(17).normal(size=(n, cfg.seq_len)).astype(np.float32)
    plan = np.ones((n, cfg.n_patches), dtype=np.uint8)
    hidden = tm.encode_windows(w, xb, plan)
    scratch = nc._TAPES.scratch
    first = dict(scratch)
    assert first, "no chunk drew from the scratch"
    recon = tm.encode_windows(w, xb[:5], plan[:5], tm.reconstruction_head)
    assert all(scratch[key] is buf for key, buf in first.items())
    for got in (hidden, recon):
        assert not any(np.shares_memory(got, buf) for buf in scratch.values())
    # bit for bit what fresh arrays give: a batch over CHUNK windows takes them
    np.testing.assert_array_equal(hidden, tm.encode(w, xb, plan).data)
    # a training step's workspace stands in for the scratch
    with nc.Tape(nc.Workspace()):
        assert not scratch


def test_encode_windows_numeric_error_carries_the_batch_row():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=9)
    n = nc.CHUNK + 10
    xb = rng_for(16).normal(size=(n, 32)).astype(np.float32)
    bad = nc.CHUNK + 7  # in the second chunk
    xb[bad, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 0") as err:
        tm.encode_windows(w, xb, np.ones((n, 4), dtype=np.uint8))
    assert err.value.row == bad


def test_encode_windows_refuses_unbatched_input():
    w = tm.init_weights(_small_cfg(), seed=9)
    with pytest.raises(ShapeError):
        tm.encode_windows(w, np.zeros(32, dtype=np.float32), np.ones(4, dtype=np.uint8))


def test_model_forward_takes_an_empty_batch_as_encode_windows_does():
    w = tm.init_weights(tm.named_config("tiny"), seed=0)
    x, plan = np.zeros((0, 512), dtype=np.float32), np.ones((0, 64), dtype=np.uint8)
    h, recon = tm.model_forward(w, x, plan)
    assert h.shape == tm.encode_windows(w, x, plan).shape == (0, 64, 32)
    assert recon.shape == (0, 512)


def test_model_forward_masked_input_independence_is_bitwise():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=7)
    rng = rng_for(14)
    x = rng.normal(size=(2, 32)).astype(np.float32)
    plan = np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    tampered = x.copy()
    for b in range(2):
        for n in range(4):
            if plan[b, n] == 0:
                tampered[b, n * 8:(n + 1) * 8] = 123456.0
    h1, r1 = tm.model_forward(w, x, plan)
    h2, r2 = tm.model_forward(w, tampered, plan)
    assert np.array_equal(h1.data, h2.data)
    assert np.array_equal(r1.data, r2.data)


def test_model_forward_deterministic():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=8)
    rng = rng_for(15)
    x = rng.normal(size=(2, 32)).astype(np.float32)
    plan = np.ones((2, 4), dtype=np.uint8)
    _, r1 = tm.model_forward(w, x, plan)
    _, r2 = tm.model_forward(w, x, plan)
    assert np.array_equal(r1.data, r2.data)


def test_model_forward_rejects_bad_plan_shape():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=9)
    with pytest.raises(ShapeError):
        tm.model_forward(w, np.zeros((1, 32), dtype=np.float32), np.ones((1, 5), dtype=np.uint8))


# ------------------------------------------------------------------ heads


def test_reconstruction_head_zeroed_gives_zero_output():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=10)
    w.params["recon_head.weight"].data[:] = 0.0
    rng = rng_for(16)
    h = rng.normal(size=(2, 4, 8)).astype(np.float32)
    out = tm.reconstruction_head(nc.Tensor(h), w)
    assert out.shape == (2, 32)
    assert np.all(out.data == 0.0)
    with pytest.raises(ShapeError):
        tm.reconstruction_head(nc.Tensor(h[0]), w)


def test_forecasting_head_requires_attachment():
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=11)
    h = np.zeros((1, 4, 8), dtype=np.float32)
    with pytest.raises(ConfigError):
        tm.forecasting_head(nc.Tensor(h), w)
    tm.attach_forecast_head(w, horizon=6, seed=0)
    out = tm.forecasting_head(nc.Tensor(h), w)
    assert out.shape == (1, 6)
    assert w.horizon == 6
    with pytest.raises(ConfigError):
        tm.forecasting_head(nc.Tensor(np.zeros((1, 5, 8), dtype=np.float32)), w)
    with pytest.raises(ConfigError):
        tm.attach_forecast_head(w, horizon=0)


def test_sequence_representation_mean_of_selected_rows():
    h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
    rep = tm.sequence_representation(h[None], [[True, False, True]])
    assert rep.shape == (1, 2)
    assert np.allclose(rep, [[3.0, 4.0]])
    batch = tm.sequence_representation(
        np.stack([h, h]), np.array([[True, True, True], [False, True, False]])
    )
    assert np.allclose(batch[0], [3.0, 4.0])
    assert np.allclose(batch[1], [3.0, 4.0])
    with pytest.raises(EmptySeriesError):
        tm.sequence_representation(h[None], [[False, False, False]])


# ------------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cfg = _small_cfg(n_layers=2)
    w = tm.init_weights(cfg, seed=12)
    tm.attach_forecast_head(w, horizon=8, seed=1)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    loaded = tm.load_checkpoint(str(path))
    assert loaded.config == cfg
    assert loaded.horizon == 8
    assert set(loaded.params) == set(w.params)
    for name in w.params:
        assert np.array_equal(loaded.params[name].data, w.params[name].data)
        assert loaded.params[name].requires_grad


def test_checkpoint_manifest_layout(tmp_path):
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=13)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    manifest = json.loads(path.read_text())
    assert manifest["config"]["forecast_horizon"] is None
    total = 0
    for name, entry in manifest["params"].items():
        assert entry["length"] == int(np.prod(entry["shape"])) * 4
        assert entry["offset"] >= 0
        total += entry["length"]
    blob = (tmp_path / "model.ckpt.bin").read_bytes()
    assert len(blob) == total


def test_checkpoint_detects_shape_tamper(tmp_path):
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=14)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    manifest = json.loads(path.read_text())
    manifest["params"]["mask_token"]["shape"] = [4]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError):
        tm.load_checkpoint(str(path))


def test_checkpoint_detects_missing_param(tmp_path):
    cfg = _small_cfg()
    w = tm.init_weights(cfg, seed=15)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    manifest = json.loads(path.read_text())
    del manifest["params"]["recon_head.bias"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError):
        tm.load_checkpoint(str(path))


def test_checkpoint_manifest_holds_each_parameter_digest(tmp_path):
    w = tm.init_weights(_small_cfg(), seed=16)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    blob = (tmp_path / "model.ckpt.bin").read_bytes()
    for entry in json.loads(path.read_text())["params"].values():
        chunk = blob[entry["offset"]:entry["offset"] + entry["length"]]
        assert entry["sha256"] == hashlib.sha256(chunk).hexdigest()


def test_checkpoint_detects_a_flipped_byte_in_a_finite_weight(tmp_path):
    w = tm.init_weights(_small_cfg(), seed=17)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    entry = json.loads(path.read_text())["params"]["patch_embed.weight"]
    blob = tmp_path / "model.ckpt.bin"
    raw = bytearray(blob.read_bytes())
    raw[entry["offset"] + 4] ^= 0x01
    blob.write_bytes(bytes(raw))
    assert np.isfinite(np.frombuffer(bytes(raw), dtype="<f4")).all()
    with pytest.raises(ConfigError, match="'patch_embed.weight'.*sha256"):
        tm.load_checkpoint(str(path))


def test_checkpoint_without_digests_still_loads(tmp_path):
    w = tm.init_weights(_small_cfg(), seed=18)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    manifest = json.loads(path.read_text())
    for entry in manifest["params"].values():
        del entry["sha256"]
    path.write_text(json.dumps(manifest))
    loaded = tm.load_checkpoint(str(path))
    for name in w.params:
        assert np.array_equal(loaded.params[name].data, w.params[name].data)


def test_checkpoint_save_replaces_files_whole(tmp_path, monkeypatch):
    w = tm.init_weights(_small_cfg(), seed=19)
    path = tmp_path / "model.ckpt"
    tm.save_checkpoint(w, str(path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        # each file is written in full under a temporary name in the same
        # directory, then renamed over the old one; fail the second rename
        assert os.path.dirname(src) == os.path.dirname(dst) == str(tmp_path)
        replaced.append(os.path.basename(dst))
        if len(replaced) == 2:
            raise OSError("disk gone")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    w2 = tm.init_weights(_small_cfg(), seed=20)
    with pytest.raises(OSError):
        tm.save_checkpoint(w2, str(path))
    assert replaced == ["model.ckpt.bin", "model.ckpt"]
    # the old manifest still stands, beside the new blob: a mismatch the
    # digests catch instead of loading the wrong weights
    assert (tmp_path / "model.ckpt").read_bytes() == before["model.ckpt"]
    with pytest.raises(ConfigError, match="sha256"):
        tm.load_checkpoint(str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.bin"]


@pytest.mark.parametrize("field, value", [
    ("patch_len", 8.0), ("seq_len", 512.0), ("n_layers", 1.0), ("forecast_horizon", 4.0),
])
def test_checkpoint_refuses_non_integer_config_sizes(tmp_path, field, value):
    w = tm.attach_forecast_head(tm.init_weights(_small_cfg(), seed=0), horizon=4)
    path = tmp_path / "ckpt.json"
    tm.save_checkpoint(w, str(path))
    manifest = json.loads(path.read_text())
    manifest["config"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=field):
        tm.load_checkpoint(str(path))


def test_checkpoint_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        tm.load_checkpoint(str(tmp_path / "nope.ckpt"))


# ------------------------------------------------------------------ gradients


def test_full_model_gradcheck():
    cfg = _small_cfg()
    w = tm.attach_forecast_head(tm.init_weights(cfg, seed=16), horizon=4, seed=16)
    rng = rng_for(17)
    x = rng.normal(size=(3, 32)).astype(np.float32)
    plan = rng.integers(0, 2, size=(3, 4)).astype(np.uint8)
    plan[0, 0] = 1
    plan[0, 1] = 0  # guarantee both routes are exercised
    wr = nc.Tensor(rng.choice([-1.0, 1.0], size=(3, 32)).astype(np.float32))
    wf = nc.Tensor(rng.choice([-1.0, 1.0], size=(3, 4)).astype(np.float32))

    def loss_fn():
        h, recon = tm.model_forward(w, x, plan)
        fc = tm.forecasting_head(h, w)
        return rc.add(rc.mean_(rc.mul(recon, wr)), rc.mean_(rc.mul(fc, wf)))

    worst = check_grads(loss_fn, w.params, tol=2e-3)
    assert worst < 2e-3
