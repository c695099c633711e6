"""Pre-training tests: mask sampling, the masked objective against a
brute-force oracle, the training loop contract, and probe freezing."""

import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import clone_weights
import reference_chain as rc
from tinytsfm import data as td
from tinytsfm import model as tm
from tinytsfm import numcore as nc
from tinytsfm import pretrain as tp
from tinytsfm.errors import (
    ConfigError,
    ContractError,
    EmptySeriesError,
    ParseError,
    ShapeError,
    TrainingError,
)


def tiny_cfg(**kw):
    base = dict(seq_len=64, patch_len=8, d_model=16, n_layers=1, n_heads=2, d_ff=32)
    base.update(kw)
    return tm.ModelConfig(**base)


def sine_corpus(n=12, length=64, seed0=0):
    out = []
    for i in range(n):
        out.append(
            td.synth_sine(
                "frequency", 1 + (i % 6), length=length, noise=0.05, seed=seed0 + i,
                name=f"train_{i}",
            )
        )
    return out


# ------------------------------------------------------------------ config & log


def test_pretrain_config_validation():
    with pytest.raises(ConfigError):
        tp.PretrainConfig(mask_ratio=0.0)
    with pytest.raises(ConfigError):
        tp.PretrainConfig(mask_ratio=1.0)
    with pytest.raises(ConfigError):
        tp.PretrainConfig(epochs=None, total_steps=None)
    with pytest.raises(ConfigError):
        tp.PretrainConfig(batch_size=0)
    assert tp.PretrainConfig().mask_ratio == 0.30
    assert tp.PretrainConfig().clip_norm == 5.0


def test_train_log_requires_increasing_steps():
    with pytest.raises(ContractError):
        tp.TrainLog(records=[(0, 1e-4, 1.0), (0, 1e-4, 0.9)])


def test_train_log_csv_round_trip(tmp_path):
    log = tp.TrainLog(records=[(0, 1e-4, 2.5), (1, 9e-5, 2.25), (2, 8e-5, 2.0)])
    path = tmp_path / "log.csv"
    log.save(str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "step,lr,loss"
    loaded = tp.TrainLog.load(str(path))
    assert loaded.records == log.records
    assert loaded.initial_loss == 2.5 and loaded.final_loss == 2.0


@pytest.mark.parametrize("row", ["0,1e-4", "1,abc,2.0", "1,2e-4,0.5,7", "1.5,1e-4,2.0"])
def test_train_log_load_names_the_bad_line(tmp_path, row):
    # a short or long row was a bare IndexError or went through, a
    # non-numeric cell a bare ValueError; neither named the line
    path = tmp_path / "log.csv"
    path.write_text(f"step,lr,loss\n0,1e-4,2.5\n\n{row}\n")
    with pytest.raises(ParseError, match="line 4: expected an int step") as err:
        tp.TrainLog.load(str(path))
    assert str(row.split(",")) in str(err.value)


@pytest.mark.parametrize("steps", [(0, 1, 1), (0, 2, 1)])
def test_train_log_load_names_a_step_that_does_not_increase(tmp_path, steps):
    # this was the ContractError of TrainLog.__post_init__, naming neither
    # the file nor the line
    path = tmp_path / "log.csv"
    path.write_text("step,lr,loss\n" + "".join(f"{s},1e-4,2.5\n" for s in steps))
    with pytest.raises(ParseError, match=f"log.csv: line 4: step {steps[2]} does not "
                                         f"follow step {steps[1]}"):
        tp.TrainLog.load(str(path))


def test_audit_digest_is_order_independent():
    a = tp.audit_digest(["s1", "s2", "s3"])
    b = tp.audit_digest(["s3", "s1", "s2", "s1"])
    c = tp.audit_digest(["s1", "s2"])
    assert a == b and a != c and len(a) == 64


# ------------------------------------------------------------------ mask sampling


def test_sample_patch_mask_counts():
    rng = np.random.default_rng(0)
    for n_patches, masked in ((64, 19), (10, 3), (2, 1)):  # floor clamps to >= 1
        plan = tp.sample_patch_mask(3, n_patches, 0.3, rng)
        assert plan.shape == (3, n_patches) and plan.dtype == np.uint8
        assert (plan == 0).sum(axis=1).tolist() == [masked] * 3


def test_sample_patch_mask_deterministic_and_uniform_coverage():
    a = tp.sample_patch_mask(5, 64, 0.3, np.random.default_rng(7))
    b = tp.sample_patch_mask(5, 64, 0.3, np.random.default_rng(7))
    assert np.array_equal(a, b)
    # the rows are the stream of one-row draws, in order
    rng = np.random.default_rng(7)
    rows = [tp.sample_patch_mask(1, 64, 0.3, rng)[0] for _ in range(5)]
    assert np.array_equal(a, np.stack(rows))
    ever_masked = (tp.sample_patch_mask(200, 16, 0.3, np.random.default_rng(1)) == 0).any(axis=0)
    assert ever_masked.all()


def test_sample_patch_mask_ratio_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        tp.sample_patch_mask(1, 10, 0.0, rng)
    with pytest.raises(ConfigError):
        tp.sample_patch_mask(1, 10, 1.0, rng)


# ------------------------------------------------------------------ masked loss


def test_masked_loss_perfect_reconstruction_is_zero():
    x = np.random.default_rng(0).normal(size=(1, 32)).astype(np.float32)
    plan = np.array([[1, 0, 1, 0]], dtype=np.uint8)
    assert tp.masked_mse_loss(x, x.copy(), plan) == 0.0


def test_masked_loss_single_patch_constant_error():
    x = np.zeros((1, 32), dtype=np.float32)
    pred = x.copy()
    pred[0, 8:16] += 1.0  # the masked patch is off by one everywhere
    pred[0, 0:8] += 99.0  # unmasked garbage must be ignored
    plan = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    assert tp.masked_mse_loss(x, pred, plan) == pytest.approx(1.0)


def test_masked_loss_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        b, n, p = 3, 4, 8
        x = rng.normal(size=(b, n * p)).astype(np.float32)
        pred = rng.normal(size=(b, n * p)).astype(np.float32)
        plan = rng.integers(0, 2, size=(b, n)).astype(np.uint8)
        plan[0, 0] = 0  # keep at least one masked patch
        obs = rng.random((b, n * p)) > 0.2
        total, count = 0.0, 0
        for i in range(b):
            for t in range(n * p):
                if plan[i, t // p] == 0 and obs[i, t]:
                    total += float(x[i, t] - pred[i, t]) ** 2
                    count += 1
        if count == 0:
            continue
        got = tp.masked_mse_loss(x, pred, plan, obs)
        assert got == pytest.approx(total / count, rel=1e-5)


def test_masked_loss_invariant_to_unmasked_values():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 32)).astype(np.float32)
    pred = rng.normal(size=(1, 32)).astype(np.float32)
    plan = np.array([[1, 0, 1, 0]], dtype=np.uint8)
    base = tp.masked_mse_loss(x, pred, plan)
    tampered = pred.copy()
    tampered[0, 0:8] = 1e6
    tampered[0, 16:24] = -1e6
    assert tp.masked_mse_loss(x, tampered, plan) == base


def test_masked_loss_no_masked_patches_raises():
    x = np.zeros((1, 32), dtype=np.float32)
    with pytest.raises(ContractError):
        tp.masked_mse_loss(x, x, np.ones((1, 4), dtype=np.uint8))
    # also when every masked patch is fully padded
    plan = np.array([[0, 1, 1, 1]], dtype=np.uint8)
    obs = np.ones((1, 32), dtype=bool)
    obs[0, 0:8] = False
    with pytest.raises(ContractError):
        tp.masked_mse_loss(x, x, plan, obs)


def test_masked_loss_refuses_a_window_that_is_not_a_batch():
    x = np.zeros(32, dtype=np.float32)
    with pytest.raises(ShapeError, match=r"\[B,T\] values and \[B,N\] plans"):
        tp.masked_mse_loss(x, x, np.array([1, 0, 1, 0], dtype=np.uint8))


def test_masked_loss_tensor_path_matches_float_path_and_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 32)).astype(np.float32)
    pred = rng.normal(size=(2, 32)).astype(np.float32)
    plan = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
    t = nc.Tensor(pred, requires_grad=True)
    with nc.Tape() as tape:
        loss = tp.masked_mse_loss(x, t, plan)
    assert float(loss.data) == pytest.approx(tp.masked_mse_loss(x, pred, plan), rel=1e-6)
    grad = nc.backward(loss, tape)[t].reshape(2, 4, 8)
    assert np.all(grad[0, 0] == 0) and np.all(grad[0, 2] == 0)  # unmasked: no signal
    assert np.any(grad[0, 1] != 0) and np.any(grad[1, 0] != 0)


# ------------------------------------------------------------------ training loop


def run_small_pretrain(seed, steps=80, corpus=None, batch_size=4):
    cfg = tiny_cfg()
    weights = tm.init_weights(cfg, seed=seed)
    pcfg = tp.PretrainConfig(
        batch_size=batch_size, epochs=None, total_steps=steps, seed=seed
    )
    return tp.pretrain(weights, corpus or sine_corpus(), pcfg)


def test_pretrain_loss_decreases_across_seed_sweep():
    # single-batch losses are noisy at this scale, so compare leading vs
    # trailing averages; the comparison is deterministic per seed
    for seed in (0, 1, 2):
        _, log = run_small_pretrain(
            seed, steps=150, corpus=sine_corpus(n=16), batch_size=8
        )
        assert len(log.records) == 150
        losses = [r[2] for r in log.records]
        assert np.mean(losses[-10:]) < np.mean(losses[:10]), f"seed {seed}"


def test_small_batch64_step_memory_stays_bounded():
    # what a step holds is what its backward reads: one patch_embed and one
    # encoder_block node per layer, each saving only the arrays its backward
    # cannot cheaply recompute, and each block's backward transients are one
    # chunk's (the primitive chain held 55 MB at its peak and 36 nodes; the
    # unchunked block backward 38.7 MiB)
    cfg = tm.named_config("small")
    weights = tm.init_weights(cfg, seed=0)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, cfg.seq_len)).astype(np.float32)
    plan = tp.sample_patch_mask(64, cfg.n_patches, 0.3, rng)
    opt = nc.AdamW(weights.params)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with nc.Tape() as tape:
            _, recon = tm.model_forward(weights, x, plan)
            loss = tp.masked_mse_loss(x, recon, plan)
        opt.step(nc.backward(loss, tape), 1e-4, 5.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(tape) == 5
    assert peak < 32 * 2**20, f"a small batch-64 step peaked {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("name, nodes", [("tiny", 4), ("small", 5)])
def test_training_step_gradients_match_the_head_and_loss_chains(monkeypatch, name, nodes):
    # nc.linear_head and nc.weighted_sq_error against the primitive chains
    # the heads and losses recorded before: a pretraining step and a
    # forecast-head step give the same gradients bit for bit
    weights = tm.attach_forecast_head(tm.init_weights(tm.named_config(name), seed=4), 6, seed=4)
    cfg = weights.config
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, cfg.seq_len)).astype(np.float32)
    obs = rng.random(x.shape) > 0.1
    plan = tp.sample_patch_mask(12, cfg.n_patches, 0.3, rng)
    target = rng.normal(size=(12, 6)).astype(np.float32)
    lengths = []

    def steps():
        grads = []
        for loss_fn in (
                lambda: tp.masked_mse_loss(x, tm.model_forward(weights, x, plan)[1], plan, obs),
                lambda: nc.weighted_sq_error(
                    tm.forecasting_head(tm.encode(weights, x, plan), weights), target,
                    np.float32(1.0 / target.size))):
            with nc.Tape() as tape:
                got = nc.backward(loss_fn(), tape)
            grads.append({k: got[p] for k, p in weights.params.items() if p in got})
            lengths.append(len(tape))
        return grads

    fused = steps()
    assert lengths == [nodes, nodes]
    monkeypatch.setattr(nc, "linear_head", rc.reference_heads)
    monkeypatch.setattr(nc, "weighted_sq_error", rc.reference_loss)
    chain = steps()
    assert lengths[2:] == [nodes + 6] * 2  # four nodes each for the head and the loss
    for got, want in zip(fused, chain):
        assert set(got) == set(want) and len(got) >= len(weights.params) - 2
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_pretrain_lr_trace_hits_schedule_endpoints():
    _, log = run_small_pretrain(0, steps=50)
    lrs = [r[1] for r in log.records]
    assert lrs[0] == pytest.approx(1e-4, rel=1e-9)
    assert lrs[-1] == pytest.approx(1e-5, rel=1e-9)
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # monotone decay


def test_pretrain_steps_counted_and_increasing():
    _, log = run_small_pretrain(1, steps=23)
    assert [r[0] for r in log.records] == list(range(23))


def test_pretrain_is_deterministic():
    w1, log1 = run_small_pretrain(3, steps=30)
    w2, log2 = run_small_pretrain(3, steps=30)
    assert log1.records == log2.records
    for name in w1.params:
        assert np.array_equal(w1.params[name].data, w2.params[name].data)


def test_pretrain_audit_hash_covers_exactly_the_train_partition():
    corpus = [
        td.synth_sine("frequency", 1 + (i % 5), length=64, noise=0.05, seed=i,
                      name=f"s{i}")
        for i in range(10)
    ]
    train, val, test = td.split_by_series(corpus)
    _, log = run_small_pretrain(0, steps=40, corpus=train)
    train_names = sorted(s.name for s in train)
    assert list(log.consumed_names) == train_names
    assert log.audit_hash == tp.audit_digest(train_names)
    held_out = {s.name for s in val} | {s.name for s in test}
    assert not held_out.intersection(log.consumed_names)


def test_pretrain_epoch_budget_caps_steps():
    cfg = tiny_cfg()
    weights = tm.init_weights(cfg, seed=0)
    pcfg = tp.PretrainConfig(batch_size=4, epochs=2, total_steps=2000, seed=0)
    _, log = tp.pretrain(weights, sine_corpus(n=12), pcfg)
    assert len(log.records) == 6  # ceil(12/4) * 2 epochs, well under total_steps


def test_pretrain_aborts_on_non_finite_loss_with_step_number():
    cfg = tiny_cfg()
    weights = tm.init_weights(cfg, seed=0)
    weights.params["recon_head.bias"].data[:] = np.inf
    pcfg = tp.PretrainConfig(batch_size=4, epochs=None, total_steps=10, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match="step 0"):
        tp.pretrain(weights, sine_corpus(), pcfg)


def test_pretrain_rejects_empty_or_degenerate_datasets():
    cfg = tiny_cfg()
    weights = tm.init_weights(cfg, seed=0)
    with pytest.raises(ContractError):
        tp.pretrain(weights, [], tp.PretrainConfig())
    stub = td.Series(values=np.arange(4, dtype=np.float32), name="stub")
    with pytest.raises(ContractError, match="stub"):
        tp.pretrain(weights, [stub], tp.PretrainConfig())
    with pytest.raises(ContractError, match="stub"):
        tp.pretrain(weights, sine_corpus(n=2) + [stub], tp.PretrainConfig())


# ------------------------------------------------------------------ probing


def forecast_pairs(n=8, horizon=8, length=64):
    pairs = []
    for i in range(n):
        full = td.synth_sine(
            "frequency", 2 + (i % 3), length=length + horizon, noise=0.02, seed=50 + i,
            name=f"fc{i}",
        )
        history = td.Series(values=full.values[:length], name=full.name)
        pairs.append((history, full.values[length:]))
    return pairs


def test_linear_probe_zero_epochs_changes_nothing():
    weights = tm.init_weights(tiny_cfg(), seed=0)
    before = {k: v.data.copy() for k, v in weights.params.items()}
    tp.linear_probe(weights, "reconstruction", sine_corpus(n=4), epochs=0)
    for name in before:
        assert np.array_equal(weights.params[name].data, before[name])


@pytest.mark.parametrize("epochs", ["1", 1.5, 1.0, True, -1])
def test_linear_probe_refuses_epochs_that_are_not_an_int(epochs):
    # "1" was a bare TypeError, 1.5 trained two epochs' steps and True one epoch
    weights = tm.init_weights(tiny_cfg(), seed=0)
    with pytest.raises(ConfigError, match=re.escape(f"epochs must be an int >= 0, got {epochs!r}")):
        tp.linear_probe(weights, "reconstruction", sine_corpus(n=4), epochs=epochs)


def test_linear_probe_freezes_everything_but_the_head():
    weights = tm.init_weights(tiny_cfg(), seed=1)
    before = {k: v.data.copy() for k, v in weights.params.items()}
    pcfg = tp.PretrainConfig(batch_size=4, seed=0)
    tp.linear_probe(weights, "reconstruction", sine_corpus(n=8), epochs=2, cfg=pcfg)
    for name, old in before.items():
        if name.startswith("recon_head."):
            assert not np.array_equal(weights.params[name].data, old), name
        else:
            assert np.array_equal(weights.params[name].data, old), name


def test_linear_probe_forecast_requires_attached_head():
    weights = tm.init_weights(tiny_cfg(), seed=2)
    with pytest.raises(ConfigError):
        tp.linear_probe(weights, "forecast", forecast_pairs(), epochs=1)
    with pytest.raises(ConfigError):
        tp.linear_probe(weights, "spectral", [], epochs=1)


def test_linear_probe_forecast_improves_training_mse_and_freezes_encoder():
    weights = tm.init_weights(tiny_cfg(), seed=3)
    tm.attach_forecast_head(weights, horizon=8, seed=3)
    pairs = forecast_pairs(horizon=8)
    before_mse = tp.evaluate_forecast_mse(weights, pairs)
    encoder_before = {
        k: v.data.copy()
        for k, v in weights.params.items()
        if not k.startswith("forecast_head.")
    }
    pcfg = tp.PretrainConfig(batch_size=4, seed=0, lr_init=5e-3, lr_final=1e-4)
    tp.linear_probe(weights, "forecast", pairs, epochs=30, cfg=pcfg)
    after_mse = tp.evaluate_forecast_mse(weights, pairs)
    assert after_mse < before_mse
    for name, old in encoder_before.items():
        assert np.array_equal(weights.params[name].data, old), name


def test_linear_probe_forecast_target_shape_checked():
    weights = tm.init_weights(tiny_cfg(), seed=4)
    tm.attach_forecast_head(weights, horizon=8, seed=0)
    history = td.Series(values=np.zeros(64, dtype=np.float32) + np.arange(64))
    with pytest.raises(ShapeError):
        tp.linear_probe(weights, "forecast", [(history, np.zeros(5))], epochs=1)
    with pytest.raises(EmptySeriesError):
        tp.linear_probe(weights, "forecast", [], epochs=1)


def test_unfrozen_probe_is_fine_tuning():
    weights = tm.init_weights(tiny_cfg(), seed=5)
    encoder_key = "layers.0.attn.wq"
    before = weights.params[encoder_key].data.copy()
    pcfg = tp.PretrainConfig(batch_size=4, seed=0)
    tp.linear_probe(
        weights, "reconstruction", sine_corpus(n=8), epochs=2, cfg=pcfg, freeze=False
    )
    assert not np.array_equal(weights.params[encoder_key].data, before)


# ------------------------------------------------------------------ reference loops


def reference_pretrain(weights, dataset, cfg):
    """The pre-training loop as it stood before pretraining and probing
    shared one loop; returns (weights, records, audit hash)."""
    mcfg = weights.config
    xs, obs, pobs, names = tp._prepare_series(dataset, mcfg)
    n_series = len(names)
    n_patches = mcfg.n_patches
    steps_per_epoch = int(np.ceil(n_series / cfg.batch_size))
    by_epochs = None if cfg.epochs is None else cfg.epochs * steps_per_epoch
    planned = min(c for c in (by_epochs, cfg.total_steps) if c is not None)
    sched = nc.CosineSchedule(cfg.lr_init, cfg.lr_final, max(1, planned - 1))
    rng = np.random.default_rng(cfg.seed)
    opt = rc.AdamWState(weights.params, weight_decay=cfg.weight_decay)
    records = []
    consumed = set()
    step = 0
    while step < planned:
        order = rng.permutation(n_series)
        for lo in range(0, n_series, cfg.batch_size):
            if step >= planned:
                break
            idx = order[lo:lo + cfg.batch_size]
            xb, ob, po = xs[idx], obs[idx], pobs[idx]
            sampled = np.empty((len(idx), n_patches), dtype=np.uint8)
            for r in range(len(idx)):
                sampled[r] = tp.sample_patch_mask(1, n_patches, cfg.mask_ratio, rng)[0]
            input_plan = po & sampled
            lr = nc.cosine_lr(min(step, sched.total_steps), sched)
            with nc.Tape() as tape:
                _, recon = tm.model_forward(weights, xb, input_plan)
                loss = tp.masked_mse_loss(xb, recon, input_plan, ob)
                loss_val = float(loss.data)
                got = nc.backward(loss, tape)
            grads = {n: got[p] for n, p in weights.params.items() if p in got}
            rc.clip_global_norm(grads, cfg.clip_norm)
            rc.adamw_step({n: weights.params[n] for n in grads}, grads, opt, lr)
            records.append((step, lr, loss_val))
            consumed.update(names[i] for i in idx)
            step += 1
    return weights, records, tp.audit_digest(consumed)


def reference_probe(weights, head_kind, dataset, epochs, cfg, freeze=True):
    """The per-batch probe loop as it stood before the frozen encoder moved
    off the tape and before pretraining and probing shared one loop: every
    step runs the whole model on the tape and backpropagates through it,
    then updates the head alone, or every tensor when not frozen."""
    trainable = weights.parameters(head_only=head_kind) if freeze else dict(weights.params)
    mcfg = weights.config
    if head_kind == "reconstruction":
        xs, obs, pobs, _ = tp._prepare_series(dataset, mcfg)
    else:
        xs, pobs, targets = tp._prepare_forecast_pairs(weights, dataset)
    n_series = xs.shape[0]
    planned = epochs * int(np.ceil(n_series / cfg.batch_size))
    sched = nc.CosineSchedule(cfg.lr_init, cfg.lr_final, max(1, planned - 1))
    rng = np.random.default_rng(cfg.seed)
    opt = rc.AdamWState(trainable, weight_decay=cfg.weight_decay)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_series)
        for lo in range(0, n_series, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            lr = nc.cosine_lr(min(step, sched.total_steps), sched)
            with nc.Tape() as tape:
                if head_kind == "reconstruction":
                    sampled = np.stack([
                        tp.sample_patch_mask(1, mcfg.n_patches, cfg.mask_ratio, rng)[0]
                        for _ in idx
                    ])
                    plan = pobs[idx] & sampled
                    _, recon = tm.model_forward(weights, xs[idx], plan)
                    loss = tp.masked_mse_loss(xs[idx], recon, plan, obs[idx])
                else:
                    h, _ = tm.model_forward(weights, xs[idx], pobs[idx])
                    diff = rc.sub(tm.forecasting_head(h, weights), nc.Tensor(targets[idx]))
                    loss = rc.mean_(rc.mul(diff, diff))
                got = nc.backward(loss, tape)
            grads = {n: got[p] for n, p in trainable.items() if p in got}
            rc.clip_global_norm(grads, cfg.clip_norm)
            rc.adamw_step({n: trainable[n] for n in grads}, grads, opt, lr)
            step += 1
    return weights


def _probe_setup(head_kind, seed):
    weights = tm.init_weights(tiny_cfg(), seed=seed)
    if head_kind == "forecast":
        tm.attach_forecast_head(weights, horizon=8, seed=seed)
        return weights, forecast_pairs(horizon=8)
    return weights, sine_corpus(n=8)


@pytest.mark.parametrize("head_kind", ["reconstruction", "forecast"])
def test_frozen_probe_matches_per_batch_reference(head_kind):
    weights, data = _probe_setup(head_kind, seed=6)
    reference = clone_weights(weights)
    pcfg = tp.PretrainConfig(batch_size=3, seed=2, lr_init=5e-3, lr_final=1e-4)
    tp.linear_probe(weights, head_kind, data, epochs=4, cfg=pcfg)
    reference_probe(reference, head_kind, data, epochs=4, cfg=pcfg)
    for name, p in weights.params.items():
        want = reference.params[name].data
        if head_kind == "reconstruction":
            # same forward arithmetic, only the encoder left off the tape
            assert np.array_equal(p.data, want), name
        else:
            np.testing.assert_allclose(p.data, want, rtol=1e-6, atol=0, err_msg=name)


@pytest.mark.parametrize("head_kind", ["reconstruction", "forecast"])
def test_frozen_probe_step_differentiates_only_the_head(monkeypatch, head_kind):
    weights, data = _probe_setup(head_kind, seed=7)
    prefix = "recon_head." if head_kind == "reconstruction" else "forecast_head."
    maps, backward = [], nc.backward

    def recording_backward(loss, tape):
        maps.append(backward(loss, tape))
        return maps[-1]

    monkeypatch.setattr(nc, "backward", recording_backward)
    tp.linear_probe(weights, head_kind, data, epochs=1,
                    cfg=tp.PretrainConfig(batch_size=len(data), seed=0))
    assert len(maps) == 1
    with_grad = sorted(n for n, p in weights.params.items() if p in maps[0])
    assert with_grad == sorted(n for n in weights.params if n.startswith(prefix))


def test_frozen_forecast_probe_encodes_once(monkeypatch):
    weights, pairs = _probe_setup("forecast", seed=8)
    calls = []

    def counting(encoder):
        def spy(weights, x_norm, plan):
            calls.append(np.asarray(x_norm).shape[0])
            return encoder(weights, x_norm, plan)
        return spy

    monkeypatch.setattr(tp, "encode_windows", counting(tm.encode_windows))
    monkeypatch.setattr(tp, "encode", counting(tm.encode))
    encoded = tp.encode_forecast_pairs(weights, pairs)
    before = tp.evaluate_forecast_mse(weights, encoded)
    tp.linear_probe(weights, "forecast", encoded, epochs=5,
                    cfg=tp.PretrainConfig(batch_size=3, seed=0))
    after = tp.evaluate_forecast_mse(weights, encoded)
    assert calls == [len(pairs)]
    assert encoded.hidden.shape == (len(pairs), weights.config.n_patches,
                                    weights.config.d_model)
    assert after != before
    assert after == tp.evaluate_forecast_mse(weights, pairs)


def test_frozen_reconstruction_probe_runs_the_head_once_a_step(monkeypatch):
    weights, data = _probe_setup("reconstruction", seed=10)
    heads = []

    def counting_head(hidden, w):
        heads.append(hidden.shape[0])
        return reconstruction_head(hidden, w)

    reconstruction_head = tm.reconstruction_head
    monkeypatch.setattr(tm, "reconstruction_head", counting_head)
    monkeypatch.setattr(tp, "reconstruction_head", counting_head)
    tp.linear_probe(weights, "reconstruction", data, epochs=2,
                    cfg=tp.PretrainConfig(batch_size=3, seed=0))
    assert heads == [3, 3, 2] * 2  # 8 series in batches of 3, two epochs


def test_encoded_pairs_refuse_an_unfrozen_or_changed_encoder():
    weights, pairs = _probe_setup("forecast", seed=9)
    encoded = tp.encode_forecast_pairs(weights, pairs)
    with pytest.raises(ContractError, match="unfrozen"):
        tp.linear_probe(weights, "forecast", encoded, epochs=1, freeze=False)
    tp.linear_probe(weights, "forecast", pairs, epochs=1, freeze=False,
                    cfg=tp.PretrainConfig(batch_size=4, seed=0))
    with pytest.raises(ContractError, match="different encoder weights"):
        tp.evaluate_forecast_mse(weights, encoded)
    with pytest.raises(ContractError, match="different encoder weights"):
        tp.linear_probe(weights, "forecast", encoded, epochs=1)


# ------------------------------------------------------------------ one loop, same bits


LOOP_CASES = {
    # 8 series in batches of 3: every epoch ends on a short batch
    "ragged-batches": dict(n=8, batch_size=3, epochs=2, total_steps=None),
    # ceil(7 / 3) * 2 = 6 steps, well under total_steps
    "epochs-cap-binds": dict(n=7, batch_size=3, epochs=2, total_steps=100),
    # stops after the first batch of the second epoch
    "total-steps-cap-binds": dict(n=8, batch_size=3, epochs=5, total_steps=4),
    # every step's gradient norm is far above the clip norm
    "every-step-clips": dict(n=8, batch_size=3, epochs=2, total_steps=None, clip_norm=1e-4),
    # a forecasting head rides along untrained, or trained only by its own probe
    "forecast-head-attached": dict(n=8, batch_size=3, epochs=2, total_steps=None, horizon=8),
}


def _loop_cfg(case):
    return tp.PretrainConfig(batch_size=case["batch_size"], epochs=case["epochs"],
                             total_steps=case["total_steps"], seed=4,
                             lr_init=5e-3, lr_final=1e-4, clip_norm=case.get("clip_norm", 5.0))


def _assert_same_weights(got, want):
    for name, p in got.params.items():
        assert np.array_equal(p.data, want.params[name].data), name


def _head_bytes(weights, prefix):
    return {n: p.data.tobytes() for n, p in weights.params.items() if n.startswith(prefix)}


def _record_norms(monkeypatch):
    """The pre-clip norm of every reference step, as rc.global_norm sees it."""
    norms = []

    def recording(grads):
        norms.append(global_norm(grads))
        return norms[-1]

    global_norm = rc.global_norm
    monkeypatch.setattr(rc, "global_norm", recording)
    return norms


@pytest.mark.parametrize("case", LOOP_CASES.values(), ids=LOOP_CASES.keys())
def test_pretrain_matches_reference_loop(case, monkeypatch):
    weights = tm.init_weights(tiny_cfg(), seed=11)
    if "horizon" in case:
        tm.attach_forecast_head(weights, horizon=case["horizon"], seed=11)
    head = _head_bytes(weights, "forecast_head.")
    reference = clone_weights(weights)
    data = sine_corpus(n=case["n"])
    cfg = _loop_cfg(case)
    norms = _record_norms(monkeypatch)
    _, log = tp.pretrain(weights, data, cfg)
    _, records, audit = reference_pretrain(reference, data, cfg)
    assert log.records == records
    assert log.audit_hash == audit
    _assert_same_weights(weights, reference)
    assert _head_bytes(weights, "forecast_head.") == head
    assert len(norms) == len(records)
    if "clip_norm" in case:
        assert min(norms) > 10 * cfg.clip_norm


@pytest.mark.parametrize("head_kind", ["reconstruction", "forecast"])
@pytest.mark.parametrize("case", LOOP_CASES.values(), ids=LOOP_CASES.keys())
def test_unfrozen_probe_matches_reference_loop(case, head_kind, monkeypatch):
    # a probe's budget is its epochs argument; cfg.epochs and total_steps
    # do not cap it, in the merged loop as in the reference
    weights = tm.init_weights(tiny_cfg(), seed=12)
    if head_kind == "forecast" or "horizon" in case:
        tm.attach_forecast_head(weights, horizon=8, seed=12)
    if head_kind == "forecast":
        data = forecast_pairs(n=case["n"], horizon=8)
    else:
        data = sine_corpus(n=case["n"])
    other = tm.HEAD_PREFIXES["reconstruction" if head_kind == "forecast" else "forecast"]
    head = _head_bytes(weights, other)
    reference = clone_weights(weights)
    cfg = _loop_cfg(case)
    norms = _record_norms(monkeypatch)
    tp.linear_probe(weights, head_kind, data, epochs=3, cfg=cfg, freeze=False)
    reference_probe(reference, head_kind, data, epochs=3, cfg=cfg, freeze=False)
    _assert_same_weights(weights, reference)
    assert _head_bytes(weights, other) == head
    if "clip_norm" in case:
        assert min(norms) > 10 * cfg.clip_norm


# ------------------------------------------------------------------ step workspace


@pytest.mark.parametrize("name, batch, n", [("tiny", 12, 12), ("small", 37, 50)])
def test_fit_loop_workspace_matches_fresh_arrays(monkeypatch, name, batch, n):
    # small at batch 37 ends each batch with a 5-window backward chunk, and
    # its 13-window batches take a prefix of the 37-window arrays
    cfg = tm.named_config(name)
    data = sine_corpus(n=n, length=cfg.seq_len)
    weights = tm.init_weights(cfg, seed=5)
    fresh = clone_weights(weights)
    pcfg = tp.PretrainConfig(batch_size=batch, epochs=None, total_steps=4, seed=5)
    _, log = tp.pretrain(weights, data, pcfg)
    # a Tape without a workspace gives every node fresh arrays
    monkeypatch.setattr(nc, "Workspace", lambda: None)
    _, fresh_log = tp.pretrain(fresh, data, pcfg)
    assert log.records == fresh_log.records
    _assert_same_weights(weights, fresh)


def test_nothing_a_step_hands_back_aliases_the_workspace():
    cfg = tm.named_config("tiny")
    weights = tm.init_weights(cfg, seed=6)
    workspace = nc.Workspace()

    def step(seed):
        """Everything a caller receives from one step: the hidden states,
        reconstruction, loss, gradient map and attention sink."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(nc.CHUNK + 4, cfg.seq_len)).astype(np.float32)
        plan = tp.sample_patch_mask(len(x), cfg.n_patches, 0.3, rng)
        sink = []
        with nc.Tape(workspace) as tape:
            h, recon = tm.model_forward(weights, x, plan, attn_sink=sink)
            loss = tp.masked_mse_loss(x, recon, plan)
        grads = nc.backward(loss, tape)
        return [h.data, recon.data, loss.data, *grads.values(), *sink]

    held = step(1)
    kept = [a.copy() for a in held]
    step(2)
    assert workspace
    for got, want in zip(held, kept):
        assert np.array_equal(got, want)
        assert not any(np.shares_memory(got, buf) for buf in workspace.values())


def test_fit_loop_steps_reuse_the_first_steps_arrays(monkeypatch):
    made, seen = [], []
    workspace, backward = nc.Workspace, nc.backward

    def recording_workspace():
        made.append(workspace())
        return made[-1]

    def recording_backward(loss, tape):
        grads = backward(loss, tape)
        seen.append(dict(tape.workspace))
        return grads

    monkeypatch.setattr(nc, "Workspace", recording_workspace)
    monkeypatch.setattr(nc, "backward", recording_backward)
    tp.pretrain(tm.init_weights(tiny_cfg(), seed=7), sine_corpus(n=8),
                tp.PretrainConfig(batch_size=8, epochs=None, total_steps=3, seed=7))
    assert len(made) == 1 and len(seen) == 3
    first = seen[0]
    assert first, "the first step drew nothing from its workspace"
    for later in seen[1:]:
        assert later.keys() == first.keys()
        assert all(later[key] is first[key] for key in first)


def test_two_threads_training_at_once_each_match_a_serial_run():
    cfg = tm.named_config("tiny")
    data = sine_corpus(n=24, length=cfg.seq_len)
    seeds = (8, 9)
    start = [tm.init_weights(cfg, seed=s) for s in seeds]

    def run(i):
        pcfg = tp.PretrainConfig(batch_size=12, epochs=None, total_steps=20, seed=seeds[i])
        weights, log = tp.pretrain(clone_weights(start[i]), data, pcfg)
        return weights, log.records

    serial = [run(i) for i in range(2)]
    barrier = threading.Barrier(2)

    def run_together(i):
        barrier.wait()
        return run(i)

    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(run_together, range(2)))
    for (got, got_records), (want, want_records) in zip(concurrent, serial):
        assert got_records == want_records
        _assert_same_weights(got, want)
