"""Acceptance gate: seven criteria, one printed PASS/FAIL line each.

A1 gradient correctness, A2 architecture invariants, A3 metric oracle
equivalence, A4 pre-training efficacy, A5 task smoke targets, A6 protocol
fidelity, A7 qualitative probe reproductions. Every quantitative tolerance is
pinned in the assertion that enforces it.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import clone_weights
from corpora import pretrain_mixture, two_frequency_classes
from gradcheck import check_grads
import reference_chain as rc

import tinytsfm.numcore as nc
from tinytsfm import metrics as mx
from tinytsfm.baselines import interp_nearest
from tinytsfm.cli import _env_seed
from tinytsfm.data import Series, SplitSpec, split_by_series
from tinytsfm.model import (
    attach_forecast_head,
    init_weights,
    model_forward,
    named_config,
    revin_denormalize,
    revin_normalize,
)
from tinytsfm.pretrain import (
    PretrainConfig,
    linear_probe,
    masked_mse_loss,
    pretrain,
    sample_patch_mask,
)
from tinytsfm.probes import frequency_error_curve, zero_vs_mask_probe
from tinytsfm.tasks import (
    IMPUTE_RATIOS,
    AnomalySpec,
    ImputationSpec,
    apply_block_mask,
    classify_by_representation,
    long_forecast,
    zero_shot_impute,
    zero_shot_short_forecast,
)

STOCK_SEEDS = (13, 14, 15)


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def stock_runs(pretrain_corpus, trained_tiny):
    """One stock 2000-step tiny run per seed: {seed: log}, plus measured wall
    seconds for the runs trained here (the seed-13 run reuses the session
    fixture, which is the identical recipe)."""
    _, log13 = trained_tiny
    logs = {13: log13}
    walls = {}
    for seed in STOCK_SEEDS[1:]:
        start = time.monotonic()
        _, log = pretrain(
            init_weights(named_config("tiny"), seed=seed),
            pretrain_corpus,
            PretrainConfig(seed=seed, epochs=None, total_steps=2000),
        )
        walls[seed] = time.monotonic() - start
        logs[seed] = log
    return logs, walls


# --------------------------------------------------------------- A1 gradients


def _rand(rng, *shape):
    return nc.Tensor(rng.standard_normal(shape).astype(np.float32),
                     requires_grad=True)


def _const(rng, *shape):
    return nc.Tensor(rng.standard_normal(shape).astype(np.float32))


def _half(rng, *shape):
    return nc.Tensor(0.5 * rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def _block_params(rng, attn_w, idx, inputs, margin=0.01):
    """encoder_block's parameters around the attention projections attn_w,
    redrawn until every pre-ReLU hidden of every input lies `margin` away
    from the kink, where central differences across it are no derivative."""
    while True:
        near_one = [nc.Tensor(1.0 + 0.3 * rng.standard_normal(4).astype(np.float32),
                              requires_grad=True) for _ in range(2)]
        block = {"g1": near_one[0], **attn_w, "rel_bias": _rand(rng, 5, 2),
                 "g2": near_one[1], "w1": _half(rng, 4, 5), "w2": _half(rng, 5, 4)}
        g1, wq, wk, wv, wo, bias, g2, w1, _ = block.values()
        pre = [rc.scale_norm(rc.add(x, rc.attention(rc.scale_norm(x, g1), wq, wk, wv, wo,
                                                    bias, idx, 2)), g2).data @ w1.data
               for x in inputs]
        if min(np.abs(p).min() for p in pre) > margin:
            return block


def _node_trials(trial_seed):
    """One gradient check per form of each tape node; returns trial count."""
    rng = np.random.default_rng(trial_seed)
    r234 = _const(rng, 2, 3, 4)
    at_x, at_c = _rand(rng, 2, 3, 4), _const(rng, 2, 3, 4)
    # small projections keep the softmax off saturation, where f32 central
    # differences lose the 1e-3 tolerance
    at_w = {f"w{n}": nc.Tensor(0.25 * rng.standard_normal((4, 4)).astype(np.float32),
                               requires_grad=True) for n in "qkvo"}
    # the block's backward takes nc.CHUNK windows at a time: these make two
    # chunks, the second ragged
    two_x, two_c, r_two = (_rand(rng, nc.CHUNK + 3, 3, 4), _const(rng, nc.CHUNK + 3, 3, 4),
                           _const(rng, nc.CHUNK + 3, 3, 4))
    idx = rng.integers(0, 5, size=(3, 3))
    block = _block_params(rng, at_w, idx, (at_x, at_c, two_x, two_c))
    patches = rng.standard_normal((2, 3, 2)).astype(np.float32)
    observed = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    positions = rng.standard_normal((3, 4)).astype(np.float32)
    embed = {"w": _rand(rng, 2, 4), "bias": _rand(rng, 4), "mask_token": _rand(rng, 4)}
    # linear_head on [B,N,D] = [2,3,4]: a per-patch head (rows [B*N, D]) and a
    # flatten-and-project head (rows [B, N*D])
    patch_head = {"w": _rand(rng, 4, 5), "bias": _rand(rng, 5)}
    flat_head = {"w": _rand(rng, 12, 3), "bias": _rand(rng, 3)}
    r_patch, r_flat = _const(rng, 2, 15), _const(rng, 2, 3)
    pred, target = _rand(rng, 2, 12), rng.standard_normal((2, 12)).astype(np.float32)
    # the masked loss's weight: masked, observed steps over their count, with
    # some steps unobserved; the plain MSE's: one over the element count
    eligible = rng.random((2, 12)) < 0.5
    eligible[0, 0], eligible[1, -1] = True, False
    masked_w = (eligible / eligible.sum()).astype(np.float32)
    uniform_w = np.float32(1.0 / pred.data.size)

    def head(h, params, r):
        return lambda: rc.mean_(rc.mul(nc.linear_head(h, *params.values()), r))

    cases = [
        # the node cases take the mean: a sum of 24 outputs carrying the
        # residual would put f32 roundoff of the loss above the tolerance
        ("encoder_block", {"x": at_x, **block},
         lambda: rc.mean_(rc.mul(nc.encoder_block(at_x, *block.values(), idx, 2), r234))),
        ("encoder_block, constant input", block,
         lambda: rc.mean_(rc.mul(nc.encoder_block(at_c, *block.values(), idx, 2), r234))),
        ("encoder_block, two chunks", {"x": two_x, **block},
         lambda: rc.mean_(rc.mul(nc.encoder_block(two_x, *block.values(), idx, 2), r_two))),
        ("encoder_block, two chunks, constant input", block,
         lambda: rc.mean_(rc.mul(nc.encoder_block(two_c, *block.values(), idx, 2), r_two))),
        ("patch_embed", embed,
         lambda: rc.mean_(rc.mul(nc.patch_embed(patches, observed, *embed.values(),
                                                positions), r234))),
        ("linear_head, [B,N,D] rows", {"h": at_x, **patch_head},
         head(at_x, patch_head, r_patch)),
        ("linear_head, [B,N*D] rows", {"h": at_x, **flat_head},
         head(at_x, flat_head, r_flat)),
        ("linear_head, [B,N,D] rows, constant input", patch_head,
         head(at_c, patch_head, r_patch)),
        ("linear_head, [B,N*D] rows, constant input", flat_head,
         head(at_c, flat_head, r_flat)),
        ("weighted_sq_error, masked weight", {"pred": pred},
         lambda: nc.weighted_sq_error(pred, target, masked_w)),
        ("weighted_sq_error, uniform weight", {"pred": pred},
         lambda: nc.weighted_sq_error(pred, target, uniform_w)),
        ("weighted_sq_error over linear_head, constant input", flat_head,
         lambda: nc.weighted_sq_error(nc.linear_head(at_c, *flat_head.values()),
                                      target[:, :3], masked_w[:, :3])),
    ]
    worst = 0.0
    for _, params, loss_fn in cases:
        worst = max(worst, check_grads(loss_fn, params, tol=1e-3))
    return len(cases), worst


def _full_model_fd_check(entries_per_tensor=3, h=1e-3):
    """Sampled-entry central differences through a full tiny forward/backward."""
    rng = np.random.default_rng(5)
    weights = init_weights(named_config("tiny"), seed=5)
    cfg = weights.config
    xs = rng.standard_normal((2, cfg.seq_len)).astype(np.float32)
    obs = np.ones_like(xs, dtype=bool)
    plan = sample_patch_mask(2, cfg.n_patches, 0.3, rng)

    def loss_fn():
        _, recon = model_forward(weights, xs, plan)
        return masked_mse_loss(xs, recon, plan, obs)

    with nc.Tape() as tape:
        loss = loss_fn()
    grads = nc.backward(loss, tape)
    worst, n_checked = 0.0, 0
    for name in sorted(weights.params):
        p = weights.params[name]
        flat, gflat = p.data.reshape(-1), grads[p].reshape(-1)
        for i in rng.choice(flat.size, size=min(entries_per_tensor, flat.size),
                            replace=False):
            orig = flat[i].item()
            hi, lo = np.float32(orig + h), np.float32(orig - h)
            flat[i] = hi
            loss_hi = float(loss_fn().data)
            flat[i] = lo
            loss_lo = float(loss_fn().data)
            flat[i] = np.float32(orig)
            fd = (loss_hi - loss_lo) / (float(hi) - float(lo))
            err = abs(float(gflat[i]) - fd) / max(abs(float(gflat[i])),
                                                  abs(fd), 1.0)
            worst = max(worst, err)
            n_checked += 1
    return n_checked, worst


def test_a1_gradient_correctness():
    start = time.monotonic()
    n_trials, worst_prim = 0, 0.0
    for trial_seed in range(9):
        count, worst = _node_trials(1000 + trial_seed)
        n_trials += count
        worst_prim = max(worst_prim, worst)
    n_model, worst_model = _full_model_fd_check()
    wall = time.monotonic() - start
    ok = n_trials >= 100 and worst_prim <= 1e-3 and worst_model <= 1e-3 \
        and wall < 60.0
    report(
        "A1", ok,
        f"{n_trials} tape-node trials (worst rel err {worst_prim:.1e}) + "
        f"{n_model} sampled full-model entries (worst {worst_model:.1e}), "
        f"tol 1e-3, wall {wall:.1f}s < 60s",
    )


# ------------------------------------------------------------- A2 invariants


def test_a2_architecture_invariants():
    rng = np.random.default_rng(7)
    weights = init_weights(named_config("tiny"), seed=7)
    cfg = weights.config

    # RevIN round trip on observed values, with and without gaps.
    worst_rt = 0.0
    for k in range(50):
        x = (rng.standard_normal(cfg.seq_len) * rng.uniform(0.5, 20)
             + rng.uniform(-50, 50)).astype(np.float32)
        obs = np.ones(cfg.seq_len, dtype=bool)
        if k % 2:
            obs[rng.random(cfg.seq_len) < 0.3] = False
        normed, stats = revin_normalize(x[None], obs[None])
        back = revin_denormalize(normed, stats)[0]
        worst_rt = max(worst_rt, float(np.max(np.abs(back[obs] - x[obs]))))

    # Attention rows sum to 1.
    xs = rng.standard_normal((3, cfg.seq_len)).astype(np.float32)
    plan = sample_patch_mask(3, cfg.n_patches, 0.3, rng)
    sink = []
    model_forward(weights, xs, plan, attn_sink=sink)
    worst_row = max(
        float(np.max(np.abs(layer.sum(axis=-1) - 1.0))) for layer in sink
    )

    # Masked-input independence: values under masked patches cannot matter.
    x1 = xs[:1]
    p1 = plan[:1]
    x2 = x1.copy()
    hidden_steps = np.repeat(p1 == 0, cfg.patch_len, axis=1)
    x2[hidden_steps] = 1e6
    h1, r1 = model_forward(weights, x1, p1)
    h2, r2 = model_forward(weights, x2, p1)
    bit_identical = np.array_equal(h1.data, h2.data) and np.array_equal(
        r1.data, r2.data
    )

    # Affine equivariance of zero-shot forecasting.
    hist = np.cumsum(rng.standard_normal(200)).astype(np.float32)
    s = Series(values=hist, name="walk")
    a_scale, b_shift = 2.5, -7.0
    s2 = Series(values=a_scale * hist + b_shift, name="walk2")
    fc1 = zero_shot_short_forecast(weights, s, 8)
    fc2 = zero_shot_short_forecast(weights, s2, 8)
    worst_affine = float(
        np.max(np.abs(fc2.values - (a_scale * fc1.values + b_shift)))
    )

    ok = (worst_rt <= 1e-5 and worst_row <= 1e-6 and bit_identical
          and worst_affine <= 1e-4)
    report(
        "A2", ok,
        f"RevIN round trip {worst_rt:.1e} (tol 1e-5); attention row sums off "
        f"by {worst_row:.1e} (tol 1e-6); masked-input independence "
        f"bit-identical={bit_identical}; forecast affine equivariance "
        f"{worst_affine:.1e} (tol 1e-4)",
    )


# ----------------------------------------------------------- A3 metric oracles


def _oracle_segments(labels):
    segs, start = [], None
    for i, v in enumerate(labels):
        if v and start is None:
            start = i
        if not v and start is not None:
            segs.append((start, i - 1))
            start = None
    if start is not None:
        segs.append((start, len(labels) - 1))
    return segs


def _oracle_adjusted_f1(scores, labels):
    labels = labels.astype(bool)
    if not labels.any():
        return 0.0
    segs = _oracle_segments(labels)
    best = 0.0
    for theta in np.unique(scores):
        pred = scores >= theta
        adj = pred.copy()
        for a, b in segs:
            if adj[a:b + 1].any():
                adj[a:b + 1] = True
        tp = int(np.sum(adj & labels))
        fp = int(np.sum(adj & ~labels))
        fn = int(np.sum(~adj & labels))
        if 2 * tp + fp + fn:
            best = max(best, 2.0 * tp / (2 * tp + fp + fn))
    return best


def _oracle_soften(labels, width):
    w = labels.astype(np.float64).copy()
    n = len(w)
    for i in range(n):
        if labels[i]:
            for d in range(1, width + 1):
                v = 1.0 - d / (width + 1.0)
                if i - d >= 0:
                    w[i - d] = max(w[i - d], v)
                if i + d < n:
                    w[i + d] = max(w[i + d], v)
    return w


def _oracle_pair_auc(scores, w):
    num = den = 0.0
    n = len(scores)
    for i in range(n):
        for j in range(n):
            if w[i] > w[j]:
                den += 1.0
                if scores[i] > scores[j]:
                    num += 1.0
                elif scores[i] == scores[j]:
                    num += 0.5
    return num / den


def _oracle_vus(scores, labels, max_buffer):
    return float(np.mean([
        _oracle_pair_auc(scores, _oracle_soften(labels, width))
        for width in range(max_buffer + 1)
    ]))


def test_a3_metric_oracles():
    rng = np.random.default_rng(11)

    n_f1 = 1000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n_f1):
            n = int(rng.integers(2, 33))
            scores = rng.random(n).astype(np.float32)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # force score ties
            labels = (rng.random(n) < 0.3).astype(bool)
            got = mx.adjusted_best_f1(scores, labels)
            want = _oracle_adjusted_f1(scores.astype(np.float64), labels)
            assert got == want, f"adjusted_best_f1 {got} != oracle {want}"

    n_zero = 200
    for _ in range(n_zero):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 1).astype(np.float32)
        labels = (rng.random(n) < 0.3).astype(bool)
        pos, neg = rng.choice(n, size=2, replace=False)
        labels[pos], labels[neg] = True, False
        assert mx.vus_roc(scores, labels, max_buffer=0) == mx.roc_auc(
            scores, labels
        ), "vus_roc at width 0 must equal roc_auc exactly"

    n_vus, worst_vus = 300, 0.0
    for _ in range(n_vus):
        n = int(rng.integers(4, 13))
        max_buffer = int(rng.integers(0, 3))
        scores = np.round(rng.random(n), 1).astype(np.float32)
        labels = (rng.random(n) < 0.3).astype(bool)
        pos, neg = rng.choice(n, size=2, replace=False)
        labels[pos], labels[neg] = True, False
        got = mx.vus_roc(scores, labels, max_buffer=max_buffer)
        want = _oracle_vus(scores.astype(np.float64), labels, max_buffer)
        worst_vus = max(worst_vus, abs(got - want))
        assert abs(got - want) <= 1e-9

    smape = mx.smape_m4([100.0, 200.0], [110.0, 190.0])
    smape_ok = abs(smape - 7.326) <= 1e-3

    report(
        "A3", smape_ok,
        f"adjusted_best_f1 == brute force on {n_f1} instances; vus_roc(0) == "
        f"roc_auc on {n_zero}; vus_roc vs softening oracle on {n_vus} "
        f"instances (worst |diff| {worst_vus:.1e}, tol 1e-9); smape example "
        f"{smape:.3f} = 7.326 ± 1e-3",
    )


# ------------------------------------------------------------- A4 pre-training


def test_a4_pretraining_efficacy(stock_runs):
    logs, walls = stock_runs
    ratios = {}
    for seed in STOCK_SEEDS:
        log = logs[seed]
        assert len(log.records) == 2000
        ratios[seed] = log.final_loss / log.initial_loss
    measured = sum(walls.values())
    # walls covers 2 of the 3 identical-recipe runs; scale to all three.
    est_total = measured * 1.5
    ok = all(r < 0.5 for r in ratios.values()) and est_total < 600.0
    detail = ", ".join(
        f"seed {s}: final/initial {ratios[s]:.3f}" for s in STOCK_SEEDS
    )
    report(
        "A4", ok,
        f"tiny, 2000 steps, mixed sinusoid+AR(1) corpus — {detail} "
        f"(all < 0.5); ~{est_total:.0f}s CPU for 3 runs < 600s",
    )


# ------------------------------------------------------------- A5 task smokes


def test_a5_task_smoke_targets(pretrain_corpus, trained_tiny):
    weights, _ = trained_tiny

    # Zero-shot imputation (25% blocks) vs nearest-neighbor interpolation.
    se_model = se_nearest = 0.0
    n_hidden = 0
    for i, s in enumerate(pretrain_corpus):
        spec = ImputationSpec(ratio=0.25, block_len=8, seed=13 + i)
        masked = apply_block_mask(s, spec)
        hidden = s.observed & ~masked.observed
        filled = zero_shot_impute(weights, masked)
        nearest = interp_nearest(masked)
        se_model += float(np.sum((filled.values[hidden] - s.values[hidden]) ** 2))
        se_nearest += float(np.sum((nearest.values[hidden] - s.values[hidden]) ** 2))
        n_hidden += int(hidden.sum())
    impute_model = se_model / n_hidden
    impute_nearest = se_nearest / n_hidden

    # Linear-probed H=16 forecasting vs last-value naive.
    horizon = 16
    pairs = [
        (s.slice(0, len(s) - horizon), s.values[len(s) - horizon:])
        for s in pretrain_corpus
    ]
    probed = clone_weights(weights)
    attach_forecast_head(probed, horizon, seed=13)
    linear_probe(
        probed, "forecast", pairs, epochs=50,
        cfg=PretrainConfig(batch_size=16, seed=13), freeze=True,
    )
    mse_model, mse_naive = [], []
    for history, truth in pairs:
        fc = long_forecast(probed, history, horizon)
        mse_model.append(float(np.mean((fc.values - truth) ** 2)))
        last = history.values[history.observed][-1]
        mse_naive.append(float(np.mean((last - truth) ** 2)))
    fc_model = float(np.mean(mse_model))
    fc_naive = float(np.mean(mse_naive))

    # RBF-SVM over representations on the two-frequency task.
    series, labels = two_frequency_classes(n_per_class=50, seed=13)
    idx0 = [i for i, lab in enumerate(labels) if lab == 0]
    idx1 = [i for i, lab in enumerate(labels) if lab == 1]
    train_idx = idx0[:30] + idx1[:30]
    test_idx = idx0[30:] + idx1[30:]
    result = classify_by_representation(
        weights,
        [series[i] for i in train_idx], [labels[i] for i in train_idx],
        [series[i] for i in test_idx], [labels[i] for i in test_idx],
        seed=13,
    )

    ok = (impute_model < impute_nearest
          and fc_model <= 0.8 * fc_naive
          and result.accuracy >= 0.95)
    report(
        "A5", ok,
        f"impute MSE {impute_model:.3f} < nearest {impute_nearest:.3f}; "
        f"probed H=16 forecast MSE {fc_model:.4f} <= 0.8×naive "
        f"({fc_naive:.4f}); two-frequency SVM accuracy "
        f"{result.accuracy:.3f} >= 0.95",
    )


# ---------------------------------------------------------- A6 protocol rules


def test_a6_protocol_fidelity(trained_tiny, monkeypatch):
    # Splits reproduce exactly under the shared seed 13.
    collection = [
        Series(values=np.arange(16, dtype=np.float32) + i, name=f"s{i}")
        for i in range(10)
    ]
    spec = SplitSpec(mode="by_series")
    first = split_by_series(collection, spec)
    second = split_by_series(collection, spec)
    names = lambda parts: [[s.name for s in part] for part in parts]
    splits_repro = names(first) == names(second)
    order = np.random.default_rng(13).permutation(10)
    expected_train = [f"s{i}" for i in order[:6]]
    splits_repro = splits_repro and names(first)[0] == expected_train
    seed_is_13 = SplitSpec().seed == 13
    monkeypatch.delenv("MOMENT_MINI_SEED", raising=False)
    seed_is_13 = seed_is_13 and _env_seed() == 13

    # Mask count: exactly floor(0.3 * 64) = 19 patches per draw.
    rng = np.random.default_rng(0)
    counts = set((sample_patch_mask(200, 64, 0.3, rng) == 0).sum(axis=1).tolist())
    mask_ok = counts == {19} and math.floor(0.3 * 64) == 19

    # Task constants accepted verbatim.
    ratios_ok = IMPUTE_RATIOS == (0.125, 0.25, 0.375, 0.5)
    for r in IMPUTE_RATIOS:
        ImputationSpec(ratio=r, block_len=8, seed=0)
    window_ok = AnomalySpec().window == 512

    # Learning-rate trace endpoints.
    _, log = trained_tiny
    lr_first, lr_last = log.records[0][1], log.records[-1][1]
    lr_ok = (lr_first == pytest.approx(1e-4, rel=1e-9)
             and lr_last == pytest.approx(1e-5, rel=1e-9))

    ok = splits_repro and seed_is_13 and mask_ok and ratios_ok and window_ok \
        and lr_ok
    report(
        "A6", ok,
        f"seed-13 splits reproduce exactly; mask count always 19/64; "
        f"imputation ratios {IMPUTE_RATIOS} and anomaly window 512 verbatim; "
        f"lr trace {lr_first:.1e} -> {lr_last:.1e}",
    )


# ------------------------------------------------------------- A7 probe repro


def test_a7_probe_reproductions(pretrain_corpus, trained_tiny, stock_runs):
    weights, _ = trained_tiny

    curve = frequency_error_curve(weights, seed=13)
    zvm = zero_vs_mask_probe(weights, pretrain_corpus, seed=13)

    logs, _ = stock_runs
    deep_cfg = named_config("tiny", n_layers=2)
    tail = lambda log: float(np.mean([r[2] for r in log.records[-100:]]))
    depth_wins = {}
    for seed in STOCK_SEEDS:
        _, deep_log = pretrain(
            init_weights(deep_cfg, seed=seed),
            pretrain_corpus,
            PretrainConfig(seed=seed, epochs=None, total_steps=2000),
        )
        depth_wins[seed] = (tail(deep_log), tail(logs[seed]))

    all_deeper = all(two < one for two, one in depth_wins.values())
    ok = (curve.spearman > 0.0
          and zvm.mask_token_mse <= zvm.zero_fill_mse
          and all_deeper)
    depth_txt = ", ".join(
        f"seed {s}: 2-layer {two:.3f} < 1-layer {one:.3f}"
        for s, (two, one) in depth_wins.items()
    )
    report(
        "A7", ok,
        f"frequency-error Spearman {curve.spearman:.3f} > 0; mask-token MSE "
        f"{zvm.mask_token_mse:.3f} <= zero-fill {zvm.zero_fill_mse:.3f}; "
        f"equal-steps train loss: {depth_txt} (3 of 3 seeds)",
    )
