"""Masked-patch pre-training: mask sampling, the masked reconstruction
objective, the optimizer loop with cosine decay and gradient clipping, and
head-only linear probing / full fine-tuning, all run by one loop that builds
each batch's loss on the open tape (a frozen encoder under nc.OffTape)."""

import csv
import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import numcore as nc
from .data import Series, fit_windows
from .errors import (
    ConfigError,
    ContractError,
    EmptySeriesError,
    ParseError,
    ShapeError,
    TrainingError,
    bounded,
    check_fields,
    check_value,
)
from .model import (
    HEAD_PREFIXES,
    encode,
    encode_windows,
    forecasting_head,
    history_windows,
    model_forward,
    nonpadded_patches,
    prepare_windows,
    reconstruction_head,
)

# ------------------------------------------------------------------ config


@dataclass
class PretrainConfig:
    """Training recipe. epochs and total_steps are both budget caps: training
    stops at whichever is reached first; either may be None to disable it."""

    mask_ratio: float = bounded(0.30, above=0, below=1)
    batch_size: int = bounded(64, low=1)
    epochs: int = bounded(2, low=1)
    total_steps: int = bounded(2000, low=1)
    seed: int = bounded(0, low=0)
    lr_init: float = bounded(1e-4, above=0)
    lr_final: float = bounded(1e-5, above=0)
    clip_norm: float = bounded(5.0, above=0)
    weight_decay: float = bounded(0.05, low=0)

    def __post_init__(self):
        check_fields(self, optional=("epochs", "total_steps"))
        if self.epochs is None and self.total_steps is None:
            raise ConfigError("one of epochs / total_steps must be set")


def train_config(options, lr_scale=1.0):
    """The PretrainConfig of a mapping of option values by field name (a CLI
    run config, an estimator's parameters); fields it lacks keep their
    defaults, and both learning rates are multiplied by lr_scale."""
    cfg = PretrainConfig(**{f.name: options[f.name] for f in fields(PretrainConfig)
                            if f.name in options})
    return replace(cfg, lr_init=cfg.lr_init * lr_scale, lr_final=cfg.lr_final * lr_scale)


@dataclass
class TrainLog:
    """Per-step (step, lr, loss) trace plus a digest of the series consumed."""

    records: list
    audit_hash: str = ""
    consumed_names: tuple = ()

    def __post_init__(self):
        steps = [r[0] for r in self.records]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ContractError("train log steps must be strictly increasing")

    @property
    def initial_loss(self):
        return self.records[0][2] if self.records else None

    @property
    def final_loss(self):
        return self.records[-1][2] if self.records else None

    def save(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "lr", "loss"])
            for step, lr, loss in self.records:
                writer.writerow([step, repr(float(lr)), repr(float(loss))])
        return path

    @classmethod
    def load(cls, path):
        records = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["step", "lr", "loss"]:
                raise ParseError(f"{path}: expected header step,lr,loss")
            for row in filter(None, reader):  # blank lines are skipped
                try:
                    step, lr, loss = row
                    records.append((int(step), float(lr), float(loss)))
                except ValueError:
                    raise ParseError(f"{path}: line {reader.line_num}: expected an int step, "
                                     f"a float lr and a float loss, got {row}") from None
                if len(records) > 1 and records[-1][0] <= records[-2][0]:
                    raise ParseError(f"{path}: line {reader.line_num}: step {records[-1][0]} "
                                     f"does not follow step {records[-2][0]}")
        return cls(records=records)


def audit_digest(names):
    """Order-independent sha256 digest of a collection of series names."""
    joined = ",".join(sorted(set(names)))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ masking & loss


def sample_patch_mask(rows, n_patches, ratio, rng):
    """Plans [rows, n_patches] (1 = kept observed, 0 = masked), each row
    masking exactly max(1, floor(ratio * N)) patches uniformly without
    replacement; the rows are drawn from rng one after another."""
    check_value("mask_ratio", ratio, float, above=0, below=1)
    k = max(1, math.floor(ratio * n_patches))
    plan = np.ones((rows, n_patches), dtype=np.uint8)
    for row in plan:
        row[rng.choice(n_patches, size=k, replace=False)] = 0
    return plan


def masked_mse_loss(x_norm, x_hat, plan, observed=None):
    """Mean squared error pooled over timesteps of masked patches, for
    windows x_norm [B,T] under plans [B,N]; one window is a batch of one.

    A timestep contributes iff its patch is masked under `plan` and the
    timestep itself is real ground truth per `observed` (padded or missing
    steps never produce a target). Returns a scalar engine Tensor when x_hat
    is one (differentiable), else a float.
    """
    xs = np.asarray(x_norm, dtype=np.float32)
    plan_arr = np.asarray(plan)
    if xs.ndim != 2 or plan_arr.ndim != 2 or plan_arr.shape[0] != xs.shape[0] \
            or xs.shape[1] % plan_arr.shape[1] != 0:
        raise ShapeError(f"masked_mse_loss needs [B,T] values and [B,N] plans, got "
                         f"{xs.shape} and {plan_arr.shape}")
    p = xs.shape[1] // plan_arr.shape[1]
    obs = np.ones_like(xs, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if obs.shape != xs.shape:
        raise ShapeError(f"observed shape {obs.shape} != values shape {xs.shape}")
    eligible = np.repeat(plan_arr == 0, p, axis=1) & obs
    count = int(eligible.sum())
    if count == 0:
        raise ContractError("masked loss needs at least one masked, real timestep")
    w = (eligible / count).astype(np.float32)
    if isinstance(x_hat, nc.Tensor):
        if x_hat.shape != xs.shape:
            raise ShapeError(f"prediction shape {x_hat.shape} != values shape {xs.shape}")
        return nc.weighted_sq_error(x_hat, xs, w)
    pred = np.asarray(x_hat, dtype=np.float32).reshape(xs.shape)
    return float((np.square(pred - xs) * w).sum())


# ------------------------------------------------------------------ training loop


def _prepare_series(dataset, config):
    """Window, normalize, and patch-index every series once up front."""
    if not dataset:
        raise ContractError("empty training dataset")
    values, obs = fit_windows(dataset, config.seq_len)
    usable = nonpadded_patches(obs, config.patch_len).sum(axis=1)
    if np.any(usable < 2):
        name = dataset[int(np.argmax(usable < 2))].name
        raise ContractError(f"training series {name!r} has fewer than 2 usable patches")
    xs, pobs, _ = prepare_windows(config, values, obs)
    return xs, obs, pobs, [s.name for s in dataset]


def _fit_loop(trainable, n_series, cfg, batch_loss):
    """The optimizer loop under pretraining and probing; returns the
    (step, lr, loss) records and which series were drawn into a batch.

    Until cfg's step budget runs out, each step draws the next batch of a
    fresh per-epoch permutation, opens the tape and calls batch_loss(idx,
    rng): it draws masks from rng and returns the batch's scalar loss built
    on the tape. The loss is checked, and nc.backward's gradients go straight
    to nc.AdamW.step, which packs those of trainable into one vector, clips
    and applies them at the cosine lr. Every logged loss precedes its update.
    """
    by_epochs = None if cfg.epochs is None else cfg.epochs * math.ceil(n_series / cfg.batch_size)
    planned = min(c for c in (by_epochs, cfg.total_steps) if c is not None)
    sched = nc.CosineSchedule(cfg.lr_init, cfg.lr_final, max(1, planned - 1))
    rng = np.random.default_rng(cfg.seed)
    opt = nc.AdamW(trainable, cfg.weight_decay)
    workspace = nc.Workspace()
    records = []
    drawn = np.zeros(n_series, dtype=bool)
    step = 0
    while step < planned:
        order = rng.permutation(n_series)
        for lo in range(0, n_series, cfg.batch_size):
            if step >= planned:
                break
            idx = order[lo:lo + cfg.batch_size]
            lr = nc.cosine_lr(step, sched)
            with nc.Tape(workspace) as tape:
                loss = batch_loss(idx, rng)
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    raise TrainingError(f"non-finite loss at step {step}")
            # the map goes straight to the step, so no gradient outlives it
            opt.step(nc.backward(loss, tape), lr, cfg.clip_norm)
            records.append((step, lr, loss_val))
            drawn[idx] = True
            step += 1
    return records, drawn


def _reconstruction_loss(weights, dataset, mask_ratio, freeze):
    """(series names, batch_loss) for the masked objective: each row of a
    batch gets a fresh uniform patch mask. A frozen encoder runs under
    nc.OffTape, once a step, so only the reconstruction head is recorded."""
    xs, obs, pobs, names = _prepare_series(dataset, weights.config)

    def batch_loss(idx, rng):
        plan = pobs[idx] & sample_patch_mask(len(idx), pobs.shape[1], mask_ratio, rng)
        xb = xs[idx]
        if freeze:
            with nc.OffTape():
                h = encode(weights, xb, plan)
            recon = reconstruction_head(h, weights)
        else:
            _, recon = model_forward(weights, xb, plan)
        return masked_mse_loss(xb, recon, plan, obs[idx])

    return names, batch_loss


def pretrain(weights, dataset, cfg=None):
    """Run masked-patch pre-training; returns (weights, TrainLog).

    Each step: draw a fresh uniform patch mask per series, blend mask tokens,
    encode, reconstruct, take the masked MSE, clip the global gradient norm,
    and apply a decoupled-weight-decay Adam update on the cosine schedule to
    all but a forecasting head. Every logged loss precedes that step's update.
    """
    cfg = cfg or PretrainConfig()
    names, batch_loss = _reconstruction_loss(weights, dataset, cfg.mask_ratio, freeze=False)
    trainable = weights.parameters("reconstruction", freeze=False)
    records, drawn = _fit_loop(trainable, len(names), cfg, batch_loss)
    consumed = {names[i] for i in np.flatnonzero(drawn)}
    log = TrainLog(
        records=records,
        audit_hash=audit_digest(consumed),
        consumed_names=tuple(sorted(consumed)),
    )
    return weights, log


# ------------------------------------------------------------------ probing


def _prepare_forecast_pairs(weights, dataset):
    """Normalize (history, target) pairs with history-only statistics, each
    history on the window long_forecast serves: model.history_windows."""
    if len(dataset) == 0:
        raise EmptySeriesError("no forecast pairs to train or score on")
    horizon = weights.horizon
    for i, pair in enumerate(dataset):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and isinstance(pair[0], Series)):
            raise ShapeError(f"forecast pair {i} must be a (history Series, target) "
                             f"pair, got {type(pair).__name__}")
        if np.shape(pair[1]) != (horizon,):
            raise ShapeError(f"forecast target shape {np.shape(pair[1])} != horizon ({horizon},)")
    histories = [history for history, _ in dataset]
    xs, plans, stats = history_windows(weights.config, histories, weights.config.seq_len)
    targets = np.asarray([target for _, target in dataset], dtype=np.float32)
    return xs, plans, (targets - stats.mean[:, None]) / stats.std[:, None]


@dataclass
class EncodedForecastPairs:
    """Forecast pairs run once through a frozen encoder: hidden states
    [B, N, D] and normalized targets [B, H]. Valid only while the encoder
    weights stay those recorded in encoder_digest."""

    hidden: np.ndarray
    targets: np.ndarray
    encoder_digest: str


def _encoder_digest(weights):
    """sha256 of every parameter outside the task heads."""
    h = hashlib.sha256()
    for name, p in weights.params.items():
        if not name.startswith(tuple(HEAD_PREFIXES.values())):
            h.update(name.encode("utf-8"))
            h.update(p.data.tobytes())
    return h.hexdigest()


def encode_forecast_pairs(weights, dataset):
    """Run every (history, target) pair's window through the encoder with
    encode_windows (chunked, no tape, no head); returns EncodedForecastPairs,
    whose plain arrays keep the encoder off any tape they are later used on."""
    xs, plans, targets = _prepare_forecast_pairs(weights, dataset)
    hidden = encode_windows(weights, xs, plans)
    return EncodedForecastPairs(hidden, targets, _encoder_digest(weights))


def _encoded(weights, dataset):
    """dataset as EncodedForecastPairs, refusing ones from other encoder weights."""
    if not isinstance(dataset, EncodedForecastPairs):
        return encode_forecast_pairs(weights, dataset)
    if dataset.encoder_digest != _encoder_digest(weights):
        raise ContractError(
            "encoded forecast pairs came from different encoder weights; encode again"
        )
    return dataset


def evaluate_forecast_mse(weights, dataset):
    """Mean squared error of the forecasting head in normalized space, over
    (history, target) pairs or their EncodedForecastPairs."""
    encoded = _encoded(weights, dataset)
    with nc.OffTape():
        fc = forecasting_head(encoded.hidden, weights)
    return float(np.mean(np.square(fc.data - encoded.targets)))


def _forecast_loss(weights, dataset, freeze):
    """(pair count, batch_loss) for the forecast head's MSE in normalized
    space; a frozen encoder's hidden states are computed once up front."""
    if freeze:
        encoded = _encoded(weights, dataset)
        hidden, targets = encoded.hidden, encoded.targets
    else:
        xs, pobs, targets = _prepare_forecast_pairs(weights, dataset)

    def batch_loss(idx, rng):
        h = hidden[idx] if freeze else encode(weights, xs[idx], pobs[idx])
        target = targets[idx]
        return nc.weighted_sq_error(forecasting_head(h, weights), target,
                                    np.float32(1.0 / target.size))

    return len(targets), batch_loss


def linear_probe(weights, head_kind, dataset, epochs=1, cfg=None, freeze=True):
    """Train only the requested head on a task dataset (freeze=False trains
    everything — that is full fine-tuning, same loop).

    reconstruction: dataset is a list of Series trained with the masked
    objective. forecast: dataset is a list of (history Series, target vector)
    pairs, or with freeze their EncodedForecastPairs, trained with plain MSE
    in normalized space.

    A frozen encoder runs under nc.OffTape, so only the head is recorded
    and differentiated: the forecast probe encodes every window once, the
    reconstruction probe once per step (its masks change every step).

    The step budget is `epochs` alone, epochs x ceil(n / cfg.batch_size)
    steps: cfg.epochs and cfg.total_steps are ignored; 0 epochs is a no-op.
    """
    if head_kind not in HEAD_PREFIXES:
        raise ConfigError(f"unknown head kind {head_kind!r}; choose from {tuple(HEAD_PREFIXES)}")
    if head_kind == "forecast" and weights.horizon is None:
        raise ConfigError("attach a forecasting head before probing it")
    if isinstance(dataset, EncodedForecastPairs) and not freeze:
        raise ContractError(
            "an unfrozen encoder changes every step; pass the raw forecast pairs"
        )
    check_value("epochs", epochs, int, low=0)
    if epochs == 0:
        return weights
    cfg = replace(cfg or PretrainConfig(), epochs=epochs, total_steps=None)
    if head_kind == "reconstruction":
        names, batch_loss = _reconstruction_loss(weights, dataset, cfg.mask_ratio, freeze)
        n_series = len(names)
    else:
        n_series, batch_loss = _forecast_loss(weights, dataset, freeze)
    _fit_loop(weights.parameters(head_kind, freeze), n_series, cfg, batch_loss)
    return weights
