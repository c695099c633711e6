"""Inference-time task adapters over a pretrained masked-series model:
gap imputation, anomaly scoring, zero-shot and head-based forecasting, and
SVM classification over sequence representations.

Every adapter encodes through model.encode_windows, in fixed chunks, and
runs there only the head whose output it reads, so nothing an adapter runs
is recorded, even inside an open Tape. The forecasting and imputation
adapters take one Series or a list of them and return the same shape, any
other input being a ShapeError naming the argument; a list is encoded in
one batch, and each series' result matches its batch-1 result up to float
rounding. A NumericError names the series and window that went non-finite.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import RbfSvm
from .data import Series, downsample, fit_windows
from .errors import (
    ConfigError,
    EmptySeriesError,
    HorizonError,
    NumericError,
    ShapeError,
    StratificationError,
    bounded,
    check_fields,
    check_value,
)
from .model import (
    encode_windows,
    forecasting_head,
    history_windows,
    left_pad,
    nonpadded_patches,
    patch_observed_indicator,
    prepare_windows,
    reconstruction_head,
    revin_denormalize,
    sequence_representation,
)
from .numcore import CHUNK

# ------------------------------------------------------------------ task specs

IMPUTE_RATIOS = (0.125, 0.25, 0.375, 0.5)


@dataclass(frozen=True)
class ImputationSpec:
    """Block-masking protocol for imputation evaluation: hide contiguous,
    non-overlapping, patch-aligned blocks of `block_len` timesteps."""

    ratio: float = 0.25
    block_len: int = bounded(8, low=1)
    seed: int = bounded(0, low=0)

    def __post_init__(self):
        check_fields(self)
        if self.ratio not in IMPUTE_RATIOS:
            raise ConfigError(
                f"masking ratio must be one of {IMPUTE_RATIOS}, got {self.ratio}"
            )


def sample_block_mask(spec, length):
    """Observed-mask with floor(ratio * n_blocks) (at least 1) blocks hidden,
    chosen uniformly without replacement on the aligned block grid."""
    if length % spec.block_len != 0:
        raise ShapeError(
            f"length {length} not divisible by block length {spec.block_len}"
        )
    n_blocks = length // spec.block_len
    n_hidden = max(1, int(spec.ratio * n_blocks))
    rng = np.random.default_rng(spec.seed)
    hidden = rng.choice(n_blocks, size=n_hidden, replace=False)
    observed = np.ones(length, dtype=bool)
    observed.reshape(n_blocks, spec.block_len)[hidden] = False
    return observed


def apply_block_mask(x, spec):
    """Hide additional blocks of an (otherwise observed) series for evaluation."""
    mask = sample_block_mask(spec, len(x))
    return replace(x, observed=x.observed & mask)


@dataclass(frozen=True)
class AnomalySpec:
    """Anomaly-scoring protocol: window length, downsampling rule, and the
    pointwise squared-error score."""

    window: int = bounded(512, low=1)
    downsample_threshold: int = bounded(2560, low=0)
    downsample_factor: int = bounded(10, low=1)
    mask_rounds: int = bounded(4, low=1)  # ceil(1 / 0.3): disjoint groups tiling every patch

    def __post_init__(self):
        check_fields(self)


# ------------------------------------------------------------------ windowing


def _window_grid(values, observed, window):
    """Chunk a series into ceil(n/window) consecutive windows; the last one is
    left-padded. Returns (values [W,window], observed [W,window], spans) where
    spans[w] = (lo, hi, pad) maps window w back to series positions."""
    n = len(values)
    n_win = max(1, math.ceil(n / window))
    vs = np.zeros((n_win, window), dtype=np.float32)
    obs = np.zeros((n_win, window), dtype=bool)
    spans = []
    for w in range(n_win):
        lo = w * window
        hi = min(n, lo + window)
        v, o = left_pad(values[lo:hi], window, observed[lo:hi])
        vs[w], obs[w] = v, o
        spans.append((lo, hi, window - (hi - lo)))
    return vs, obs, spans


def _as_list(x, arg):
    """(list of series, whether x was a single Series), checked as _series_list."""
    return ([x], True) if isinstance(x, Series) else (_series_list(x, arg), False)


def _series_list(x, arg):
    """x, a list or tuple of Series, as a list, else a ShapeError naming `arg`."""
    if not isinstance(x, (list, tuple)):
        raise ShapeError(f"{arg} must be a list of Series, got {type(x).__name__}")
    for i, s in enumerate(x):
        if not isinstance(s, Series):
            raise ShapeError(f"{arg}[{i}] must be a Series, got {type(s).__name__}")
    return list(x)


def _encode(weights, norm, plan, owners, head=None, lo=0):
    """encode_windows on batch rows lo.., with a NumericError that names the
    series and window of failing row r: owners[r] is (series name, window index)."""
    try:
        return encode_windows(weights, norm, plan, head)
    except NumericError as exc:
        name, w = owners[lo + exc.row]
        raise NumericError(f"series {name!r}: window {w}: {exc}", row=lo + exc.row) from None


# ------------------------------------------------------------------ imputation


def zero_shot_impute(weights, x):
    """Fill missing entries from the denormalized masked-patch reconstruction.

    A patch counts as observed only when every one of its timesteps is
    observed; partially observed patches are reconstructed wholesale, but
    observed entries are always returned bit-for-bit unchanged. x is one
    Series or a list; the windows of every series are encoded together.
    """
    cfg = weights.config
    series, single = _as_list(x, "x")
    out = list(series)
    vs, obs, owners, gaps = [], [], [], []
    for i, s in enumerate(series):
        if s.observed.all():
            continue
        v, o, spans = _window_grid(s.values, s.observed, cfg.seq_len)
        for w, full in enumerate(patch_observed_indicator(o, cfg.patch_len)):
            if full.sum() == 0:
                raise EmptySeriesError(
                    f"series {s.name!r}: window {w} has no fully observed patch"
                )
        vs.append(v)
        obs.append(o)
        owners.extend((s.name, w) for w in range(len(spans)))
        gaps.append((i, spans))
    if not gaps:
        return out[0] if single else out
    norm, pobs, stats = prepare_windows(cfg, np.concatenate(vs), np.concatenate(obs))
    filled = revin_denormalize(_encode(weights, norm, pobs, owners, reconstruction_head),
                               stats)
    row = 0
    for i, spans in gaps:
        s = series[i]
        values = s.values.copy()
        for lo, hi, pad in spans:
            missing = ~s.observed[lo:hi]
            values[lo:hi][missing] = filled[row, pad:][missing]
            row += 1
        out[i] = replace(s, values=values, observed=np.ones(len(s), dtype=bool))
    return out[0] if single else out


# ------------------------------------------------------------------ anomalies


@dataclass
class AnomalyResult:
    """Per-timestep scores aligned with `series` (the processed series, which
    is the input itself unless the downsampling rule fired)."""

    scores: np.ndarray
    series: Series


def detect_anomalies(weights, x, spec=None):
    """Score every timestep by squared reconstruction error under a masking
    sweep: patches are hidden in `mask_rounds` disjoint rounds so each patch
    is reconstructed while masked exactly once."""
    if not isinstance(x, Series):
        raise ShapeError(f"x must be a Series, got {type(x).__name__}")
    spec = spec if spec is not None else AnomalySpec(window=weights.config.seq_len)
    if not isinstance(spec, AnomalySpec):
        raise ShapeError(f"spec must be an AnomalySpec, got {type(spec).__name__}")
    if spec.window != weights.config.seq_len:
        raise ConfigError(
            f"spec window {spec.window} != model window {weights.config.seq_len}"
        )
    proc = downsample(x, spec.downsample_threshold, spec.downsample_factor)
    cfg = weights.config
    vs, obs, spans = _window_grid(proc.values, proc.observed, cfg.seq_len)
    empty = np.flatnonzero(~obs.any(axis=1))
    if empty.size:
        w = int(empty[0])
        lo, hi, _ = spans[w]
        where = " of the downsampled series" if proc is not x else ""
        raise EmptySeriesError(
            f"series {x.name!r}: window {w} (steps [{lo}, {hi}){where}) "
            f"has no observed step"
        )
    norm, pobs, stats = prepare_windows(cfg, vs, obs)
    patch_group = np.arange(cfg.n_patches) % spec.mask_rounds
    groups = [g for g in (patch_group == j for j in range(spec.mask_rounds)) if g.any()]
    # every round in one encode: row r * len(vs) + w is window w under round r
    plans = np.concatenate([pobs & ~g[None, :].astype(np.uint8) for g in groups])
    owners = [(x.name, w) for _ in groups for w in range(len(vs))]
    recon = _encode(weights, np.tile(norm, (len(groups), 1)), plans, owners,
                    reconstruction_head).reshape(len(groups), len(vs), -1)
    recon_full = np.zeros_like(vs)
    for group, rec in zip(groups, recon):
        denorm = revin_denormalize(rec, stats)
        cols = np.repeat(group, cfg.patch_len)
        recon_full[:, cols] = denorm[:, cols]
    sq = np.where(obs, np.square(vs - recon_full), np.float32(0.0))
    scores = np.zeros(len(proc), dtype=np.float32)
    for w, (lo, hi, pad) in enumerate(spans):
        scores[lo:hi] = sq[w, pad:]
    return AnomalyResult(scores=scores, series=proc)


# ------------------------------------------------------------------ forecasting


def zero_shot_short_forecast(weights, history, horizon):
    """Forecast by appending masked patches: the trailing ceil(H/P) patches of
    a window are masked, the preceding region holds the most recent history
    (left-padded if short), and the reconstruction of the masked tail —
    denormalized with statistics from the history region only — is returned.
    history is one Series or a list (returning a list), encoded together."""
    cfg = weights.config
    check_value("horizon", horizon, int, low=1)
    if horizon > cfg.seq_len // 2:
        raise HorizonError(
            f"horizon {horizon} exceeds half the window ({cfg.seq_len // 2}); "
            f"use a probed forecasting head for longer horizons"
        )
    n_tail = math.ceil(horizon / cfg.patch_len)
    context = cfg.seq_len - n_tail * cfg.patch_len
    if context < 1:
        raise HorizonError(f"masked tail of {n_tail} patches leaves no history context")
    return _forecast(weights, history, context, reconstruction_head, context, horizon)


def long_forecast(weights, history, horizon):
    """Forecast with the attached linear forecasting head: normalize the most
    recent lookback window, encode, project to the horizon, denormalize.
    history is one Series or a list (returning a list), encoded together."""
    check_value("horizon", horizon, int, low=1)
    if weights.horizon is None:
        raise ConfigError("forecasting head not attached")
    if weights.horizon != horizon:
        raise ConfigError(
            f"forecasting head horizon {weights.horizon} != requested {horizon}"
        )
    return _forecast(weights, history, weights.config.seq_len, forecasting_head, 0, horizon)


def _forecast(weights, history, context, head, start, horizon):
    """Encode each history's history_windows under `context`, run `head`,
    denormalize, and return steps [start, start + horizon) of each row."""
    histories, single = _as_list(history, "history")
    norm, plan, stats = history_windows(weights.config, histories, context)
    out = _encode(weights, norm, plan, [(h.name, 0) for h in histories], head)
    out = revin_denormalize(out[:, start:start + horizon], stats)
    fcs = [Series(values=row, name=h.name, freq=h.freq) for row, h in zip(out, histories)]
    return fcs[0] if single else fcs


# ------------------------------------------------------------------ classification

SVM_C_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)


def embed_series(weights, collection):
    """Sequence representations for a list of series. Receives series only —
    labels never enter the embedding stage. Each CHUNK of windows is pooled
    as soon as it is encoded, so one chunk's hidden states live at a time."""
    cfg = weights.config
    collection = _series_list(collection, "collection")
    vals, obs = fit_windows(collection, cfg.seq_len)
    norm, plan, _ = prepare_windows(cfg, vals, obs, [s.name for s in collection])
    include = nonpadded_patches(obs, cfg.patch_len)
    owners = [(s.name, 0) for s in collection]
    reps = np.empty((len(collection), cfg.d_model), dtype=np.float32)
    for lo in range(0, len(reps), CHUNK):
        hi = lo + CHUNK
        hidden = _encode(weights, norm[lo:hi], plan[lo:hi], owners, lo=lo)
        reps[lo:hi] = sequence_representation(hidden, include[lo:hi])
    return reps


def _stratified_holdout(labels, val_frac=0.2, seed=13):
    """Per-class seeded 80/20 split; singleton classes stay fully in train."""
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        n_val = 0
        if len(idx) >= 2:
            n_val = min(max(1, int(val_frac * len(idx))), len(idx) - 1)
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    return np.sort(train_idx), np.sort(val_idx)


@dataclass
class ClassificationResult:
    accuracy: float
    predictions: np.ndarray
    best_c: float
    val_accuracy: float


def _labels(what, labels):
    """labels as a 1-D array, else a ShapeError naming them `what`."""
    try:
        arr = np.asarray(labels)
    except ValueError:  # numpy refuses ragged nesting
        raise ShapeError(f"{what} must be 1-D, got ragged {type(labels).__name__}") from None
    if arr.ndim != 1:
        raise ShapeError(f"{what} must be 1-D, got {arr.ndim}-D {type(labels).__name__}")
    return arr


def classify_by_representation(
    weights, train, train_labels, test, test_labels, c_grid=SVM_C_GRID, seed=13
):
    """Fit an RBF-SVM on frozen sequence representations, selecting C on a
    stratified validation split of the training set, and score the test set."""
    check_value("seed", seed, int, low=0)
    train, test = _series_list(train, "train"), _series_list(test, "test")
    train_labels, test_labels = (_labels(what, labels) for what, labels in (
        ("train_labels", train_labels), ("test_labels", test_labels)))
    if len(train) != len(train_labels):
        raise ShapeError(f"{len(train)} train series but {len(train_labels)} labels")
    if len(test) != len(test_labels):
        raise ShapeError(f"{len(test)} test series but {len(test_labels)} labels")
    classes = np.unique(train_labels)
    if len(classes) < 2:
        raise StratificationError("training split must contain at least 2 classes")
    missing = sorted(set(np.unique(test_labels)) - set(classes))
    if missing:
        raise StratificationError(
            f"classes absent from the training split: {missing}"
        )
    train_reps = embed_series(weights, train)
    test_reps = embed_series(weights, test)
    fit_idx, val_idx = _stratified_holdout(train_labels, seed=seed)
    best = None
    if len(val_idx) > 0:
        for c in c_grid:
            model = RbfSvm(C=c).fit(train_reps[fit_idx], train_labels[fit_idx])
            acc = float(np.mean(model.predict(train_reps[val_idx]) == train_labels[val_idx]))
            if best is None or acc > best[0]:
                best = (acc, c)
    best_c = best[1] if best is not None else 1.0
    final = RbfSvm(C=best_c).fit(train_reps, train_labels)
    predictions = final.predict(test_reps)
    accuracy = float(np.mean(predictions == test_labels))
    return ClassificationResult(
        accuracy=accuracy,
        predictions=predictions,
        best_c=best_c,
        val_accuracy=best[0] if best is not None else float("nan"),
    )
