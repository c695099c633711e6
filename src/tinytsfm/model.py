"""Series encoder architecture: reversible instance normalization, patching,
patch/mask embedding, positional signals, a bias-free pre-norm transformer
stack with bucketed relative attention bias, and the task heads.

`encode` maps a batch of normalized windows [B,T] to hidden patch states
[B,N,D]; each head (`reconstruction_head`, `forecasting_head`) is a separate
call on those states, so a caller runs only the head whose output it reads.
`model_forward` is encode plus the reconstruction head, for training.
`encode_windows` is the read path under every task adapter and probe: a
chunked encode, then the head the caller names if any, all off the tape, and
it returns an ndarray.

Every forward and window helper takes a batch: windows [B,T] and patch plans
as plain [B,N] uint8 arrays (1 = observed patch, 0 = mask token). Each layer
and each head is one numcore tape node, so a training step records one node
per encoder layer plus the patch embedding, the head and the loss.
"""

import hashlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import numcore as nc
from .errors import (
    ConfigError,
    EmptySeriesError,
    NumericError,
    ParseError,
    ShapeError,
    bounded,
    check_fields,
    check_value,
)

# ------------------------------------------------------------------ configuration


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults give the desk-scale tiny encoder."""

    seq_len: int = bounded(512, low=1)
    patch_len: int = bounded(8, low=1)
    d_model: int = bounded(32, low=1)
    n_layers: int = bounded(1, low=0)
    n_heads: int = bounded(4, low=1)
    d_ff: int = bounded(64, low=1)
    # relative_bucket divides by n_rel_buckets // 4 and by log(rel_max_distance / that)
    n_rel_buckets: int = bounded(32, low=4)
    rel_max_distance: int = bounded(128, low=1)
    revin_eps: float = bounded(1e-5, above=0)

    def __post_init__(self):
        check_fields(self)
        if self.rel_max_distance <= self.n_rel_buckets // 4:
            raise ConfigError(f"rel_max_distance must exceed n_rel_buckets // 4, got "
                              f"{self.rel_max_distance} for {self.n_rel_buckets} buckets")
        if self.seq_len % self.patch_len != 0:
            raise ConfigError(
                f"seq_len {self.seq_len} must be divisible by patch_len {self.patch_len}"
            )
        if self.d_model % 2:
            raise ConfigError(f"sinusoidal positions need an even d_model, got {self.d_model}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )

    @property
    def n_patches(self):
        return self.seq_len // self.patch_len


NAMED_CONFIGS = {
    "tiny": dict(n_layers=1, d_model=32, n_heads=4, d_ff=64),
    "small": dict(n_layers=2, d_model=64, n_heads=4, d_ff=128),
    "base": dict(n_layers=4, d_model=128, n_heads=8, d_ff=256),
}


def named_config(name, **overrides):
    """Build one of the desk-scale configs: tiny, small, base."""
    if name not in NAMED_CONFIGS:
        raise ConfigError(f"unknown config {name!r}; choose from {sorted(NAMED_CONFIGS)}")
    sizes = dict(NAMED_CONFIGS[name])
    sizes.update(overrides)
    return ModelConfig(**sizes)


def resolve_config(value):
    """The ModelConfig a CLI option or an estimator names: a ModelConfig as
    is, a path ending in .json to a file of its fields, or a named size."""
    if isinstance(value, ModelConfig):
        return value
    if not isinstance(value, str):
        raise ConfigError(f"config must be a ModelConfig, a named size or a .json file, "
                          f"got {type(value).__name__}")
    if value.endswith(".json"):
        try:
            with open(value, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ParseError(f"model config file not found: {value}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{value}: invalid JSON ({exc})") from None
        try:
            return ModelConfig(**raw)
        except TypeError as exc:
            raise ConfigError(f"{value}: {exc}") from None
    return named_config(value)


# ------------------------------------------------------------------ normalization


@dataclass
class RevinStats:
    """Per-instance mean/std over observed timesteps; kept for denormalization."""

    mean: np.ndarray
    std: np.ndarray


def revin_normalize(values, observed, eps=1e-5):
    """Center/scale each window of a batch [B,T] by its observed-timestep
    statistics, observed being the [B,T] bool mask of real steps.

    Observed entries become (x - mu) / max(sigma, eps) with population sigma;
    unobserved entries pass through as 0. Returns (normalized, RevinStats).
    """
    v = np.asarray(values, dtype=np.float32)
    obs = np.asarray(observed, dtype=bool)
    if v.ndim != 2 or obs.shape != v.shape:
        raise ShapeError(f"revin_normalize needs [B,T] values and a mask of their shape, "
                         f"got {v.shape} and {obs.shape}")
    counts = obs.sum(axis=1)
    if np.any(counts == 0):
        raise EmptySeriesError("revin_normalize needs at least one observed timestep")
    # one float64 copy, its unobserved cells zeroed before each sum
    unobserved = ~obs
    v64 = v.astype(np.float64)
    np.copyto(v64, 0.0, where=unobserved)
    mu = v64.sum(axis=1) / counts
    v64 -= mu[:, None]
    np.square(v64, out=v64)
    np.copyto(v64, 0.0, where=unobserved)
    sigma = np.maximum(np.sqrt(v64.sum(axis=1) / counts), eps)
    # freed before the output is made, which would otherwise sit above its
    # hole in the heap: a 256-window transform peaked 2.4 MB higher
    del v64
    mu32 = mu.astype(np.float32)
    sg32 = sigma.astype(np.float32)
    out = np.subtract(v, mu32[:, None])
    out /= sg32[:, None]
    np.copyto(out, 0.0, where=unobserved)
    return out, RevinStats(mean=mu32, std=sg32)


def revin_denormalize(values, stats):
    """Inverse transform of a batch [B,T]: y * sigma + mu, per window."""
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 2:
        raise ShapeError(f"revin_denormalize needs [B,T] values, got {v.shape}")
    return v * stats.std[:, None] + stats.mean[:, None]


# ------------------------------------------------------------------ patching


def patchify(values, patch_len):
    """Split a length-T vector (or [B,T] batch) into disjoint length-P patches."""
    v = np.asarray(values, dtype=np.float32)
    t = v.shape[-1]
    if t % patch_len != 0:
        raise ShapeError(
            f"length {t} not divisible by patch length {patch_len}; left-pad first"
        )
    return v.reshape(v.shape[:-1] + (t // patch_len, patch_len))


def left_pad(values, target_len, observed=None):
    """Prepend zeros up to target_len; the padded prefix is marked unobserved."""
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 1:
        raise ShapeError(f"left_pad expects a 1-D series, got shape {v.shape}")
    if len(v) > target_len:
        raise ShapeError(
            f"series of length {len(v)} exceeds window {target_len}; sub-sample first"
        )
    obs = np.ones(len(v), dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if obs.shape != v.shape:
        raise ShapeError(f"observed mask shape {obs.shape} != series shape {v.shape}")
    pad = target_len - len(v)
    out = np.concatenate([np.zeros(pad, dtype=np.float32), v])
    mask = np.concatenate([np.zeros(pad, dtype=bool), obs])
    return out, mask


def patch_observed_indicator(observed, patch_len):
    """uint8 per-patch indicator ([N] or [B,N]): 1 iff all timesteps observed."""
    obs = np.asarray(observed, dtype=bool)
    t = obs.shape[-1]
    if t % patch_len != 0:
        raise ShapeError(f"mask length {t} not divisible by patch length {patch_len}")
    grouped = obs.reshape(obs.shape[:-1] + (t // patch_len, patch_len))
    return grouped.all(axis=-1).astype(np.uint8)


def prepare_windows(config, values, observed, names=None):
    """Raw windows -> model input: the one path every trainer, task adapter
    and probe takes to the encoder.

    values/observed: [B,T] windows of seq_len steps. Returns
    (x_norm, plan, RevinStats): RevIN with config.revin_eps over observed
    steps, and the uint8 per-patch plan in which a patch is observed only
    when every one of its steps is. Given the rows' series names, a window
    with no observed step is an EmptySeriesError naming its series.
    """
    empty = [] if names is None else np.flatnonzero(~np.any(observed, axis=-1))
    if len(empty):
        raise EmptySeriesError(f"series {names[empty[0]]!r} has no observed step "
                               f"in its {config.seq_len}-step window")
    x_norm, stats = revin_normalize(values, observed, eps=config.revin_eps)
    return x_norm, patch_observed_indicator(observed, config.patch_len), stats


def history_windows(config, histories, context):
    """prepare_windows of every forecaster's and the forecast probe's input: each
    history's last `context` steps, left-padded if short, then unobserved steps."""
    values = np.zeros((len(histories), config.seq_len), dtype=np.float32)
    observed = np.zeros(values.shape, dtype=bool)
    for i, h in enumerate(histories):
        values[i, :context], observed[i, :context] = left_pad(
            h.values[-context:], context, h.observed[-context:]
        )
    return prepare_windows(config, values, observed, [h.name for h in histories])


# ------------------------------------------------------------------ positions


@lru_cache(maxsize=8)
def sinusoidal_pe(n_positions, d_model):
    """Absolute sinusoidal positional table [n_positions, d_model]; cached,
    so the returned array is shared and read-only."""
    if d_model % 2 != 0:
        raise ConfigError(f"sinusoidal positions need an even d_model, got {d_model}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / d_model)
    pe = np.zeros((n_positions, d_model), dtype=np.float32)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.setflags(write=False)
    return pe


def relative_bucket(rel_pos, n_buckets=32, max_distance=128):
    """Bidirectional bucket id for a relative offset (key position - query position).

    Half the buckets serve each sign; small offsets get exact buckets, larger
    ones log-spaced buckets up to max_distance, clamped beyond.
    """
    half = n_buckets // 2
    bucket = half if rel_pos > 0 else 0
    n = abs(int(rel_pos))
    max_exact = half // 2
    if n < max_exact:
        return bucket + n
    log_val = max_exact + int(
        math.log(n / max_exact) / math.log(max_distance / max_exact) * (half - max_exact)
    )
    return bucket + min(log_val, half - 1)


@lru_cache(maxsize=8)
def _bucket_index_matrix(n_patches, n_buckets, max_distance):
    idx = np.empty((n_patches, n_patches), dtype=np.int64)
    for i in range(n_patches):
        for j in range(n_patches):
            idx[i, j] = relative_bucket(j - i, n_buckets, max_distance)
    idx.setflags(write=False)
    return idx


# ------------------------------------------------------------------ weights


# head kind -> the name prefix of its parameters; all others are the encoder's
HEAD_PREFIXES = {"reconstruction": "recon_head.", "forecast": "forecast_head."}


class ModelWeights:
    """Named parameter tensors plus the config they were built for."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @property
    def horizon(self):
        """The attached forecasting head's horizon H, or None without one."""
        bias = self.params.get("forecast_head.bias")
        return None if bias is None else bias.shape[0]

    def parameters(self, head_only, freeze=True):
        """The tensors its loss gives a gradient when the head_only head trains:
        that head alone over a frozen encoder, else all but the other head."""
        if head_only not in HEAD_PREFIXES:
            raise ConfigError(f"unknown head kind {head_only!r}")
        other = tuple(p for kind, p in HEAD_PREFIXES.items() if kind != head_only)
        return {k: v for k, v in self.params.items()
                if k.startswith(HEAD_PREFIXES[head_only]) or not (freeze or k.startswith(other))}


def expected_param_shapes(config, horizon=None):
    """Canonical parameter name -> shape map for a config (insertion-ordered)."""
    p, d, ff = config.patch_len, config.d_model, config.d_ff
    shapes = {
        "patch_embed.weight": (p, d),
        "patch_embed.bias": (d,),
        "mask_token": (d,),
    }
    for i in range(config.n_layers):
        shapes[f"layers.{i}.norm1.gamma"] = (d,)
        shapes[f"layers.{i}.attn.wq"] = (d, d)
        shapes[f"layers.{i}.attn.wk"] = (d, d)
        shapes[f"layers.{i}.attn.wv"] = (d, d)
        shapes[f"layers.{i}.attn.wo"] = (d, d)
        shapes[f"layers.{i}.attn.rel_bias"] = (config.n_rel_buckets, config.n_heads)
        shapes[f"layers.{i}.norm2.gamma"] = (d,)
        shapes[f"layers.{i}.ff.w1"] = (d, ff)
        shapes[f"layers.{i}.ff.w2"] = (ff, d)
    shapes["recon_head.weight"] = (d, p)
    shapes["recon_head.bias"] = (p,)
    if horizon is not None:
        shapes["forecast_head.weight"] = (config.n_patches * d, horizon)
        shapes["forecast_head.bias"] = (horizon,)
    return shapes


def init_weights(config, seed=0):
    """Fresh weights with no forecasting head (attach_forecast_head adds it):
    fan-in scaled-uniform matrices, unit gammas, zero biases, standard-normal
    mask token."""
    check_value("seed", seed, int, low=0)
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in expected_param_shapes(config).items():
        if name == "mask_token":
            arr = rng.standard_normal(shape).astype(np.float32)
        elif name.endswith(("gamma",)):
            arr = np.ones(shape, dtype=np.float32)
        elif name.endswith(("bias", "rel_bias")):
            arr = np.zeros(shape, dtype=np.float32)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        params[name] = nc.Tensor(arr, requires_grad=True)
    return ModelWeights(config, params)


def attach_forecast_head(weights, horizon, seed=0):
    """Add (or replace) the flatten-and-project forecasting head for horizon H."""
    check_value("horizon", horizon, int, low=1)
    check_value("seed", seed, int, low=0)
    rng = np.random.default_rng(seed)
    nd = weights.config.n_patches * weights.config.d_model
    bound = 1.0 / math.sqrt(nd)
    weights.params["forecast_head.weight"] = nc.Tensor(
        rng.uniform(-bound, bound, size=(nd, horizon)).astype(np.float32),
        requires_grad=True,
    )
    weights.params["forecast_head.bias"] = nc.Tensor(
        np.zeros(horizon, dtype=np.float32), requires_grad=True
    )
    return weights


# ------------------------------------------------------------------ forward pass


def _tensor(hidden):
    return hidden if isinstance(hidden, nc.Tensor) else nc.Tensor(hidden)


def embed_patches(patches, plan, weights, positions=None):
    """Project observed patches linearly; substitute the mask token elsewhere;
    add the constant positions [N,D] when given. One nc.patch_embed node.

    patches: [B,N,P]; plan: the matching [B,N] per-patch indicator. The blend
    multiplies the projection by the indicator, so masked rows equal the mask
    token bit-exactly and raw values under a mask cannot influence anything.
    """
    x = np.asarray(patches, dtype=np.float32)
    plan_arr = np.asarray(plan, dtype=np.float32)
    if x.ndim != 3 or plan_arr.shape != x.shape[:2]:
        raise ShapeError(f"embed_patches needs [B,N,P] patches and a [B,N] plan, got "
                         f"{x.shape} and {plan_arr.shape}")
    return nc.patch_embed(x, plan_arr, weights.params["patch_embed.weight"],
                          weights.params["patch_embed.bias"], weights.params["mask_token"],
                          positions)


# per-layer parameters in nc.encoder_block's argument order
_BLOCK_PARAMS = ("norm1.gamma", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.rel_bias",
                 "norm2.gamma", "ff.w1", "ff.w2")


def encoder_forward(embeddings, weights, attn_sink=None):
    """Pre-norm residual stack on [B,N,D] embeddings: x + Attn(norm(x)), then
    x + FF(norm(x)).

    Each layer is one nc.encoder_block node: attention logits scaled by
    1/sqrt(d_head) plus a per-head additive relative-position bias, the
    softmax, then the ReLU feed-forward. attn_sink, when a list, collects
    each layer's [B,H,N,N] attention weights as an ndarray.
    """
    cfg = weights.config
    x = _tensor(embeddings)
    if x.ndim != 3 or x.shape[2] != cfg.d_model:
        raise ShapeError(f"encoder_forward expects [B,N,{cfg.d_model}] embeddings, "
                         f"got {x.shape}")
    b, n, _ = x.shape
    idx = _bucket_index_matrix(n, cfg.n_rel_buckets, cfg.rel_max_distance)
    for i in range(cfg.n_layers):
        x = nc.encoder_block(x, *(weights.params[f"layers.{i}.{name}"] for name in _BLOCK_PARAMS),
                             idx, cfg.n_heads, sink=attn_sink)
        if not np.all(np.isfinite(x.data)):
            finite = np.isfinite(x.data).reshape(b, -1).all(axis=1)
            raise NumericError(f"non-finite activation after layer {i}",
                               row=int(np.argmin(finite)))
    return x


def reconstruction_head(hidden, weights):
    """Per-patch linear map D -> P on [B,N,D]; patches concatenated back to
    [B,T]. One nc.linear_head node."""
    h = _tensor(hidden)
    w = weights.params["recon_head.weight"]
    if h.ndim != 3 or h.shape[2] != w.data.shape[0]:
        raise ShapeError(f"reconstruction head expects [B,N,{w.data.shape[0]}], got {h.shape}")
    return nc.linear_head(h, w, weights.params["recon_head.bias"])


def forecasting_head(hidden, weights):
    """Flatten each window's N x D patch embeddings row-major and project to
    horizon H: [B,N,D] -> [B,H]. One nc.linear_head node."""
    if weights.horizon is None:
        raise ConfigError("forecasting head not attached")
    h = _tensor(hidden)
    w = weights.params["forecast_head.weight"]
    if h.ndim != 3 or h.shape[1] * h.shape[2] != w.data.shape[0]:
        raise ConfigError(
            f"forecasting head expects [B,N,D] with N*D = {w.data.shape[0]}, got {h.shape}"
        )
    return nc.linear_head(h, w, weights.params["forecast_head.bias"])


def encode(weights, x_norm, plan, attn_sink=None):
    """Normalized windows [B,T] under per-patch plans [B,N] -> hidden Tensor
    [B,N,D]; no head runs."""
    cfg = weights.config
    e = embed_patches(patchify(x_norm, cfg.patch_len), plan, weights,
                      sinusoidal_pe(cfg.n_patches, cfg.d_model))
    return encoder_forward(e, weights, attn_sink=attn_sink)


def model_forward(weights, x_norm, plan, attn_sink=None):
    """encode plus the reconstruction head: (hidden Tensor [B,N,D],
    reconstruction Tensor [B,T]), for training."""
    h = encode(weights, x_norm, plan, attn_sink=attn_sink)
    return h, reconstruction_head(h, weights)


def encode_windows(weights, x_norm, plan, head=None):
    """Hidden states [B,N,D] (an ndarray) of normalized windows x_norm [B,T]
    under per-patch plans [B,N], encoded nc.CHUNK rows at a time, or with a
    head (reconstruction_head, forecasting_head) that head's output on the
    whole batch. Nothing is recorded, even inside an open Tape. A
    NumericError's `row` is the batch row of the first non-finite activation
    found."""
    cfg = weights.config
    x = np.asarray(x_norm, dtype=np.float32)
    plan_arr = np.asarray(plan, dtype=np.float32)
    if x.ndim != 2 or plan_arr.ndim != 2 or len(plan_arr) != len(x):
        raise ShapeError(
            f"encode_windows needs [B,T] windows and [B,N] plans, got {x.shape} "
            f"and {plan_arr.shape}"
        )
    out = np.empty((len(x), x.shape[1] // cfg.patch_len, cfg.d_model), dtype=np.float32)
    with nc.OffTape():
        for lo in range(0, len(x), nc.CHUNK):
            hi = lo + nc.CHUNK
            try:
                out[lo:hi] = encode(weights, x[lo:hi], plan_arr[lo:hi]).data
            except NumericError as exc:
                raise NumericError(str(exc), row=lo + exc.row) from None
        # one head call on the whole batch: per chunk it would round differently
        return out if head is None else head(out, weights).data


def sequence_representation(hidden, include):
    """Mean of each window's selected (non-padded) patch rows: hidden states
    [B,N,D] and a [B,N] bool selection give [B,D]."""
    h = hidden.data if isinstance(hidden, nc.Tensor) else np.asarray(hidden)
    inc = np.asarray(include, dtype=bool)
    if h.ndim != 3 or inc.shape != h.shape[:2]:
        raise ShapeError(f"sequence_representation needs [B,N,D] states and a [B,N] "
                         f"selection, got {h.shape} and {inc.shape}")
    counts = inc.sum(axis=1)
    if np.any(counts == 0):
        raise EmptySeriesError("sequence representation needs at least one non-padded patch")
    return ((h * inc[:, :, None]).sum(axis=1) / counts[:, None]).astype(np.float32)


def nonpadded_patches(observed, patch_len):
    """Patches with at least one observed timestep ([N] or [B,N] bool)."""
    obs = np.asarray(observed, dtype=bool)
    t = obs.shape[-1]
    if t % patch_len != 0:
        raise ShapeError(f"mask length {t} not divisible by patch length {patch_len}")
    return obs.reshape(obs.shape[:-1] + (t // patch_len, patch_len)).any(axis=-1)


# ------------------------------------------------------------------ checkpoints


def save_checkpoint(weights, path):
    """Write the f32 blob at `path` + '.bin', then a JSON manifest at `path`
    holding each parameter's shape, extent and sha256. Each file is written
    whole under a temporary name beside it and renamed into place, so an
    interrupted save leaves the old file or the new one, never a torn one."""
    manifest = {"config": asdict(weights.config), "params": {}}
    manifest["config"]["forecast_horizon"] = weights.horizon
    chunks = []
    offset = 0
    for name, p in weights.params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        manifest["params"][name] = {
            "shape": list(p.data.shape),
            "offset": offset,
            "length": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
        chunks.append(raw)
        offset += len(raw)
    _replace_file(blob_path(path), b"".join(chunks))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _replace_file(path, text.encode("utf-8"))
    return path


def _replace_file(path, data):
    """Write `data` to a temporary file in `path`'s directory, then rename it
    over `path`. The rename guards against an interrupted process, not a
    power loss: nothing is fsynced."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def blob_path(manifest_path):
    return str(manifest_path) + ".bin"


def load_checkpoint(path):
    """Load and validate a checkpoint written by save_checkpoint: shapes,
    blob extents and finite values. Every failure is a ConfigError."""
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint manifest not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: checkpoint manifest is not valid JSON ({exc})"
            ) from None
    if not isinstance(manifest, dict) or not all(
        isinstance(manifest.get(key), dict) for key in ("config", "params")
    ):
        raise ConfigError(f"{path}: checkpoint manifest needs 'config' and 'params' objects")
    cfg_fields = dict(manifest["config"])
    horizon = cfg_fields.pop("forecast_horizon", None)
    if horizon is not None and (type(horizon) is not int or horizon < 1):
        raise ConfigError(
            f"checkpoint forecast_horizon must be a positive integer or null, got {horizon!r}"
        )
    try:
        config = ModelConfig(**cfg_fields)
    except TypeError as exc:
        raise ConfigError(f"checkpoint config invalid: {exc}") from None
    expected = expected_param_shapes(config, horizon)
    listed = manifest["params"]
    if set(listed) != set(expected):
        missing = sorted(set(expected) - set(listed))
        extra = sorted(set(listed) - set(expected))
        raise ConfigError(f"checkpoint parameters mismatch: missing {missing}, extra {extra}")
    try:
        with open(blob_path(path), "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"checkpoint blob not found: {blob_path(path)}") from None
    params = {}
    for name in expected:
        entry = listed[name]
        try:
            shape, offset, length = tuple(entry["shape"]), entry["offset"], entry["length"]
        except (KeyError, TypeError):
            raise ConfigError(
                f"checkpoint entry for {name!r} needs shape, offset and length"
            ) from None
        # JSON numbers compare equal across int and float (8.0 == 8), so the
        # types are checked too
        if shape != expected[name] or any(type(d) is not int for d in shape):
            raise ConfigError(
                f"checkpoint shape for {name!r} is {shape}, expected {expected[name]}"
            )
        count = int(np.prod(shape)) if shape else 1
        if type(length) is not int or length != count * 4:
            raise ConfigError(f"checkpoint byte length for {name!r} inconsistent with shape")
        if type(offset) is not int or offset < 0:
            raise ConfigError(f"checkpoint offset for {name!r} must be a non-negative integer")
        if offset + length > len(blob):
            raise ConfigError(
                f"checkpoint blob {blob_path(path)} ({len(blob)} bytes) is truncated: "
                f"{name!r} needs bytes [{offset}, {offset + length})"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"checkpoint parameter {name!r} holds non-finite values")
        digest = entry.get("sha256")  # absent from manifests written before digests
        if digest is not None and digest != hashlib.sha256(
                memoryview(blob)[offset:offset + length]).hexdigest():
            raise ConfigError(
                f"checkpoint parameter {name!r} fails its sha256 check: "
                f"{blob_path(path)} does not hold the bytes the manifest lists"
            )
        params[name] = nc.Tensor(arr.copy(), requires_grad=True)
    return ModelWeights(config, params)
