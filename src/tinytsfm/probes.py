"""Interpretability probes: PCA scatters of sinusoid-suite embeddings,
frequency-vs-reconstruction-error curves, mask-token distribution statistics,
and the mask-token-vs-zero-fill reconstruction bias comparison.

Every probe is deterministic given (weights, seed). File-writing probes emit
`<probe>_<kind>.csv` / `.svg` under the given output directory; pass
out_dir=None to compute without touching the filesystem.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .baselines import Pca
from .data import SINE_KINDS, fit_windows, synth_sine
from .errors import ConfigError
from .metrics import spearman_rho
from .model import encode_windows, prepare_windows, reconstruction_head
from .pretrain import masked_mse_loss, sample_patch_mask
from .tasks import embed_series

# ------------------------------------------------------------------ svg writer


def _color_ramp(t):
    """Blue-to-red ramp over [0, 1]."""
    r = int(round(70 + 160 * t))
    g = int(round(110 - 30 * t))
    b = int(round(230 - 170 * t))
    return f"rgb({r},{g},{b})"


def write_scatter_svg(path, xs, ys, color_values, title):
    """Minimal hand-rolled scatter plot: frame, axis extents, colored points."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    cv = np.asarray(color_values, dtype=np.float64)
    width, height = 640, 480
    ml, mr, mt, mb = 60, 24, 42, 48
    span = lambda v: (v.min(), max(v.max() - v.min(), 1e-12))  # noqa: E731
    (x0, xw), (y0, yw) = span(xs), span(ys)
    (c0, cw) = span(cv)
    px = ml + (xs - x0) / xw * (width - ml - mr)
    py = height - mb - (ys - y0) / yw * (height - mt - mb)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{ml}" y="{height - mb + 18}" font-family="sans-serif" '
        f'font-size="11">{x0:.3g}</text>',
        f'<text x="{width - mr}" y="{height - mb + 18}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{x0 + xw:.3g}</text>',
        f'<text x="{ml - 6}" y="{height - mb}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.3g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0 + yw:.3g}</text>',
    ]
    for x, y, c in zip(px, py, cv):
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
            f'fill="{_color_ramp((c - c0) / cw)}" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ------------------------------------------------------------------ pca suite

DEFAULT_GRIDS = {
    "frequency": tuple(float(c) for c in range(1, 33)),
    "trend": tuple(np.geomspace(0.125, 8.0, 24)),
    "amplitude": tuple(float(c) for c in range(1, 33)),
    "baseline": tuple(np.linspace(-16.0, 16.0, 33)),
    "phase": tuple(np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)),
}


def default_grid(kind):
    if kind not in DEFAULT_GRIDS:
        raise ConfigError(f"unknown sinusoid kind {kind!r}; choose from {SINE_KINDS}")
    return DEFAULT_GRIDS[kind]


@dataclass
class SuiteResult:
    kind: str
    grid: np.ndarray
    coords: np.ndarray  # [n, 2] principal-component coordinates
    explained: np.ndarray  # explained-variance shares of the two components
    csv_path: str = None
    svg_path: str = None


def sinusoid_embedding_suite(weights, kind, grid=None, out_dir=None,
                             noise=0.0, seed=0):
    """Embed a one-parameter sinusoid family and project the sequence
    representations onto their top two principal components."""
    grid = np.asarray(default_grid(kind) if grid is None else grid, dtype=np.float64)
    if len(grid) < 3:
        raise ConfigError(f"suite grid needs >= 3 points, got {len(grid)}")
    suite = [
        synth_sine(kind, float(c), length=weights.config.seq_len,
                   noise=noise, seed=seed)
        for c in grid
    ]
    reps = embed_series(weights, suite)
    pca = Pca(k=2).fit(reps)
    coords = pca.transform(reps)
    result = SuiteResult(
        kind=kind,
        grid=grid,
        coords=coords,
        explained=pca.explained_variance_ratio_,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = [
            (repr(float(c)), repr(float(x)), repr(float(y)))
            for c, (x, y) in zip(grid, coords)
        ]
        result.csv_path = _write_csv(
            os.path.join(out_dir, f"sinusoid_embedding_{kind}.csv"),
            ["c", "pc1", "pc2"],
            rows,
        )
        result.svg_path = write_scatter_svg(
            os.path.join(out_dir, f"sinusoid_embedding_{kind}.svg"),
            coords[:, 0],
            coords[:, 1],
            grid,
            f"sinusoid embeddings: {kind}",
        )
    return result


# ------------------------------------------------------------------ error curve


@dataclass
class CurveResult:
    grid: np.ndarray
    mses: np.ndarray
    spearman: float
    csv_path: str = None


def frequency_error_curve(weights, grid=None, out_dir=None, noise=0.0, seed=0):
    """Zero-shot masked-reconstruction MSE per sinusoid frequency, with the
    Spearman rank correlation between frequency and error."""
    grid = np.asarray(
        default_grid("frequency") if grid is None else grid, dtype=np.float64
    )
    cfg = weights.config
    rng = np.random.default_rng(seed)
    sines = [
        synth_sine("frequency", float(c), length=cfg.seq_len, noise=noise, seed=seed)
        for c in grid
    ]
    values, obs = fit_windows(sines, cfg.seq_len)
    xs, pobs, _ = prepare_windows(cfg, values, obs)
    plans = pobs & sample_patch_mask(len(xs), cfg.n_patches, 0.30, rng)
    recon = encode_windows(weights, xs, plans, reconstruction_head)
    rows = [slice(i, i + 1) for i in range(len(xs))]
    mses = np.asarray([masked_mse_loss(xs[r], recon[r], plans[r], obs[r]) for r in rows],
                      dtype=np.float64)
    result = CurveResult(grid=grid, mses=mses, spearman=spearman_rho(grid, mses))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = [
            (repr(float(c)), repr(float(m))) for c, m in zip(grid, mses)
        ]
        result.csv_path = _write_csv(
            os.path.join(out_dir, "frequency_error_curve.csv"), ["c", "mse"], rows
        )
    return result


# ------------------------------------------------------------------ mask stats


def ks_statistic_normal(values):
    """Two-sided Kolmogorov-Smirnov distance to the standard normal CDF."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def mask_embedding_stats(weights):
    """Per-coordinate summary of the learned [MASK] vector and its KS distance
    from N(0,1)."""
    token = weights.params["mask_token"].data.astype(np.float64)
    return {
        "mean": float(token.mean()),
        "std": float(token.std()),
        "ks_statistic": ks_statistic_normal(token),
        "d_model": int(token.shape[0]),
    }


# ------------------------------------------------------------------ zero vs mask


@dataclass
class ZeroVsMaskReport:
    mask_token_mse: float
    zero_fill_mse: float
    per_series: list  # (name, mask_token_mse, zero_fill_mse)


def zero_vs_mask_probe(weights, dataset, mask_ratio=0.30, seed=0):
    """Reconstruct the same masked plan two ways — masked patches replaced by
    the [MASK] embedding vs zero-filled and projected as if observed — and
    compare masked-region MSEs. Unmasked timesteps are identical in both."""
    cfg = weights.config
    rng = np.random.default_rng(seed)
    values, obs = fit_windows(dataset, cfg.seq_len)
    xs, pobs, _ = prepare_windows(cfg, values, obs, [s.name for s in dataset])
    plans = pobs & sample_patch_mask(len(xs), cfg.n_patches, mask_ratio, rng)
    recon_mask = encode_windows(weights, xs, plans, reconstruction_head)
    zero_filled = xs * np.repeat(plans, cfg.patch_len, axis=1).astype(np.float32)
    recon_zero = encode_windows(weights, zero_filled, pobs, reconstruction_head)
    rows = [slice(i, i + 1) for i in range(len(xs))]
    per_series = [
        (series.name, masked_mse_loss(xs[r], recon_mask[r], plans[r], obs[r]),
         masked_mse_loss(xs[r], recon_zero[r], plans[r], obs[r]))
        for series, r in zip(dataset, rows)
    ]
    return ZeroVsMaskReport(
        mask_token_mse=float(np.mean([r[1] for r in per_series])),
        zero_fill_mse=float(np.mean([r[2] for r in per_series])),
        per_series=per_series,
    )
