"""Statistical comparators: gap interpolators, naive forecasters, the classic
two-line Theta method, k-NN window anomaly scoring, a from-scratch SMO-trained
RBF-SVM (one-vs-rest), and covariance-eigendecomposition PCA."""

import math
import warnings
from dataclasses import replace

import numpy as np

from .base import Estimator, check_fitted
from .data import Series
from .errors import ConfigError, ContractError, EmptySeriesError, ShapeError

# ------------------------------------------------------------------ interpolation


def _gap_series(x):
    obs_idx = np.flatnonzero(x.observed)
    return x.values.astype(np.float64), x.observed.copy(), obs_idx


def interp_linear(x):
    """Straight lines between bracketing observed points; edge gaps take the
    nearest observed value."""
    values, observed, obs_idx = _gap_series(x)
    if len(obs_idx) < 2:
        raise EmptySeriesError("linear interpolation needs >= 2 observed points")
    t = np.arange(len(values))
    filled = np.interp(t, obs_idx, values[obs_idx])
    filled[observed] = values[observed]
    return replace(x, values=filled.astype(np.float32), observed=np.ones_like(observed))


def interp_nearest(x):
    """Value of the index-nearest observed point; ties go to the left."""
    values, observed, obs_idx = _gap_series(x)
    if len(obs_idx) < 2:
        raise EmptySeriesError("nearest interpolation needs >= 2 observed points")
    filled = values.copy()
    for t in np.flatnonzero(~observed):
        pos = np.searchsorted(obs_idx, t)
        if pos == 0:
            src = obs_idx[0]
        elif pos == len(obs_idx):
            src = obs_idx[-1]
        else:
            left, right = obs_idx[pos - 1], obs_idx[pos]
            src = left if (t - left) <= (right - t) else right
        filled[t] = values[src]
    return replace(x, values=filled.astype(np.float32), observed=np.ones_like(observed))


def _natural_spline_second_derivs(xs, ys):
    """Second derivatives of the natural cubic spline via the tridiagonal
    (Thomas) solve; endpoints are zero."""
    n = len(xs)
    m = np.zeros(n)
    if n < 3:
        return m
    h = np.diff(xs)
    # interior system: h[i-1]*M[i-1] + 2(h[i-1]+h[i])*M[i] + h[i]*M[i+1] = rhs[i]
    diag = 2.0 * (h[:-1] + h[1:])
    lower = h[:-1].copy()
    upper = h[1:].copy()
    rhs = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])
    k = n - 2
    cp = np.zeros(k)
    dp = np.zeros(k)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    sol = np.zeros(k)
    sol[-1] = dp[-1]
    for i in range(k - 2, -1, -1):
        sol[i] = dp[i] - cp[i] * sol[i + 1]
    m[1:-1] = sol
    return m


def _spline_eval(xs, ys, m, t):
    i = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    a = xs[i + 1] - t
    b = t - xs[i]
    return (
        m[i] * a**3 / (6.0 * h)
        + m[i + 1] * b**3 / (6.0 * h)
        + (ys[i] / h - m[i] * h / 6.0) * a
        + (ys[i + 1] / h - m[i + 1] * h / 6.0) * b
    )


def interp_cubic(x):
    """Natural cubic spline through the observed points; edge gaps take the
    nearest observed value rather than extrapolating the spline."""
    values, observed, obs_idx = _gap_series(x)
    if len(obs_idx) < 4:
        raise EmptySeriesError("cubic interpolation needs >= 4 observed points")
    xs = obs_idx.astype(np.float64)
    ys = values[obs_idx]
    m = _natural_spline_second_derivs(xs, ys)
    filled = values.copy()
    lo, hi = obs_idx[0], obs_idx[-1]
    for t in np.flatnonzero(~observed):
        if t < lo:
            filled[t] = ys[0]
        elif t > hi:
            filled[t] = ys[-1]
        else:
            filled[t] = _spline_eval(xs, ys, m, float(t))
    return replace(x, values=filled.astype(np.float32), observed=np.ones_like(observed))


def naive_fill(x):
    """Forward fill every gap with the last observed value; a leading gap
    backward-fills from the first observed value."""
    values, observed, obs_idx = _gap_series(x)
    if len(obs_idx) < 1:
        raise EmptySeriesError("naive fill needs at least one observed point")
    filled = values.copy()
    last = values[obs_idx[0]]  # leading gap takes the first observed value
    for t in range(len(values)):
        if observed[t]:
            last = values[t]
        else:
            filled[t] = last
    return replace(x, values=filled.astype(np.float32), observed=np.ones_like(observed))


# ------------------------------------------------------------------ forecasting


def _history_values(history):
    values = history.values if isinstance(history, Series) else history
    arr = np.asarray(values, dtype=np.float64).ravel()
    return arr


def naive_forecast(history, horizon):
    """Repeat the final observation."""
    y = _history_values(history)
    if len(y) < 1:
        raise EmptySeriesError("naive forecast needs at least one observation")
    return np.full(horizon, y[-1], dtype=np.float32)


def seasonal_naive(history, horizon, season=1):
    """Repeat the last full season: forecast(h) = y[T - m + ((h-1) mod m)]."""
    y = _history_values(history)
    if season < 1:
        raise ConfigError(f"season must be >= 1, got {season}")
    if len(y) < season:
        raise EmptySeriesError(
            f"seasonal naive needs >= {season} observations, got {len(y)}"
        )
    n = len(y)
    out = [y[n - season + ((h - 1) % season)] for h in range(1, horizon + 1)]
    return np.asarray(out, dtype=np.float32)


def random_walk_drift(history, horizon):
    """Last value plus h times the average historical increment."""
    y = _history_values(history)
    if len(y) < 2:
        raise EmptySeriesError("drift forecast needs >= 2 observations")
    slope = (y[-1] - y[0]) / (len(y) - 1)
    out = y[-1] + np.arange(1, horizon + 1, dtype=np.float64) * slope
    return out.astype(np.float32)


SES_ALPHA_GRID = np.round(np.arange(0.01, 1.00, 0.01), 2)


def ses_fit(y):
    """Simple exponential smoothing with the alpha grid chosen by in-sample
    one-step SSE; returns (final level, alpha)."""
    y = np.asarray(y, dtype=np.float64)
    best = (math.inf, None, None)
    for alpha in SES_ALPHA_GRID:
        level = y[0]
        sse = 0.0
        for t in range(1, len(y)):
            sse += (y[t] - level) ** 2
            level = alpha * y[t] + (1.0 - alpha) * level
        if sse < best[0]:
            best = (sse, level, alpha)
    return best[1], best[2]


def _acf(y, max_lag):
    yc = y - y.mean()
    denom = float(np.dot(yc, yc))
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array(
        [float(np.dot(yc[k:], yc[:-k])) / denom for k in range(1, max_lag + 1)]
    )


def is_seasonal(y, season):
    """Autocorrelation at the season lag outside the 90% significance band."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if season <= 1 or n < 2 * season + 1:
        return False
    acf = _acf(y, season)
    band = 1.645 * math.sqrt((1.0 + 2.0 * float(np.sum(np.square(acf[:-1])))) / n)
    return abs(acf[-1]) > band


def seasonal_indices(y, season):
    """Multiplicative classical-decomposition indices, normalized to mean 1."""
    y = np.asarray(y, dtype=np.float64)
    if season % 2 == 0:
        kernel = np.concatenate([[0.5], np.ones(season - 1), [0.5]]) / season
    else:
        kernel = np.ones(season) / season
    trend = np.convolve(y, kernel, mode="valid")
    offset = (len(kernel) - 1) // 2
    ratios = y[offset:offset + len(trend)] / trend
    indices = np.empty(season)
    for j in range(season):
        picks = ratios[(np.arange(len(ratios)) + offset) % season == j]
        indices[j] = picks.mean()
    return indices * (season / indices.sum())


def theta_forecast(history, horizon, season=1):
    """Classic two-line Theta method (theta = 0 and 2).

    The theta=0 line is the OLS linear trend; the theta=2 line (2*y - trend)
    is smoothed by SES with a grid-searched alpha. The h-step forecast
    averages the SES level with the trend line's final value and then walks
    forward along the trend slope: 0.5*(level + trend(n-1)) + slope*h.
    Seasonal histories (multiplicative test at the given season) are
    deseasonalized first and the forecast is reseasonalized.
    """
    y_full = _history_values(history)
    if len(y_full) < 3:
        raise EmptySeriesError("theta forecast needs >= 3 observations")
    n = len(y_full)
    seasonal = (
        season > 1
        and n >= 2 * season
        and np.all(y_full > 0)
        and is_seasonal(y_full, season)
    )
    if seasonal:
        idx = seasonal_indices(y_full, season)
        y = y_full / idx[np.arange(n) % season]
    else:
        y = y_full
    t = np.arange(n, dtype=np.float64)
    slope, intercept = np.polyfit(t, y, 1)
    trend = intercept + slope * t
    theta2 = 2.0 * y - trend
    level, _ = ses_fit(theta2)
    h = np.arange(1, horizon + 1, dtype=np.float64)
    fc = 0.5 * (level + trend[-1]) + slope * h
    if seasonal:
        fc = fc * idx[(n + np.arange(horizon)) % season]
    return fc.astype(np.float32)


# ------------------------------------------------------------------ knn anomaly


def knn_anomaly(x, window, k=5):
    """Per-timestep anomaly score from sliding-window k-NN distances.

    Stride-1 windows of the given width are embedded as vectors; each
    window's score is the Euclidean distance to its k-th nearest other
    window (k clamped to the window count minus one), and each timestep
    takes the maximum score over the windows covering it.
    """
    values = x.values if isinstance(x, Series) else np.asarray(x, dtype=np.float32)
    n = len(values)
    if n < window + 1:
        raise ShapeError(f"knn scoring needs length >= window+1 ({window + 1}), got {n}")
    count = n - window + 1
    wins = np.lib.stride_tricks.sliding_window_view(
        values.astype(np.float64), window
    )
    sq = np.einsum("ij,ij->i", wins, wins)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (wins @ wins.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    k_eff = min(k, count - 1)
    kth = np.sqrt(np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1])
    scores = np.zeros(n)
    for w in range(count):
        np.maximum(scores[w:w + window], kth[w], out=scores[w:w + window])
    return scores.astype(np.float32)


# ------------------------------------------------------------------ rbf svm


def _rbf_kernel(a, b, gamma):
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


def _smo_binary(kernel, y, c, tol, max_iter):
    """Sequential minimal optimization on a precomputed kernel matrix.

    Returns (alphas, bias, converged, stall). Deterministic: for each
    violating index the partner is tried in order of decreasing |E_i - E_j|
    until one permits progress, so the solver cannot stall on a single
    blocked pair. It can stall on all of them: a step shorter than 1e-7 is
    refused, and a sweep that changes nothing ends the run. stall is then
    the largest KKT violation left above tol, as max_kkt_violation measures
    it (an alpha within 1e-10 of a bound counts as at it), and 0.0 when
    there is none or the iteration cap ended the run.

    The loop reads Python floats (list copies of the kernel, labels and
    alphas), so each step does the same IEEE double operations in the same
    order as on NumPy scalars. The products kernel[i] @ (alpha * y) behind
    E_i and E_j come from one matmul over the stacked rows ([n,1,n] @
    [n,1]), redone only after an alpha changes: NumPy computes each output
    with the dot it uses for a 1-D @, so they carry the same bits. The
    partner order keeps its matrix-vector product, whose sums may round
    differently.
    """
    n = len(y)
    rows = kernel.tolist()
    ys = y.tolist()
    alpha = [0.0] * n
    ay = 0.0 * y  # alpha * y, updated at each change
    kernel_rows, ay_col = kernel[:, None, :], ay[:, None]
    fx = None  # kernel[i] @ ay for every i, None once ay has changed
    bias = 0.0
    iters = 0
    quiet, stall = False, 0.0
    while not quiet and iters < max_iter:
        changed = 0
        stall = 0.0
        for i in range(n):
            y_i, a_i_old = ys[i], alpha[i]
            if fx is None:
                fx = (kernel_rows @ ay_col).ravel().tolist()
            e_i = fx[i] + bias - y_i
            r_i = e_i * y_i
            if not ((r_i < -tol and a_i_old < c) or (r_i > tol and a_i_old > 0)):
                continue
            stall = max(stall, -r_i if a_i_old <= 1e-10
                        else r_i if a_i_old >= c - 1e-10 else abs(r_i))
            k_i = rows[i]
            errors = kernel @ ay + bias - y
            for j in (-np.abs(errors - e_i)).argsort().tolist():
                if j == i:
                    continue
                a_j_old, y_j = alpha[j], ys[j]
                if y_i != y_j:
                    lo = a_j_old - a_i_old
                    hi = c + a_j_old - a_i_old
                else:
                    lo = a_i_old + a_j_old - c
                    hi = a_i_old + a_j_old
                # max(0.0, lo), min(c, hi) and the clip below, with their ties
                lo = lo if lo > 0.0 else 0.0
                hi = hi if hi < c else c
                if lo >= hi:
                    continue
                k_j = rows[j]
                eta = 2.0 * k_i[j] - k_i[i] - k_j[j]
                if eta >= 0:
                    continue
                e_j = fx[j] + bias - y_j
                a_j = a_j_old - y_j * (e_i - e_j) / eta
                a_j = a_j if a_j > lo else lo
                a_j = hi if hi < a_j else a_j
                if abs(a_j - a_j_old) < 1e-7:
                    continue
                a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
                alpha[i], alpha[j] = a_i, a_j
                ay[i], ay[j] = a_i * y_i, a_j * y_j
                fx = None
                b1 = (
                    bias - e_i
                    - y_i * (a_i - a_i_old) * k_i[i]
                    - y_j * (a_j - a_j_old) * k_i[j]
                )
                b2 = (
                    bias - e_j
                    - y_i * (a_i - a_i_old) * k_i[j]
                    - y_j * (a_j - a_j_old) * k_j[j]
                )
                if 0.0 < a_i < c:
                    bias = b1
                elif 0.0 < a_j < c:
                    bias = b2
                else:
                    bias = 0.5 * (b1 + b2)
                changed += 1
                iters += 1
                break
            if iters >= max_iter:
                break
        quiet = changed == 0
    stall = stall if quiet and stall > tol else 0.0
    return np.array(alpha), bias, iters < max_iter, stall


class RbfSvm(Estimator):
    """One-vs-rest RBF-kernel support vector classifier trained by SMO.

    gamma=None uses 1/(n_features * var(X)). Dual coefficients satisfy
    0 <= alpha <= C. A fit that ends with a KKT violation above `tol` warns:
    once per class when it hits `max_iter`, and once per fit, naming the
    classes, C and the worst violation, when its solver stalls (no pair can
    move an alpha by 1e-7, which happens at small C).
    """

    def __init__(self, C=1.0, gamma=None, tol=1e-3, max_iter=100000):
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {X.shape}")
        y = np.asarray(y)
        if len(y) != len(X):
            raise ShapeError(f"{len(X)} samples but {len(y)} labels")
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ContractError("svm needs at least 2 classes")
        var = float(X.var())
        self.gamma_ = (
            self.gamma
            if self.gamma is not None
            else 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]
        )
        kernel = _rbf_kernel(X, X, self.gamma_)
        self.binaries_ = []
        stalled = {}  # class index -> KKT violation left by a stalled solver
        for ci, cls in enumerate(self.classes_):
            target = np.where(y == cls, 1.0, -1.0)
            alpha, bias, converged, stall = _smo_binary(
                kernel, target, float(self.C), self.tol, self.max_iter
            )
            if not converged:
                warnings.warn(
                    f"svm for class {cls!r} hit the iteration cap; best-effort model"
                )
            if stall:
                stalled[ci] = stall
            sv = alpha > 1e-10
            self.binaries_.append(
                {
                    "dual_coef": (alpha * target)[sv],
                    "support_vectors": X[sv],
                    "bias": bias,
                    "alpha": alpha,
                    "target": target,
                }
            )
        if stalled:
            warnings.warn(
                f"svm stalled at C={self.C:g} for classes "
                f"{self.classes_[list(stalled)].tolist()}: KKT "
                f"violation up to {max(stalled.values()):.4g} > tol {self.tol:g}; "
                "best-effort model"
            )
        self._train_kernel = kernel
        return self

    def decision_function(self, X):
        check_fitted(self, "binaries_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        out = np.empty((len(X), len(self.classes_)))
        for ci, binary in enumerate(self.binaries_):
            if len(binary["support_vectors"]):
                k = _rbf_kernel(X, binary["support_vectors"], self.gamma_)
                out[:, ci] = k @ binary["dual_coef"] + binary["bias"]
            else:
                out[:, ci] = binary["bias"]
        return out

    def predict(self, X):
        decisions = self.decision_function(X)
        return self.classes_[np.argmax(decisions, axis=1)]

    def max_kkt_violation(self):
        """Largest KKT violation across the one-vs-rest problems (diagnostic)."""
        check_fitted(self, "binaries_")
        worst = 0.0
        c = float(self.C)
        for binary in self.binaries_:
            alpha, target = binary["alpha"], binary["target"]
            margin = target * (
                self._train_kernel @ (alpha * target) + binary["bias"]
            )
            at_zero = alpha <= 1e-10
            at_c = alpha >= c - 1e-10
            free = ~at_zero & ~at_c
            if at_zero.any():
                worst = max(worst, float(np.max(1.0 - margin[at_zero], initial=0.0)))
            if at_c.any():
                worst = max(worst, float(np.max(margin[at_c] - 1.0, initial=0.0)))
            if free.any():
                worst = max(worst, float(np.max(np.abs(margin[free] - 1.0))))
        return worst


# ------------------------------------------------------------------ pca


class Pca(Estimator):
    """Top-k principal components from the eigendecomposition of the sample
    covariance matrix; components are rows, orthonormal."""

    def __init__(self, k=2):
        self.k = k

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if n < 2:
            raise ShapeError(f"pca needs >= 2 samples, got {n}")
        if not 1 <= self.k <= d:
            raise ConfigError(f"k must be in [1, {d}], got {self.k}")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.maximum(eigvals[order], 0.0)
        components = eigvecs[:, order].T[: self.k]
        # deterministic sign: largest-magnitude entry of each component positive
        for row in components:
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0
        self.components_ = components
        total = float(eigvals.sum())
        self.explained_variance_ratio_ = (
            eigvals[: self.k] / total if total > 0 else np.zeros(self.k)
        )
        return self

    def transform(self, X):
        check_fitted(self, "components_")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = (X - self.mean_) @ self.components_.T
        return out[0] if single else out

    def inverse_transform(self, Z):
        check_fitted(self, "components_")
        Z = np.asarray(Z, dtype=np.float64)
        return Z @ self.components_ + self.mean_
