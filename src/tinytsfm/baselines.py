"""Comparators: a naive last-value forecaster (the forecast report's
naive_mse), a nearest-point gap interpolator (acceptance A5's imputation
reference), a from-scratch SMO-trained one-vs-rest RBF-SVM (classification
over representations) and covariance-eigendecomposition PCA (the embedding
probe)."""

import warnings
from dataclasses import replace

import numpy as np

from .base import Estimator, check_fitted
from .data import Series
from .errors import ConfigError, ContractError, EmptySeriesError, ShapeError
from .model import check_horizon, check_type

# ------------------------------------------------------------------ comparators


def interp_nearest(x):
    """Value of the index-nearest observed point; ties go to the left."""
    if not isinstance(x, Series):
        raise ShapeError(f"x must be a Series, got {type(x).__name__}")
    values = x.values.astype(np.float64)
    observed = x.observed
    obs_idx = np.flatnonzero(observed)
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


def naive_forecast(history, horizon):
    """Repeat the final observation of a Series or array over an int
    horizon >= 1."""
    check_horizon(horizon)
    values = history.values if isinstance(history, Series) else history
    try:
        y = np.asarray(values, dtype=np.float64).ravel()
    except (TypeError, ValueError):
        raise ShapeError(f"history must be a Series or numeric values, got "
                         f"{type(history).__name__}") from None
    if len(y) < 1:
        raise EmptySeriesError("naive forecast needs at least one observation")
    return np.full(horizon, y[-1], dtype=np.float32)


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
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            # one NaN would make gamma and the whole kernel NaN
            raise ContractError(
                f"svm input row {int(np.argmin(finite))} holds a non-finite value"
            )
        y = np.asarray(y)
        if y.ndim != 1:
            raise ShapeError(f"y must be 1-D, got shape {y.shape}")
        if len(y) != len(X):
            raise ShapeError(f"{len(X)} samples but {len(y)} labels")
        check_type("C", self.C, float)
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
        check_type("k", self.k, int)
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
