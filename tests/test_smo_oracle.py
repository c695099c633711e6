"""SMO oracle: `baselines._smo_binary` against a verbatim copy of the solver
it replaced, which ran the same iteration path on NumPy scalars. Over seeded
separable, overlapping, duplicated and constant-feature sets, every C of the
classification grid and three iteration caps, the alphas and the bias must
be bit-identical and the cap must bind in the same runs."""

import numpy as np
import pytest

from tinytsfm.baselines import _rbf_kernel, _smo_binary
from tinytsfm.tasks import SVM_C_GRID


def reference_smo_binary(kernel, y, c, tol, max_iter):
    """Sequential minimal optimization on a precomputed kernel matrix.

    Returns (alphas, bias, converged). Deterministic: for each violating
    index the partner is tried in order of decreasing |E_i - E_j| until one
    permits progress, so the solver cannot stall on a single blocked pair.
    """
    n = len(y)
    alpha = np.zeros(n)
    bias = 0.0
    iters = 0

    def try_pair(i, j, e_i):
        nonlocal bias
        e_j = float(kernel[j] @ (alpha * y) + bias - y[j])
        a_i_old, a_j_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            lo = max(0.0, a_j_old - a_i_old)
            hi = min(c, c + a_j_old - a_i_old)
        else:
            lo = max(0.0, a_i_old + a_j_old - c)
            hi = min(c, a_i_old + a_j_old)
        if lo >= hi:
            return False
        eta = 2.0 * kernel[i, j] - kernel[i, i] - kernel[j, j]
        if eta >= 0:
            return False
        a_j = float(np.clip(a_j_old - y[j] * (e_i - e_j) / eta, lo, hi))
        if abs(a_j - a_j_old) < 1e-7:
            return False
        a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
        alpha[i], alpha[j] = a_i, a_j
        b1 = (
            bias - e_i
            - y[i] * (a_i - a_i_old) * kernel[i, i]
            - y[j] * (a_j - a_j_old) * kernel[i, j]
        )
        b2 = (
            bias - e_j
            - y[i] * (a_i - a_i_old) * kernel[i, j]
            - y[j] * (a_j - a_j_old) * kernel[j, j]
        )
        if 0.0 < a_i < c:
            bias = b1
        elif 0.0 < a_j < c:
            bias = b2
        else:
            bias = 0.5 * (b1 + b2)
        return True

    quiet = False
    while not quiet and iters < max_iter:
        changed = 0
        for i in range(n):
            e_i = float(kernel[i] @ (alpha * y) + bias - y[i])
            r_i = e_i * y[i]
            if not ((r_i < -tol and alpha[i] < c) or (r_i > tol and alpha[i] > 0)):
                continue
            errors = kernel @ (alpha * y) + bias - y
            for j in np.argsort(-np.abs(errors - e_i)):
                if j == i:
                    continue
                if try_pair(i, int(j), e_i):
                    changed += 1
                    iters += 1
                    break
            if iters >= max_iter:
                break
        quiet = changed == 0
    return alpha, bias, iters < max_iter


def _labelled_set(rng, kind, n, k):
    """(X, labels) with n rows and k classes (each class at least once)."""
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    d = int(rng.integers(1, 6))
    if kind == "separable":
        centers = rng.normal(scale=8.0, size=(k, d))
        return centers[labels] + rng.normal(scale=0.3, size=(n, d)), labels
    if kind == "overlapping":
        centers = rng.normal(scale=1.5, size=(k, d))
        return centers[labels] + rng.normal(size=(n, d)), labels
    if kind == "duplicated":
        half = max(k, n // 2)
        x, lab = _labelled_set(rng, "overlapping", half, k)
        pick = rng.integers(0, half, size=n - half)
        return np.vstack([x, x[pick]]), np.concatenate([lab, lab[pick]])
    if kind == "constant-feature":
        x, lab = _labelled_set(rng, "separable", n, k)
        return np.hstack([x, np.full((n, 1), 2.5)]), lab
    if kind == "all-constant":
        return np.full((n, 3), -1.25), labels
    raise ValueError(kind)


KINDS = ("separable", "overlapping", "duplicated", "constant-feature", "all-constant")
# (n, classes): n from 2 to 64, 2 to 5 classes
SIZES = ((2, 2), (3, 3), (7, 2), (12, 4), (16, 4), (23, 5), (40, 3), (64, 2))
MAX_ITERS = (1, 7, 100000)


def _problems(kind, n, k, seed):
    """The one-vs-rest problems RbfSvm.fit hands the solver for one set."""
    x, labels = _labelled_set(np.random.default_rng(seed), kind, n, k)
    var = float(x.var())
    gamma = 1.0 / (x.shape[1] * var) if var > 0 else 1.0 / x.shape[1]
    kernel = _rbf_kernel(x, x, gamma)
    return kernel, [np.where(labels == cls, 1.0, -1.0) for cls in np.unique(labels)]


@pytest.mark.parametrize("kind", KINDS)
def test_smo_matches_reference_bit_for_bit(kind):
    runs = capped = 0
    for seed, (n, k) in enumerate(SIZES):
        kernel, targets = _problems(kind, n, k, seed)
        for c in SVM_C_GRID:
            for max_iter in MAX_ITERS:
                for target in targets:
                    want_alpha, want_bias, want_conv = reference_smo_binary(
                        kernel, target, c, 1e-3, max_iter)
                    alpha, bias, converged, stall = _smo_binary(
                        kernel, target, c, 1e-3, max_iter)
                    case = (kind, n, k, c, max_iter)
                    assert alpha.dtype == np.float64 and alpha.shape == (n,), case
                    assert np.array_equal(alpha, want_alpha), case
                    assert float(bias) == float(want_bias), case
                    assert converged == want_conv, case
                    assert stall >= 0.0 and (converged or stall == 0.0), case
                    runs += 1
                    capped += not converged
    if kind == "all-constant":
        assert capped == 0  # eta is 0 for every pair, so nothing ever moves
    else:
        assert 0 < capped < runs
