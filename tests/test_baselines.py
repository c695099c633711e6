"""Statistical baseline tests: interpolators against dense linear-algebra
oracles, forecaster worked examples, SMO-trained SVM sanity and KKT checks,
and PCA spectral properties."""

import warnings

import numpy as np
import pytest

from tinytsfm.baselines import (
    Pca,
    RbfSvm,
    interp_cubic,
    interp_linear,
    interp_nearest,
    is_seasonal,
    knn_anomaly,
    naive_fill,
    naive_forecast,
    random_walk_drift,
    seasonal_indices,
    seasonal_naive,
    ses_fit,
    SES_ALPHA_GRID,
    theta_forecast,
)
from tinytsfm.data import Series
from tinytsfm.errors import (
    ConfigError,
    ContractError,
    EmptySeriesError,
    NotFittedError,
    ShapeError,
)


def gappy(values, observed):
    return Series(values=np.asarray(values, dtype=np.float32),
                  observed=np.asarray(observed, dtype=bool))


# ------------------------------------------------------------------ interpolation


def test_interp_linear_midpoint():
    out = interp_linear(gappy([0.0, 0.0, 2.0], [True, False, True]))
    assert out.values[1] == pytest.approx(1.0)
    assert out.observed.all()


def test_interp_linear_edge_gaps_take_nearest_value():
    out = interp_linear(gappy([9, 1, 9, 3, 9], [False, True, False, True, False]))
    assert np.allclose(out.values, [1.0, 1.0, 2.0, 3.0, 3.0])


def test_interp_nearest_tie_goes_left():
    out = interp_nearest(gappy([0, 9, 9, 3], [True, False, False, True]))
    assert np.allclose(out.values, [0.0, 0.0, 3.0, 3.0])


def test_interp_nearest_edges():
    out = interp_nearest(gappy([9, 5, 8, 9], [False, True, True, False]))
    assert np.allclose(out.values, [5.0, 5.0, 8.0, 8.0])


def test_interp_cubic_four_point_example():
    # Natural spline through (0,0),(1,1),(2,0),(3,1) evaluated at 1.5 gives 0.5;
    # the same spline on a doubled time axis puts that point at t = 3.
    series = gappy([0, 9, 1, 9, 0, 9, 1],
                   [True, False, True, False, True, False, True])
    out = interp_cubic(series)
    assert out.values[3] == pytest.approx(0.5, abs=1e-6)


def dense_natural_spline(obs_t, obs_v, query_t):
    """Oracle: full linear system for the natural spline's second derivatives,
    evaluated through the per-interval polynomial coefficients."""
    n = len(obs_t)
    h = np.diff(obs_t)
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, 0] = 1.0
    a[-1, -1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1]
        a[i, i] = 2.0 * (h[i - 1] + h[i])
        a[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((obs_v[i + 1] - obs_v[i]) / h[i]
                        - (obs_v[i] - obs_v[i - 1]) / h[i - 1])
    m = np.linalg.solve(a, rhs)
    out = []
    for t in query_t:
        i = int(np.clip(np.searchsorted(obs_t, t, side="right") - 1, 0, n - 2))
        dt = t - obs_t[i]
        b = (obs_v[i + 1] - obs_v[i]) / h[i] - h[i] * (2 * m[i] + m[i + 1]) / 6.0
        c = m[i] / 2.0
        d = (m[i + 1] - m[i]) / (6.0 * h[i])
        out.append(obs_v[i] + b * dt + c * dt**2 + d * dt**3)
    return np.asarray(out)


def test_interp_cubic_matches_dense_solve_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(12, 40))
        observed = rng.random(n) < 0.6
        observed[[0, -1]] = True  # keep interior gaps; edges are a separate rule
        if observed.sum() < 4:
            observed[:4] = True
        values = rng.normal(size=n).astype(np.float32)
        out = interp_cubic(gappy(values, observed))
        obs_t = np.flatnonzero(observed).astype(np.float64)
        gaps = np.flatnonzero(~observed)
        want = dense_natural_spline(obs_t, values[observed].astype(np.float64),
                                    gaps.astype(np.float64))
        assert np.allclose(out.values[gaps], want, atol=1e-5)


def test_interp_linear_matches_bracketing_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(8, 30))
        observed = rng.random(n) < 0.5
        if observed.sum() < 2:
            observed[[0, -1]] = True
        values = rng.normal(size=n).astype(np.float32)
        out = interp_linear(gappy(values, observed))
        obs_idx = np.flatnonzero(observed)
        for t in np.flatnonzero(~observed):
            before = obs_idx[obs_idx < t]
            after = obs_idx[obs_idx > t]
            if len(before) == 0:
                want = values[after[0]]
            elif len(after) == 0:
                want = values[before[-1]]
            else:
                lo, hi = before[-1], after[0]
                frac = (t - lo) / (hi - lo)
                want = values[lo] + frac * (values[hi] - values[lo])
            assert out.values[t] == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("fn", [interp_linear, interp_nearest, interp_cubic])
def test_interp_preserves_observed_points_exactly(fn):
    rng = np.random.default_rng(9)
    values = rng.normal(size=32).astype(np.float32)
    observed = rng.random(32) < 0.5
    observed[:4] = True
    out = fn(gappy(values, observed))
    assert np.array_equal(out.values[observed], values[observed])


def test_interp_preconditions():
    with pytest.raises(EmptySeriesError):
        interp_linear(gappy([1, 2, 3], [True, False, False]))
    with pytest.raises(EmptySeriesError):
        interp_nearest(gappy([1, 2, 3], [False, False, True]))
    with pytest.raises(EmptySeriesError):
        interp_cubic(gappy([1, 2, 3, 4], [True, True, True, False]))


def test_naive_fill_examples():
    out = naive_fill(gappy([1, 9, 9], [True, False, False]))
    assert np.allclose(out.values, [1, 1, 1])
    out = naive_fill(gappy([9, 2], [False, True]))
    assert np.allclose(out.values, [2, 2])
    mid = naive_fill(gappy([1, 9, 3], [True, False, True]))
    assert np.allclose(mid.values, [1, 1, 3])
    with pytest.raises(EmptySeriesError):
        naive_fill(gappy([9, 9], [False, False]))


# ------------------------------------------------------------------ forecasters


def test_naive_forecast_repeats_last():
    assert np.allclose(naive_forecast([1.0, 4.0], 3), [4, 4, 4])
    with pytest.raises(EmptySeriesError):
        naive_forecast([], 2)


def test_seasonal_naive_example():
    assert np.allclose(seasonal_naive([1, 2, 3, 4], 2, season=2), [3, 4])
    assert np.allclose(seasonal_naive([1, 2, 3, 4], 5, season=2), [3, 4, 3, 4, 3])


def test_seasonal_naive_m1_equals_naive():
    y = [3.0, 1.0, 7.0]
    assert np.array_equal(seasonal_naive(y, 4, season=1), naive_forecast(y, 4))


def test_seasonal_naive_preconditions():
    with pytest.raises(EmptySeriesError):
        seasonal_naive([1, 2], 1, season=3)
    with pytest.raises(ConfigError):
        seasonal_naive([1, 2], 1, season=0)


def test_random_walk_drift_example():
    assert np.allclose(random_walk_drift([1.0, 3.0], 2), [5, 7])
    with pytest.raises(EmptySeriesError):
        random_walk_drift([1.0], 2)


def test_forecasters_accept_series():
    series = Series(values=np.array([1, 2, 3, 4], dtype=np.float32))
    assert np.allclose(naive_forecast(series, 2), [4, 4])
    assert np.allclose(seasonal_naive(series, 2, season=2), [3, 4])


def oracle_ses(y, grid):
    best_sse, best = np.inf, None
    for alpha in grid:
        level, sse = y[0], 0.0
        for t in range(1, len(y)):
            err = y[t] - level
            sse += err * err
            level += alpha * err  # algebraically alpha*y + (1-alpha)*level
        if sse < best_sse:
            best_sse, best = sse, (level, alpha)
    return best


def test_ses_grid_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = np.cumsum(rng.normal(size=40)) + rng.normal(scale=0.5, size=40)
        level, alpha = ses_fit(y)
        want_level, want_alpha = oracle_ses(y, SES_ALPHA_GRID)
        assert alpha == pytest.approx(want_alpha)
        assert level == pytest.approx(want_level, rel=1e-9)


def test_theta_constant_history_forecasts_constant():
    fc = theta_forecast(np.full(20, 5.0), 4)
    assert np.allclose(fc, 5.0, atol=1e-6)


def test_theta_linear_history_continues_slope():
    y = 2.0 * np.arange(50, dtype=np.float64)
    fc = theta_forecast(y, 8)
    diffs = np.diff(fc.astype(np.float64))
    assert np.allclose(diffs, 2.0, atol=1e-6)


def test_theta_needs_three_points():
    with pytest.raises(EmptySeriesError):
        theta_forecast([1.0, 2.0], 2)


def test_is_seasonal_detects_pure_cycle_but_not_noise():
    t = np.arange(120)
    assert is_seasonal(10 + np.sin(2 * np.pi * t / 12), 12)
    rng = np.random.default_rng(3)
    assert not is_seasonal(rng.normal(size=120), 12)
    assert not is_seasonal(np.sin(2 * np.pi * t / 12), 1)


def test_seasonal_indices_recover_multiplicative_pattern():
    pattern = np.array([0.8, 1.2, 0.9, 1.1])
    t = np.arange(48)
    y = (10 + 0.1 * t) * pattern[t % 4]
    idx = seasonal_indices(y, 4)
    assert idx.mean() == pytest.approx(1.0)
    assert np.allclose(idx, pattern, atol=0.05)


def test_theta_seasonal_history_tracks_continuation():
    pattern = np.array([0.8, 1.2, 0.9, 1.1])
    t = np.arange(48)
    y = (10 + 0.1 * t) * pattern[t % 4]
    fc = theta_forecast(y, 8, season=4)
    future = np.arange(48, 56)
    truth = (10 + 0.1 * future) * pattern[future % 4]
    assert np.max(np.abs(fc - truth) / truth) < 0.05


# ------------------------------------------------------------------ knn anomaly


def test_knn_identical_windows_score_zero():
    scores = knn_anomaly(np.zeros(16, dtype=np.float32), window=4, k=3)
    assert np.allclose(scores, 0.0)


def test_knn_spike_example():
    x = np.array([0, 0, 0, 0, 10, 0, 0, 0], dtype=np.float32)
    scores = knn_anomaly(x, window=2, k=1)
    assert np.allclose(scores, [0, 0, 0, 10, 10, 10, 0, 0])


def test_knn_k_clamped_to_other_window_count():
    x = np.array([1.0, 2.0, 4.0, 8.0], dtype=np.float32)
    assert np.allclose(knn_anomaly(x, window=2, k=5), knn_anomaly(x, window=2, k=2))


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    x = rng.normal(size=60).astype(np.float32)
    window, k = 5, 4
    scores = knn_anomaly(x, window=window, k=k)
    count = len(x) - window + 1
    wins = np.stack([x[i:i + window].astype(np.float64) for i in range(count)])
    want = np.zeros(len(x))
    for w in range(count):
        dists = sorted(
            np.linalg.norm(wins[w] - wins[o]) for o in range(count) if o != w
        )
        kth = dists[min(k, count - 1) - 1]
        for t in range(w, w + window):
            want[t] = max(want[t], kth)
    assert np.allclose(scores, want, atol=1e-4)


def test_knn_accepts_series_and_checks_length():
    series = Series(values=np.arange(8, dtype=np.float32))
    assert knn_anomaly(series, window=3).shape == (8,)
    with pytest.raises(ShapeError):
        knn_anomaly(np.zeros(4, dtype=np.float32), window=4)


# ------------------------------------------------------------------ rbf svm


def test_svm_two_point_separable():
    model = RbfSvm().fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    assert np.array_equal(model.predict([[0.0, 0.0], [1.0, 1.0]]), [0, 1])


def test_svm_solves_xor():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
    y = np.array([0, 1, 1, 0])
    model = RbfSvm(C=10.0).fit(x, y)
    assert np.array_equal(model.predict(x), y)


def test_svm_dual_coefficients_within_box_and_kkt_tolerance():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(size=(20, 2)) + [0, 0],
                   rng.normal(size=(20, 2)) + [4, 4]])
    y = np.repeat([0, 1], 20)
    model = RbfSvm(C=2.0).fit(x, y)
    for binary in model.binaries_:
        assert np.all(binary["alpha"] >= -1e-12)
        assert np.all(binary["alpha"] <= model.C + 1e-12)
    assert model.max_kkt_violation() <= model.tol + 1e-6


# every alpha ends at a bound at C <= 0.1 and no pair step moves one by 1e-7,
# so the solver stops with its bias far from the KKT conditions
STALL_X = np.array([[0.0], [0.1], [0.2], [1.0], [1.5], [2.0], [2.5]])
STALL_Y = np.array([0, 0, 0, 1, 1, 1, 1])


def test_svm_stall_warns_once_naming_classes_c_and_violation():
    with pytest.warns(UserWarning) as record:
        model = RbfSvm(C=1e-4).fit(STALL_X, STALL_Y)
    assert len(record) == 1
    message = str(record[0].message)
    worst = model.max_kkt_violation()
    assert worst > 0.99
    assert "stalled at C=0.0001 for classes [0, 1]" in message
    assert f"violation up to {worst:.4g}" in message


def test_svm_converged_fit_does_not_warn():
    # the blobs end with alphas within 1e-10 of zero that the solver cannot
    # move; the KKT check counts them as at zero, so they are no stall
    rng = np.random.default_rng(5)
    blobs = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + [4, 4]])
    for x, y, c in ((STALL_X, STALL_Y, 1.0), (blobs, np.repeat([0, 1], 20), 2.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = RbfSvm(C=c).fit(x, y)
        assert model.max_kkt_violation() <= model.tol + 1e-6


def test_svm_iteration_cap_warning_is_not_a_stall_warning():
    with pytest.warns(UserWarning) as record:
        RbfSvm(C=10.0, max_iter=1).fit(STALL_X, STALL_Y)
    messages = [str(r.message) for r in record]
    assert len(messages) == 2
    assert all("hit the iteration cap" in m for m in messages)


def test_svm_duplicating_training_points_keeps_predictions():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(scale=0.5, size=(15, 2)),
                   rng.normal(scale=0.5, size=(15, 2)) + [3, 3]])
    y = np.repeat([0, 1], 15)
    grid = rng.normal(size=(40, 2)) * 2 + [1.5, 1.5]
    base = RbfSvm(C=10.0).fit(x, y).predict(grid)
    doubled = RbfSvm(C=10.0).fit(np.vstack([x, x]), np.tile(y, 2)).predict(grid)
    assert np.array_equal(base, doubled)


def test_svm_three_class_blobs():
    rng = np.random.default_rng(17)
    centers = np.array([[0, 0], [5, 0], [0, 5]])
    x = np.vstack([rng.normal(scale=0.4, size=(12, 2)) + c for c in centers])
    y = np.repeat([0, 1, 2], 12)
    model = RbfSvm(C=5.0).fit(x, y)
    assert np.mean(model.predict(x) == y) == 1.0
    assert model.decision_function(x).shape == (36, 3)


def test_svm_string_labels():
    x = np.array([[0.0], [0.1], [5.0], [5.1]])
    y = np.array(["lo", "lo", "hi", "hi"])
    model = RbfSvm(C=5.0).fit(x, y)
    assert list(model.predict([[0.05], [5.05]])) == ["lo", "hi"]


def test_svm_argmax_is_shift_invariant():
    rng = np.random.default_rng(23)
    x = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 3])
    y = np.repeat([0, 1], 10)
    model = RbfSvm(C=1.0).fit(x, y)
    decisions = model.decision_function(x)
    assert np.array_equal(np.argmax(decisions, axis=1),
                          np.argmax(decisions + 7.3, axis=1))


def test_svm_default_gamma_is_scale_rule():
    x = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0], [3.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    model = RbfSvm().fit(x, y)
    assert model.gamma_ == pytest.approx(1.0 / (2 * x.var()))


def test_svm_errors():
    with pytest.raises(ContractError):
        RbfSvm().fit(np.zeros((3, 2)), np.array([1, 1, 1]))
    with pytest.raises(ShapeError):
        RbfSvm().fit(np.zeros(3), np.array([0, 1, 0]))
    with pytest.raises(ShapeError):
        RbfSvm().fit(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ConfigError):
        RbfSvm(C=0.0).fit(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(NotFittedError):
        RbfSvm().predict(np.zeros((1, 2)))


def test_svm_estimator_protocol():
    model = RbfSvm(C=3.0, gamma=0.5)
    params = model.get_params()
    assert params["C"] == 3.0 and params["gamma"] == 0.5
    clone = RbfSvm().set_params(**params)
    assert clone.get_params() == params


# ------------------------------------------------------------------ pca


def test_pca_line_has_one_component():
    t = np.linspace(-2, 2, 30)
    x = np.stack([t, 2 * t], axis=1)
    model = Pca(k=1).fit(x)
    want = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(model.components_[0], want, atol=1e-9)
    assert model.explained_variance_ratio_[0] == pytest.approx(1.0)


def test_pca_mean_projects_to_origin():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 5)) + 3.0
    model = Pca(k=3).fit(x)
    assert np.allclose(model.transform(model.mean_), 0.0, atol=1e-12)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(25, 4))
    model = Pca(k=4).fit(x)
    recon = model.inverse_transform(model.transform(x))
    assert np.max(np.abs(recon - x)) < 1e-5
    assert model.explained_variance_ratio_.sum() == pytest.approx(1.0, abs=1e-5)


def test_pca_components_orthonormal_and_shares_ordered():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(50, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    model = Pca(k=4).fit(x)
    gram = model.components_ @ model.components_.T
    assert np.allclose(gram, np.eye(4), atol=1e-6)
    shares = model.explained_variance_ratio_
    assert np.all(np.diff(shares) <= 1e-12)
    assert shares.sum() <= 1.0 + 1e-9


def test_pca_projection_matches_manual():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(20, 3))
    model = Pca(k=2).fit(x)
    want = (x - model.mean_) @ model.components_.T
    assert np.allclose(model.transform(x), want)
    single = model.transform(x[0])
    assert single.shape == (2,) and np.allclose(single, want[0])


def test_pca_errors():
    with pytest.raises(ConfigError):
        Pca(k=5).fit(np.zeros((10, 3)))
    with pytest.raises(ShapeError):
        Pca(k=1).fit(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        Pca(k=1).fit(np.zeros(3))
    with pytest.raises(NotFittedError):
        Pca(k=1).transform(np.zeros((2, 2)))
