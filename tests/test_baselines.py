"""Comparator tests: nearest-point interpolation and naive-forecast worked
examples, SMO-trained SVM sanity and KKT checks, and PCA spectral
properties."""

import warnings

import numpy as np
import pytest

from tinytsfm.baselines import Pca, RbfSvm, interp_nearest, naive_forecast
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


def test_interp_nearest_tie_goes_left():
    out = interp_nearest(gappy([0, 9, 9, 3], [True, False, False, True]))
    assert np.allclose(out.values, [0.0, 0.0, 3.0, 3.0])


def test_interp_nearest_edges():
    out = interp_nearest(gappy([9, 5, 8, 9], [False, True, True, False]))
    assert np.allclose(out.values, [5.0, 5.0, 8.0, 8.0])


def test_interp_preserves_observed_points_exactly():
    rng = np.random.default_rng(9)
    values = rng.normal(size=32).astype(np.float32)
    observed = rng.random(32) < 0.5
    observed[:4] = True
    out = interp_nearest(gappy(values, observed))
    assert np.array_equal(out.values[observed], values[observed])


def test_interp_preconditions():
    with pytest.raises(EmptySeriesError):
        interp_nearest(gappy([1, 2, 3], [False, False, True]))


# ------------------------------------------------------------------ forecasters


def test_naive_forecast_repeats_last():
    assert np.allclose(naive_forecast([1.0, 4.0], 3), [4, 4, 4])
    with pytest.raises(EmptySeriesError):
        naive_forecast([], 2)


@pytest.mark.parametrize("horizon", [0, -1, 2.5, True, "3", None])
def test_naive_forecast_refuses_a_horizon_that_is_not_a_positive_int(horizon):
    with pytest.raises(ConfigError, match="horizon"):
        naive_forecast([1.0, 4.0], horizon)


def test_forecasters_accept_series():
    series = Series(values=np.array([1, 2, 3, 4], dtype=np.float32))
    assert np.allclose(naive_forecast(series, 2), [4, 4])


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


def test_svm_refuses_2d_labels_naming_y():
    # a 2-D y passed the length check and failed inside a matmul
    with pytest.raises(ShapeError, match=r"^y must be 1-D, got shape \(4, 1\)$"):
        RbfSvm().fit(np.zeros((4, 2)), [[0], [1], [0], [1]])


def test_svm_refuses_non_finite_input_naming_the_first_row():
    x = np.zeros((5, 2))
    x[3, 0] = np.inf
    x[2, 1] = np.nan
    with pytest.raises(ContractError, match="row 2"):
        RbfSvm().fit(x, np.array([0, 0, 1, 1, 1]))


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
