"""Metric tests: pinned example values, invariance properties, and
independent brute-force oracle twins for the ranking metrics."""

import re
import warnings

import numpy as np
import pytest

from tinytsfm import metrics as mx
from tinytsfm.errors import ConfigError, ShapeError, UndefinedMetricError


# ------------------------------------------------------------------ oracles


def oracle_adjusted_best_f1(scores, labels):
    """Independent rewrite: per-timestep segment ids, python loops only."""
    n = len(labels)
    seg_id = [0] * n
    sid = 0
    for t in range(n):
        if labels[t] == 1:
            if t == 0 or labels[t - 1] == 0:
                sid += 1
            seg_id[t] = sid
    best = 0.0
    for theta in sorted(set(scores)):
        pred = [s >= theta for s in scores]
        detected = {seg_id[t] for t in range(n) if pred[t] and seg_id[t] > 0}
        adj = [pred[t] or seg_id[t] in detected for t in range(n)]
        tp = sum(1 for t in range(n) if adj[t] and labels[t])
        fp = sum(1 for t in range(n) if adj[t] and not labels[t])
        fn = sum(1 for t in range(n) if not adj[t] and labels[t])
        denom = 2 * tp + fp + fn
        if denom:
            best = max(best, 2 * tp / denom)
    return best


def oracle_plain_best_f1(scores, labels):
    best = 0.0
    for theta in sorted(set(scores)):
        pred = [s >= theta for s in scores]
        tp = sum(1 for t in range(len(labels)) if pred[t] and labels[t])
        fp = sum(1 for t in range(len(labels)) if pred[t] and not labels[t])
        fn = sum(1 for t in range(len(labels)) if not pred[t] and labels[t])
        denom = 2 * tp + fp + fn
        if denom:
            best = max(best, 2 * tp / denom)
    return best


def oracle_pairwise_auc(scores, labels):
    num = den = 0.0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] == 1 and labels[j] == 0:
                den += 1
                if scores[i] > scores[j]:
                    num += 1
                elif scores[i] == scores[j]:
                    num += 0.5
    return num / den


def oracle_soften(labels, width):
    """Per-position distance-to-nearest-anomaly formulation."""
    n = len(labels)
    marked = [t for t in range(n) if labels[t] == 1]
    out = []
    for t in range(n):
        if labels[t] == 1:
            out.append(1.0)
            continue
        d = min(abs(t - m) for m in marked) if marked else np.inf
        out.append(max(0.0, 1.0 - d / (width + 1.0)))
    return np.array(out)


def oracle_vus(scores, labels, max_buffer):
    """Materialize every softened vector; double-loop concordance."""
    total = 0.0
    for width in range(max_buffer + 1):
        w = oracle_soften(labels, width)
        num = den = 0.0
        for i in range(len(labels)):
            for j in range(len(labels)):
                if w[i] > w[j]:
                    den += 1
                    if scores[i] > scores[j]:
                        num += 1
                    elif scores[i] == scores[j]:
                        num += 0.5
        total += num / den
    return total / (max_buffer + 1)


# ------------------------------------------------------------------ pointwise


def test_mse_mae_examples():
    assert mx.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mx.mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mx.mse([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert mx.mae([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_mse_mae_match_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.normal(size=17)
        p = rng.normal(size=17)
        se = sum((a - b) ** 2 for a, b in zip(y, p)) / len(y)
        ae = sum(abs(a - b) for a, b in zip(y, p)) / len(y)
        assert mx.mse(y, p) == pytest.approx(se, rel=1e-12)
        assert mx.mae(y, p) == pytest.approx(ae, rel=1e-12)


def test_pointwise_length_mismatch():
    with pytest.raises(ShapeError):
        mx.mse([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        mx.mae([], [])


def test_smape_examples():
    assert mx.smape_m4([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert mx.smape_m4([100.0, 200.0], [110.0, 190.0]) == pytest.approx(7.326, abs=1e-3)
    assert mx.smape_m4([1.0], [-1.0]) == pytest.approx(200.0)
    assert mx.smape_m4([0.0], [0.0]) == 0.0  # zero-denominator terms contribute 0


def test_smape_range_and_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.normal(size=9)
        p = rng.normal(size=9)
        v = mx.smape_m4(y, p)
        assert 0.0 <= v <= 200.0
        assert mx.smape_m4(3.7 * y, 3.7 * p) == pytest.approx(v, rel=1e-9)


@pytest.mark.parametrize("h", [1, 2, 7, 8, 9, 16, 64, 129, 300])
def test_pointwise_rows_equal_the_per_row_calls_bit_for_bit(h):
    rng = np.random.default_rng(h)
    y = rng.normal(size=(23, h)) * rng.choice([1e-3, 1.0, 1e3], size=(23, 1))
    y_hat = (y + rng.normal(size=y.shape)).astype(np.float32)
    y[3], y_hat[3] = 0.0, 0.0  # every smape term has a zero denominator
    y[5, ::2], y_hat[5, ::2] = 0.0, 0.0  # some do
    y_hat[7] = y[7]  # a perfect forecast
    rows = mx.pointwise_rows(y.astype(np.float32), y_hat)
    for i in range(len(y)):
        want = (mx.mse(y[i].astype(np.float32), y_hat[i]),
                mx.mae(y[i].astype(np.float32), y_hat[i]),
                mx.smape_m4(y[i].astype(np.float32), y_hat[i]))
        assert tuple(float(r[i]) for r in rows) == want


def test_pointwise_rows_shape_checks():
    with pytest.raises(ShapeError):
        mx.pointwise_rows(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        mx.pointwise_rows(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        mx.pointwise_rows(np.zeros((2, 0)), np.zeros((2, 0)))


def test_accuracy_examples():
    assert mx.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert mx.accuracy([1, 1], [2, 2]) == 0.0
    assert mx.accuracy([1, 2, 2], [1, 2, 3]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ShapeError):
        mx.accuracy([1], [1, 2])


def test_permutation_invariance_of_pairwise_metrics():
    rng = np.random.default_rng(2)
    y = rng.normal(size=20)
    p = rng.normal(size=20)
    labels = rng.integers(0, 2, size=20)
    labels[0], labels[1] = 0, 1
    perm = rng.permutation(20)
    assert mx.mse(y[perm], p[perm]) == pytest.approx(mx.mse(y, p), rel=1e-12)
    assert mx.mae(y[perm], p[perm]) == pytest.approx(mx.mae(y, p), rel=1e-12)
    assert mx.smape_m4(y[perm], p[perm]) == pytest.approx(mx.smape_m4(y, p), rel=1e-9)
    assert mx.roc_auc(p[perm], labels[perm]) == pytest.approx(
        mx.roc_auc(p, labels), abs=1e-12
    )


# ------------------------------------------------------------------ scored series


def test_scored_series_validation():
    with pytest.raises(ShapeError):
        mx.ScoredSeries(scores=[0.1, 0.2], labels=[0])
    with pytest.raises(ShapeError):
        mx.ScoredSeries(scores=[0.1], labels=[2])
    s = mx.ScoredSeries(scores=[0.5, 0.1], labels=[1, 0])
    assert mx.roc_auc(s) == 1.0


@pytest.mark.parametrize(
    "metric", [mx.roc_auc, mx.vus_roc, mx.adjusted_best_f1, mx.ScoredSeries]
)
def test_nan_scores_are_refused_with_their_index(metric):
    # NaN sorts above every score: unrefused, each metric would read 1.0 here.
    with pytest.raises(UndefinedMetricError, match="index 1 is NaN"):
        metric([0.1, np.nan, 0.9, 0.3], [0, 1, 1, 0])


@pytest.mark.parametrize(
    "metric",
    [mx.roc_auc, mx.vus_roc, mx.adjusted_best_f1, mx.ScoredSeries, mx.mse, mx.pointwise_rows],
)
def test_non_numeric_scores_are_a_shape_error(metric):
    with pytest.raises(ShapeError, match="must be numeric, got 'abc'"):
        metric("abc", [0, 1, 0])


def test_infinite_scores_still_rank():
    scores = [-np.inf, np.inf, 0.9, 0.3]
    labels = [0, 1, 1, 0]
    assert mx.roc_auc(scores, labels) == 1.0
    assert mx.vus_roc(scores, labels, max_buffer=0) == 1.0
    assert mx.adjusted_best_f1(scores, labels) == 1.0
    assert mx.adjusted_best_f1([np.inf, -np.inf, 0.0], [0, 1, 0]) == 0.5


def test_label_segments():
    assert mx.label_segments([0, 1, 1, 0, 0]) == [(1, 2)]
    assert mx.label_segments([1, 0, 1, 1, 1]) == [(0, 0), (2, 4)]
    assert mx.label_segments([0, 0]) == []
    assert mx.label_segments([1, 1]) == [(0, 1)]


# ------------------------------------------------------------------ adjusted F1


def test_adjusted_best_f1_point_adjustment_example():
    got = mx.adjusted_best_f1([0.2, 0.9, 0.1, 0.3, 0.0], [0, 1, 1, 0, 0])
    assert got == 1.0
    # Segments at both ends.
    labels = [1, 1, 0, 0, 0, 1]
    assert mx.adjusted_best_f1([0.0, 0.9, 0.1, 0.2, 0.1, 0.3], labels) == 1.0
    # The first segment peaks at 0.8 and the last at 0.3, below all three
    # negatives, so best F1 detects only the first: 2*2 / (2*2 + 0 + 1).
    assert mx.adjusted_best_f1([0.8, 0.0, 0.5, 0.4, 0.35, 0.3], labels) == 0.8
    assert mx.adjusted_best_f1([0.3, 0.2, 0.1], [1, 1, 1]) == 1.0


def test_adjusted_best_f1_perfect_detector():
    labels = [0, 1, 1, 0, 1, 0]
    assert mx.adjusted_best_f1([float(v) for v in labels], labels) == 1.0


def test_adjusted_best_f1_all_negative_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert mx.adjusted_best_f1([0.5, 0.2], [0, 0]) == 0.0


def test_adjusted_best_f1_matches_independent_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 17))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        scores = np.round(rng.random(n), 2).tolist()  # rounding induces ties
        got = mx.adjusted_best_f1(scores, labels)
        want = oracle_adjusted_best_f1(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def reference_adjusted_best_f1(scores, labels=None):
    """The per-threshold rescan that adjusted_best_f1 replaced, kept verbatim
    as the reference its counting kernel must equal exactly."""
    s, lab = mx._score_label_pair(scores, labels)
    positives = lab.astype(bool)
    if not positives.any():
        warnings.warn("adjusted_best_f1 over all-negative labels is 0 by convention")
        return 0.0
    segments = mx.label_segments(lab)
    best = 0.0
    for theta in np.unique(s):
        pred = s >= theta
        adjusted = pred.copy()
        for a, b in segments:
            if adjusted[a:b + 1].any():
                adjusted[a:b + 1] = True
        tp = int(np.sum(adjusted & positives))
        fp = int(np.sum(adjusted & ~positives))
        fn = int(np.sum(~adjusted & positives))
        denom = 2 * tp + fp + fn
        if denom > 0:
            best = max(best, 2.0 * tp / denom)
    return best


def _segment_labels(rng, n, mean_gap, mean_len):
    """Binary labels of alternating geometric gaps and segments; the first
    segment may start at index 0 and the last may run to index n - 1."""
    labels = np.zeros(n, dtype=np.int64)
    t = int(rng.geometric(1.0 / mean_gap)) - 1
    while t < n:
        length = int(rng.geometric(1.0 / mean_len))
        labels[t:t + length] = 1
        t += length + int(rng.geometric(1.0 / mean_gap))
    return labels


F1_CASE_KINDS = (
    "plain", "ties", "inf", "short-segments", "edges", "single-point",
    "all-positive", "two-levels",
)


def _f1_case(rng, kind, n):
    if kind == "short-segments":
        labels = _segment_labels(rng, n, mean_gap=3.0, mean_len=1.5)
    elif kind == "single-point":
        labels = _segment_labels(rng, n, mean_gap=6.0, mean_len=1.0)
    elif kind == "all-positive":
        labels = np.ones(n, dtype=np.int64)
    else:
        labels = _segment_labels(rng, n, mean_gap=40.0, mean_len=8.0)
    if kind == "edges":
        labels[0] = labels[-1] = 1
    if labels.sum() == 0:
        labels[rng.integers(n)] = 1
    scores = rng.normal(size=n)
    if kind == "ties":
        scores = rng.integers(0, 6, size=n).astype(np.float64)
    elif kind == "two-levels":
        scores = rng.choice([0.0, 1.0], size=n)
    elif kind == "inf":
        scores[rng.random(n) < 0.05] = np.inf
        scores[rng.random(n) < 0.05] = -np.inf
    return scores, labels


@pytest.mark.parametrize("kind", F1_CASE_KINDS)
def test_adjusted_best_f1_equals_per_threshold_reference(kind):
    """200 seeded cases: the sort-and-count kernel returns exactly the float
    the per-threshold rescan returns. Most cases are short; every fifth is
    6,000 points with scores rounded to 0.1 (heavy ties) so the reference
    stays quick, except one plain and one all-positive case with 6,000
    unique scores."""
    rng = np.random.default_rng(F1_CASE_KINDS.index(kind))
    for i in range(25):
        n = 6000 if i % 5 == 0 else int(rng.integers(1, 400))
        scores, labels = _f1_case(rng, kind, n)
        if n == 6000 and not (i == 0 and kind in ("plain", "all-positive")):
            scores = np.round(scores, 1)
        got = mx.adjusted_best_f1(scores, labels)
        want = reference_adjusted_best_f1(scores, labels)
        assert got == want, f"{kind} case {i} (n={n}): {got} != {want}"


def test_adjusted_best_f1_dominates_plain_best_f1():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 20))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        scores = rng.random(n).tolist()
        assert mx.adjusted_best_f1(scores, labels) >= oracle_plain_best_f1(
            scores, labels
        ) - 1e-12


# ------------------------------------------------------------------ roc auc


def test_roc_auc_examples():
    assert mx.roc_auc([0.1, 0.9], [0, 1]) == 1.0
    assert mx.roc_auc([0.1, 0.9], [1, 0]) == 0.0


def test_roc_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.integers(0, 5, size=n).astype(float)  # integer scores force ties
        got = mx.roc_auc(scores, labels)
        want = oracle_pairwise_auc(scores.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-12)


def test_roc_auc_complement_symmetry():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    scores = rng.permutation(30).astype(float)  # distinct, tie-free
    assert mx.roc_auc(scores, labels) + mx.roc_auc(-scores, labels) == pytest.approx(
        1.0, abs=1e-12
    )


def test_roc_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        mx.roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        mx.roc_auc([0.1, 0.2], [0, 0])


# ------------------------------------------------------------------ vus roc


def test_soften_labels_hand_values():
    got = mx.soften_labels([0, 1, 1, 0, 0], 1)
    assert np.allclose(got, [0.5, 1.0, 1.0, 0.5, 0.0])
    got2 = mx.soften_labels([0, 1, 1, 0, 0], 2)
    assert np.allclose(got2, [2 / 3, 1.0, 1.0, 2 / 3, 1 / 3])
    # overlapping ramps from two segments keep the maximum
    got3 = mx.soften_labels([1, 0, 0, 1], 2)
    assert np.allclose(got3, [1.0, 2 / 3, 2 / 3, 1.0])


def test_soften_matches_distance_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 20))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        for width in (0, 1, 2, 3):
            assert np.allclose(
                mx.soften_labels(labels, width), oracle_soften(labels.tolist(), width)
            )


def test_vus_zero_buffer_equals_roc_auc_exactly():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.integers(0, 6, size=n).astype(float)
        assert mx.vus_roc(scores, labels, max_buffer=0) == mx.roc_auc(scores, labels)


def test_vus_perfect_localization_scores_hit_one():
    labels = np.array([0, 0, 1, 1, 0, 0, 0, 1, 0, 0])
    scores = mx.soften_labels(labels, 4)  # rank-matches every buffered labeling
    assert mx.vus_roc(scores, labels, max_buffer=4) == pytest.approx(1.0, abs=1e-9)


def test_vus_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(5, 13))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.random(n), 1)
        got = mx.vus_roc(scores, labels, max_buffer=2)
        want = oracle_vus(scores.tolist(), labels.tolist(), 2)
        assert got == pytest.approx(want, abs=1e-9)


def test_vus_single_class_and_bad_buffer():
    with pytest.raises(UndefinedMetricError):
        mx.vus_roc([0.1, 0.2], [1, 1])
    with pytest.raises(ConfigError):
        mx.vus_roc([0.1, 0.2], [0, 1], max_buffer=-1)


@pytest.mark.parametrize("max_buffer", ["2", 1.5, 2.0, True, -1])
def test_vus_refuses_a_buffer_that_is_not_an_int(max_buffer):
    # "2" and 1.5 were bare TypeErrors from range()
    with pytest.raises(ConfigError,
                       match=re.escape(f"max_buffer must be an int >= 0, got {max_buffer!r}")):
        mx.vus_roc([0.1, 0.2], [0, 1], max_buffer=max_buffer)


# ------------------------------------------------------------------ spearman


def oracle_spearman(a, b):
    """Rank via sorted-position averaging, then a hand-written Pearson."""
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    ra, rb = ranks(list(a)), ranks(list(b))
    ma = sum(ra) / len(ra)
    mb = sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / (va * vb) ** 0.5


def test_spearman_monotone_and_reversed():
    assert mx.spearman_rho([1, 2, 3, 4], [10, 20, 25, 90]) == pytest.approx(1.0)
    assert mx.spearman_rho([1, 2, 3, 4], [5, 4, 3, 2]) == pytest.approx(-1.0)


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 20))
        a = np.round(rng.random(n), 1)
        b = np.round(rng.random(n), 1)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert mx.spearman_rho(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(UndefinedMetricError):
        mx.spearman_rho([1, 1, 1], [1, 2, 3])
    with pytest.raises(ShapeError):
        mx.spearman_rho([1], [2])
