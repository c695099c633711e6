"""Evaluation metrics: pointwise errors, M4-style sMAPE, accuracy, the
point-adjusted best F1, ROC-AUC, and a buffered-label VUS-ROC.

All functions accept plain vectors; the score-based ones also accept a
ScoredSeries record as the single argument.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UndefinedMetricError, check_value


@dataclass
class ScoredSeries:
    """Anomaly scores paired with binary ground-truth labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = _floats(self.scores, "scores")
        raw = np.asarray(self.labels)
        if self.scores.ndim != 1 or raw.ndim != 1:
            raise ShapeError("scores and labels must be 1-D")
        if self.scores.shape != raw.shape:
            raise ShapeError(
                f"scores length {self.scores.shape} != labels length {raw.shape}"
            )
        if not np.isin(raw, (0, 1)).all():
            raise ShapeError("labels must be binary")
        nan = np.flatnonzero(np.isnan(self.scores))
        if nan.size:
            raise UndefinedMetricError(
                f"score at index {nan[0]} is NaN; ranking metrics need ordered scores"
            )
        self.labels = raw.astype(np.int64)


def _floats(values, what):
    """values as a float64 array; non-numeric input is a ShapeError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ShapeError(f"{what} must be numeric, got {values!r:.40}") from None


def _score_label_pair(scores, labels):
    if isinstance(scores, ScoredSeries):
        if labels is not None:
            raise ShapeError("pass either a ScoredSeries or two vectors, not both")
        return scores.scores, scores.labels
    pair = ScoredSeries(scores=scores, labels=labels)
    return pair.scores, pair.labels


def _paired(y, y_hat):
    a = _floats(y, "y").ravel()
    b = _floats(y_hat, "y_hat").ravel()
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError("metrics need at least one element")
    return a, b


# ------------------------------------------------------------------ pointwise


def mse(y, y_hat):
    a, b = _paired(y, y_hat)
    return float(np.mean(np.square(a - b)))


def mae(y, y_hat):
    a, b = _paired(y, y_hat)
    return float(np.mean(np.abs(a - b)))


def smape_m4(y, y_hat):
    """Symmetric MAPE in the M4-competition form, in [0, 200].

    (200/h) * sum |y - y_hat| / (|y| + |y_hat|); terms whose denominator is
    zero contribute zero.
    """
    a, b = _paired(y, y_hat)
    return float(200.0 * _smape_terms(a, b).mean())


def _smape_terms(a, b):
    """|a - b| / (|a| + |b|) elementwise, 0 where the denominator is 0."""
    denom = np.abs(a) + np.abs(b)
    terms = np.zeros_like(denom)
    nz = denom > 0
    terms[nz] = np.abs(a - b)[nz] / denom[nz]
    return terms


def pointwise_rows(y, y_hat):
    """Row-wise (mse, mae, smape_m4) of [n, h] truths and forecasts in one
    pass: three [n] arrays whose entries equal the scalar functions' bits."""
    a, b = _floats(y, "y"), _floats(y_hat, "y_hat")
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] == 0:
        raise ShapeError(f"pointwise_rows needs equal [n, h>0] arrays, got {a.shape}, {b.shape}")
    diff = a - b
    return (np.square(diff).mean(axis=1), np.abs(diff).mean(axis=1),
            200.0 * _smape_terms(a, b).mean(axis=1))


def accuracy(pred, true):
    p = np.asarray(pred).ravel()
    t = np.asarray(true).ravel()
    if p.shape != t.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ShapeError("accuracy needs at least one element")
    return float(np.mean(p == t))


def _tie_averaged_ranks(v):
    uniq, inverse, counts = np.unique(
        np.asarray(v, dtype=np.float64), return_inverse=True, return_counts=True
    )
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (starts + (counts - 1) / 2.0)[inverse]


def spearman_rho(a, b):
    """Spearman rank correlation with tie-averaged ranks."""
    x, y = _paired(a, b)
    if x.size < 2:
        raise ShapeError("spearman correlation needs at least two pairs")
    rx = _tie_averaged_ranks(x)
    ry = _tie_averaged_ranks(y)
    if rx.std() == 0 or ry.std() == 0:
        raise UndefinedMetricError("spearman correlation undefined for constant input")
    return float(np.corrcoef(rx, ry)[0, 1])


# ------------------------------------------------------------------ detection


def _segment_bounds(labels):
    """Alternating start and one-past-end indices of each contiguous run of 1s."""
    arr = np.asarray(labels).astype(bool)
    return np.flatnonzero(np.diff(np.concatenate([[False], arr, [False]]).astype(int)))


def label_segments(labels):
    """Inclusive (start, end) index pairs of each contiguous run of 1s."""
    bounds = _segment_bounds(labels)
    return list(zip(bounds[::2].tolist(), (bounds[1::2] - 1).tolist()))


def adjusted_best_f1(scores, labels=None):
    """Best F1 over all unique score thresholds with point adjustment.

    Point adjustment: if any timestep inside a true anomaly segment is
    flagged, the whole segment counts as detected. All-negative labels give
    0 by convention (with a warning).

    So a segment is detected at threshold theta exactly when its maximum
    score is >= theta, and the counts for every threshold come from one
    sort each: fp(theta) is the number of negative points scoring >= theta,
    tp(theta) the total length of segments whose maximum is >= theta, and
    fn(theta) = P - tp(theta) for P positive points. F1 is
    2tp / (2tp + fp + fn), maximised over the unique scores.
    """
    s, lab = _score_label_pair(scores, labels)
    positives = lab.astype(bool)
    if not positives.any():
        warnings.warn("adjusted_best_f1 over all-negative labels is 0 by convention")
        return 0.0
    # The appended element keeps a one-past-end of n in reduceat's range; it
    # only ever joins a gap's maximum, and [::2] keeps the segments' maxima.
    bounds = _segment_bounds(lab)
    seg_max = np.maximum.reduceat(np.append(s, -np.inf), bounds)[::2]
    order = np.argsort(seg_max)
    seg_len = (bounds[1::2] - bounds[::2])[order]
    missed_len = np.concatenate([[0], np.cumsum(seg_len)])
    negatives = np.sort(s[~positives])
    thresholds = np.unique(s)
    fp = len(negatives) - np.searchsorted(negatives, thresholds, side="left")
    fn = missed_len[np.searchsorted(seg_max[order], thresholds, side="left")]
    tp = missed_len[-1] - fn
    return float((2.0 * tp / (2 * tp + fp + fn)).max())


def _concordance_auc(scores, weights):
    """Continuous-label AUC: over all pairs whose labels differ, the fraction
    where the higher-labeled point also has the higher score (ties count 1/2).

    For binary weights this is exactly the Mann-Whitney ROC-AUC; a detector
    whose scores reproduce the label ordering achieves 1.0 for any label set.
    """
    s = np.asarray(scores, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    classes = np.unique(w)
    if len(classes) < 2:
        raise UndefinedMetricError("AUC needs both classes present")
    grouped = [np.sort(s[w == c]) for c in classes]
    num = 0.0
    den = 0.0
    for lo_i in range(len(classes)):
        lo = grouped[lo_i]
        for hi_i in range(lo_i + 1, len(classes)):
            hi = grouped[hi_i]
            left = np.searchsorted(lo, hi, side="left")
            right = np.searchsorted(lo, hi, side="right")
            num += float(left.sum()) + 0.5 * float((right - left).sum())
            den += len(hi) * len(lo)
    return num / den


def roc_auc(scores, labels=None):
    """Probability a random positive outranks a random negative; ties 1/2."""
    s, lab = _score_label_pair(scores, labels)
    return _concordance_auc(s, lab)


def soften_labels(labels, buffer_width):
    """Binary labels with linearly decaying ramps of the given width added on
    each side of every anomaly segment: offset d gets 1 - d/(width+1);
    overlapping ramps keep the maximum."""
    lab = np.asarray(labels).astype(np.int64)
    w = lab.astype(np.float64).copy()
    if buffer_width == 0:
        return w
    n = len(w)
    for a, b in label_segments(lab):
        for d in range(1, buffer_width + 1):
            val = 1.0 - d / (buffer_width + 1.0)
            if a - d >= 0:
                w[a - d] = max(w[a - d], val)
            if b + d < n:
                w[b + d] = max(w[b + d], val)
    return w


def vus_roc(scores, labels=None, max_buffer=4):
    """Mean continuous-label AUC over anomaly-segment buffer widths 0..L.

    Width 0 is exactly roc_auc; larger widths forgive near-miss detections
    close to segment boundaries via the linear ramps of soften_labels.
    """
    s, lab = _score_label_pair(scores, labels)
    check_value("max_buffer", max_buffer, int, low=0)
    if lab.min() == lab.max():
        raise UndefinedMetricError("VUS-ROC needs both classes present")
    total = 0.0
    for width in range(max_buffer + 1):
        total += _concordance_auc(s, soften_labels(lab, width))
    return total / (max_buffer + 1)
