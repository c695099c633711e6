"""Dataset-layer tests: CSV round trips, deterministic splits, window
fitting, downsampling, and the synthetic sinusoid family."""

import csv

import numpy as np
import pytest

from tinytsfm import data as td
from tinytsfm.errors import ConfigError, EmptySeriesError, ParseError, ShapeError


# ------------------------------------------------------------------ series


def test_series_defaults_all_observed():
    s = td.Series(values=np.arange(5, dtype=np.float32))
    assert s.observed.all() and len(s) == 5
    assert s.values.dtype == np.float32


def test_series_validates_lengths():
    with pytest.raises(ShapeError):
        td.Series(values=np.zeros(4), observed=np.ones(3, dtype=bool))
    with pytest.raises(ShapeError):
        td.Series(values=np.zeros(4), anomalies=np.zeros(3))
    with pytest.raises(ShapeError):
        td.Series(values=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        td.Series(values=np.zeros(3), anomalies=np.array([0, 2, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_series_refuses_non_finite_observed_values(bad):
    # 1e39 is finite in float64 but overflows float32 to inf
    v = np.arange(200, dtype=np.float64)
    v[100] = bad
    v[150] = np.nan  # only the first bad index is named
    with np.errstate(over="ignore"), pytest.raises(ParseError) as info:
        td.Series(values=v, name="sensor-7")
    message = str(info.value)
    assert "'sensor-7'" in message and "index 100" in message


def test_series_leaves_unobserved_values_unchecked():
    v = np.arange(6, dtype=np.float32)
    v[[1, 4]] = (np.nan, np.inf)
    obs = np.ones(6, dtype=bool)
    obs[[1, 4]] = False
    s = td.Series(values=v, observed=obs, name="gappy")
    assert np.isnan(s.values[1]) and s.observed.sum() == 4
    with pytest.raises(ParseError, match="'gappy'.*index 4"):
        td.Series(values=v, observed=obs | (np.arange(6) == 4), name="gappy")


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        td.SplitSpec(fractions=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        td.SplitSpec(mode="diagonal")
    assert td.SplitSpec().seed == 13


# ------------------------------------------------------------------ csv


def test_load_csv_single_column(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("sensor\n" + "\n".join(str(i) for i in range(512)) + "\n")
    series = td.load_csv(str(path))
    assert len(series) == 1
    assert series[0].name == "sensor"
    assert len(series[0]) == 512 and series[0].observed.all()
    assert np.allclose(series[0].values, np.arange(512))


def test_load_csv_empty_cell_is_missing(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a\n1\n2\n\n4\n")
    (s,) = td.load_csv(str(path))
    assert not s.observed[2] and s.values[2] == 0.0
    assert s.observed[[0, 1, 3]].all()


def test_load_csv_multi_column_channel_independence(tmp_path):
    path = tmp_path / "wide.csv"
    header = ",".join(f"c{i}" for i in range(7))
    rows = "\n".join(",".join(str(r * 10 + c) for c in range(7)) for r in range(20))
    path.write_text(header + "\n" + rows + "\n")
    series = td.load_csv(str(path))
    assert len(series) == 7
    assert [s.name for s in series] == [f"c{i}" for i in range(7)]
    assert series[3].values[2] == 23.0


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="line 3"):
        td.load_csv(str(path))


def test_load_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a\n1\nounce\n")
    with pytest.raises(ParseError, match="line 3"):
        td.load_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e39"])
def test_load_csv_non_finite_cell_names_line_and_column(tmp_path, cell):
    # 1e39 parses as a float but overflows float32 to inf
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"a,b\n1,2\n3,\n4,{cell}\n5,6\n")
    with pytest.raises(ParseError) as info:
        td.load_csv(str(path))
    message = str(info.value)
    assert str(path) in message
    assert "line 4" in message
    assert "'b'" in message


def test_load_csv_reports_first_non_finite_line(tmp_path):
    path = tmp_path / "nonfinite.csv"
    path.write_text("a,b\n1,2\n3,nan\ninf,4\n")
    with pytest.raises(ParseError, match="line 3, column 2 'b'"):
        td.load_csv(str(path))


def test_load_csv_missing_file():
    with pytest.raises(ParseError):
        td.load_csv("/nonexistent/file.csv")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = td.Series(values=rng.normal(size=32).astype(np.float32), name="a")
    b = td.Series(
        values=rng.normal(size=32).astype(np.float32),
        observed=rng.random(32) > 0.25,
        name="b",
    )
    path = tmp_path / "rt.csv"
    td.save_csv(str(path), [a, b])
    ra, rb = td.load_csv(str(path))
    assert np.array_equal(ra.values, a.values) and ra.observed.all()
    assert np.array_equal(rb.observed, b.observed)
    assert np.array_equal(rb.values[b.observed], b.values[b.observed])


def csv_writer_reference(path, collection):
    """save_csv's bytes as csv.writer writes them, one cell at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in collection])
        for t in range(len(collection[0])):
            writer.writerow(
                [repr(float(s.values[t])) if s.observed[t] else "" for s in collection]
            )


@pytest.mark.parametrize("n_columns", [1, 2, 4])
def test_save_csv_bytes_match_csv_writer(tmp_path, n_columns):
    rng = np.random.default_rng(n_columns)
    edge = np.array([-0.0, 0.0, 1e-45, -1.4e-45, 3.4e38, -3.4e38, 1.0, 0.1],
                    dtype=np.float32)
    collection = []
    for i in range(n_columns):
        values = np.concatenate([edge, rng.normal(size=24).astype(np.float32)])
        observed = rng.random(len(values)) > 0.3
        observed[i] = True
        if i == 0:
            observed[8:10] = False  # a row with every cell empty
        else:
            observed[8:10] = rng.random(2) > 0.5
        collection.append(td.Series(values=values, observed=observed,
                                    name=f'col "{i}", x' if i == 1 else f"c{i}"))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    td.save_csv(str(got), collection)
    csv_writer_reference(str(want), collection)
    assert got.read_bytes() == want.read_bytes()


def test_load_labels_and_classes(tmp_path):
    lab = tmp_path / "x.labels.csv"
    lab.write_text("0\n1\n0\n1\n")
    got = td.load_labels(str(lab))
    assert np.array_equal(got, [False, True, False, True])
    with pytest.raises(ParseError):
        td.load_labels(str(lab), n_expected=5)
    bad = tmp_path / "bad.labels.csv"
    bad.write_text("0\n2\n")
    with pytest.raises(ParseError, match="line 2"):
        td.load_labels(str(bad))
    cls = tmp_path / "x.classes.csv"
    cls.write_text("s1,0\ns2,1\ns3,walking\n")
    mapping = td.load_classes(str(cls))
    assert mapping == {"s1": 0, "s2": 1, "s3": "walking"}


def test_load_csv_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffsensor,b\n1,2\n3,4\n", encoding="utf-8")
    series = td.load_csv(str(path))
    assert [s.name for s in series] == ["sensor", "b"]
    assert np.array_equal(series[0].values, [1, 3])


def test_load_labels_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.labels.csv"
    path.write_text("\ufeff0\n1\n", encoding="utf-8")
    assert np.array_equal(td.load_labels(str(path)), [False, True])


def test_load_classes_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.classes.csv"
    path.write_text("\ufeffs1,0\ns2,1\n", encoding="utf-8")
    assert td.load_classes(str(path)) == {"s1": 0, "s2": 1}


# ------------------------------------------------------------------ splits


def _ramp(n, **kw):
    return td.Series(values=np.arange(n, dtype=np.float32), **kw)


def test_split_horizontal_lengths_100():
    train, val, test = td.split_horizontal(_ramp(100))
    assert (len(train), len(val), len(test)) == (60, 10, 30)


def test_split_horizontal_lengths_101_remainder_to_test():
    train, val, test = td.split_horizontal(_ramp(101))
    assert (len(train), len(val), len(test)) == (60, 10, 31)


def test_split_horizontal_concatenation_reproduces_input():
    x = _ramp(97, anomalies=(np.arange(97) % 7 == 0).astype(int))
    train, val, test = td.split_horizontal(x)
    assert np.array_equal(
        np.concatenate([train.values, val.values, test.values]), x.values
    )
    assert np.array_equal(
        np.concatenate([train.anomalies, val.anomalies, test.anomalies]), x.anomalies
    )


def test_split_horizontal_too_short():
    with pytest.raises(ShapeError):
        td.split_horizontal(_ramp(9))


def test_split_by_series_counts_and_partition():
    coll = [_ramp(20, name=f"s{i}") for i in range(10)]
    train, val, test = td.split_by_series(coll)
    assert (len(train), len(val), len(test)) == (6, 1, 3)
    names = sorted(s.name for part in (train, val, test) for s in part)
    assert names == sorted(s.name for s in coll)


def test_split_by_series_deterministic():
    coll = [_ramp(20, name=f"s{i}") for i in range(10)]
    a = td.split_by_series(coll)
    b = td.split_by_series(coll)
    for part_a, part_b in zip(a, b):
        assert [s.name for s in part_a] == [s.name for s in part_b]


def test_split_by_series_needs_three():
    with pytest.raises(ShapeError):
        td.split_by_series([_ramp(20), _ramp(20)])


# ------------------------------------------------------------------ windowing


def test_fit_to_window_identity_at_512():
    x = _ramp(512)
    out = td.fit_to_window(x)
    assert np.array_equal(out.values, x.values) and out.observed.all()


def test_fit_to_window_stride_two_subsample():
    x = _ramp(1024)
    out = td.fit_to_window(x)
    assert len(out) == 512
    assert np.array_equal(out.values, np.arange(1, 1024, 2))
    assert out.values[-1] == 1023.0


def test_fit_to_window_short_left_pads():
    x = td.Series(values=np.arange(1, 101, dtype=np.float32))
    out = td.fit_to_window(x)
    assert len(out) == 512
    assert np.all(out.values[:412] == 0) and not out.observed[:412].any()
    assert np.array_equal(out.values[412:], np.arange(1, 101))


def test_fit_to_window_keeps_most_recent_for_any_length():
    for n in (513, 777, 1000, 1025, 2048, 4999):
        out = td.fit_to_window(_ramp(n))
        assert len(out) == 512
        assert out.values[-1] == n - 1
        kept = out.values[out.observed]
        assert np.all(np.diff(kept) > 0)  # order preserved


def test_fit_to_window_carries_anomalies():
    anom = np.zeros(1024, dtype=int)
    anom[1023] = 1
    out = td.fit_to_window(_ramp(1024, anomalies=anom))
    assert out.anomalies[-1]
    assert out.anomalies.sum() == 1


def test_fit_to_window_empty_raises():
    with pytest.raises(ShapeError):
        td.fit_to_window(td.Series(values=np.zeros(0, dtype=np.float32)))


def test_fit_windows_stacks_fitted_series_and_refuses_none():
    series = [_ramp(300), _ramp(512), _ramp(1024)]
    values, observed = td.fit_windows(series, 512)
    assert values.shape == observed.shape == (3, 512)
    for row, s in enumerate(series):
        one = td.fit_to_window(s, 512)
        assert np.array_equal(values[row], one.values)
        assert np.array_equal(observed[row], one.observed)
    with pytest.raises(EmptySeriesError):
        td.fit_windows([], 512)


def test_downsample_identity_at_threshold():
    x = _ramp(2560)
    assert td.downsample(x) is x


def test_downsample_long_series():
    out = td.downsample(_ramp(5000))
    assert len(out) == 500
    assert np.array_equal(out.values, np.arange(0, 5000, 10))


def test_downsample_anomaly_survives_via_or():
    anom = np.zeros(5000, dtype=int)
    anom[15] = 1  # inside the second block, at a dropped offset
    out = td.downsample(_ramp(5000, anomalies=anom))
    assert out.anomalies[1]
    assert out.anomalies.sum() == 1


# ------------------------------------------------------------------ synthesis


def test_synth_sine_frequency_c1_is_one_cycle():
    s = td.synth_sine("frequency", 1, noise=0.0)
    assert len(s) == 512
    assert np.isclose(np.max(np.abs(s.values)), 1.0, atol=1e-6)
    assert np.isclose(s.values[128], 1.0, atol=1e-6)  # quarter period peak


def test_synth_sine_baseline_mean_equals_c():
    s = td.synth_sine("baseline", 5, noise=0.0)
    assert abs(float(s.values.mean()) - 5.0) <= 1e-6


def test_synth_sine_seeded_noise_is_reproducible():
    a = td.synth_sine("frequency", 4, noise=0.1, seed=3)
    b = td.synth_sine("frequency", 4, noise=0.1, seed=3)
    c = td.synth_sine("frequency", 4, noise=0.1, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_synth_sine_formulas_match_manual():
    t = np.arange(512) / 512.0
    checks = {
        "trend": (2.0, t**2.0),
        "amplitude": (3.0, 3.0 * np.sin(2 * np.pi * 8 * t)),
        "frequency": (4.0, np.sin(2 * np.pi * 4 * t)),
        "phase": (1.5, np.sin(2 * np.pi * 8 * t + 1.5)),
    }
    for kind, (c, expected) in checks.items():
        s = td.synth_sine(kind, c, noise=0.0)
        assert np.allclose(s.values, expected, atol=1e-6), kind


def test_synth_sine_unknown_kind():
    with pytest.raises(ConfigError):
        td.synth_sine("square", 1.0)
