"""Dataset handling: the Series record, CSV ingestion, deterministic splits,
window fitting, long-series downsampling, and synthetic sinusoid generators."""

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptySeriesError, ParseError, ShapeError
from .model import left_pad

# ------------------------------------------------------------------ record


@dataclass
class Series:
    """A univariate series with an observation mask and optional metadata.

    Every observed value must be finite (else ParseError naming the series
    and the first bad index); values under unobserved steps are not checked.
    """

    values: np.ndarray
    observed: np.ndarray = None
    name: str = ""
    freq: str = None
    label: object = None
    anomalies: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 1:
            raise ShapeError(f"series values must be 1-D, got shape {self.values.shape}")
        if self.observed is None:
            self.observed = np.ones(len(self.values), dtype=bool)
        else:
            self.observed = np.asarray(self.observed).astype(bool)
        if self.observed.shape != self.values.shape:
            raise ShapeError(
                f"observed mask length {self.observed.shape} != values {self.values.shape}"
            )
        bad = self.observed & ~np.isfinite(self.values)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParseError(
                f"series {self.name!r}: observed value at index {i} is "
                f"{float(self.values[i])!r}, not a finite float32"
            )
        if self.anomalies is not None:
            raw = np.asarray(self.anomalies)
            if not np.isin(raw, (0, 1)).all():
                raise ShapeError("anomaly labels must be binary")
            self.anomalies = raw.astype(bool)
            if self.anomalies.shape != self.values.shape:
                raise ShapeError(
                    f"anomaly labels length {self.anomalies.shape} != values "
                    f"{self.values.shape}"
                )

    def __len__(self):
        return len(self.values)

    def slice(self, start, stop):
        """Contiguous sub-series keeping metadata; labels are sliced along."""
        return replace(
            self,
            values=self.values[start:stop],
            observed=self.observed[start:stop],
            anomalies=None if self.anomalies is None else self.anomalies[start:stop],
        )


@dataclass
class SplitSpec:
    """Train/val/test fractions with the shared shuffle seed."""

    fractions: tuple = (0.6, 0.1, 0.3)
    seed: int = 13
    mode: str = "horizontal"

    def __post_init__(self):
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ConfigError(f"need three non-negative fractions, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"fractions must sum to 1, got {self.fractions}")
        if self.mode not in ("horizontal", "by_series"):
            raise ConfigError(f"unknown split mode {self.mode!r}")


# ------------------------------------------------------------------ csv i/o


def load_csv(path):
    """Read a header + one-row-per-timestep CSV into one Series per column.

    Empty fields are missing values (observed=0, value 0.0). Ragged rows,
    non-numeric cells and cells that are not finite in float32 (nan, inf,
    1e39) raise ParseError naming the offending line (1-based, counting the
    header as line 1); a non-finite cell also names its column. A leading
    UTF-8 byte-order mark is dropped.

    The body is parsed by np.loadtxt in one C-level pass. A body it
    refuses, or might read differently from csv and float() (an empty or
    whitespace-only cell, a quote, a blank line, a token such as `1_000`, a
    non-finite value), is parsed again row by row, and only that parser
    raises ParseError for it.
    """
    if not os.path.exists(path):
        raise ParseError(f"csv file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            body = fh.read()
        names = [h.strip() for h in header]
        parsed = _parse_body(body, len(names))
        values, observed = parsed if parsed is not None else _parse_rows(path, body, names)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from None
    return [
        Series(values=v, observed=o, name=name)
        for name, v, o in zip(names, values, observed)
    ]


def _unreadable(path, exc):
    """The ParseError for bytes that are not UTF-8 or a row the csv module
    refuses (a field over its 131,072-character limit)."""
    if isinstance(exc, UnicodeDecodeError):
        return ParseError(f"{path}: not UTF-8 text ({exc.reason})")
    return ParseError(f"{path}: unreadable csv ({exc})")


def _parse_body(body, width):
    """(values [width, T] float32, observed [width, T]) of a CSV body in one
    np.loadtxt pass, or None for any body the row-by-row parser might read
    otherwise."""
    if not body.strip() or not body.isascii():
        return None
    if "\r" in body:
        body = body.replace("\r\n", "\n")
        if "\r" in body:
            return None
    try:
        table = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                           dtype=np.float64, ndmin=2)
    except ValueError:  # an empty cell, a ragged row, a quote, a token it does not read
        return None
    # loadtxt skips a blank line
    rows = body.count("\n") + (not body.endswith("\n"))
    if table.shape != (rows, width):
        return None
    with np.errstate(over="ignore"):
        values = table.T.astype(np.float32, order="C")
    if not np.isfinite(values).all():
        return None
    return values, np.ones(values.shape, dtype=bool)


def _file_lines(text):
    r"""The lines a file opened with newline="" yields for `text`, each ended
    by \r\n, \r or \n. str.splitlines also breaks at \v, \f, \x1c-\x1e,
    \x85, \u2028 and \u2029, so a piece ended by one of those is joined to
    the next."""
    line = ""
    for piece in text.splitlines(keepends=True):
        line += piece
        if piece[-1] in "\r\n":
            yield line
            line = ""
    if line:
        yield line


def _parse_rows(path, body, names):
    """(values, observed) of a CSV body, one csv row and one float() at a
    time; the body starts on line 2."""
    columns = [[] for _ in names]
    masks = [[] for _ in names]
    for lineno, row in enumerate(csv.reader(_file_lines(body)), start=2):
        if not row:
            row = [""] * len(names)  # a blank line is a fully missing row
        if len(row) != len(names):
            raise ParseError(
                f"{path} line {lineno}: expected {len(names)} fields, got {len(row)}"
            )
        for j, cell in enumerate(row):
            token = cell.strip()
            if token == "":
                columns[j].append(0.0)
                masks[j].append(False)
                continue
            try:
                columns[j].append(float(token))
            except ValueError:
                raise ParseError(
                    f"{path} line {lineno}: could not parse {token!r} as a number"
                ) from None
            masks[j].append(True)
    if not columns or not columns[0]:
        raise ParseError(f"{path}: no data rows")
    with np.errstate(over="ignore"):  # beyond float32 range becomes inf, refused below
        values = np.array(columns, dtype=np.float32)
    observed = np.array(masks)
    bad = observed & ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        raise ParseError(
            f"{path} line {row + 2}, column {col + 1} {names[col]!r}: "
            f"{columns[col][row]!r} is not a finite float32"
        )
    return values, observed


def save_csv(path, collection):
    """Write equal-length series as CSV columns; unobserved cells go out empty."""
    if not collection:
        raise ShapeError("nothing to save")
    length = len(collection[0])
    if any(len(s) != length for s in collection):
        raise ShapeError("all series in one csv must have equal length")
    columns = []
    for s in collection:
        cells = list(map(repr, s.values.tolist()))
        for t in np.flatnonzero(~s.observed).tolist():
            cells[t] = ""
        columns.append(cells)
    # the bytes csv.writer would write: no cell needs quoting except a lone
    # empty field, which it writes as "" to tell it from a blank line
    rows = columns[0] if len(columns) == 1 else map(",".join, zip(*columns))
    body = "".join((row or '""') + "\r\n" for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([s.name for s in collection])
        fh.write(body)
    return path


def _csv_rows(path, kind):
    """(line number, row) of each row of a UTF-8 csv file with a cell that is
    not blank; such a row must not start with a blank cell."""
    if not os.path.exists(path):
        raise ParseError(f"{kind} file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if "".join(row).strip():
                    if not row[0].strip():
                        raise ParseError(f"{path} line {lineno}: blank first cell")
                    yield lineno, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from None


def load_labels(path, n_expected=None):
    """Read `<name>.labels.csv`: one 0 or 1 per row, aligned to csv data rows.
    A file whose every line is a bare 0 or 1 is read in one NumPy pass; any
    other goes through the row parser, which alone raises ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    except OSError:
        raw = b""
    b = np.frombuffer(raw, dtype=np.uint8)
    # bare lines: a 0 or 1 at every even byte and a "\n" at every odd one
    if b.size and (b[1::2] == ord("\n")).all() and np.isin(b[::2], tuple(b"01")).all():
        arr = b[::2] == ord("1")
    else:
        labels = []
        for lineno, row in _csv_rows(path, "labels"):
            token = ",".join(row).strip()
            if token not in ("0", "1"):
                raise ParseError(f"{path} line {lineno}: labels must be 0 or 1, got {token!r}")
            labels.append(token == "1")
        arr = np.array(labels, dtype=bool)
    if n_expected is not None and len(arr) != n_expected:
        raise ParseError(f"{path}: {len(arr)} labels for {n_expected} timesteps")
    return arr


def load_classes(path):
    """Read `<name>.classes.csv` rows of (series_name, class) into a dict. No
    cell may hold a control or format character (a NUL, a byte-order mark)."""
    mapping = {}
    for lineno, row in _csv_rows(path, "classes"):
        if len(row) != 2:
            raise ParseError(f"{path} line {lineno}: expected series_name,class")
        name, cls = row[0].strip(), row[1].strip()
        if not (name + cls).isprintable():
            raise ParseError(f"{path} line {lineno}: unprintable character in {name!r},{cls!r}")
        try:
            mapping[name] = int(cls)
        except ValueError:
            mapping[name] = cls
    return mapping


# ------------------------------------------------------------------ splits


def split_horizontal(x, spec=None):
    """Contiguous prefix/middle/suffix split; boundaries floor the cumulative
    fractions so the remainder lands in test."""
    spec = spec or SplitSpec()
    n = len(x)
    if n < 10:
        raise ShapeError(f"series too short to split horizontally: length {n}")
    f1, f2, _ = spec.fractions
    i1 = math.floor(f1 * n)
    i2 = math.floor((f1 + f2) * n)
    return x.slice(0, i1), x.slice(i1, i2), x.slice(i2, n)


def split_by_series(collection, spec=None):
    """Seeded uniform shuffle, then whole series go 60/10/30 by count."""
    spec = spec or SplitSpec(mode="by_series")
    n = len(collection)
    if n < 3:
        raise ShapeError(f"need at least 3 series to split, got {n}")
    order = np.random.default_rng(spec.seed).permutation(n)
    f1, f2, _ = spec.fractions
    i1 = math.floor(f1 * n)
    i2 = math.floor((f1 + f2) * n)
    train = [collection[i] for i in order[:i1]]
    val = [collection[i] for i in order[i1:i2]]
    test = [collection[i] for i in order[i2:]]
    return train, val, test


# ------------------------------------------------------------------ windowing


def fit_to_window(x, window=512):
    """Resize a series to exactly `window` steps.

    Longer inputs are sub-sampled at stride ceil(L/window) counting back from
    the final element (so the most recent observation stays last), shorter
    ones are left-padded with unobserved zeros.
    """
    n = len(x)
    if n == 0:
        raise ShapeError("cannot window an empty series")
    if n > window:
        stride = math.ceil(n / window)
        idx = np.arange(n - 1, -1, -stride)[::-1]
        idx = idx[-window:]
        x = replace(
            x,
            values=x.values[idx],
            observed=x.observed[idx],
            anomalies=None if x.anomalies is None else x.anomalies[idx],
        )
        n = len(x)
    if n < window:
        values, observed = left_pad(x.values, window, x.observed)
        anomalies = None
        if x.anomalies is not None:
            anomalies = np.concatenate(
                [np.zeros(window - n, dtype=bool), x.anomalies]
            )
        x = replace(x, values=values, observed=observed, anomalies=anomalies)
    return x


def fit_windows(collection, window=512):
    """fit_to_window every series; returns stacked (values [B,window],
    observed [B,window])."""
    if len(collection) == 0:
        raise EmptySeriesError("cannot window an empty collection")
    fitted = [fit_to_window(s, window) for s in collection]
    return np.stack([f.values for f in fitted]), np.stack([f.observed for f in fitted])


def downsample(x, threshold=2560, factor=10):
    """Keep every factor-th point of very long series; anomaly labels survive
    by logical-OR over each dropped group."""
    n = len(x)
    if n <= threshold:
        return x
    idx = np.arange(0, n, factor)
    anomalies = None
    if x.anomalies is not None:
        groups = [x.anomalies[i:i + factor].any() for i in idx]
        anomalies = np.array(groups, dtype=bool)
    return replace(
        x,
        values=x.values[idx],
        observed=x.observed[idx],
        anomalies=anomalies,
    )


# ------------------------------------------------------------------ synthesis

SINE_KINDS = ("trend", "amplitude", "frequency", "baseline", "phase")


def synth_sine(kind, c, length=512, noise=0.1, seed=0, name=None):
    """Synthetic probe series controlled by a single factor c.

    trend: (t/T)^c; amplitude: c*sin(2*pi*8*t/T); frequency: sin(2*pi*c*t/T);
    baseline: sin(2*pi*8*t/T)+c; phase: sin(2*pi*8*t/T+c). Additive noise is
    N(0, noise^2), drawn only when noise > 0 so noiseless output is exact.
    """
    t = np.arange(length, dtype=np.float64) / length
    if kind == "trend":
        base = t**c
    elif kind == "amplitude":
        base = c * np.sin(2 * np.pi * 8 * t)
    elif kind == "frequency":
        base = np.sin(2 * np.pi * c * t)
    elif kind == "baseline":
        base = np.sin(2 * np.pi * 8 * t) + c
    elif kind == "phase":
        base = np.sin(2 * np.pi * 8 * t + c)
    else:
        raise ConfigError(f"unknown sine kind {kind!r}; choose from {SINE_KINDS}")
    if noise > 0:
        base = base + np.random.default_rng(seed).normal(0.0, noise, size=length)
    return Series(
        values=base.astype(np.float32),
        name=name if name is not None else f"{kind}_c{c:g}_s{seed}",
    )
