"""Ingest oracle: `data.load_csv` against a verbatim copy of the row-by-row
parser it keeps for the files its one-pass parse refuses, over seeded
well-formed and malformed files; and the CSV half of the CLI fuzz (exit code 1, one `error:` line,
no traceback)."""

import csv
import functools
import os

import numpy as np
import pytest

from tinytsfm import data as td
from tinytsfm.cli import dispatch
from tinytsfm.errors import ParseError


# ------------------------------------------------------------------ references


def reference_load_csv(path):
    """The row-by-row parser as it was before the one-pass parse: one
    csv.reader row and one float() at a time."""
    if not os.path.exists(path):
        raise ParseError(f"csv file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        columns = [[] for _ in names]
        masks = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
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
    if not columns[0]:
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
    return [
        td.Series(values=v, observed=o, name=name)
        for name, v, o in zip(names, values, observed)
    ]


def outcome(loader, path):
    """What a loader makes of a file: its series or its ParseError text."""
    try:
        series = loader(path)
    except ParseError as exc:
        return str(exc)
    return ([s.name for s in series], np.stack([s.values for s in series]),
            np.stack([s.observed for s in series]))


def assert_same_outcome(path):
    got, want = outcome(td.load_csv, path), outcome(reference_load_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype == np.float32
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


# ------------------------------------------------------------------ generator

FORMATS = (
    lambda v: repr(float(v)),
    lambda v: f"{v:.6f}",
    lambda v: f"{v:.3e}",
    lambda v: f"{v:g}",
    lambda v: f"{v:+.4f}",
    lambda v: str(int(round(float(v)))),
)


@functools.lru_cache(maxsize=None)
def well_formed(seed, gaps=True):
    """The text of a seeded well-formed CSV.

    1-40 columns and 1-800 rows; with `gaps`, 0-30% empty cells, with one
    fully empty row and empty cells in the first and last columns (some
    files leave a whole first or last column empty); LF or CRLF endings,
    with or without a trailing newline; some quoted header names; cells in
    several number formats, some padded with spaces. A one-column file
    writes an empty cell as a blank line."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 41))
    rows = int(rng.integers(1, 801))
    scale = 10.0 ** int(rng.integers(-3, 5))
    values = (rng.normal(size=(rows, width)) * scale).astype(np.float32)
    values[rng.random(values.shape) < 0.02] = -0.0
    empty = rng.random(values.shape) < rng.uniform(0.0, 0.3)
    empty[int(rng.integers(rows))] = True
    empty[:, 0] |= rng.random(rows) < 0.2
    empty[:, -1] |= rng.random(rows) < 0.2
    if width > 1 and rng.random() < 0.3:
        empty[:, 0] = True
    if width > 1 and rng.random() < 0.3:
        empty[:, -1] = True
    if not gaps:
        empty[:] = False
    mixed = rng.random() < 0.3
    fmt = FORMATS[int(rng.integers(len(FORMATS)))]
    pad = rng.random() < 0.2

    def cell(i, j):
        if empty[i, j]:
            return ""
        f = FORMATS[int(rng.integers(len(FORMATS)))] if mixed else fmt
        text = f(values[i, j])
        return f" {text} " if pad and rng.random() < 0.3 else text

    names = []
    for j in range(width):
        kind = rng.integers(4)
        names.append(f'"q,{j}"' if kind == 0 else f'"x""{j}"' if kind == 1
                     else f" p{j} " if kind == 2 else f"c{j}")
    lines = [",".join(names)]
    lines += [",".join(cell(i, j) for j in range(width)) for i in range(rows)]
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    return eol.join(lines) + (eol if rng.random() < 0.7 else "")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


WELL_FORMED_SEEDS = range(48)


@pytest.mark.parametrize("gaps", (False, True))
@pytest.mark.parametrize("seed", WELL_FORMED_SEEDS)
def test_load_csv_matches_row_parser_on_well_formed_files(tmp_path, seed, gaps):
    text = well_formed(seed, gaps)
    assert_same_outcome(write(tmp_path, "wf.csv", text))


def test_gap_free_files_take_the_one_pass_parse(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("row-by-row parser reached")

    monkeypatch.setattr(td, "_parse_rows", refuse)
    for seed in WELL_FORMED_SEEDS:
        text = well_formed(seed, gaps=False)
        series = td.load_csv(write(tmp_path, f"wf{seed}.csv", text))
        assert series[0].values.flags.c_contiguous


# ------------------------------------------------------------------ odd files

# (name, text): files the one-pass parse refuses. Some are well-formed to
# the row-by-row parser (a blank line is a fully missing row; float()
# reads 1_000), the rest are errors whose text must not change.
ODD_FILES = [
    ("ragged", "a,b\n1,2\n3\n4,5\n"),
    ("ragged_wide", "a,b\n1,2\n3,4,5\n"),
    ("blank_line", "a,b\n1,2\n\n3,4\n"),
    ("leading_blank_line", "a,b\n\n1,2\n"),
    ("trailing_blank_lines", "a,b\n1,2\n\n\n"),
    ("whitespace_cell", "a,b\n1, \n3,4\n"),
    ("whitespace_line", "a\n1\n  \n3\n"),
    ("underscore", "a,b\n1_000,2\n"),
    ("arabic_indic_digits", "a,b\n\u0661\u0662,2\n"),
    ("nbsp_padding", "a,b\n1\u00a0,2\n"),
    ("nan", "a,b\n1,2\nnan,4\n"),
    ("neg_infinity", "a,b\n1,-Infinity\n"),
    ("inf_upper", "a,b\n1,INF\n"),
    ("overflow", "a,b\n1,2\n1e39,4\n"),
    ("overflow_double", "a,b\n1e999,2\n"),
    ("nan_in_gap_file", "a,b\n,2\n3,nan\n"),
    ("quoted_cell", 'a,b\n"1.5",2\n'),
    ("quoted_newline", 'a,b\n"1\n2",3\n'),
    ("header_only", "a,b\n"),
    ("header_only_no_newline", "a,b"),
    ("empty", ""),
    ("word", "a\n1\nounce\n"),
    ("hex", "a\n0x10\n"),
    ("comment", "a\n1 # note\n"),
    ("lone_cr", "a,b\r1,2\r3,4\r"),
    ("lone_cr_in_body", "a,b\n1,2\r3,4\n"),
    ("cr_at_end", "a,b\n1,2\n3,4\r"),
    ("semicolons", "a;b\n1;2\n"),
    # line breaks to str.splitlines but not to a file opened with newline=""
    ("unicode_line_breaks",
     "a,b\n1\u2028,2\n3,4\x85\n\x0b5,\x0c6\r\n7,\x1c8\n\x1d9,\u202910\x1e\r"),
]

# Odd files the one-pass parse reads itself, as the row-by-row parser does.
ONE_PASS_ODD_FILES = [
    ("blank_line_one_column", "a\n1\n\n3\n"),
    ("tab_padding", "a,b\n\t1,2\t\n"),
    ("header_lone_cr", "a,b\r1,2\n3,4\n"),
    ("multiline_header", 'a,"b\nc"\n1,2\n'),
    ("quoted_header", '"a,1","b""2"\n1,2\n'),
    ("bom_free_unicode_header", "\u00e9t\u00e9,b\n1,2\n"),
]


@pytest.mark.parametrize("name, text", ODD_FILES + ONE_PASS_ODD_FILES,
                         ids=[n for n, _ in ODD_FILES + ONE_PASS_ODD_FILES])
def test_load_csv_matches_row_parser_on_odd_files(tmp_path, name, text):
    assert_same_outcome(write(tmp_path, f"{name}.csv", text))


@pytest.mark.parametrize("name, text", [f for f in ODD_FILES if f[1]],
                         ids=[n for n, t in ODD_FILES if t])
def test_odd_files_reach_the_row_parser(tmp_path, monkeypatch, name, text):
    calls = []
    parse_rows = td._parse_rows

    def spy(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(td, "_parse_rows", spy)
    try:
        td.load_csv(write(tmp_path, f"{name}.csv", text))
    except ParseError:
        pass
    assert len(calls) == 1


def test_every_ascii_character_parses_as_the_row_parser_does(tmp_path):
    for code in range(128):
        c = chr(code)
        for i, body in enumerate((f"1{c},2\n3,4\n", f"{c}1,2\n", f"1,{c}\n", f"1,2{c}",
                                  f"5,6\n{c}\n7,8\n", f",{c}2.5\n")):
            assert_same_outcome(write(tmp_path, f"c{code}_{i}.csv", "a,b\n" + body))


def test_blank_header_is_a_parse_error(tmp_path):
    # the row-by-row parser's no-data check indexed its first column
    for text in ("\n", "\n\n", "\r\n"):
        with pytest.raises(ParseError, match="no data rows"):
            td.load_csv(write(tmp_path, "blank.csv", text))


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n\xff,3\n")
    with pytest.raises(ParseError, match=r"\.csv: not UTF-8 text \(invalid "):
        td.load_csv(str(path))
    labels = tmp_path / "x.labels.csv"
    labels.write_bytes(b"0\n\xe9\n")
    with pytest.raises(ParseError, match=r"\.csv: not UTF-8 text \(invalid "):
        td.load_labels(str(labels))
    classes = tmp_path / "x.classes.csv"
    classes.write_bytes(b"s1,0\ns\xe92,1\n")
    with pytest.raises(ParseError, match=r"\.csv: not UTF-8 text \(invalid "):
        td.load_classes(str(classes))


MUTATIONS = (
    lambda rng, s, i: s[:i] + "," + s[i:],
    lambda rng, s, i: s[:i] + s[i + 1:],
    lambda rng, s, i: s[:i] + str(rng.choice(["x", "nan", "inf", "1e40", '"', "\n",
                                               "\r", " ", "_", "--", "..", "e"])) + s[i:],
    lambda rng, s, i: s[:i] + "\n" + s[i:],
    lambda rng, s, i: s[:i],
)


@functools.lru_cache(maxsize=None)
def mutated(seed):
    """A small well-formed file (gap-free for odd seeds) with one seeded
    corruption."""
    rng = np.random.default_rng(1000 + seed)
    text = well_formed(seed, gaps=seed % 2 == 0)
    lines = text.splitlines(keepends=True)[:int(rng.integers(2, 40))]
    text = "".join(lines)
    head = len(lines[0])
    i = int(rng.integers(head, len(text))) if len(text) > head else head
    return MUTATIONS[int(rng.integers(len(MUTATIONS)))](rng, text, i)


@pytest.mark.parametrize("seed", range(64))
def test_load_csv_matches_row_parser_on_mutated_files(tmp_path, seed):
    assert_same_outcome(write(tmp_path, "m.csv", mutated(seed)))


# ------------------------------------------------------------------ labels


def reference_load_labels(path):
    """The row parser alone, as load_labels read every file before its
    one-pass read of bare 0 and 1 lines."""
    labels = []
    for lineno, row in td._csv_rows(path, "labels"):
        token = ",".join(row).strip()
        if token not in ("0", "1"):
            raise ParseError(f"{path} line {lineno}: labels must be 0 or 1, got {token!r}")
        labels.append(token == "1")
    return np.array(labels, dtype=bool)


def label_outcome(loader, path):
    """What a label loader makes of a file: its array or its ParseError text."""
    try:
        return loader(path)
    except ParseError as exc:
        return str(exc)


def assert_same_labels(path):
    got, want = (label_outcome(f, path) for f in (td.load_labels, reference_load_labels))
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want) and got.dtype == want.dtype == bool


LABEL_FILES = {
    "bare": b"0\n1\n1\n0\n",
    "no_final_newline": b"1\n0\n1",
    "one": b"1",
    "bom": b"\xef\xbb\xbf0\n1\n",
    "two_boms": b"\xef\xbb\xbf\xef\xbb\xbf0\n",
    "crlf": b"0\r\n1\r\n",
    "cr": b"0\r1\r",
    "blank_line": b"0\n\n1\n",
    "two_final_newlines": b"0\n1\n\n",
    "leading_newline": b"\n0\n1",
    "empty": b"",
    "newline": b"\n",
    "spaces": b" 0\n1 \n",
    "quoted": b'"1"\n0\n',
    "two_digits": b"10\n",
    "form_feed": b"0\x0c1\n",
    "tab": b"0\t1\n",
    "bad_token": b"0\n2\n",
    "nul": b"0\n\x00\n",
    "undecodable": b"0\n\xe9\n",
    "missing": None,
}


@pytest.mark.parametrize("name", sorted(LABEL_FILES))
def test_load_labels_matches_row_parser(tmp_path, name):
    path = tmp_path / "x.labels.csv"
    if LABEL_FILES[name] is not None:
        path.write_bytes(LABEL_FILES[name])
    assert_same_labels(str(path))


def test_load_labels_matches_row_parser_on_random_files(tmp_path):
    rng = np.random.default_rng(7)
    alphabet = [b"0", b"1", b"\n", b"\r", b" ", b",", b"\xef\xbb\xbf", b"2"]
    for i in range(300):
        picks = rng.choice(len(alphabet), size=int(rng.integers(0, 12)),
                           p=[0.3, 0.3, 0.25, 0.03, 0.03, 0.03, 0.03, 0.03])
        path = tmp_path / f"r{i}.labels.csv"
        path.write_bytes(b"".join(alphabet[k] for k in picks))
        assert_same_labels(str(path))


def test_bare_label_files_take_the_one_pass_read(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("row parser reached")

    monkeypatch.setattr(td, "_csv_rows", refuse)
    for text, want in ((b"0\n1\n", [0, 1]), (b"1", [1]), (b"\xef\xbb\xbf1\n0", [1, 0]),
                       (b"0\n1\n1\n" * 2000, [0, 1, 1] * 2000)):
        path = tmp_path / "x.labels.csv"
        path.write_bytes(text)
        assert np.array_equal(td.load_labels(str(path)), np.array(want, dtype=bool))


def test_load_labels_counts_blank_lines_in_line_numbers(tmp_path):
    path = write(tmp_path, "x.labels.csv", "0\n\n1\n\n\n2\n")
    with pytest.raises(ParseError, match=r"line 6: labels must be 0 or 1, got '2'"):
        td.load_labels(path)


@pytest.mark.parametrize("loader, text, line", [
    (td.load_labels, "0\n,1\n1\n", 2),
    (td.load_labels, "0\n1\n ,0,\n", 3),
    (td.load_classes, "s1,1\n,2\ns2,3\n", 2),
    (td.load_classes, "s1,1\ns2,3\n  ,x\n", 3),
], ids=["labels", "labels_last", "classes", "classes_last"])
def test_row_with_blank_first_cell_is_a_parse_error(tmp_path, loader, text, line):
    # not a blank row: skipping it would drop a label or a class
    with pytest.raises(ParseError, match=rf"x\.csv line {line}: "):
        loader(write(tmp_path, "x.csv", text))


def test_rows_of_blank_cells_are_skipped(tmp_path):
    path = write(tmp_path, "x.labels.csv", "0\n,\n \n\n , \n1\n")
    assert np.array_equal(td.load_labels(path), [False, True])
    path = write(tmp_path, "x.classes.csv", "s1,1\n,,\n\ns2,3\n")
    assert td.load_classes(path) == {"s1": 1, "s2": 3}


BIG = "x" * 200_000  # over the csv module's 131,072-character field limit


@pytest.mark.parametrize("loader, text", [
    (td.load_csv, f"{BIG}\n1\n"),
    (td.load_csv, f"a\n1\n\"{BIG}\"\n"),
    (td.load_labels, f"0\n{BIG}\n"),
    (td.load_classes, f"s1,{BIG}\n"),
], ids=["csv_header", "csv_body", "labels", "classes"])
def test_oversized_field_is_a_parse_error(tmp_path, loader, text):
    with pytest.raises(ParseError, match=r"big\.csv: .*field larger than field limit"):
        loader(write(tmp_path, "big.csv", text))


# ------------------------------------------------------------------ CLI fuzz


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    data = root / "data.csv"
    t = np.arange(512)
    td.save_csv(str(data), [td.Series(values=np.sin(2 * np.pi * k * t / 512), name=f"s{k}")
                            for k in (2, 4)])
    out = str(root / "pre")
    assert dispatch(["pretrain", "--config", "tiny", "--data", str(data), "--out", out,
                     "--steps", "1", "--batch-size", "2", "--seed", "3"]) == 0
    return os.path.join(out, "checkpoint.json")


def test_malformed_csv_exits_one_with_one_line_error(tmp_path, checkpoint, capsys):
    # every odd or mutated file the row-by-row parser refuses
    refused = 0
    for name, text in ODD_FILES + [(f"mutated{seed}", mutated(seed)) for seed in range(64)]:
        path = write(tmp_path, f"{name}.csv", text)
        try:
            reference_load_csv(path)
            continue
        except ParseError as exc:
            message = str(exc)
        refused += 1
        for argv in (["forecast", "--ckpt", checkpoint, "--data", path],
                     ["pretrain", "--config", "tiny", "--data", path, "--steps", "1"]):
            code = dispatch(argv + ["--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1, (name, argv[0])
            assert err == f"error: {message}\n", (name, argv[0])
    assert refused >= 60
