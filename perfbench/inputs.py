"""Seeded input generators: every CSV, label and class file a workload reads.

The program under test sees only these files (and checkpoints it writes
itself), so the same seed always gives the same inputs. Only NumPy is used.
"""

import os

import numpy as np

WINDOW = 512  # the encoder window of every named config


def mixed_series(rng, n, length):
    """[n, length] mix: 1-3 sinusoids with level, trend and noise, and every
    fourth row an AR(1) walk, as in the pre-training corpora of the paper."""
    t = np.arange(length) / WINDOW
    out = np.empty((n, length))
    for i in range(n):
        if i % 4 == 3:
            eps = rng.normal(scale=1.0, size=length)
            x = np.empty(length)
            x[0] = eps[0] / np.sqrt(1.0 - 0.81)
            for k in range(1, length):
                x[k] = 0.9 * x[k - 1] + eps[k]
            out[i] = x
            continue
        x = rng.normal(scale=0.5) + rng.normal(scale=0.5) * t
        for _ in range(rng.integers(1, 4)):
            freq = rng.choice((1, 2, 3, 4, 6, 8, 12, 16, 24, 32))
            x = x + rng.uniform(0.5, 2.0) * np.sin(
                2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        out[i] = x + rng.normal(scale=0.1, size=length)
    return out


def write_columns(path, names, rows):
    """One CSV with a header of series names and one row per timestep."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, np.asarray(rows).T, fmt="%.6f", delimiter=",")
    return path


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def series_dir(path, prefix, matrix, per_file=32):
    """A directory of CSVs holding the rows of `matrix`, `per_file` columns
    each; returns the series names in the order the CLI reads them."""
    os.makedirs(path, exist_ok=True)
    names = [f"{prefix}{i:04d}" for i in range(len(matrix))]
    for f, lo in enumerate(range(0, len(matrix), per_file)):
        write_columns(os.path.join(path, f"part{f:02d}.csv"),
                      names[lo:lo + per_file], matrix[lo:lo + per_file])
    return names


def segments(rng, length, count, lo, hi):
    """Binary labels with `count` disjoint runs of length lo..hi."""
    labels = np.zeros(length, dtype=bool)
    slots = rng.choice(np.arange(1, length // hi - 1), size=count, replace=False)
    for s in slots:
        start = s * hi + rng.integers(0, hi // 2)
        labels[start:start + rng.integers(lo, hi)] = True
    return labels


def labelled_series(rng, length):
    """A long series with injected spikes and level shifts, and its labels."""
    values = mixed_series(rng, 1, length)[0]
    labels = segments(rng, length, count=max(2, length // 600), lo=8, hi=48)
    values[labels] += rng.choice((-1.0, 1.0), size=labels.sum()) * rng.uniform(
        2.0, 4.0, size=labels.sum())
    return values, labels


def scored_points(rng, length):
    """Anomaly scores and labels: positives score higher, with overlap, and
    every score is distinct so each one is a threshold."""
    labels = segments(rng, length, count=max(2, length // 1000), lo=10, hi=80)
    scores = np.abs(rng.normal(size=length)) + 1.5 * labels * rng.uniform(size=length)
    return scores, labels


CLASS_FREQS = (1, 4, 16, 64)


def class_series(rng, n_per_class):
    """Four classes of noisy sinusoids that differ in frequency."""
    t = np.arange(WINDOW) / WINDOW
    rows, classes = [], []
    for cls, freq in enumerate(CLASS_FREQS):
        for _ in range(n_per_class):
            rows.append(rng.uniform(0.5, 2.0) * np.sin(
                2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
                + rng.normal(scale=0.1, size=WINDOW))
            classes.append(cls)
    return np.asarray(rows), classes


def class_set(root, prefix, rng, n_per_class):
    """A directory of series plus its `name,class` file."""
    rows, classes = class_series(rng, n_per_class)
    names = series_dir(os.path.join(root, prefix), prefix, rows)
    classes_path = write_lines(os.path.join(root, f"{prefix}.classes.csv"),
                               [f"{n},{c}" for n, c in zip(names, classes)])
    return os.path.join(root, prefix), classes_path, len(names)
