"""The three workloads: what each sets up, what one pass runs, and how each
operation's output is checked.

A pass is the workload's unit of user-visible work: the pre-training recipe
(`pretrain`) or the evaluation suite (`evaluate`). Every op drives a public
entry point in-process:
`tinytsfm.cli.dispatch` for CLI commands, `MaskedSeriesModel` methods for
library calls. Names are looked up on their modules at call time so the
tracer's wrappers are the ones called.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import inputs

import tinytsfm.cli
from tinytsfm.estimator import MaskedSeriesModel

HORIZON = 16
# Relative tolerance (plus 1e-9 absolute) when comparing a report metric
# with the value recorded for its seed in reference.json.
REFERENCE_RTOL = 1e-4
# Classification outcomes are discrete: a representation change far below
# any tolerance can flip one near-boundary series or a tied choice of C.
# Test accuracy may therefore differ from its reference by one test series;
# the validation accuracy and C are only checked to repeat exactly from pass
# to pass.
NOT_REFERENCED = {"classify.val_accuracy", "classify.best_c"}
# ROADMAP item 4's batch-invariance tolerance: an online forecast must agree
# with the CLI forecast of the same series this closely.
ONLINE_VS_CLI_TOL = 1e-6


class OpFailed(Exception):
    """An op ran but its output failed a check."""


def cli(*argv):
    """Run one CLI command in-process, raising OpFailed unless it exits 0."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = tinytsfm.cli.dispatch([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {sink.getvalue().strip()}")


def read_report(path):
    """The bytes of a report.json whose metrics are all finite, none an
    `error:` string."""
    with open(path, "rb") as fh:
        raw = fh.read()
    for key, value in json.loads(raw)["metrics"].items():
        if isinstance(value, str) and value.startswith("error"):
            raise OpFailed(f"{path}: metric {key} is {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise OpFailed(f"{path}: metric {key} is not finite")
    return raw


class Op:
    """One timed operation: `run()` does the work; outside the timer,
    `check()` reads its outcome with `read` and compares it with the first
    outcome of the run, which `summary` turns into reference values."""

    def __init__(self, name, metric, items, run, summary, read=lambda x: x):
        self.name = name
        self.metric = metric        # name of the per-op rate figure
        self.items = items          # work per call, in the metric's unit
        self.run = run
        self.summary = summary      # first outcome -> reference values
        self.read = read
        self.first = None

    def check(self, outcome):
        outcome = self.read(outcome)
        if self.first is None:
            self.first = outcome
        elif not _same(outcome, self.first):
            raise OpFailed(f"{self.name}: output differs from the first pass")


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def report_op(name, metric, items, argv, out_dir):
    """A CLI op whose outcome is its report.json and a digest of every file
    it wrote; reports carry no timestamps, so every pass must write the same
    bytes to every file."""

    def run():
        cli(*argv, "--out", out_dir)
        return out_dir

    def read(path):
        return {"report": read_report(os.path.join(path, "report.json")),
                "files": digest_tree(path)}

    def summary(outcome):
        metrics = json.loads(outcome["report"])["metrics"]
        return {f"{name}.{k}": v for k, v in metrics.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                and f"{name}.{k}" not in NOT_REFERENCED}

    return Op(name, metric, items, run, summary, read)


def make_checkpoint(work, seed):
    """The evaluate checkpoint: a short tiny pre-training run over a
    seeded 12-series corpus, as in the paper one checkpoint serves every task."""
    rng = np.random.default_rng([seed, 0])
    inputs.write_columns(os.path.join(work, "ckpt_corpus.csv"),
                         [f"c{i}" for i in range(12)],
                         inputs.mixed_series(rng, 12, inputs.WINDOW))
    # Relative paths, so the report (its paths and config hash) is the same
    # whichever directory the set-up runs in.
    with contextlib.chdir(work):
        cli("pretrain", "--config", "tiny", "--data", "ckpt_corpus.csv",
            "--out", "ckpt", "--steps", 40, "--batch-size", 12, "--seed", seed)
    return os.path.join(work, "ckpt", "checkpoint.json")


# ---------------------------------------------------------------- pretrain

TINY_STEPS = 50
SMALL_STEPS = 5
SMALL_SERIES = 256
FINETUNE_EPOCHS = 1


class Pretrain:
    """The write path: tape recording, backward and AdamW, in three phases."""

    name = "pretrain"

    def __init__(self, work, seed):
        self.work, self.seed = work, seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        w = self.work
        self.tiny = inputs.write_columns(
            os.path.join(w, "tiny.csv"), [f"t{i:02d}" for i in range(12)],
            inputs.mixed_series(rng, 12, inputs.WINDOW))
        self.small = os.path.join(w, "small")
        inputs.series_dir(self.small, "s",
                          inputs.mixed_series(rng, SMALL_SERIES, inputs.WINDOW))

    def ops(self):
        w, seed = self.work, self.seed
        out = {k: os.path.join(w, "out", k) for k in ("tiny", "small", "finetune")}
        return [
            # (a) the A4/A7 acceptance shape: tiny at effective batch 12
            report_op("tiny", "pretrain_tiny_samples_per_s", TINY_STEPS * 12,
                      ["pretrain", "--config", "tiny", "--data", self.tiny,
                       "--steps", TINY_STEPS, "--batch-size", 12, "--seed", seed],
                      out["tiny"]),
            # (b) the array-bound regime: small at batch 64
            report_op("small", "pretrain_small_samples_per_s", SMALL_STEPS * 64,
                      ["pretrain", "--config", "small", "--data", self.small,
                       "--steps", SMALL_STEPS, "--batch-size", 64, "--seed", seed],
                      out["small"]),
            # (c) a forecast head on (b)'s checkpoint with the encoder frozen
            report_op("finetune", "finetune_samples_per_s",
                      FINETUNE_EPOCHS * SMALL_SERIES,
                      ["finetune", "--ckpt",
                       os.path.join(out["small"], "checkpoint.json"),
                       "--data", self.small, "--head", "forecast",
                       "--horizon", HORIZON, "--epochs", FINETUNE_EPOCHS,
                       "--batch-size", 64, "--seed", seed],
                      out["finetune"]),
        ]


# ---------------------------------------------------------------- evaluate

FORECAST_SERIES = 128
FORECAST_LENGTH = 768
DETECT_FILES = 2
DETECT_LENGTH = 2400
EVAL_POINTS = 6000
# The SMO solver's work varies with the data from seed to seed, so one small
# set keeps its share of a pass (and of the pass's spread) modest.
CLASS_TRAIN, CLASS_TEST = 4, 3      # per class, four classes
# Absolute tolerances that replace REFERENCE_RTOL for discrete metrics.
REFERENCE_ATOL = {"classify.accuracy": 1 / (4 * CLASS_TEST) + 1e-9}
EMBED_SERIES = 256


class Evaluate:
    """The read path: one checkpoint serves every task command, no tape."""

    name = "evaluate"

    def __init__(self, work, seed):
        self.work, self.seed = work, seed

    def setup(self):
        w = self.work
        rng = np.random.default_rng([self.seed, 2])
        self.ckpt = make_checkpoint(w, self.seed)
        self.series = os.path.join(w, "series")
        inputs.series_dir(self.series, "f", inputs.mixed_series(
            rng, FORECAST_SERIES, FORECAST_LENGTH))
        self.detect = []
        for i in range(DETECT_FILES):
            values, labels = inputs.labelled_series(rng, DETECT_LENGTH)
            data = inputs.write_columns(os.path.join(w, f"detect{i}.csv"),
                                        [f"d{i}"], values[None])
            lab = inputs.write_lines(os.path.join(w, f"detect{i}.labels.csv"),
                                     [str(int(v)) for v in labels])
            self.detect.append((data, lab))
        scores, labels = inputs.scored_points(rng, EVAL_POINTS)
        self.scores = inputs.write_columns(os.path.join(w, "scores.csv"),
                                           ["score"], scores[None])
        self.score_labels = inputs.write_lines(
            os.path.join(w, "scores.labels.csv"), [str(int(v)) for v in labels])
        self.train = inputs.class_set(w, "train", rng, CLASS_TRAIN)
        self.test = inputs.class_set(w, "test", rng, CLASS_TEST)
        embed_dir = os.path.join(w, "embed")
        inputs.series_dir(embed_dir, "e", inputs.mixed_series(
            rng, EMBED_SERIES, inputs.WINDOW))
        self.collection = tinytsfm.cli.load_series_arg(embed_dir)
        self.model = MaskedSeriesModel.from_checkpoint(self.ckpt)
        loaded = tinytsfm.cli.load_series_arg(self.series)
        self.histories = [s.slice(0, len(s) - HORIZON) for s in loaded]
        self.truths = [s.values[len(s) - HORIZON:] for s in loaded]

    def ops(self):
        w, ckpt, seed = self.work, self.ckpt, self.seed
        out = lambda k: os.path.join(w, "out", k)
        ops = [
            report_op("forecast", "forecast_series_per_s", FORECAST_SERIES,
                      ["forecast", "--ckpt", ckpt, "--data", self.series,
                       "--horizon", HORIZON, "--workers", 1, "--seed", seed],
                      out("forecast")),
            report_op("impute", "impute_series_per_s", FORECAST_SERIES,
                      ["impute", "--ckpt", ckpt, "--data", self.series,
                       "--ratio", 0.25, "--workers", 1, "--seed", seed],
                      out("impute")),
        ]
        for i, (data, labels) in enumerate(self.detect):
            ops.append(report_op(
                f"detect{i}", "detect_points_per_s", DETECT_LENGTH,
                ["detect", "--ckpt", ckpt, "--data", data, "--labels", labels,
                 "--seed", seed], out(f"detect{i}")))
        ops.append(report_op(
            "eval", "eval_points_per_s", EVAL_POINTS,
            ["eval-metrics", "--scores", self.scores, "--labels",
             self.score_labels, "--seed", seed], out("eval")))
        (tr_dir, tr_cls, n_tr), (te_dir, te_cls, n_te) = self.train, self.test
        ops.append(report_op(
            "classify", "classify_series_per_s", n_tr + n_te,
            ["classify", "--ckpt", ckpt, "--train-data", tr_dir,
             "--train-classes", tr_cls, "--test-data", te_dir,
             "--test-classes", te_cls, "--seed", seed], out("classify")))

        def embed():
            reps = self.model.transform(self.collection)
            if reps.shape != (EMBED_SERIES, self.model.weights_.config.d_model) \
                    or not np.isfinite(reps).all():
                raise OpFailed(f"transform returned shape {reps.shape} or non-finite values")
            return reps

        ops.append(Op("embed", "embed_series_per_s", EMBED_SERIES, embed,
                      lambda r: {"embed.sum": float(r.sum(dtype=np.float64)),
                                 "embed.abs_sum": float(np.abs(r).sum(dtype=np.float64))}))
        self.latencies = []
        ops.append(Op("online", "online_series_per_s", FORECAST_SERIES, self.online,
                      lambda fc: {}))
        return ops

    def online(self):
        """A closed loop with one client: one `MaskedSeriesModel.forecast`
        call (zero-shot, batch 1) per forecast series, each timed alone."""
        out = []
        for history in self.histories:
            t0 = time.perf_counter()
            out.append(self.model.forecast(history, HORIZON).values)
            self.latencies.append(time.perf_counter() - t0)
        fc = np.stack(out)
        if fc.shape != (FORECAST_SERIES, HORIZON) or not np.isfinite(fc).all():
            raise OpFailed(f"online forecasts have shape {fc.shape} or non-finite values")
        return fc

    def versus_cli(self, ops):
        """Each online forecast must match the CLI `forecast` of the same
        series; compared through the per-series MSE its report holds."""
        by_name = {op.name: op for op in ops}
        rows = json.loads(by_name["forecast"].first["report"])["per_series"]
        worst = 0.0
        for row, fc, truth in zip(rows, by_name["online"].first, self.truths):
            mse = float(np.mean(np.square(truth.astype(np.float64) - fc)))
            worst = max(worst, abs(mse - row["mse"]) / max(1.0, abs(row["mse"])))
        if len(rows) != FORECAST_SERIES or worst > ONLINE_VS_CLI_TOL:
            raise OpFailed(f"online and CLI forecasts differ by {worst:.3g} "
                           f"(tolerance {ONLINE_VS_CLI_TOL})")


def digest_tree(root):
    """{relative path: sha256} of every file under `root`."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


WORKLOADS = {w.name: w for w in (Pretrain, Evaluate)}
