"""End-to-end tests for the batch CLI: exit codes, report shape, config
precedence, and per-command behavior."""

import copy
import csv
import dataclasses
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from tinytsfm import __version__
from tinytsfm import metrics as mx
from tinytsfm import model as tm
from tinytsfm import pretrain as tp
from tinytsfm.cli import (
    COMMAND_OPTIONS,
    REQUIRED,
    _forecast_split,
    _parser,
    config_hash,
    dispatch,
    resolve_run_config,
)
from tinytsfm.baselines import naive_forecast
from tinytsfm.data import Series, load_csv, save_csv
from tinytsfm.numcore import CHUNK
from tinytsfm.tasks import (
    ImputationSpec,
    apply_block_mask,
    zero_shot_impute,
    zero_shot_short_forecast,
)


def write_sines(path, n=3, length=512, freq=4, noise=0.05, seed=0, prefix="s"):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    cols = [
        Series(
            values=np.sin(2 * np.pi * freq * t / length + i)
            + noise * rng.standard_normal(length),
            name=f"{prefix}{i}",
        )
        for i in range(n)
    ]
    save_csv(path, cols)
    return path


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")
    return path


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A data CSV plus a checkpoint from a 2-step pretraining run."""
    root = tmp_path_factory.mktemp("cli")
    data = write_sines(str(root / "data.csv"))
    out = str(root / "pre")
    code = dispatch([
        "pretrain", "--config", "tiny", "--data", data, "--out", out,
        "--steps", "2", "--batch-size", "2", "--seed", "7",
    ])
    assert code == 0
    return {"root": root, "data": data, "out": out,
            "ckpt": os.path.join(out, "checkpoint.json")}


# ---------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "pretrain" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert dispatch(["transmogrify"]) == 2
    assert capsys.readouterr().err != ""


def test_unknown_flag_exits_two(workdir, capsys):
    code = dispatch(["pretrain", "--data", workdir["data"], "--wat", "1"])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_two():
    assert dispatch([]) == 2


def test_missing_required_option_exits_one(tmp_path, capsys):
    code = dispatch(["pretrain", "--out", str(tmp_path)])
    assert code == 1
    assert "--data" in capsys.readouterr().err


def test_domain_error_exits_one(workdir, tmp_path, capsys):
    code = dispatch([
        "forecast", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
        "--out", str(tmp_path), "--horizon", "600",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_csv_cell_exits_one_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_sines(str(data), n=2)
    lines = data.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",1e39"
    data.write_text("\n".join(lines) + "\n")
    code = dispatch(["pretrain", "--data", str(data), "--out", str(tmp_path / "pre"),
                     "--steps", "1", "--batch-size", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(data) in err and "line 6" in err and "'s1'" in err


def test_module_entry_point_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # pytest's pythonpath setting reaches this process, not the subprocess
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tinytsfm.cli", "--help"],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert proc.returncode == 0
    assert "pretrain" in proc.stdout


# ---------------------------------------------------------------- report file


def test_pretrain_report_and_artifacts(workdir):
    rep = read_report(workdir["out"])
    assert rep["task"] == "pretrain"
    assert rep["dataset"] == workdir["data"]
    assert rep["seed"] == 7
    assert rep["version"] == f"v{__version__}"
    assert len(rep["config_hash"]) == 12
    assert rep["metrics"]["steps"] == 2
    assert np.isfinite(rep["metrics"]["final_loss"])
    for artifact in ("checkpoint.json", "checkpoint.json.bin", "trainlog.csv"):
        assert os.path.exists(os.path.join(workdir["out"], artifact))


def test_report_keys_are_sorted(workdir):
    raw = open(os.path.join(workdir["out"], "report.json"), encoding="utf-8").read()
    rep = json.loads(raw)
    assert list(rep) == sorted(rep)
    assert list(rep["metrics"]) == sorted(rep["metrics"])


def test_config_hash_tracks_config_content():
    a = config_hash({"command": "x", "seed": 1})
    b = config_hash({"command": "x", "seed": 2})
    c = config_hash({"seed": 1, "command": "x"})
    assert a != b
    assert a == c  # key order is canonicalized
    assert a == config_hash({"command": "x", "seed": 1, "workers": 3})


def test_identical_invocations_write_identical_reports(workdir, tmp_path):
    out = str(tmp_path / "ev")
    scores = str(tmp_path / "scores.csv")
    labels = str(tmp_path / "labels.csv")
    save_csv(scores, [Series(values=np.linspace(0, 1, 64), name="score")])
    lab = np.zeros(64, dtype=int)
    lab[50:60] = 1
    write_labels(labels, lab)
    argv = ["eval-metrics", "--scores", scores, "--labels", labels, "--out", out]
    assert dispatch(argv) == 0
    first = open(os.path.join(out, "report.json"), "rb").read()
    assert dispatch(argv) == 0
    second = open(os.path.join(out, "report.json"), "rb").read()
    assert first == second


# ------------------------------------------------------------------ run config


def test_seed_defaults_to_13(tmp_path, monkeypatch):
    monkeypatch.delenv("MOMENT_MINI_SEED", raising=False)
    out = str(tmp_path / "ev")
    scores = str(tmp_path / "s.csv")
    labels = str(tmp_path / "l.csv")
    save_csv(scores, [Series(values=np.arange(8.0), name="score")])
    write_labels(labels, [0, 0, 0, 0, 1, 1, 0, 0])
    assert dispatch(["eval-metrics", "--scores", scores, "--labels", labels,
                     "--out", out]) == 0
    assert read_report(out)["seed"] == 13


def test_env_seed_fallback_and_flag_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENT_MINI_SEED", "99")
    scores = str(tmp_path / "s.csv")
    labels = str(tmp_path / "l.csv")
    save_csv(scores, [Series(values=np.arange(8.0), name="score")])
    write_labels(labels, [0, 0, 0, 0, 1, 1, 0, 0])
    out_env = str(tmp_path / "env")
    assert dispatch(["eval-metrics", "--scores", scores, "--labels", labels,
                     "--out", out_env]) == 0
    assert read_report(out_env)["seed"] == 99
    out_flag = str(tmp_path / "flag")
    assert dispatch(["eval-metrics", "--scores", scores, "--labels", labels,
                     "--out", out_flag, "--seed", "5"]) == 0
    assert read_report(out_flag)["seed"] == 5


def test_bad_env_seed_is_a_domain_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MOMENT_MINI_SEED", "not-a-number")
    scores = str(tmp_path / "s.csv")
    labels = str(tmp_path / "l.csv")
    save_csv(scores, [Series(values=np.arange(4.0), name="score")])
    write_labels(labels, [0, 1, 0, 1])
    code = dispatch(["eval-metrics", "--scores", scores, "--labels", labels,
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "MOMENT_MINI_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "run-config", "env"])
def test_negative_seed_is_a_domain_error(workdir, tmp_path, monkeypatch, capsys, how):
    # pretrain printed default_rng's ValueError traceback
    monkeypatch.delenv("MOMENT_MINI_SEED", raising=False)
    out = tmp_path / "out"
    argv = ["pretrain", "--data", workdir["data"], "--out", str(out), "--steps", "1",
            "--batch-size", "2"]
    if how == "flag":
        argv += ["--seed", "-1"]
    elif how == "run-config":
        (tmp_path / "rc.json").write_text('{"seed": -1}')
        argv += ["--run-config", str(tmp_path / "rc.json")]
    else:
        monkeypatch.setenv("MOMENT_MINI_SEED", "-5")
    assert dispatch(argv) == 1
    assert "seed must be an int >= 0, got -" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--lr-init", "inf"), ("--lr-final", "nan")])
def test_non_finite_learning_rate_does_not_train(workdir, tmp_path, capsys, flag, value):
    # --lr-init inf exited 0 and wrote NaN weights that load_checkpoint refused
    out = tmp_path / "out"
    assert dispatch(["pretrain", "--data", workdir["data"], "--out", str(out),
                     "--steps", "2", "--batch-size", "2", flag, value]) == 1
    assert f"{flag[2:].replace('-', '_')} must be a finite float > 0" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


def test_flags_override_run_config_file(workdir, tmp_path):
    cfg_path = str(tmp_path / "rc.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": 5, "ratio": 0.5, "block_len": 4}, fh)
    out = str(tmp_path / "imp")
    code = dispatch([
        "impute", "--run-config", cfg_path, "--ckpt", workdir["ckpt"],
        "--data", workdir["data"], "--out", out, "--seed", "7",
    ])
    assert code == 0
    rep = read_report(out)
    assert rep["seed"] == 7        # flag beats file
    assert rep["metrics"]["ratio"] == 0.5  # file beats default


def test_unknown_run_config_key_rejected(workdir, tmp_path, capsys):
    cfg_path = str(tmp_path / "rc.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"seeed": 5}, fh)
    code = dispatch([
        "impute", "--run-config", cfg_path, "--ckpt", workdir["ckpt"],
        "--data", workdir["data"], "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "seeed" in capsys.readouterr().err


def test_run_config_invalid_json_rejected(workdir, tmp_path, capsys):
    cfg_path = str(tmp_path / "rc.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("{nope")
    code = dispatch([
        "impute", "--run-config", cfg_path, "--ckpt", workdir["ckpt"],
        "--data", workdir["data"], "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, file_cfg, key", [
    ("forecast", {"horizon": "16"}, "horizon"),
    ("forecast", {"horizon": 16.5}, "horizon"),
    ("forecast", {"horizon": True}, "horizon"),
    ("forecast", {"workers": "2"}, "workers"),
    ("forecast", {"mode": "bogus"}, "mode"),
    ("forecast", {"mode": None}, "mode"),
    ("forecast", {"seed": "x"}, "seed"),
    ("forecast", {"out": 3}, "out"),
    ("impute", {"ratio": "0.5"}, "ratio"),
    ("impute", {"ckpt": None}, "ckpt"),
])
def test_run_config_values_are_held_to_the_option_table(workdir, tmp_path, capsys,
                                                        command, file_cfg, key):
    cfg_path = tmp_path / "rc.json"
    cfg_path.write_text(json.dumps(file_cfg))
    code = dispatch([command, "--run-config", str(cfg_path), "--ckpt", workdir["ckpt"],
                     "--data", workdir["data"], "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["forecast", "impute"])
@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("source", ["flag", "run-config"])
def test_workers_below_one_is_refused(workdir, tmp_path, capsys, command, workers, source):
    argv = [command, "--ckpt", workdir["ckpt"], "--data", workdir["data"],
            "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--workers", str(workers)]
    else:
        cfg_path = tmp_path / "rc.json"
        cfg_path.write_text(json.dumps({"workers": workers}))
        argv += ["--run-config", str(cfg_path)]
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--workers" in err
    assert not (tmp_path / "o").exists()


def test_run_config_null_means_default_and_ints_fill_float_options(tmp_path, monkeypatch):
    monkeypatch.delenv("MOMENT_MINI_SEED", raising=False)
    cfg_path = tmp_path / "rc.json"
    cfg_path.write_text(json.dumps({"seed": None, "ratio": 1, "block_len": 4}))
    args = _parser().parse_args(["impute", "--run-config", str(cfg_path),
                                 "--ckpt", "c.json", "--data", "d.csv"])
    rc = resolve_run_config(args)
    assert rc["seed"] == 13
    assert rc["ratio"] == 1.0 and isinstance(rc["ratio"], float)
    assert rc["block_len"] == 4


# ------------------------------------------------------------------ commands


def test_forecast_reports_per_series_and_naive(workdir, tmp_path):
    out = str(tmp_path / "fc")
    code = dispatch([
        "forecast", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
        "--out", out, "--horizon", "8",
    ])
    assert code == 0
    rep = read_report(out)
    assert rep["metrics"]["horizon"] == 8
    assert rep["metrics"]["mode"] == "zero-shot"
    assert len(rep["per_series"]) == 3
    for row in rep["per_series"]:
        assert set(row) == {"name", "mse", "mae", "smape", "naive_mse"}
    assert rep["metrics"]["mse"] == pytest.approx(
        np.mean([r["mse"] for r in rep["per_series"]])
    )


def test_forecast_error_names_a_series_with_an_empty_window(workdir, tmp_path, capsys):
    # 'blank' has values only in the held-out horizon, none in its history
    rows = [f"{np.sin(i):.3f}," for i in range(72)]
    rows += [f"{np.sin(i):.3f},1.0" for i in range(72, 80)]
    data = tmp_path / "gappy.csv"
    data.write_text("ok,blank\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code = dispatch(["forecast", "--ckpt", workdir["ckpt"], "--data", str(data),
                     "--out", str(tmp_path / "fc"), "--horizon", "8"])
    assert code == 1
    assert "series 'blank' has no observed step" in capsys.readouterr().err


def test_forecast_rows_equal_the_per_series_metric_calls(workdir, tmp_path):
    data = write_sines(str(tmp_path / "data.csv"), n=5, length=600, seed=4)
    out = tmp_path / "fc"
    assert dispatch(["forecast", "--ckpt", workdir["ckpt"], "--data", data,
                     "--out", str(out), "--horizon", "12"]) == 0
    rows = read_report(str(out))["per_series"]
    collection = load_csv(data)
    splits = [_forecast_split(series, 12) for series in collection]
    forecasts = zero_shot_short_forecast(tm.load_checkpoint(workdir["ckpt"]),
                                         [history for history, _ in splits], 12)
    want = [{"name": series.name,
             "mse": mx.mse(truth, fc.values),
             "mae": mx.mae(truth, fc.values),
             "smape": mx.smape_m4(truth, fc.values),
             "naive_mse": mx.mse(truth, naive_forecast(history, 12))}
            for series, (history, truth), fc in zip(collection, splits, forecasts)]
    assert rows == want  # the same floats, not close ones


K = CHUNK


@pytest.mark.parametrize("n_series", [1, K - 1, K + 1, 2 * K + 1])
def test_batched_forecast_and_impute_match_batch_one(workdir, tmp_path, n_series):
    data = write_sines(str(tmp_path / "data.csv"), n=n_series, length=600, seed=n_series)
    reports = {}
    for command, extra in (("forecast", ["--horizon", "8"]),
                           ("impute", ["--ratio", "0.25", "--block-len", "8"])):
        out = tmp_path / command
        for workers in ("1", "3"):
            code = dispatch([command, "--ckpt", workdir["ckpt"], "--data", data,
                             "--out", str(out), "--seed", "5", "--workers", workers,
                             *extra])
            assert code == 0
            reports[command, workers] = (out / "report.json").read_bytes()
        assert reports[command, "1"] == reports[command, "3"]
    forecast_rows = json.loads(reports["forecast", "1"])["per_series"]
    impute_rows = json.loads(reports["impute", "1"])["per_series"]
    assert len(forecast_rows) == len(impute_rows) == n_series
    weights = tm.load_checkpoint(workdir["ckpt"])

    def close(got, want):
        return abs(got - want) <= 1e-6 * max(1.0, abs(want))

    for i, (series, fc_row, imp_row) in enumerate(
            zip(load_csv(data), forecast_rows, impute_rows)):
        history, truth = _forecast_split(series, 8)
        fc = zero_shot_short_forecast(weights, history, 8).values  # batch 1
        assert fc_row["name"] == imp_row["name"] == series.name
        assert close(fc_row["mse"], mx.mse(truth, fc))
        assert close(fc_row["mae"], mx.mae(truth, fc))
        assert close(fc_row["smape"], mx.smape_m4(truth, fc))
        masked = apply_block_mask(series, ImputationSpec(ratio=0.25, block_len=8, seed=5 + i))
        filled = zero_shot_impute(weights, masked)
        held_out = series.observed & ~masked.observed
        assert close(imp_row["mse"], mx.mse(series.values[held_out], filled.values[held_out]))
        assert close(imp_row["mae"], mx.mae(series.values[held_out], filled.values[held_out]))


def test_impute_reports_fill_error(workdir, tmp_path):
    out = str(tmp_path / "imp")
    code = dispatch([
        "impute", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
        "--out", out, "--ratio", "0.25", "--block-len", "8",
    ])
    assert code == 0
    rep = read_report(out)
    assert rep["metrics"]["ratio"] == 0.25
    assert rep["metrics"]["mse"] >= 0.0
    assert len(rep["per_series"]) == 3


def test_detect_scores_and_metrics(workdir, tmp_path):
    data = str(tmp_path / "one.csv")
    vals = np.ones(512)
    vals[300] = 9.0
    save_csv(data, [Series(values=vals, name="m")])
    lab = np.zeros(512, dtype=int)
    lab[298:303] = 1
    labels = write_labels(str(tmp_path / "labels.csv"), lab)
    out = str(tmp_path / "det")
    code = dispatch(["detect", "--ckpt", workdir["ckpt"], "--data", data,
                     "--labels", labels, "--out", out])
    assert code == 0
    rep = read_report(out)
    assert 0.0 <= rep["metrics"]["adj_best_f1"] <= 1.0
    assert 0.0 <= rep["metrics"]["vus_roc"] <= 1.0
    assert os.path.exists(os.path.join(out, "scores.csv"))


def test_detect_rejects_multi_column_data(workdir, tmp_path, capsys):
    lab = write_labels(str(tmp_path / "l.csv"), np.zeros(512, dtype=int))
    code = dispatch(["detect", "--ckpt", workdir["ckpt"],
                     "--data", workdir["data"], "--labels", lab,
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "single-series" in capsys.readouterr().err


def test_classify_end_to_end(workdir, tmp_path):
    t = np.arange(512)

    def collection(csv_path, cls_path, n_per, seed):
        rng = np.random.default_rng(seed)
        cols, rows = [], []
        for i in range(n_per):
            for label, freq in (("fast", 32), ("slow", 4)):
                name = f"{label}{i}"
                cols.append(Series(
                    values=np.sin(2 * np.pi * freq * t / 512)
                    + 0.1 * rng.standard_normal(512),
                    name=name,
                ))
                rows.append(f"{name},{label}")
        save_csv(csv_path, cols)
        with open(cls_path, "w", encoding="utf-8") as fh:
            fh.write("name,class\n" + "\n".join(rows) + "\n")

    trd, trc = str(tmp_path / "tr.csv"), str(tmp_path / "trc.csv")
    ted, tec = str(tmp_path / "te.csv"), str(tmp_path / "tec.csv")
    collection(trd, trc, 4, 1)
    collection(ted, tec, 2, 2)
    out = str(tmp_path / "cls")
    code = dispatch(["classify", "--ckpt", workdir["ckpt"],
                     "--train-data", trd, "--train-classes", trc,
                     "--test-data", ted, "--test-classes", tec, "--out", out])
    assert code == 0
    rep = read_report(out)
    assert set(rep["metrics"]) == {"accuracy", "best_c", "val_accuracy"}
    lines = open(os.path.join(out, "predictions.csv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "name,predicted"
    assert len(lines) == 5  # header + 4 test series


def test_classify_reads_utf8_bom_files(workdir, tmp_path):
    # spreadsheet exports start with a byte-order mark; it is not part of
    # the first series name or of the first class row
    t = np.arange(512)
    names, rows = [], []
    for i, freq in enumerate((32, 4, 32, 4)):
        names.append(Series(values=np.sin(2 * np.pi * freq * t / 512 + i), name=f"s{i}"))
        rows.append(f"s{i},{freq}")
    data, classes = tmp_path / "d.csv", tmp_path / "c.csv"
    save_csv(str(data), names)
    data.write_text("\ufeff" + data.read_text(encoding="utf-8"), encoding="utf-8")
    classes.write_text("\ufeff" + "\n".join(rows) + "\n", encoding="utf-8")
    out = str(tmp_path / "cls")
    code = dispatch(["classify", "--ckpt", workdir["ckpt"],
                     "--train-data", str(data), "--train-classes", str(classes),
                     "--test-data", str(data), "--test-classes", str(classes),
                     "--out", out])
    assert code == 0
    lines = open(os.path.join(out, "predictions.csv"), encoding="utf-8").read().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["s0", "s1", "s2", "s3"]


def test_classify_predictions_keep_each_name_in_one_field(workdir, tmp_path):
    # a name holding a comma or a quote is quoted, so it reads back whole
    t = np.arange(512)
    cols, rows = [], []
    for i, (label, freq) in enumerate((("fast", 32), ("slow", 4)) * 2):
        name = ("a,1", 'say "hi"', "plain", "b")[i]
        cols.append(Series(values=np.sin(2 * np.pi * freq * t / 512 + i), name=name))
        rows.append([name, label])
    data, classes = tmp_path / "d.csv", tmp_path / "c.csv"
    save_csv(str(data), cols)
    with open(classes, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out = str(tmp_path / "cls")
    code = dispatch(["classify", "--ckpt", workdir["ckpt"],
                     "--train-data", str(data), "--train-classes", str(classes),
                     "--test-data", str(data), "--test-classes", str(classes),
                     "--out", out])
    assert code == 0
    with open(os.path.join(out, "predictions.csv"), newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["name", "predicted"]
    assert [row[0] for row in read[1:]] == ["a,1", 'say "hi"', "plain", "b"]
    assert all(len(row) == 2 for row in read)


def test_classify_missing_class_label_fails(workdir, tmp_path, capsys):
    trd = write_sines(str(tmp_path / "tr.csv"), n=2)
    with open(str(tmp_path / "trc.csv"), "w", encoding="utf-8") as fh:
        fh.write("name,class\ns0,a\n")  # s1 missing
    code = dispatch(["classify", "--ckpt", workdir["ckpt"],
                     "--train-data", trd, "--train-classes", str(tmp_path / "trc.csv"),
                     "--test-data", trd, "--test-classes", str(tmp_path / "trc.csv"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "s1" in capsys.readouterr().err


def test_probe_all_writes_artifacts(workdir, tmp_path):
    out = str(tmp_path / "pr")
    code = dispatch(["probe", "--ckpt", workdir["ckpt"], "--out", out,
                     "--data", workdir["data"]])
    assert code == 0
    rep = read_report(out)
    expected = {
        "suite_explained_pc1", "suite_explained_pc2", "curve_spearman",
        "mask_mean", "mask_std", "mask_ks", "mask_token_mse", "zero_fill_mse",
    }
    assert set(rep["metrics"]) == expected
    for artifact in ("sinusoid_embedding_frequency.csv",
                     "sinusoid_embedding_frequency.svg",
                     "frequency_error_curve.csv"):
        assert os.path.exists(os.path.join(out, artifact))


def test_probe_subset_and_unknown_name(workdir, tmp_path, capsys):
    out = str(tmp_path / "pr")
    code = dispatch(["probe", "--ckpt", workdir["ckpt"], "--out", out,
                     "--probes", "mask-stats"])
    assert code == 0
    assert set(read_report(out)["metrics"]) == {"mask_mean", "mask_std", "mask_ks"}
    code = dispatch(["probe", "--ckpt", workdir["ckpt"], "--out", out,
                     "--probes", "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_probe_zero_vs_mask_requires_data(workdir, tmp_path, capsys):
    code = dispatch(["probe", "--ckpt", workdir["ckpt"],
                     "--out", str(tmp_path / "o"), "--probes", "zero-vs-mask"])
    assert code == 1
    assert "--data" in capsys.readouterr().err


def test_eval_metrics_matches_library_functions(tmp_path):
    rng = np.random.default_rng(4)
    scores = rng.random(128)
    labels = (rng.random(128) < 0.2).astype(int)
    labels[10] = 1  # ensure both classes
    labels[11] = 0
    sp = str(tmp_path / "s.csv")
    save_csv(sp, [Series(values=scores, name="score")])
    lp = write_labels(str(tmp_path / "l.csv"), labels)
    out = str(tmp_path / "ev")
    assert dispatch(["eval-metrics", "--scores", sp, "--labels", lp,
                     "--out", out]) == 0
    rep = read_report(out)
    assert rep["metrics"]["adj_best_f1"] == pytest.approx(
        mx.adjusted_best_f1(scores.astype(np.float32), labels.astype(bool))
    )
    assert rep["metrics"]["vus_roc"] == pytest.approx(
        mx.vus_roc(scores.astype(np.float32), labels.astype(bool))
    )


def test_eval_metrics_single_class_reports_error_entry(tmp_path):
    sp = str(tmp_path / "s.csv")
    save_csv(sp, [Series(values=np.arange(16.0), name="score")])
    lp = write_labels(str(tmp_path / "l.csv"), np.zeros(16, dtype=int))
    out = str(tmp_path / "ev")
    with pytest.warns(UserWarning, match="all-negative"):
        assert dispatch(["eval-metrics", "--scores", sp, "--labels", lp,
                         "--out", out]) == 0
    rep = read_report(out)
    assert isinstance(rep["metrics"]["vus_roc"], str)
    assert rep["metrics"]["vus_roc"].startswith("error:")


def test_finetune_trains_forecast_head(workdir, tmp_path):
    out = str(tmp_path / "ft")
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"],
                     "--data", workdir["data"], "--out", out,
                     "--horizon", "8", "--epochs", "2", "--batch-size", "2"])
    assert code == 0
    rep = read_report(out)
    assert rep["metrics"]["frozen_encoder"] is True
    assert np.isfinite(rep["metrics"]["mse_before"])
    assert np.isfinite(rep["metrics"]["mse_after"])
    assert os.path.exists(os.path.join(out, "checkpoint.json"))


@pytest.mark.parametrize("head", ["forecast", "reconstruction"])
def test_finetune_zero_epochs_writes_the_checkpoint_it_was_given(workdir, tmp_path, head):
    out = str(tmp_path / "ft")
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
                     "--out", out, "--head", head, "--horizon", "8", "--epochs", "0",
                     "--seed", "5"])
    assert code == 0
    given = tm.load_checkpoint(workdir["ckpt"])
    if head == "forecast":
        metrics = read_report(out)["metrics"]
        assert metrics["mse_before"] == metrics["mse_after"]
        tm.attach_forecast_head(given, 8, seed=5)
    written = tm.load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert list(written.params) == list(given.params)
    for name, p in given.params.items():
        assert np.array_equal(written.params[name].data, p.data), name


@pytest.mark.parametrize("head", ["forecast", "reconstruction"])
def test_finetune_negative_epochs_exits_one_naming_epochs(workdir, tmp_path, capsys, head):
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
                     "--out", str(tmp_path / "ft"), "--head", head, "--horizon", "8",
                     "--epochs", "-1"])
    assert code == 1
    assert "epochs" in capsys.readouterr().err
    assert not (tmp_path / "ft").exists()


def test_pretrain_accepts_directory_of_csvs(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    write_sines(str(d / "a.csv"), n=2, seed=1)
    write_sines(str(d / "b.csv"), n=2, seed=2, prefix="t")
    out = str(tmp_path / "run")
    code = dispatch(["pretrain", "--config", "tiny", "--data", str(d),
                     "--out", out, "--steps", "2", "--batch-size", "4"])
    assert code == 0
    assert read_report(out)["metrics"]["steps"] == 2


@pytest.mark.parametrize("epochs", ["1", "3"])
def test_frozen_finetune_encodes_each_window_once(workdir, tmp_path, monkeypatch,
                                                  epochs):
    rows = []

    def counting_encode(weights, x_norm, plan):
        rows.append(np.asarray(x_norm).shape[0])
        return tm.encode_windows(weights, x_norm, plan)

    monkeypatch.setattr(tp, "encode_windows", counting_encode)
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"],
                     "--data", workdir["data"], "--out", str(tmp_path / "ft"),
                     "--horizon", "8", "--epochs", epochs, "--batch-size", "2"])
    assert code == 0
    assert rows == [3]  # one batched forward over the three series


def test_unfrozen_finetune_reports_mse_of_the_updated_encoder(workdir, tmp_path):
    out = str(tmp_path / "ft")
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"],
                     "--data", workdir["data"], "--out", out, "--unfreeze",
                     "--horizon", "8", "--epochs", "2", "--batch-size", "2",
                     "--lr-init", "1e-2"])
    assert code == 0
    metrics = read_report(out)["metrics"]
    assert metrics["frozen_encoder"] is False
    tuned = tm.load_checkpoint(os.path.join(out, "checkpoint.json"))
    pairs = [_forecast_split(s, 8) for s in load_csv(workdir["data"])]
    assert metrics["mse_after"] == tp.evaluate_forecast_mse(tuned, pairs)
    assert metrics["mse_after"] != metrics["mse_before"]


def _copy_checkpoint(workdir, tmp_path):
    manifest = tmp_path / "ckpt.json"
    with open(workdir["ckpt"], encoding="utf-8") as fh:
        manifest.write_text(fh.read())
    with open(workdir["ckpt"] + ".bin", "rb") as fh:
        (tmp_path / "ckpt.json.bin").write_bytes(fh.read())
    return manifest


def _truncate_blob(manifest):
    blob = manifest.parent / (manifest.name + ".bin")
    blob.write_bytes(blob.read_bytes()[:-4])


def _drop_params(manifest):
    raw = json.loads(manifest.read_text())
    del raw["params"]
    manifest.write_text(json.dumps(raw))


def _nan_weight(manifest):
    entry = json.loads(manifest.read_text())["params"]["layers.0.attn.wq"]
    blob = manifest.parent / (manifest.name + ".bin")
    raw = bytearray(blob.read_bytes())
    raw[entry["offset"]:entry["offset"] + 4] = np.float32(np.nan).tobytes()
    blob.write_bytes(bytes(raw))


def _flip_bit(manifest):
    # the lowest mantissa bit of one weight: still finite, silently wrong
    entry = json.loads(manifest.read_text())["params"]["layers.0.attn.wq"]
    blob = manifest.parent / (manifest.name + ".bin")
    raw = bytearray(blob.read_bytes())
    raw[entry["offset"] + 8] ^= 0x01
    blob.write_bytes(bytes(raw))


def _drop_offset(manifest):
    raw = json.loads(manifest.read_text())
    del raw["params"]["mask_token"]["offset"]
    manifest.write_text(json.dumps(raw))


def _cut_manifest(manifest):
    manifest.write_text(manifest.read_text()[:40])


def _remove_blob(manifest):
    (manifest.parent / (manifest.name + ".bin")).unlink()


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_blob, "truncated"),
    (_drop_params, "params"),
    (_nan_weight, "layers.0.attn.wq"),
    (_flip_bit, "layers.0.attn.wq"),
    (_drop_offset, "mask_token"),
    (_cut_manifest, "not valid JSON"),
    (_remove_blob, "blob not found"),
])
def test_corrupt_checkpoint_exits_one_with_one_line_error(workdir, tmp_path, capsys,
                                                          corrupt, message):
    manifest = _copy_checkpoint(workdir, tmp_path)
    corrupt(manifest)
    code = dispatch(["forecast", "--ckpt", str(manifest), "--data", workdir["data"],
                     "--out", str(tmp_path / "fc")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------- fuzzing

# one value of each JSON type; a mutation picks one its site does not accept
JSON_VALUES = ("16", 16, 16.5, True, [16], {"v": 16})
FUZZ_CASES = 40


def _accepts(kind, value):
    return type(value) is kind or (kind is float and type(value) is int)


def _wrong_value(rng, kind):
    return rng.choice([v for v in JSON_VALUES if not _accepts(kind, v)])


def _fuzzed_run_config(rng, valid):
    """One seeded mutation of a valid forecast run config that the option
    table refuses: (description, JSON text)."""
    options = COMMAND_OPTIONS["forecast"][1]
    kinds = {name: kwargs.get("type", str) for name, _, kwargs in options}
    cfg = dict(valid)
    how = rng.choice(["type", "float", "choice", "null", "missing", "extra", "truncated"])
    if how == "type":
        key = rng.choice(sorted(kinds))
        cfg[key] = _wrong_value(rng, kinds[key])
    elif how == "float":
        key = rng.choice(sorted(k for k, kind in kinds.items() if kind is int))
        cfg[key] = cfg[key] + rng.choice([0.0, 0.5])
    elif how == "choice":
        key, cfg["mode"] = "mode", rng.choice(["zero_shot", "ZERO-SHOT", "", "probed"])
    elif how == "null":
        key = rng.choice(sorted(n for n, default, _ in options if default is not None))
        cfg[key] = None
    elif how == "missing":
        key = rng.choice(sorted(n for n, default, _ in options if default is REQUIRED))
        del cfg[key]
    elif how == "extra":
        key, cfg["horizon_steps"] = "horizon_steps", 16
    else:
        text = json.dumps(cfg)
        cut = rng.randrange(len(text))
        return f"truncated at {cut}", text[:cut]
    return f"{how} {key}", json.dumps(cfg)


def _fuzzed_checkpoint(rng, manifest, blob):
    """One seeded mutation of a valid checkpoint that load_checkpoint
    refuses: (description, manifest text, blob bytes)."""
    doc = copy.deepcopy(manifest)
    sizes = sorted(k for k, v in doc["config"].items() if type(v) is int)
    name = rng.choice(sorted(doc["params"]))
    entry = doc["params"][name]
    how = rng.choice(["type", "float", "null", "missing", "extra", "truncated"])
    if how in ("type", "float", "null"):
        if rng.random() < 0.5:
            field = rng.choice(sizes if how == "float" else sizes + ["revin_eps"])
            target, where = doc["config"], f"config.{field}"
        else:
            field = rng.choice(["shape", "offset", "length"])
            target, where = entry, f"{name}.{field}"
        value = target[field]
        if how == "type":
            target[field] = _wrong_value(rng, type(value))
        elif how == "null":
            target[field] = None
        else:
            target[field] = [float(d) for d in value] if field == "shape" else float(value)
    elif how == "missing":
        # config sizes all have defaults, so only structure can go missing
        where = rng.choice(["config", "params", name, f"{name}.offset"])
        if where in ("config", "params"):
            del doc[where]
        elif where == name:
            del doc["params"][name]
        else:
            del entry["offset"]
    elif how == "extra":
        where = rng.choice(["config.d_state", "params.extra.weight"])
        if where == "config.d_state":
            doc["config"]["d_state"] = 4
        else:
            doc["params"]["extra.weight"] = dict(entry)
    else:
        text = json.dumps(doc)
        if rng.random() < 0.5:
            cut = rng.randrange(len(text))
            return f"manifest truncated at {cut}", text[:cut], blob
        cut = rng.randrange(len(blob))
        return f"blob truncated at {cut}", text, blob[:cut]
    return f"{how} {where}", json.dumps(doc), blob


def _run_fuzz_case(capsys, argv):
    """Exit code and stderr of one dispatch; an exception that escapes it
    (a traceback at the command line) is returned as the stderr text."""
    capsys.readouterr()
    try:
        code = dispatch(argv)
    except Exception as exc:
        return None, f"uncaught {exc!r}"
    return code, capsys.readouterr().err


def _one_error_line(code, err):
    return code == 1 and err.startswith("error:") and err.count("\n") == 1


def test_fuzzed_run_configs_exit_one_with_one_error_line(workdir, tmp_path, capsys):
    valid = {"ckpt": workdir["ckpt"], "data": workdir["data"],
             "out": str(tmp_path / "out"), "seed": 3, "horizon": 16,
             "mode": "zero-shot", "workers": 1}
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(valid))
    assert _run_fuzz_case(capsys, ["forecast", "--run-config", str(path)])[0] == 0
    rng = random.Random(20)
    bad = []
    for _ in range(FUZZ_CASES):
        what, text = _fuzzed_run_config(rng, valid)
        path.write_text(text)
        code, err = _run_fuzz_case(capsys, ["forecast", "--run-config", str(path)])
        if not _one_error_line(code, err):
            bad.append((what, code, err))
    assert bad == []


def test_fuzzed_checkpoints_exit_one_with_one_error_line(workdir, tmp_path, capsys):
    with open(workdir["ckpt"], encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(workdir["ckpt"] + ".bin", "rb") as fh:
        blob = fh.read()
    path = tmp_path / "ckpt.json"
    argv = ["forecast", "--ckpt", str(path), "--data", workdir["data"],
            "--out", str(tmp_path / "out")]
    path.write_text(json.dumps(manifest))
    (tmp_path / "ckpt.json.bin").write_bytes(blob)
    assert _run_fuzz_case(capsys, argv)[0] == 0
    rng = random.Random(21)
    bad = []
    for _ in range(FUZZ_CASES):
        what, text, cut_blob = _fuzzed_checkpoint(rng, manifest, blob)
        path.write_text(text)
        (tmp_path / "ckpt.json.bin").write_bytes(cut_blob)
        code, err = _run_fuzz_case(capsys, argv)
        if not _one_error_line(code, err):
            bad.append((what, code, err))
    assert bad == []


def _recon_finetune(workdir, out, *extra):
    code = dispatch(["finetune", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
                     "--out", out, "--head", "reconstruction", "--epochs", "2",
                     "--batch-size", "2", "--lr-init", "1e-2", "--seed", "3", *extra])
    assert code == 0
    return tm.load_checkpoint(os.path.join(out, "checkpoint.json"))


def test_finetune_mask_ratio_changes_the_reconstruction_head(workdir, tmp_path):
    default = _recon_finetune(workdir, str(tmp_path / "default"))
    explicit = _recon_finetune(workdir, str(tmp_path / "explicit"), "--mask-ratio", "0.3")
    half = _recon_finetune(workdir, str(tmp_path / "half"), "--mask-ratio", "0.5")
    head = "recon_head.weight"
    assert np.array_equal(default.params[head].data, explicit.params[head].data)
    assert not np.array_equal(default.params[head].data, half.params[head].data)
    assert read_report(str(tmp_path / "half"))["config_hash"] != \
        read_report(str(tmp_path / "default"))["config_hash"]


def test_repeated_dispatches_parse_independently(workdir, tmp_path, capsys,
                                                 monkeypatch):
    # the parser is built once; one call's options must not leak into the next
    monkeypatch.delenv("MOMENT_MINI_SEED", raising=False)
    common = ["impute", "--ckpt", workdir["ckpt"], "--data", workdir["data"], "--out"]
    runs = {name: str(tmp_path / name) for name in ("a", "b", "c")}
    assert dispatch(common + [runs["a"], "--ratio", "0.5", "--seed", "4"]) == 0
    assert dispatch(common + [runs["b"]]) == 0
    assert dispatch(common + [str(tmp_path / "bad"), "--ratio", "oops"]) == 2
    assert "usage" in capsys.readouterr().err
    assert dispatch(common + [runs["c"]]) == 0
    a, b, c = (read_report(path) for path in runs.values())
    assert (a["metrics"]["ratio"], a["seed"]) == (0.5, 4)
    assert (b["metrics"]["ratio"], b["seed"]) == (0.25, 13)
    assert a["metrics"]["mse"] != b["metrics"]["mse"]
    del b["config_hash"], c["config_hash"]  # the hash covers --out
    assert b == c


def _fuzzed_model_config(rng):
    """One seeded `--config` model JSON that pretrain must refuse:
    (description, JSON text)."""
    cfg = dataclasses.asdict(tm.named_config("tiny", seq_len=64))
    sizes = sorted(k for k, v in cfg.items() if type(v) is int)
    key = rng.choice(sizes)
    how = rng.choice(["non-object", "unknown", "float", "bool", "string", "buckets",
                      "distance", "truncated"])
    if how == "non-object":
        return how, json.dumps(rng.choice([[cfg], [], 16, 16.5, "tiny", None, True]))
    if how == "unknown":
        key = rng.choice(["d_state", "n_layer", "dropout"])
        cfg[key] = 1
    elif how == "float":
        cfg[key] += rng.choice([0.0, 0.5])
    elif how == "bool":
        cfg[key] = rng.choice([True, False])
    elif how == "string":
        cfg[key] = str(cfg[key])
    elif how == "buckets":
        key, cfg["n_rel_buckets"] = "n_rel_buckets", rng.randint(1, 3)
    elif how == "distance":
        # relative_bucket needs rel_max_distance above n_rel_buckets // 4
        key, cfg["rel_max_distance"] = "rel_max_distance", rng.randint(
            1, cfg["n_rel_buckets"] // 4)
    else:
        text = json.dumps(cfg)
        cut = rng.randrange(len(text))
        return f"truncated at {cut}", text[:cut]
    return f"{how} {key}", json.dumps(cfg)


def test_fuzzed_model_configs_exit_one_with_one_error_line(workdir, tmp_path, capsys):
    path = tmp_path / "model.json"
    argv = ["pretrain", "--config", str(path), "--data", workdir["data"],
            "--out", str(tmp_path / "out"), "--steps", "1", "--batch-size", "2"]
    path.write_text(json.dumps(dataclasses.asdict(tm.named_config("tiny", seq_len=64))))
    assert _run_fuzz_case(capsys, argv)[0] == 0
    rng = random.Random(22)
    bad = []
    for _ in range(FUZZ_CASES):
        what, text = _fuzzed_model_config(rng)
        path.write_text(text)
        code, err = _run_fuzz_case(capsys, argv)
        if not _one_error_line(code, err):
            bad.append((what, code, err))
    assert bad == []


def _corrupt_line(rng, lines, how, first=0):
    """Apply one seeded defect to one of lines[first:] in place; returns its
    description. A byte-order mark at the very start of a file is allowed,
    so a mark goes anywhere else."""
    i = rng.randrange(first, len(lines))
    line = lines[i]
    pos = rng.randrange(len(line) + 1)
    if how == "nul":
        lines[i] = line[:pos] + "\0" + line[pos:]
    elif how == "bom":
        pos = max(pos, 1) if i == 0 else pos
        lines[i] = line[:pos] + "\ufeff" + line[pos:]
    elif how == "oversized":
        lines[i] = line + "7" * 200_000
    return f"{how} on line {i + 1}"


def _write_fuzzed(path, rng, lines):
    """Write lines, with a leading byte-order mark half the time (it must
    hide no defect)."""
    mark = "\ufeff" if rng.random() < 0.5 else ""
    path.write_text(mark + "\n".join(lines) + "\n", encoding="utf-8")


def test_fuzzed_label_files_exit_one_with_one_error_line(workdir, tmp_path, capsys):
    data = str(tmp_path / "one.csv")
    vals = np.ones(512)
    vals[300] = 9.0
    save_csv(data, [Series(values=vals, name="m")])
    path = tmp_path / "x.labels.csv"
    argv = ["detect", "--ckpt", workdir["ckpt"], "--data", data, "--labels", str(path),
            "--out", str(tmp_path / "out")]
    valid = ["1" if 298 <= i < 303 else "0" for i in range(512)]
    path.write_text("\n".join(valid) + "\n")
    assert _run_fuzz_case(capsys, argv)[0] == 0
    rng = random.Random(23)
    bad = []
    for _ in range(FUZZ_CASES):
        lines = list(valid)
        how = rng.choice(["ragged", "blank-first", "non-binary", "nul", "bom", "oversized"])
        if how == "ragged":
            i = rng.randrange(len(lines))
            lines[i] += rng.choice([",", ",0", ",1,1"])
            what = f"ragged line {i + 1}"
        elif how == "blank-first":
            i = rng.randrange(len(lines))
            lines.insert(i, rng.choice([",0", ",1", " ,1"]))
            what = f"line {i + 1}: blank first cell"
        elif how == "non-binary":
            i = rng.randrange(len(lines))
            lines[i] = rng.choice(["2", "-1", "0.5", "01", "yes", "true", "nan"])
            what = f"non-binary line {i + 1}"
        else:
            what = _corrupt_line(rng, lines, how)
        _write_fuzzed(path, rng, lines)
        code, err = _run_fuzz_case(capsys, argv)
        # a row with a blank first cell must be named, not dropped
        if not _one_error_line(code, err) or how == "blank-first" and what not in err:
            bad.append((what, code, err))
    assert bad == []


def test_fuzzed_class_files_exit_one_with_one_error_line(workdir, tmp_path, capsys):
    t = np.arange(512)
    names, valid = [], []
    for i, freq in enumerate((32, 4, 32, 4)):
        names.append(Series(values=np.sin(2 * np.pi * freq * t / 512 + i), name=f"s{i}"))
        valid.append(f"s{i},{freq}")
    data = tmp_path / "d.csv"
    save_csv(str(data), names)
    files = {"train": tmp_path / "train.classes.csv", "test": tmp_path / "test.classes.csv"}
    argv = ["classify", "--ckpt", workdir["ckpt"], "--train-data", str(data),
            "--train-classes", str(files["train"]), "--test-data", str(data),
            "--test-classes", str(files["test"]), "--out", str(tmp_path / "out")]
    for path in files.values():
        path.write_text("\n".join(valid) + "\n")
    assert _run_fuzz_case(capsys, argv)[0] == 0
    rng = random.Random(24)
    bad = []
    for _ in range(FUZZ_CASES):
        lines = list(valid)
        which = rng.choice(sorted(files))
        how = rng.choice(["ragged", "blank-first", "missing", "nul", "bom", "oversized"])
        if how == "ragged":
            i = rng.randrange(len(lines))
            lines[i] = rng.choice([lines[i].split(",")[0], lines[i] + ",extra", lines[i] + ","])
            what = f"ragged line {i + 1}"
        elif how == "blank-first":
            i = rng.randrange(len(lines))
            lines.insert(i, rng.choice([",4", ",32", " ,7"]))
            what = f"line {i + 1}: blank first cell"
        elif how == "missing":
            i = rng.randrange(len(lines))
            del lines[i]
            what = f"missing line {i + 1}"
        else:
            what = _corrupt_line(rng, lines, how)
        _write_fuzzed(files[which], rng, lines)
        code, err = _run_fuzz_case(capsys, argv)
        files[which].write_text("\n".join(valid) + "\n")
        if not _one_error_line(code, err) or how == "blank-first" and what not in err:
            bad.append((which, what, code, err))
    assert bad == []
