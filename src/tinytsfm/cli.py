"""Batch command-line entry points.

Eight subcommands: pretrain, finetune, forecast, impute, detect, classify,
probe, eval-metrics. Each subcommand's help text and options are declared
once, in COMMAND_OPTIONS: the argparse parser and the run-config resolver
both read it. A run resolves every option (a CLI flag overrides a
--run-config JSON file, which overrides the declared default;
MOMENT_MINI_SEED is the seed fallback), validates it before any compute,
and writes `report.json` — task, dataset, config hash, seed, version,
metric map — under the output directory. Exit codes: 0 on success, 1 on a
domain error, 2 on a usage error.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import __version__
from . import metrics as mx
from .baselines import naive_forecast
from .data import Series, load_classes, load_csv, load_labels, save_csv
from .errors import ConfigError, ParseError, TsfmError, UndefinedMetricError, check_value
from .model import (
    attach_forecast_head,
    init_weights,
    load_checkpoint,
    resolve_config,
    save_checkpoint,
)
from .numcore import CHUNK
from .pretrain import (
    encode_forecast_pairs,
    evaluate_forecast_mse,
    linear_probe,
    pretrain,
    train_config,
)
from .probes import (
    frequency_error_curve,
    mask_embedding_stats,
    sinusoid_embedding_suite,
    zero_vs_mask_probe,
)
from .tasks import (
    ImputationSpec,
    apply_block_mask,
    classify_by_representation,
    detect_anomalies,
    long_forecast,
    zero_shot_impute,
    zero_shot_short_forecast,
)

REQUIRED = object()

PROBE_NAMES = ("suite", "curve", "mask-stats", "zero-vs-mask")

# command -> (help text, options). An option is (name, default or REQUIRED,
# argparse keywords); its flag is --name with dashes for underscores. An
# unset seed comes from MOMENT_MINI_SEED, else 13 (see _env_seed).
COMMAND_OPTIONS = {
    "pretrain": ("masked pre-training over a corpus", [
        ("config", "tiny", dict(help="model size name or ModelConfig JSON file")),
        ("data", REQUIRED, dict(help="series CSV file or directory of CSVs")),
        ("out", "out", dict(help="output directory")),
        ("seed", None, dict(type=int)),
        ("steps", 2000, dict(type=int, help="total optimizer steps")),
        ("epochs", None, dict(type=int)),
        ("batch_size", 64, dict(type=int)),
        ("mask_ratio", 0.30, dict(type=float)),
        ("lr_init", 1e-4, dict(type=float)),
        ("lr_final", 1e-5, dict(type=float)),
    ]),
    "finetune": ("train a task head on a frozen encoder (or unfreeze all)", [
        ("ckpt", REQUIRED, dict(help="checkpoint manifest path")),
        ("data", REQUIRED, dict(help="series CSV file or directory")),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
        ("head", "forecast", dict(choices=["forecast", "reconstruction"])),
        ("horizon", 16, dict(type=int)),
        ("epochs", 1, dict(type=int)),
        ("batch_size", 64, dict(type=int)),
        ("mask_ratio", 0.30, dict(type=float)),
        ("lr_init", 1e-4, dict(type=float)),
        ("lr_final", 1e-5, dict(type=float)),
        ("unfreeze", False, dict(action="store_true")),
    ]),
    "forecast": ("forecast the tail of each series and score it", [
        ("ckpt", REQUIRED, dict()),
        ("data", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
        ("horizon", 16, dict(type=int)),
        ("mode", "zero-shot", dict(choices=["zero-shot", "probed-head"])),
        ("workers", 1, dict(type=int)),
    ]),
    "impute": ("hide blocks, reconstruct them, and score the fill", [
        ("ckpt", REQUIRED, dict()),
        ("data", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
        ("ratio", 0.25, dict(type=float)),
        ("block_len", 8, dict(type=int)),
        ("workers", 1, dict(type=int)),
    ]),
    "detect": ("score anomalies and evaluate against labels", [
        ("ckpt", REQUIRED, dict()),
        ("data", REQUIRED, dict()),
        ("labels", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
    ]),
    "classify": ("SVM over sequence representations", [
        ("ckpt", REQUIRED, dict()),
        ("train_data", REQUIRED, dict()),
        ("train_classes", REQUIRED, dict()),
        ("test_data", REQUIRED, dict()),
        ("test_classes", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
    ]),
    "probe": ("interpretability probes (CSV/SVG artifacts)", [
        ("ckpt", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
        ("probes", "all",
         dict(help=f"comma list of {','.join(PROBE_NAMES)} or 'all'")),
        ("kind", "frequency", dict(help="sinusoid family for the embedding suite")),
        ("data", None, dict(help="series CSV for the zero-vs-mask probe")),
    ]),
    "eval-metrics": ("grade a score file against a label file", [
        ("scores", REQUIRED, dict()),
        ("labels", REQUIRED, dict()),
        ("out", "out", dict()),
        ("seed", None, dict(type=int)),
    ]),
}


def build_parser():
    """A fresh argparse parser for every command in COMMAND_OPTIONS."""
    parser = argparse.ArgumentParser(
        prog="tinytsfm",
        description="Masked time-series modeling: pre-training, task "
        "evaluation, and interpretability probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--run-config", default=None,
                       help="JSON file of option defaults (flags override)")
        # every flag defaults to None, so resolve_run_config sees which were given
        for name, _, kwargs in options:
            p.add_argument(f"--{name.replace('_', '-')}", default=None, **kwargs)
    return parser


# parsing leaves the parser unchanged, so dispatch builds it only once
_parser = lru_cache(maxsize=1)(build_parser)


# ------------------------------------------------------------------ run config


def _env_seed():
    raw = os.environ.get("MOMENT_MINI_SEED")
    if raw is None:
        return 13
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"MOMENT_MINI_SEED must be an integer, got {raw!r}"
        ) from None


def _file_value(key, value, default, kwargs):
    """A --run-config value held to the type and choices its flag declares:
    an int option takes a JSON integer, a float option an integer or a
    float, a store_true flag a bool, an option without a type a string, and
    null stands for the default only where that default is None."""
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"run-config key {key!r} may not be null")
    kind = bool if kwargs.get("action") == "store_true" else kwargs.get("type", str)
    # JSON gives exact types, so bool is not taken for int here
    if not (type(value) is kind or (kind is float and type(value) is int)):
        raise ConfigError(
            f"run-config key {key!r} must be a JSON {kind.__name__}, got {value!r}"
        )
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ConfigError(
            f"run-config key {key!r} must be one of {kwargs['choices']}, got {value!r}"
        )
    return kind(value)


def resolve_run_config(args):
    """Merge CLI flags over --run-config JSON over defaults; reject unknown
    keys and values the option table does not allow; fill the seed from
    MOMENT_MINI_SEED when nothing else sets it."""
    options = COMMAND_OPTIONS[args.command][1]
    defaults = {name: default for name, default, _ in options}
    file_cfg = {}
    if args.run_config is not None:
        try:
            with open(args.run_config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise ParseError(f"run-config file not found: {args.run_config}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.run_config}: invalid JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.run_config}: run config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown run-config keys: {unknown}")
        file_cfg = {
            name: _file_value(name, file_cfg[name], default, kwargs)
            for name, default, kwargs in options if name in file_cfg
        }
    resolved = {"command": args.command}
    for key, default in defaults.items():
        flag_value = getattr(args, key)
        if flag_value is not None and flag_value is not False:
            resolved[key] = flag_value
        elif file_cfg.get(key) is not None:
            resolved[key] = file_cfg[key]
        elif key == "seed":
            resolved[key] = _env_seed()
        elif default is REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            resolved[key] = default
    check_value("seed", resolved["seed"], int, low=0)
    check_value("--workers", resolved.get("workers", 1), int, low=1)
    return resolved


def config_hash(run_config):
    # --workers cannot change any output, so it is left out: runs that differ
    # only in it write byte-identical reports
    hashed = {k: v for k, v in run_config.items() if k != "workers"}
    canonical = json.dumps(hashed, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def write_report(run_config, dataset, metrics, extras=None):
    out_dir = run_config["out"]
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "task": run_config["command"],
        "dataset": dataset,
        "config_hash": config_hash(run_config),
        "seed": run_config["seed"],
        "version": f"v{__version__}",
        "metrics": metrics,
    }
    if extras:
        report.update(extras)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ------------------------------------------------------------------ helpers


def load_series_arg(path):
    """A CSV file, or a directory whose *.csv files are read in sorted order."""
    if os.path.isdir(path):
        series = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".csv"):
                series.extend(load_csv(os.path.join(path, name)))
        if not series:
            raise ParseError(f"no .csv files found in directory {path}")
        return series
    return load_csv(path)


def map_series(fn, items, workers):
    """fn over consecutive groups of CHUNK items, each group returning one
    result per item; the results in item order. The groups are fixed, so
    `workers` (threads, each running whole groups) cannot change a result."""
    groups = [items[lo:lo + CHUNK] for lo in range(0, len(items), CHUNK)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, groups))
    else:
        results = [fn(group) for group in groups]
    return [row for rows in results for row in rows]


def _detection_metrics(scores, labels):
    """adj_best_f1 and vus_roc, the latter as its error text where undefined."""
    metrics = {"adj_best_f1": mx.adjusted_best_f1(scores, labels)}
    try:
        metrics["vus_roc"] = mx.vus_roc(scores, labels)
    except UndefinedMetricError as exc:
        metrics["vus_roc"] = f"error: {exc}"
    return metrics


def _forecast_split(series, horizon):
    if len(series) <= horizon:
        raise ConfigError(
            f"series {series.name!r} of length {len(series)} cannot hold out "
            f"a horizon of {horizon}"
        )
    history = series.slice(0, len(series) - horizon)
    truth = series.values[len(series) - horizon:]
    return history, truth


# ------------------------------------------------------------------ commands


def cmd_pretrain(rc):
    config = resolve_config(rc["config"])
    dataset = load_series_arg(rc["data"])
    weights = init_weights(config, seed=rc["seed"])
    weights, log = pretrain(weights, dataset, train_config({**rc, "total_steps": rc["steps"]}))
    os.makedirs(rc["out"], exist_ok=True)
    ckpt = save_checkpoint(weights, os.path.join(rc["out"], "checkpoint.json"))
    log.save(os.path.join(rc["out"], "trainlog.csv"))
    metrics = {
        "initial_loss": log.initial_loss,
        "final_loss": log.final_loss,
        "steps": len(log.records),
    }
    return write_report(rc, rc["data"], metrics, {"checkpoint": ckpt})


def cmd_finetune(rc):
    check_value("epochs", rc["epochs"], int, low=0)  # before any compute; 0 is a no-op
    weights = load_checkpoint(rc["ckpt"])
    dataset = load_series_arg(rc["data"])
    # the probe's budget is --epochs, which linear_probe takes on its own
    cfg = train_config({k: v for k, v in rc.items() if k != "epochs"})
    freeze = not rc["unfreeze"]
    metrics = {"head": rc["head"], "epochs": rc["epochs"], "frozen_encoder": freeze}
    if rc["head"] == "forecast":
        horizon = rc["horizon"]
        pairs = [_forecast_split(s, horizon) for s in dataset]
        if weights.horizon != horizon:
            attach_forecast_head(weights, horizon, seed=rc["seed"])
        # a frozen encoder is a pure function of the windows: encode them once
        data = encode_forecast_pairs(weights, pairs) if freeze else pairs
        metrics["mse_before"] = evaluate_forecast_mse(weights, data)
        linear_probe(weights, "forecast", data, epochs=rc["epochs"],
                     cfg=cfg, freeze=freeze)
        metrics["mse_after"] = evaluate_forecast_mse(weights, data)
        metrics["horizon"] = horizon
    else:
        linear_probe(weights, "reconstruction", dataset, epochs=rc["epochs"],
                     cfg=cfg, freeze=freeze)
    os.makedirs(rc["out"], exist_ok=True)
    ckpt = save_checkpoint(weights, os.path.join(rc["out"], "checkpoint.json"))
    return write_report(rc, rc["data"], metrics, {"checkpoint": ckpt})


def cmd_forecast(rc):
    weights = load_checkpoint(rc["ckpt"])
    dataset = load_series_arg(rc["data"])
    horizon = rc["horizon"]
    adapter = long_forecast if rc["mode"] == "probed-head" else zero_shot_short_forecast

    def group(chunk):
        splits = [_forecast_split(series, horizon) for series in chunk]
        forecasts = adapter(weights, [history for history, _ in splits], horizon)
        truths = np.stack([truth for _, truth in splits])
        scores = mx.pointwise_rows(truths, np.stack([fc.values for fc in forecasts]))
        naive_mse = mx.pointwise_rows(truths, np.stack(
            [naive_forecast(history, horizon) for history, _ in splits]))[0]
        return [
            {"name": series.name, "mse": float(mse), "mae": float(mae),
             "smape": float(smape), "naive_mse": float(naive)}
            for series, mse, mae, smape, naive in zip(chunk, *scores, naive_mse)
        ]

    rows = map_series(group, dataset, rc["workers"])
    metrics = {
        key: float(np.mean([r[key] for r in rows]))
        for key in ("mse", "mae", "smape", "naive_mse")
    }
    metrics["horizon"] = horizon
    metrics["mode"] = rc["mode"]
    return write_report(rc, rc["data"], metrics, {"per_series": rows})


def cmd_impute(rc):
    weights = load_checkpoint(rc["ckpt"])
    dataset = load_series_arg(rc["data"])

    def group(chunk):
        masked = [
            apply_block_mask(series, ImputationSpec(
                ratio=rc["ratio"], block_len=rc["block_len"], seed=rc["seed"] + i))
            for i, series in chunk
        ]
        filled = zero_shot_impute(weights, masked)
        rows = []
        for (_, series), hidden, fill in zip(chunk, masked, filled):
            held_out = series.observed & ~hidden.observed
            if not held_out.any():
                raise ConfigError(
                    f"series {series.name!r}: no observed values were hidden"
                )
            truth = series.values[held_out]
            guess = fill.values[held_out]
            rows.append({
                "name": series.name,
                "mse": mx.mse(truth, guess),
                "mae": mx.mae(truth, guess),
            })
        return rows

    rows = map_series(group, list(enumerate(dataset)), rc["workers"])
    metrics = {
        "mse": float(np.mean([r["mse"] for r in rows])),
        "mae": float(np.mean([r["mae"] for r in rows])),
        "ratio": rc["ratio"],
    }
    return write_report(rc, rc["data"], metrics, {"per_series": rows})


def cmd_detect(rc):
    weights = load_checkpoint(rc["ckpt"])
    dataset = load_series_arg(rc["data"])
    if len(dataset) != 1:
        raise ConfigError(
            f"detect expects a single-series file, got {len(dataset)} columns"
        )
    series = dataset[0]
    labels = load_labels(rc["labels"], n_expected=len(series))
    series = dataclasses.replace(series, anomalies=labels)
    result = detect_anomalies(weights, series)
    metrics = _detection_metrics(result.scores, result.series.anomalies)
    os.makedirs(rc["out"], exist_ok=True)
    save_csv(
        os.path.join(rc["out"], "scores.csv"),
        [Series(values=result.scores, name="score")],
    )
    return write_report(rc, rc["data"], metrics)


def cmd_classify(rc):
    weights = load_checkpoint(rc["ckpt"])
    train = load_series_arg(rc["train_data"])
    test = load_series_arg(rc["test_data"])

    def labels_for(collection, path):
        mapping = load_classes(path)
        missing = [s.name for s in collection if s.name not in mapping]
        if missing:
            raise ConfigError(f"{path}: no class for series {missing}")
        return [mapping[s.name] for s in collection]

    result = classify_by_representation(
        weights,
        train,
        labels_for(train, rc["train_classes"]),
        test,
        labels_for(test, rc["test_classes"]),
        seed=rc["seed"],
    )
    os.makedirs(rc["out"], exist_ok=True)
    with open(os.path.join(rc["out"], "predictions.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "predicted"])
        writer.writerows(zip([s.name for s in test], result.predictions))
    metrics = {
        "accuracy": result.accuracy,
        "best_c": result.best_c,
        "val_accuracy": result.val_accuracy,
    }
    return write_report(rc, rc["test_data"], metrics)


def cmd_probe(rc):
    weights = load_checkpoint(rc["ckpt"])
    which = (
        list(PROBE_NAMES) if rc["probes"] == "all"
        else [p.strip() for p in rc["probes"].split(",") if p.strip()]
    )
    unknown = sorted(set(which) - set(PROBE_NAMES))
    if unknown:
        raise ConfigError(f"unknown probes {unknown}; choose from {PROBE_NAMES}")
    metrics = {}
    for probe in which:
        if probe == "suite":
            suite = sinusoid_embedding_suite(
                weights, rc["kind"], out_dir=rc["out"], seed=rc["seed"]
            )
            metrics["suite_explained_pc1"] = float(suite.explained[0])
            metrics["suite_explained_pc2"] = float(suite.explained[1])
        elif probe == "curve":
            curve = frequency_error_curve(
                weights, out_dir=rc["out"], seed=rc["seed"]
            )
            metrics["curve_spearman"] = curve.spearman
        elif probe == "mask-stats":
            stats = mask_embedding_stats(weights)
            metrics["mask_mean"] = stats["mean"]
            metrics["mask_std"] = stats["std"]
            metrics["mask_ks"] = stats["ks_statistic"]
        elif probe == "zero-vs-mask":
            if rc["data"] is None:
                raise ConfigError("the zero-vs-mask probe needs --data")
            report = zero_vs_mask_probe(
                weights, load_series_arg(rc["data"]), seed=rc["seed"]
            )
            metrics["mask_token_mse"] = report.mask_token_mse
            metrics["zero_fill_mse"] = report.zero_fill_mse
    return write_report(rc, rc["ckpt"], metrics)


def cmd_eval_metrics(rc):
    score_series = load_csv(rc["scores"])
    if len(score_series) != 1:
        raise ConfigError(
            f"score file must hold one column, got {len(score_series)}"
        )
    scores = score_series[0].values
    labels = load_labels(rc["labels"], n_expected=len(scores))
    return write_report(rc, rc["scores"], _detection_metrics(scores, labels))


COMMANDS = {
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "forecast": cmd_forecast,
    "impute": cmd_impute,
    "detect": cmd_detect,
    "classify": cmd_classify,
    "probe": cmd_probe,
    "eval-metrics": cmd_eval_metrics,
}


def dispatch(argv=None):
    """Parse argv, run one command, return the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        rc = resolve_run_config(args)
        report_path = COMMANDS[args.command](rc)
        print(report_path)
        return 0
    except TsfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
