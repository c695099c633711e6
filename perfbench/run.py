"""tinytsfm benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the last stdout line is a JSON object whose metrics
are the `end_to_end` metrics of BENCHMARK.json; with `--trace 1` they are its
`per_layer` metrics, taken from a traced half of the run and a paired
untraced half. Lines before it are the environment record and human-readable
tables. Workloads, metrics and what each is expected to move are described
in perfbench/README.md.
"""

import os

# Pin BLAS to one thread before NumPy loads it: on a 2-core machine two BLAS
# threads spread tiny-model step times far more than one does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# Set-ups are repeated between passes while they take less than this share
# of the measured time, so their median samples the whole run as the
# passes do; at least SETUP_MIN set-ups are timed in any run.
SETUP_SHARE = 0.2
SETUP_MIN = 5
# No more traced passes once this many spans are held (40 bytes each).
SPAN_CAP = 1_500_000
COVERAGE_FLOOR = 0.90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment


def blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, or 'unknown' outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "cli_workers": 1,
    }


# ---------------------------------------------------------------- measuring


class Tally:
    """Ops attempted and failed; a failed check counts as a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, run, check=None):
        """One op: time run(), then check its outcome outside the timer.
        Returns (seconds, outcome), or (None, None) when either step failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            outcome = run()
            elapsed = time.perf_counter() - t0
            if check is not None:
                check(outcome)
        except Exception as exc:  # the run goes on; the failure is reported
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None, None
        return elapsed, outcome


class Passes:
    """Seconds each op took in each pass: one list per op, NaN where the
    op failed."""

    def __init__(self, ops):
        self.cols = {op.name: [] for op in ops}

    def __len__(self):
        return len(next(iter(self.cols.values())))

    def op(self, name):
        return np.array(self.cols[name])

    def totals(self):
        """Wall seconds of each pass in which every op succeeded."""
        t = np.sum([self.op(name) for name in self.cols], axis=0)
        t = t[~np.isnan(t)]
        return t if len(t) else np.zeros(1)


def run_pass(ops, tally, passes, tracer=None, phases=None):
    """Run every op once, appending its seconds (NaN when it failed)."""
    for op in ops:
        if tracer is not None:
            tracer.op = len(phases)
            phases.append(op.name)
        elapsed = tally.attempt(op.run, op.check)[0]
        passes.cols[op.name].append(math.nan if elapsed is None else elapsed)
    if tracer is not None:
        tracer.op = -1


def op_rates(wl, ops, passes):
    """Per-op throughput figures, as medians over passes, and
    the online call latencies of the measured passes."""
    out = {}
    calls = np.array(getattr(wl, "latencies", ())) * 1e3
    if len(calls):
        out = {"online_ms_p50": float(np.median(calls)),
               "online_ms_p99": float(np.percentile(calls, 99)),
               "online_calls": len(calls)}
    by_metric = {}
    for op in ops:
        by_metric.setdefault(op.metric, []).append(op)
    for metric, group in by_metric.items():
        seconds = np.sum([passes.op(op.name) for op in group], axis=0)
        rates = sum(op.items for op in group) / seconds[~np.isnan(seconds)]
        out[metric] = float(np.median(rates)) if len(rates) else 0.0
    return out


def check_reference(workload, seed, summary, tally):
    """Compare first-pass report metrics with reference.json for this seed.
    Returns 'checked', or 'absent' for a seed with no recorded reference."""
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        return "absent"

    def compare():
        wrong = []
        for key, ref in recorded.items():
            got = summary.get(key)
            tol = workloads.REFERENCE_ATOL.get(
                key, workloads.REFERENCE_RTOL * abs(ref) + 1e-9)
            if got is None or abs(got - ref) > tol:
                wrong.append(f"{key}: got {got}, reference {ref}")
        if wrong:
            raise workloads.OpFailed("reference mismatch: " + "; ".join(wrong))

    tally.attempt(compare)
    return "checked"


def set_up(name, seed, work):
    """Set a workload up in the empty directory `work`.
    Returns (workload, seconds, digest of every file the set-up wrote)."""
    import workloads

    wl = workloads.WORKLOADS[name](work, seed)
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    return wl, elapsed, workloads.digest_tree(work)


def prepare(name, seed, work):
    """Set the workload up once, then run one untimed warm-up pass whose
    outputs later passes must reproduce exactly.
    Returns (workload, ops, set-up seconds, set-up digest, reference summary,
    tally)."""
    tally = Tally()
    wl, setup_s, digest = set_up(name, seed, work)
    ops = wl.ops()
    summary = {}
    for op in ops:
        tally.attempt(op.run, op.check)
        if op.first is not None:
            summary.update(op.summary(op.first))
    if hasattr(wl, "versus_cli"):
        tally.attempt(lambda: wl.versus_cli(ops))
        wl.latencies = []  # time only measured passes
    return wl, ops, setup_s, digest, summary, tally


class SetUps:
    """Repeated set-ups in a spare directory, timed between passes. Each
    must write the same files as the first set-up."""

    def __init__(self, name, seed, work, first_s, digest):
        self.name, self.seed, self.digest = name, seed, digest
        self.spare = os.path.join(work, "spare")
        self.seconds = [first_s]
        self.spent = 0.0  # wall time of the repeats, clean-up included

    def repeat(self, tally):
        import workloads

        t0 = time.perf_counter()
        os.makedirs(self.spare)
        try:
            _, elapsed, digest = set_up(self.name, self.seed, self.spare)
        finally:
            shutil.rmtree(self.spare, ignore_errors=True)
        self.seconds.append(elapsed)
        self.spent += time.perf_counter() - t0

        def same():
            if digest != self.digest:
                raise workloads.OpFailed("a repeated set-up wrote different files")

        tally.attempt(same)


# ---------------------------------------------------------------- per layer


def layer_values(tracer, ops=None):
    """Per-layer self times and counts, summed over the op ids in `ops`."""
    totals, calls = tracer.group_self_ms(ops)
    count = lambda key: tracer.count(key, ops)
    values = {k if k.endswith(".self_ms") else f"{k}.self_ms": v for k, v in totals.items()}
    values.update({
        "numcore.tape.nodes": count("numcore.tape.nodes"),
        "numcore.primitive.calls": calls["numcore.primitive"],
        "model.model_forward.calls": calls["model.model_forward"],
        "pretrain.sample_patch_mask.calls": calls["pretrain.sample_patch_mask"],
        "data.load_csv.cells": count("data.load_csv.cells"),
        "baselines.RbfSvm.fit.calls": calls["baselines.RbfSvm.fit"],
    })
    ratios = {
        "model.model_forward.rows_per_call":
            (count("model.model_forward.rows"), calls["model.model_forward"]),
        "pretrain.grad_useful_ratio":
            (count("pretrain.updated_tensors"), count("pretrain.grad_tensors")),
    }
    return values, {k: num / den if den else 0.0 for k, (num, den) in ratios.items()}


def per_layer(tracer, phases, passes, ops):
    """Per-layer figures per pass, the same per phase, and trace coverage:
    the share of each phase's timed wall time that falls in the self time
    of a layer span other than an entry span (see spans.is_entry). Time no
    span holds (the harness) and time an entry span holds itself (its
    private helpers) lower it."""
    n = len(passes)
    totals, ratios = layer_values(tracer)
    values = {k: v / n for k, v in totals.items()}
    values.update(ratios)
    breakdown, coverage = {}, {}
    for op in ops:
        ids = [i for i, name in enumerate(phases) if name == op.name]
        wall_ms = float(np.nansum(passes.op(op.name))) * 1e3
        phase, phase_ratios = layer_values(tracer, ids)
        layer_ms = sum(phase[f"{layer}.self_ms"] for layer in spans.LAYERS
                       if f"{layer}.self_ms" in phase)
        attributed = layer_ms - tracer.entry_self_ms(ids)
        coverage[op.name] = attributed / wall_ms if wall_ms else 0.0
        breakdown[op.name] = {
            "self_ms": dict(sorted(((k, v / n) for k, v in phase.items()
                                    if k.endswith(".self_ms") and v),
                                   key=lambda kv: -kv[1])),
            "counts": dict({k: v / n for k, v in phase.items()
                            if not k.endswith(".self_ms")}, **phase_ratios),
        }
    values["trace.coverage"] = min(coverage.values())
    return values, breakdown, coverage


# ---------------------------------------------------------------- main


def measure(args, work):
    t_import = time.perf_counter()
    import tinytsfm  # noqa: F401  (the first import is part of the run)
    import workloads
    import_s = time.perf_counter() - t_import
    wl, ops, first_s, digest, summary, tally = prepare(args.workload, args.seed, work)
    setups = SetUps(args.workload, args.seed, work, first_s, digest)
    reference = check_reference(args.workload, args.seed, summary, tally)

    # With tracing, untraced and traced passes alternate, so each traced
    # pass has an untraced partner run under the same machine conditions.
    passes, traced, phases = Passes(ops), Passes(ops), []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        run_pass(ops, tally, passes)
        if tracer is not None and len(tracer) < SPAN_CAP:
            untraced_calls = len(getattr(wl, "latencies", ()))
            tracer.install()
            try:
                run_pass(ops, tally, traced, tracer, phases)
            finally:
                tracer.uninstall()
            if untraced_calls:  # online latencies come from untraced passes only
                del wl.latencies[untraced_calls:]
        if setups.spent < SETUP_SHARE * (time.perf_counter() - start):
            setups.repeat(tally)
        if time.perf_counter() >= deadline:
            break
    while len(setups.seconds) < SETUP_MIN:
        setups.repeat(tally)
    # ru_maxrss is in KiB on Linux; read it before tracing allocates spans
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"env": environment(args), "import_s": import_s,
              "setup_s_all": setups.seconds, "reference": reference,
              "pass_ms_all": np.round(passes.totals() * 1e3, 4).tolist()}
    values = {
        "setup_s": statistics.median(setups.seconds),
        "setups": len(setups.seconds),
        "pass_ms": float(np.median(passes.totals())) * 1e3,
        "passes": len(passes),
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(op_rates(wl, ops, passes))
    if tracer is not None:
        layers, breakdown, coverage = per_layer(tracer, phases, traced, ops)
        values.update(layers)
        values["trace.overhead"] = float(np.median(traced.totals())
                                         / np.median(passes.totals()))
        values["trace.spans"] = len(tracer)
        values["trace.passes"] = len(traced)
        result["phases"] = breakdown
        result["coverage"] = coverage

        def covered():
            if min(coverage.values()) < COVERAGE_FLOOR:
                raise workloads.OpFailed(f"trace coverage {coverage} below {COVERAGE_FLOOR}")

        tally.attempt(covered)
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        tracer.save(os.path.join(STATE, "traces", f"{args.workload}-seed{args.seed}.npz"))
    values["error_rate"] = len(tally.failures) / tally.attempted
    result.update(values=values, failures=tally.failures, summary=summary)
    return not tally.failures, tally, values, result


def emit(args, correct, tally, values, result):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"reference for seed {args.seed}: {result['reference']}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for key in sorted(values):
        print(f"  {key:48s} {values[key]:.6g}")
    for phase, figures in result.get("phases", {}).items():
        layers = {f"{layer}.self_ms" for layer in spans.LAYERS}
        top = [f"{k} {v:.4g}" for k, v in figures["self_ms"].items() if k not in layers]
        counts = [f"{k} {v:.4g}" for k, v in figures["counts"].items() if v]
        print(f"  phase {phase}: coverage {result['coverage'][phase]:.4f}; per pass: "
              + ", ".join(top[:8] + counts))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, correct=correct), fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tinytsfm")):
        print(f"error: no tinytsfm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        correct, tally, values, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(args, correct, tally, values, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
