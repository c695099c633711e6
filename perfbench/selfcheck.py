"""Steadiness self-check for the benchmark.

    python3 perfbench/selfcheck.py                 # counts + held-out seed
    python3 perfbench/selfcheck.py --spread 10     # run-to-run spread per workload

Default mode, for each workload:
  * two traced runs of one seed must report identical counts (tape nodes,
    primitive calls, forward calls and rows, CSV cells, SVM fits, sample
    mask calls, the useful-gradient ratio);
  * an untraced run of a held-out seed must give every end-to-end metric
    within the metric's bound of the first seed's run.

`--spread K` runs K seeds per workload untraced and reports, for each
end-to-end metric, the distance between the first and third quartiles as a
share of the median, against a third of the metric's bound.

Each run is a child `run.py` process, started one at a time and waited for.
Exit code 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = (
    "numcore.tape.nodes", "numcore.primitive.calls", "model.model_forward.calls",
    "model.model_forward.rows_per_call", "data.load_csv.cells",
    "baselines.RbfSvm.fit.calls", "pretrain.sample_patch_mask.calls",
    "pretrain.grad_useful_ratio",
)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload, seed, seconds, trace):
    """One run.py child; returns its result object (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def steadiness(cfg, seed, held_out):
    ok = True
    for wl in (w["name"] for w in cfg["workloads"]):
        first = bench(wl, seed, cfg["run_seconds"], 1)
        second = bench(wl, seed, cfg["run_seconds"], 1)
        for key in COUNTS:
            same = first[key] == second[key]
            ok &= same
            print(f"{wl:9s} {key:36s} {first[key]:12.6g} {second[key]:12.6g} "
                  f"{'same' if same else 'DIFFERENT'}")
        base = bench(wl, seed, cfg["run_seconds"], 0)
        other = bench(wl, held_out, cfg["run_seconds"], 0)
        for m in cfg["end_to_end"]:
            a, b = base[m["name"]], other[m["name"]]
            change = (b - a) / a
            worse = change if m["better"] == "lower" else -change
            within = worse <= m["bound"]
            ok &= within
            print(f"{wl:9s} {m['name']:36s} seed {seed} {a:.6g} seed {held_out} "
                  f"{b:.6g} ({change:+.1%}, bound {m['bound']:.0%}) "
                  f"{'ok' if within else 'OUT OF BOUND'}")
    return ok


def spread(cfg, k, first_seed):
    ok = True
    for wl in (w["name"] for w in cfg["workloads"]):
        runs = [bench(wl, first_seed + i, cfg["run_seconds"], 0) for i in range(k)]
        for m in cfg["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            steady = share <= m["bound"] / 3
            ok &= steady
            print(f"{wl:9s} {m['name']:12s} median {med:10.5g} spread {share:6.1%} "
                  f"(a third of the bound: {m['bound'] / 3:.1%}) "
                  f"{'ok' if steady else 'UNSTEADY'}  "
                  + " ".join(f"{v:.5g}" for v in values), flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, default=9001)
    parser.add_argument("--spread", type=int, default=0,
                        help="seeds per workload for the spread check")
    args = parser.parse_args()
    cfg = spec()
    if args.spread:
        ok = spread(cfg, args.spread, args.seed)
    else:
        ok = steadiness(cfg, args.seed, args.held_out)
    print("all checks hold" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
