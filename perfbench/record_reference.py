"""Record reference.json: each workload's warm-up report metrics per seed.

    python3 perfbench/record_reference.py --seeds 0-63

Run it only on a commit whose outputs are known to be right; run.py then
checks every later run of a recorded seed against these values.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range a-b")
    parser.add_argument("--workloads", default="pretrain,evaluate")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for name in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            work = os.path.join(run.STATE, f"record-{name}-{seed}-{os.getpid()}")
            os.makedirs(work)
            try:
                *_, summary, tally = run.prepare(name, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if tally.failures:
                raise SystemExit(f"{name} seed {seed} failed: {tally.failures}")
            recorded.setdefault(name, {})[str(seed)] = summary
            print(name, seed, len(summary), flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
