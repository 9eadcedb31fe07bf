"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs run.py once per seed, one after another, and prints for each metric
the median and the quartile spread (Q3 - Q1) / median, next to a third of
the metric's bound from BENCHMARK.json.  Run it from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else 0.0
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:18s} median {statistics.median(vals):12.5g} {metric['unit']:6s} "
              f"spread {spread:.4f}  bound/3 {metric['bound'] / 3:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
