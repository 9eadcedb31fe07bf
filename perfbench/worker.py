"""One workload run in a fresh interpreter; prints one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--rounds R | --ops N] [--trace --spans-out FILE]

Modes: by default whole rounds run until --seconds have passed and at
least MIN_SAMPLES ops are done.  --rounds runs a fixed number of rounds
(the traced run, so its counts repeat exactly for a seed).  --ops replays
exactly the first N ops (the untraced twin of a traced run).

run.py starts this with PYTHONPATH pointing at the checkout's src/, so
every cache of the library starts empty.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import stats
import tracing
import workloads

MIN_SAMPLES = stats.min_samples_for(stats.TAIL_PERCENTILE)
# No new round starts after this many seconds, whatever the mode, so that a
# much slower program still ends well inside the per-invocation time limit.
HARD_CAP_S = 75.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--rounds", type=int, default=0)
    mode.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


def import_library(src_dir: str):
    """Import demcrystal and its CLI, refusing any copy outside src_dir."""
    import demcrystal
    import demcrystal.cli  # noqa: F401  (cli-cold forks from a parent holding it)

    here = os.path.realpath(demcrystal.__file__)
    if not here.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"demcrystal was imported from {here}, not from {src_dir}")


def run(args, tracer) -> dict:
    latencies: list[float] = []
    child_rss: list[int] = []
    failures: list[str] = []
    attempted = rounds_done = 0
    cli = args.workload == "cli-cold"
    if cli:
        # Without this, the first full collection in each forked request
        # process writes to every inherited object and so copies every page
        # of the parent's heap; a real CLI process has no inherited heap.
        gc.collect()
        gc.freeze()
    else:
        compute, check = workloads.IN_PROCESS[args.workload]
    t_start = time.perf_counter()
    for round_ in workloads.ROUNDS[args.workload](args.seed):
        for case in round_:
            if args.ops and attempted >= args.ops:
                break
            op_id = attempted
            attempted += 1
            if cli:
                dt, ok, detail, rss, child = workloads.run_cli_op(case, tracer, op_id)
                if child is not None:
                    tracer.absorb(child)
                if rss:
                    child_rss.append(rss)
                if dt:
                    latencies.append(dt)
            else:
                tracer.begin_op(op_id)
                t0 = time.perf_counter()
                try:
                    outputs = compute(case)
                except Exception as exc:  # a failing op is counted, not fatal
                    outputs, detail = None, f"{case}: {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                tracer.end_op()
                latencies.append(dt)
                if outputs is None:
                    ok = False
                else:
                    try:
                        ok, detail = check(case, outputs)
                    except Exception as exc:
                        ok, detail = False, f"{case}: check raised {type(exc).__name__}: {exc}"
            if not ok:
                failures.append(detail)
        else:
            rounds_done += 1
        elapsed = time.perf_counter() - t_start
        if args.ops:
            if attempted >= args.ops:
                break
        elif args.rounds:
            if rounds_done >= args.rounds:
                break
        elif elapsed >= args.seconds and attempted >= MIN_SAMPLES:
            break
        if elapsed >= HARD_CAP_S:
            break
    wall = time.perf_counter() - t_start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": rounds_done,
        "ops_per_round": len(next(workloads.ROUNDS[args.workload](args.seed))),
        "wall_s": wall,
        # CPU time of this process and its request processes; far below wall
        # time means the run waited for a CPU.
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "latencies_s": latencies,
        "peak_rss_kb": max(child_rss) if cli and child_rss else own.ru_maxrss,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src_dir = os.path.join(os.getcwd(), "src")
    import_library(src_dir)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    result = run(args, tracer)
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
