"""demcrystal benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the directory holding src/demcrystal).  With
--trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, plus the
tracing overhead measured against an untraced replay of the same ops.
The run record (versions, sizes, every sample) goes to
.perfbench/record-<workload>-trace<0|1>.json, and traced spans to
.perfbench/spans-<workload>.pickle.  See perfbench/README.md for the
workloads and for which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import stats
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_REPEATS = 9
SETUP_IMPORT = "import demcrystal, demcrystal.cli"
# Whole-invocation budget; the caller allows 180 s.
BUDGET_S = 170.0
# Fixed round counts for the traced run, so that its counts repeat exactly
# for a seed.  Each takes roughly 10-25 s on a 2-core x86 box at the
# commit that introduced the benchmark.
TRACE_ROUNDS = {"identity-sweep": 10, "demazure-triangle": 15, "cli-cold": 4}

# (metric, unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def library_env(root: str) -> dict:
    src = os.path.join(root, "src")
    for part in ("__init__.py", "cli.py"):
        if not os.path.isfile(os.path.join(src, "demcrystal", part)):
            raise BenchError(f"no demcrystal sources under {src}; run from the repository root")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed keeps dict and set layouts the same from run to
    # run, which removes one source of run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(root: str, env: dict, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that only import the package.

    One untimed run first, so that bytecode compilation is not counted.
    The wait blocks instead of polling: Popen.wait(timeout) sleeps in steps
    of up to 50 ms, which would round every sample up to that grid.  A timer
    thread enforces the time budget instead.
    """
    samples = []
    for n in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_IMPORT], cwd=root, env=env)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"importing the package failed with exit code {code}")
        if n:
            samples.append(elapsed)
    return samples


def run_worker(root, env, deadline, args, *extra) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the worker could start")
    # Own process group, so that on a timeout the request processes a
    # cli-cold worker forked are stopped together with it.
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the time budget: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(res: dict, setup: list[float]) -> dict:
    lat = stats.latency_summary(res["latencies_s"])
    total = sum(res["latencies_s"])
    values = {
        "throughput_ops_s": res["attempted"] / total if total else 0.0,
        "latency_p50_ms": lat["p50_ms"],
        "latency_p90_ms": lat["p90_ms"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        "setup_s": statistics.median(setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(traced: dict, twin: dict) -> dict:
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - twin["wall_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}


def src_facts(root: str) -> dict:
    """Line count and content digest of src/, plus the git commit if known."""
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(os.path.join(dirpath, name), src).encode())
                digest.update(data)
                lines += data.count(b"\n")
    sha = None
    if os.path.exists(os.path.join(root, ".git")):  # never report an enclosing repo's commit
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    try:
        env = library_env(root)
        setup = measure_setup(root, env, deadline)
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}.pickle")
            traced = run_worker(
                root, env, deadline, args,
                "--trace", "--rounds", str(TRACE_ROUNDS[args.workload]), "--spans-out", spans_file,
            )
            twin = run_worker(root, env, deadline, args, "--ops", str(traced["attempted"]))
            runs = {"traced": traced, "untraced_twin": twin}
            metrics = per_layer(traced, twin)
            attempted = traced["attempted"] + twin["attempted"]
            failed = traced["failed"] + twin["failed"]
        else:
            res = run_worker(root, env, deadline, args)
            runs = {"untraced": res}
            metrics = end_to_end(res, setup)
            attempted, failed = res["attempted"], res["failed"]
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **src_facts(root),
        "setup_samples_s": setup,
        "runs": {
            name: {k: v for k, v in r.items() if k != "layers"} for name, r in runs.items()
        },
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, r in runs.items():
        print(
            f"{args.workload} seed={args.seed} {name}: {r['attempted']} ops in {r['rounds']} rounds "
            f"of {r['ops_per_round']}, {len(r['latencies_s'])} latency samples, "
            f"{r['wall_s']:.2f} s wall, {r['failed']} failed"
        )
        for line in r["failures"]:
            print(f"  FAIL {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
