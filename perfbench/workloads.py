"""Seeded inputs and checked operations for the three workloads.

Inputs are generated here from the seed alone; the library only ever sees
the generated parameters.  Each workload is an endless sequence of
*rounds*.  A round visits every stratum of the workload once (a stratum
fixes the input size, such as (k, L)), in a seeded order.  Each stratum
walks its free parameters in a fixed cycle from a seeded starting point,
so any stretch of rounds covers each stratum's range evenly.  Runs always
end on a round boundary.  Together this keeps the mix of input sizes the
same from run to run and from seed to seed, which is what makes medians
and p90 repeatable; the seed changes which exact inputs are run.

Every operation's output is checked exactly outside its timed region.  A
mismatch, an exception or a non-zero exit counts as a failure.
"""
from __future__ import annotations

import io
import json
import os
import pickle
import random
import resource
import sys
import time

WORKLOADS = ("identity-sweep", "demazure-triangle", "cli-cold")


def _cycle(options, offset: int, r: int):
    """Element of options for round r, walking them in order from offset."""
    return options[(offset + r) % len(options)]


# -- identity-sweep: f_bosonic == f_fermionic == f_recursive -----------------

# k <= 6 and L <= 10 reach past the A1 grid (k <= 4, L <= 8); k*L <= 36 keeps
# the costliest fermionic cases (hundreds of occupation vectors) to tens of
# milliseconds so that a run holds many rounds.
SWEEP_STRATA = [(k, L) for k in range(1, 7) for L in range(1, 11) if k * L <= 36]
# b visits this many evenly spaced points of its range, shifted by a seeded
# fraction of one spacing.  Cost varies smoothly with b (largest near 0), so
# every seed sees the same spread of costs.
SWEEP_B_POINTS = 8


def sweep_support(k: int, L: int):
    """All (b, c) where f^(k)_L(b, c) is nonzero.

    f is a sum over walks 0 = b_0, b_1, ..., b_L = b with steps in
    {-k, -k+2, ..., k}, weighted by positive q-powers, followed by one more
    step from b to c; so f is nonzero exactly on these pairs.
    """
    return [
        (b, c)
        for b in range(-L * k, L * k + 1, 2)
        for c in range(b - k, b + k + 1, 2)
    ]


def sweep_rounds(seed: int):
    rng = random.Random(f"identity-sweep:{seed}")
    shift = {st: rng.random() for st in SWEEP_STRATA}
    c_offset = {st: rng.randrange(st[0] + 1) for st in SWEEP_STRATA}
    r = 0
    while True:
        order = list(SWEEP_STRATA)
        rng.shuffle(order)
        round_ = []
        for k, L in order:
            bs = range(-L * k, L * k + 1, 2)
            b = bs[int((r % SWEEP_B_POINTS + shift[(k, L)]) / SWEEP_B_POINTS * len(bs))]
            c = b - k + 2 * _cycle(range(k + 1), c_offset[(k, L)], r)
            round_.append((k, L, b, c))
        yield round_
        r += 1


# -- demazure-triangle: crystals, characters and paths ----------------------

# Level <= 4 and L <= 6 with at most 256 paths per case, so a run holds
# dozens of rounds.  The two largest sizes, (2,5) and (3,4) with 243 and 256
# paths, appear twice per round: they then make up a fifth of the ops, so
# p90 falls inside their group instead of on the steep step below it.
TRIANGLE_STRATA = [
    (k, L) for k in range(1, 5) for L in range(1, 7) if (k + 1) ** L <= 256
] + [(2, 5), (3, 4)]


def triangle_rounds(seed: int):
    rng = random.Random(f"demazure-triangle:{seed}")
    choices = [
        [(s, k - s, sign) for s in range(k + 1) for sign in "+-"] for k, _ in TRIANGLE_STRATA
    ]
    offsets = [rng.randrange(len(c)) for c in choices]
    r = 0
    while True:
        order = list(range(len(TRIANGLE_STRATA)))
        rng.shuffle(order)
        round_ = []
        for i in order:
            s, t, sign = _cycle(choices[i], offsets[i], r)
            round_.append((s, t, TRIANGLE_STRATA[i][1], sign))
        yield round_
        r += 1


def weyl_word(sign: str, L: int) -> tuple[int, ...]:
    """w^+_L ends in r_0 and w^-_L in r_1; both alternate."""
    last = 0 if sign == "+" else 1
    return tuple((last + L - 1 - j) % 2 for j in range(L))


def word_text(word) -> str:
    return "".join(f"r{i}" for i in word)


# -- cli-cold: one fresh process per request --------------------------------

# (request kind, character route, output format) -> the (level, L) sizes it
# is sent at.  Sizes run from trivial to about 60 ms per cold request on a
# 2-core x86 box, so that no single size dominates the run; the seed picks
# how the level splits into (s, t) and the sign of the Weyl word.
CLI_STRATA = {
    ("character", "path", None): [(1, 3), (1, 6), (2, 3), (2, 4), (3, 3), (4, 3)],
    ("character", "recursive", None): [
        (1, 4), (1, 8), (2, 5), (2, 7), (3, 4), (3, 6), (4, 3), (4, 5),
    ],
    ("character", "bosonic", None): [
        (1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 4), (4, 2), (4, 4),
    ],
    ("character", "fermionic", None): [
        (1, 4), (1, 7), (2, 4), (2, 6), (3, 4), (3, 5), (4, 3), (4, 5),
    ],
    ("character", "demazure+", None): [(1, 4), (1, 8), (2, 4), (2, 6), (3, 5), (4, 4)],
    ("character", "demazure-", None): [(1, 5), (2, 5), (2, 7), (3, 4), (3, 6), (4, 4)],
    ("character", "oracle", None): [(1, 4), (2, 6), (3, 5), (4, 4), (4, 6)],
    ("oracle", None, "json"): [(1, 8), (2, 6), (3, 6), (3, 8), (4, 5), (4, 7)],
    **{
        ("crystal-L", None, fmt): [(1, 4), (1, 6), (2, 3), (2, 4), (3, 3)]
        for fmt in ("table", "json", "dot")
    },
    **{
        ("crystal-word", None, fmt): [(1, 5), (1, 7), (2, 4), (3, 3), (4, 3)]
        for fmt in ("table", "json", "dot")
    },
}


def cli_request(kind, route, fmt, s, t, L, sign):
    """(argv, spec) for one request; spec says what the check compares."""
    base = ["--s", str(s), "--t", str(t)]
    spec = {"kind": kind, "route": route, "format": fmt, "s": s, "t": t, "L": L, "sign": sign}
    if kind == "character":
        argv = ["character"] + base + ["-L", str(L), "--route", route]
    elif kind == "oracle":
        argv = ["oracle"] + base + ["--word", word_text(weyl_word(sign, L)), "--format", fmt]
    elif kind == "crystal-L":
        argv = ["crystal"] + base + ["-L", str(L), "--format", fmt]
    else:
        argv = ["crystal"] + base + ["--word", word_text(weyl_word(sign, L)), "--format", fmt]
    return argv, spec


def cli_rounds(seed: int):
    rng = random.Random(f"cli-cold:{seed}")
    strata = [(req, k, L) for req, sizes in CLI_STRATA.items() for k, L in sizes]
    offsets = [(rng.randrange(k + 1), rng.randrange(2)) for _, k, _ in strata]
    r = 0
    while True:
        round_ = []
        for ((kind, route, fmt), k, L), (s_off, sign_off) in zip(strata, offsets):
            s = _cycle(range(k + 1), s_off, r)
            sign = _cycle("+-", sign_off, r)
            round_.append(cli_request(kind, route, fmt, s, k - s, L, sign))
        rng.shuffle(round_)
        yield round_
        r += 1


ROUNDS = {
    "identity-sweep": sweep_rounds,
    "demazure-triangle": triangle_rounds,
    "cli-cold": cli_rounds,
}


# -- checked operations -------------------------------------------------------
#
# For the two in-process workloads, compute() is the timed region and
# check() runs after it, with tracing off.


def _terms(poly):
    """Exact canonical term list, independent of the internal representation."""
    return poly.to_json_obj()


def sweep_compute(case):
    from demcrystal import characters as ch

    k, L, b, c = case
    return ch.f_bosonic(k, L, b, c), ch.f_fermionic(k, L, b, c), ch.f_recursive(k, L, b, c)


def sweep_check(case, outputs):
    fb, ff, fr = outputs
    ref = _terms(fr)
    if not ref:
        return False, f"f{case} is zero inside its support"
    if _terms(fb) != ref:
        return False, f"bosonic != recursive at {case}"
    if _terms(ff) != ref:
        return False, f"fermionic != recursive at {case}"
    return True, ""


def triangle_compute(case):
    from demcrystal import characters as ch
    from demcrystal.demazure import demazure_crystal_direct, demazure_crystal_recursive
    from demcrystal.weights import Weight

    s, t, L, sign = case
    lam = Weight(s, t, 0)
    return (
        demazure_crystal_recursive(lam, weyl_word(sign, L)),
        demazure_crystal_direct(lam, sign, L),
        ch.demazure_ch(lam, sign, L),
        ch.demazure_ch_bruteforce(lam, sign, L),
        ch.demazure_ch_oracle(lam, sign, L),
        ch.ch_path_bruteforce(lam, L),
        ch.ch_via_f(lam, L),
    )


def triangle_check(case, outputs):
    rec, direct, formula, brute, oracle, paths, via_f = outputs
    if {T.key() for T in rec} != {T.key() for T in direct}:
        return False, f"recursive != direct Demazure crystal at {case}"
    ref = _terms(formula)
    if _terms(brute) != ref or _terms(oracle) != ref:
        return False, f"Demazure character triangle disagrees at {case}"
    if sum(int(term["c"]) for term in ref) != len(direct):
        return False, f"character dimension != crystal size at {case}"
    if _terms(paths) != _terms(via_f):
        return False, f"path brute force != ch_via_f at {case}"
    return True, ""


IN_PROCESS = {
    "identity-sweep": (sweep_compute, sweep_check),
    "demazure-triangle": (triangle_compute, triangle_check),
}


def _expected_cli(spec):
    """Reference output for a request, from a route other than the one asked."""
    from demcrystal import characters as ch
    from demcrystal.weights import Weight

    lam = Weight(spec["s"], spec["t"], 0)
    L, kind, route = spec["L"], spec["kind"], spec["route"]
    if kind == "character":
        if route in ("path", "bosonic", "fermionic"):
            return ch.ch_via_f(lam, L, ch.f_recursive)
        if route == "recursive":
            return ch.ch_via_f(lam, L, ch.f_fermionic)
        if route in ("demazure+", "demazure-"):
            return ch.demazure_ch_oracle(lam, route[-1], L)
        return ch.demazure_ch(lam, "+", L)  # the oracle route defaults to w^+_L
    if kind == "oracle":
        return ch.demazure_ch(lam, spec["sign"], L)
    if kind == "crystal-L":
        return (lam.level + 1) ** L
    return sum(int(t["c"]) for t in _terms(ch.demazure_ch(lam, spec["sign"], L)))


def _vertex_count(text: str, fmt: str) -> int:
    if fmt == "table":
        lines = text.splitlines()
        word, total = lines[-1].split()
        if word != "total" or int(total) != len(lines) - 1:
            raise ValueError("table footer does not match its rows")
        return int(total)
    if fmt == "json":
        return len(json.loads(text)["vertices"])
    if not text.startswith("digraph crystal {") or not text.rstrip().endswith("}"):
        raise ValueError("malformed DOT output")
    return sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)


def check_cli(spec, code: int, stdout: str):
    """(ok, detail) for one request's exit code and output."""
    if code != 0:
        return False, f"exit code {code}"
    expected = _expected_cli(spec)
    if spec["kind"] in ("crystal-L", "crystal-word"):
        got = _vertex_count(stdout, spec["format"])
        return got == expected, f"{got} vertices, expected {expected}"
    if spec["format"] == "json":
        return json.loads(stdout) == _terms(expected), "json output differs"
    return stdout == expected.to_text() + "\n", "text output differs"


def _cli_child(argv, spec, tracer, op_id, wfd) -> None:
    """Body of the forked request process; never returns."""
    from demcrystal import cli

    payload = {"ok": False, "detail": "", "latency": 0.0, "rss_kb": 0}
    try:
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        tracer.reset()
        tracer.begin_op(op_id)
        t0 = time.perf_counter()
        code = cli.main(argv)
        payload["latency"] = time.perf_counter() - t0
        tracer.end_op()
        payload["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ok, detail = check_cli(spec, code, out.getvalue())
        payload["ok"] = ok
        payload["detail"] = "" if ok else detail + " " + err.getvalue().strip()
        payload["trace"] = tracer.export()
    except BaseException as exc:  # the child must report whatever happened
        payload["detail"] = f"{type(exc).__name__}: {exc}"
    try:
        with os.fdopen(wfd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def run_cli_op(request, tracer, op_id):
    """Run one request in a process forked from the import-only parent.

    Forking (not spawning) is the point: the child starts with the package
    imported and every cache empty, like a fresh `demcrystal` call minus
    interpreter start-up, which setup_s measures.  The parent has no threads.

    Returns (latency_s, ok, detail, child_rss_kb, child_trace).  The latency
    is the wall time of cli.main inside the child; the check runs after it.
    """
    argv, spec = request
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _cli_child(argv, spec, tracer, op_id, wfd)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return 0.0, False, f"{argv}: request process ended with status {status}", 0, None
    payload = pickle.loads(data)
    detail = "" if payload["ok"] else f"{argv}: {payload['detail']}"
    return payload["latency"], payload["ok"], detail, payload["rss_kb"], payload.get("trace")
