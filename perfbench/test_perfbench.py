"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import pytest

import run
import stats
import tracing
import worker
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    # root [0,10] -> a [1,4] -> a1 [2,3]
    #             -> b [5,9] -> b1 [5,7], b2 [6,8] (overlapping), b3 [8.5,12] (past b)
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 8.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, 3, 3, 3]
    got = tracing.self_times(start, end, parent)
    # b is covered on [5,8] and [8.5,9]: 3.5 of its 4 seconds
    assert got == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 3.5])


def _record(tracer, spans):
    """Append (name, start, end, parent) spans to a tracer by hand."""
    for name, start, end, parent in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)


def test_absorb_rebases_parents_and_merges_names():
    parent, child = tracing.Tracer(), tracing.Tracer()
    _record(parent, [("x", 0.0, 1.0, -1)])
    _record(child, [("y", 0.0, 2.0, -1), ("x", 1.0, 1.5, 0)])
    child.counters["k"] = 2.0
    rec = {
        "names": child.names, "name": child.name, "start": child.start, "end": child.end,
        "parent": child.parent, "op": child.op, "counters": dict(child.counters), "caches": {},
    }
    parent.absorb(rec)
    assert [parent.names[n] for n in parent.name] == ["x", "y", "x"]
    assert list(parent.parent) == [-1, -1, 1]
    assert parent.counters["k"] == 2.0
    assert parent.absorbed_caches == [{}]


# -- percentile and sample-count rule -------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_supported_percentile(100) == pytest.approx(90.0)
    assert stats.highest_supported_percentile(99) < 90.0
    assert stats.highest_supported_percentile(10) == 0.0
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(99) == 1000
    with pytest.raises(ValueError):
        stats.latency_summary([0.001] * 99)
    summary = stats.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["samples"] == 100


def test_percentile_matches_statistics_inclusive():
    data = [0.3, 5.0, 1.0, 2.5, 9.0, 4.0, 7.5, 0.1, 6.0, 3.3, 8.8]
    deciles = statistics.quantiles(data, n=10, method="inclusive")
    assert stats.percentile(data, 90) == pytest.approx(deciles[8])
    assert stats.percentile(data, 50) == pytest.approx(statistics.median(data))


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    q1, q2, q3 = statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    assert stats.quartile_spread(range(1, 11)) == pytest.approx((q3 - q1) / q2)


# -- seeded inputs ------------------------------------------------------------------

def _first_rounds(name, seed, n=3):
    gen = workloads.ROUNDS[name](seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _first_rounds(name, 7) == _first_rounds(name, 7)
    assert _first_rounds(name, 7) != _first_rounds(name, 8)


def test_inputs_stay_inside_the_stated_ranges():
    for k, L, b, c in (case for r in _first_rounds("identity-sweep", 3, 5) for case in r):
        assert 1 <= k <= 6 and 1 <= L <= 10
        assert (b, c) in workloads.sweep_support(k, L)
    for s, t, L, sign in (case for r in _first_rounds("demazure-triangle", 3, 5) for case in r):
        assert 1 <= s + t <= 4 and 1 <= L <= 6 and sign in "+-"
    for argv, spec in (req for r in _first_rounds("cli-cold", 3, 5) for req in r):
        assert all(isinstance(a, str) for a in argv)
        assert argv[0] in ("character", "oracle", "crystal")


def test_sweep_support_is_exactly_where_f_is_nonzero():
    from demcrystal.characters import f_recursive

    for k in (1, 2, 3):
        for L in (1, 2, 3):
            grid = {
                (b, c)
                for b in range(-L * k - 2, L * k + 3)
                for c in range(b - k - 2, b + k + 3)
                if f_recursive(k, L, b, c)
            }
            assert grid == set(workloads.sweep_support(k, L))


def test_weyl_words_match_the_library():
    from demcrystal.weights import weyl_word_minus, weyl_word_plus

    for L in range(7):
        assert workloads.weyl_word("+", L) == weyl_word_plus(L)
        assert workloads.weyl_word("-", L) == weyl_word_minus(L)


# -- injected faults count as failures -------------------------------------------

def _args(name, ops):
    return argparse.Namespace(workload=name, seed=1, seconds=0.0, rounds=0, ops=ops)


def test_wrong_sweep_result_counts_as_failed(monkeypatch):
    from demcrystal import characters as ch
    from demcrystal.qlaurent import BivariatePolynomial

    good = worker.run(_args("identity-sweep", 5), tracing.NullTracer())
    assert good["attempted"] == 5 and good["failed"] == 0

    orig = ch.f_fermionic
    monkeypatch.setattr(ch, "f_fermionic", lambda *a: orig(*a) + BivariatePolynomial.term(1, qe=99))
    bad = worker.run(_args("identity-sweep", 5), tracing.NullTracer())
    assert bad["attempted"] == 5 and bad["failed"] == 5


def test_exception_counts_as_failed(monkeypatch):
    from demcrystal import characters as ch

    def boom(*a):
        raise RuntimeError("injected")

    monkeypatch.setattr(ch, "demazure_ch_oracle", boom)
    res = worker.run(_args("demazure-triangle", 4), tracing.NullTracer())
    assert res["attempted"] == 4 and res["failed"] == 4
    assert "injected" in res["failures"][0]


def test_cli_wrong_output_and_exit_code_count_as_failed(monkeypatch):
    from demcrystal import cli

    request = workloads.cli_request("character", "bosonic", None, 1, 1, 3, "+")
    _, ok, detail, _, _ = workloads.run_cli_op(request, tracing.NullTracer(), 0)
    assert ok, detail

    def wrong(args, out):
        out.write("1\n")
        return 0

    monkeypatch.setattr(cli, "cmd_character", wrong)
    _, ok, detail, _, _ = workloads.run_cli_op(request, tracing.NullTracer(), 0)
    assert not ok and "differs" in detail

    monkeypatch.setattr(cli, "main", lambda argv: 1)
    _, ok, detail, _, _ = workloads.run_cli_op(request, tracing.NullTracer(), 0)
    assert not ok and "exit code 1" in detail


def test_crystal_request_checks_vertex_count(monkeypatch):
    from demcrystal import cli

    for fmt in ("table", "json", "dot"):
        request = workloads.cli_request("crystal-L", None, fmt, 1, 1, 2, "+")
        _, ok, detail, _, _ = workloads.run_cli_op(request, tracing.NullTracer(), 0)
        assert ok, detail

    orig = cli.generate_crystal

    def short(lam, L):
        G = orig(lam, L)
        return type(G)(frozenset(list(G.vertices)[1:]), G.edges)

    monkeypatch.setattr(cli, "generate_crystal", short)
    request = workloads.cli_request("crystal-L", None, "table", 1, 1, 2, "+")
    _, ok, detail, _, _ = workloads.run_cli_op(request, tracing.NullTracer(), 0)
    assert not ok and "vertices" in detail


# -- the traced run ---------------------------------------------------------------

def _traced(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", name,
         "--seed", "1", "--seconds", "0", "--rounds", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["failed"] == 0
    return res["layers"]


def test_traced_sweep_touches_no_crystal_layer():
    m = _traced("identity-sweep")
    for layer in ("eyd", "paths", "demazure", "weights"):
        assert m[f"{layer}.total_self_s"] == 0.0
    assert m["eyd.f_tilde.calls"] == m["paths.energy.calls"] == m["demazure.generate_crystal.calls"] == 0
    assert m["qlaurent.mul.calls"] > 0 and m["qlaurent.mul.term_products"] >= m["qlaurent.mul.calls"]
    # characters.gaussian is the imported name f_bosonic calls; it must be traced
    assert m["qlaurent.gaussian.self_s"] > 0 and 0 < m["qlaurent.gaussian.hit_ratio"] < 1
    assert m["characters.f_bosonic.calls"] == m["characters.f_fermionic.calls"] > 0


def test_traced_triangle_is_crystal_bound():
    m = _traced("demazure-triangle")
    crystal = m["eyd.total_self_s"] + m["demazure.total_self_s"] + m["paths.total_self_s"]
    assert crystal > m["qlaurent.mul.self_s"] + m["qlaurent.exact_div.self_s"]
    assert m["paths.ground_state_path.calls_per_energy"] >= 1.0
    assert 0 < m["demazure.demazure_crystal_direct.kept_ratio"] <= 1.0
    assert 0 < m["demazure.generate_crystal.useful_ratio"] <= 1.0


def test_traced_cli_collects_spans_from_every_request():
    m = _traced("cli-cold")
    assert m["cli.main.calls"] == sum(len(sizes) for sizes in workloads.CLI_STRATA.values())
    assert m["cli.generate_crystal_per_crystal_query"] >= 1.0
    assert m["demazure.export_graph.self_s"] > 0


# -- BENCHMARK.json agrees with the code ------------------------------------------

def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
