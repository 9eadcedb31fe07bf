"""CLI tests, and the CLI output corpus: ``tests/data/cli_corpus.txt`` holds
one request a line with the sha256 of its (exit code, stdout, stderr).  A
change that means to move output regenerates it and lists the requests
that moved::

    PYTHONPATH=src python tests/test_cli.py
"""
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from demcrystal import characters, cli, demazure, verify
from demcrystal.cli import main
from demcrystal.demazure import (
    demazure_crystal_recursive,
    export_graph,
    generate_crystal,
    subgraph,
)
from demcrystal.eyd import EYDTuple, ExtendedYoungDiagram
from demcrystal.qlaurent import ONE, ZERO
from demcrystal.verify import weights_up_to
from demcrystal.weights import Weight, weyl_word

SUITES = (
    "boson-fermion",
    "demazure-crystal",
    "demazure-character",
    "specializations",
    "sanderson",
    "lemmas",
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_character_anchor(capsys):
    code, out = run(
        ["character", "--s", "2", "--t", "0", "-L", "1", "--route", "demazure+"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "1 + z^-1*q + z^-2*q^2"


def test_character_routes_agree(capsys):
    outs = set()
    for route in (name for name, (_, path, _) in characters.ROUTES.items() if path):
        code, out = run(
            ["character", "--s", "1", "--t", "1", "-L", "2", "--route", route],
            capsys,
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_character_json(capsys):
    code, out = run(
        ["character", "--s", "1", "--t", "0", "-L", "1", "--route", "recursive",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    json.loads(out)


def test_crystal_dot_nine_nodes(capsys):
    code, out = run(
        ["crystal", "--s", "2", "--t", "0", "--word", "r1r0", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.count("label=\"(") == 9


def test_crystal_table(capsys):
    code, out = run(
        ["crystal", "--s", "2", "--t", "0", "--word", "w+2", "--format", "table"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("total 9")


def test_oracle_command(capsys):
    code, out = run(
        ["oracle", "--s", "2", "--t", "0", "--word", "r0"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "1 + z^-1*q + z^-2*q^2"


def test_verify_suite_pass(capsys):
    code, out = run(
        ["verify", "--suite", "sanderson", "--max-k", "2", "--max-L", "4"],
        capsys,
    )
    assert code == 0
    assert "suite sanderson: PASS" in out


def test_empty_word_is_the_identity_word(capsys):
    # it used to exit 2 with "requires --word"
    for command in ("crystal", "oracle"):
        argv = [command, "--s", "1", "--t", "1", "--word"]
        code, out = run(argv + [""], capsys)
        assert code == 0 and run(argv + ["w+0"], capsys) == (code, out)


@pytest.mark.parametrize("lam", list(weights_up_to(3)), ids=lambda lam: f"s{lam.a0}t{lam.a1}")
def test_word_graph_is_the_recursive_subgraph(lam, capsys):
    # --word builds B_w by the width characterization, not all of B_L; its
    # graph is B_L's restricted to the string recursion's set
    w = ["--s", str(lam.a0), "--t", str(lam.a1)]
    for L in range(1, 6):
        for sign in "+-":
            G = subgraph(generate_crystal(lam, L), demazure_crystal_recursive(lam, weyl_word(sign, L)))
            code, out = run(["crystal", *w, "--word", f"w{sign}{L}", "--format", "json"], capsys)
            assert (code, out) == (0, export_graph(G, "json")), (sign, L)


def test_word_runs_no_string_recursion(monkeypatch, capsys):
    argv = ["crystal", "--s", "1", "--t", "1", "--word", "w-4", "--format", "json"]
    want = run(argv, capsys)

    def refuse(lam, word):
        raise AssertionError("crystal --word ran the string recursion")

    monkeypatch.setattr(demazure, "demazure_crystal_recursive", refuse)
    assert run(argv, capsys) == want and want[0] == 0
    assert not hasattr(cli, "demazure_crystal_recursive")


CORPUS = Path(__file__).parent / "data" / "cli_corpus.txt"


def corpus_requests():
    """Every weight s + t <= 3, level 0 included: each character route and
    format at L = -1..5, the oracle and a Demazure crystal for each word, and
    each crystal format at L = -1..3; every suite at the defaults and at
    --max-k 3 --max-L 4; the empty word; then the oracle's JSON for every
    weight of level 1..4 at w+5..w+8 and w-5..w-8."""
    words = [f"w{sign}{L}" for sign in "+-" for L in range(5)] + ["r1r0"]
    for s in range(4):
        for t in range(4 - s):
            w = ("--s", str(s), "--t", str(t))
            for L in range(-1, 6):
                for route in characters.ROUTES:
                    for fmt in ("table", "json"):
                        yield ("character", *w, "-L", str(L), "--route", route, "--format", fmt)
            for word in words:
                yield ("oracle", *w, "--word", word)
                yield ("crystal", *w, "--word", word)
            for L in range(-1, 4):
                for fmt in ("table", "json", "dot"):
                    yield ("crystal", *w, "-L", str(L), "--format", fmt)
    for suite in SUITES + ("path-character", "f-symmetry"):
        yield ("verify", "--suite", suite)
        yield ("verify", "--suite", suite, "--max-k", "3", "--max-L", "4")
    for command in ("oracle", "crystal"):
        yield (command, "--s", "1", "--t", "1", "--word", "")
    for level in range(1, 5):
        for s in range(level + 1):
            for word in (f"w{sign}{L}" for sign in "+-" for L in range(5, 9)):
                yield ("oracle", "--s", str(s), "--t", str(level - s), "--word", word,
                       "--format", "json")


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def test_cli_corpus():
    """Every corpus request gives the digest it was recorded with; a failure
    names every request that moved."""
    corpus = [line.split("  ", 1) for line in CORPUS.read_text().splitlines()]
    assert len(corpus) >= 1480
    moved = [request for sha, request in corpus if digest(shlex.split(request)) != sha]
    assert not moved, f"{len(moved)} requests moved:\n" + "\n".join(moved)


def test_corpus_requests_are_the_corpus():
    """The generator, which reads the route table, still yields exactly the
    recorded requests, in order."""
    recorded = [line.split("  ", 1)[1] for line in CORPUS.read_text().splitlines()]
    assert len(recorded) == 1480
    assert [shlex.join(argv) for argv in corpus_requests()] == recorded


def test_deterministic_output(capsys):
    args = ["crystal", "--s", "1", "--t", "1", "-L", "2", "--format", "json"]
    _, a = run(args, capsys)
    _, b = run(args, capsys)
    assert a == b


def test_out_file(tmp_path, capsys):
    target = tmp_path / "c.txt"
    code, _ = run(
        ["character", "--s", "1", "--t", "0", "-L", "1", "--route", "path",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert target.read_text().strip() == "1 + z^-1*q"
    # a refused request leaves an existing file byte-identical, and creates
    # no file where there was none, nor at the target of a dangling link
    missing, link = tmp_path / "new.txt", tmp_path / "link"
    link.symlink_to(missing)
    for argv in (["character", "--s", "0", "--t", "0", "-L", "1"],
                 ["crystal", "--s", "1", "--word", "r0r0"],
                 ["verify", "--suite", "lemmas", "--max-k", "0"]):
        target.write_bytes(b"precious\n")
        assert_usage_error(argv + ["--out", str(target)], capsys)
        assert target.read_bytes() == b"precious\n"
        for out in (missing, link):
            assert_usage_error(argv + ["--out", str(out)], capsys)
            assert not missing.exists()
        assert link.is_symlink()
    # a shorter output replaces a longer file whole
    target.write_text("x" * 100)
    assert run(["character", "--s", "1", "-L", "1", "--out", str(target)], capsys)[0] == 0
    assert target.read_text() == "1 + z^-1*q\n"


def test_usage_errors(capsys):
    for argv in (
        ["character", "--s", "0", "--t", "0", "-L", "1"],
        ["character", "--s", "1", "--t", "0"],
        ["oracle", "--s", "1", "--t", "0"],
        ["crystal", "--s", "1", "--t", "0", "--word", "garbage"],
        [],
        ["bogus"],
        ["character", "--s", "1", "-L"],
        ["character", "--s", "x", "-L", "1"],
        ["character", "--s", "1", "-L", "1", "--route", "nope"],
        ["character", "--s", "1", "-L", "1", "--rou", "path"],
        ["character", "--s", "1", "--s", "2", "-L", "1"],
        ["character", "--s", "1", "-L", "1", "--route"],
        ["character", "--s", "1", "-L", "--route", "path"],
        ["character", "--s", "1", "-L", "1", "stray"],
        ["verify"],
        ["verify", "--max-k", "3"],
        # flags that used to be accepted and ignored
        ["character", "--s", "1", "--t", "0", "-L", "1", "--format", "dot"],
        ["oracle", "--s", "1", "--t", "0", "--word", "r0", "--format", "dot"],
        ["character", "--s", "1", "--t", "0", "-L", "2", "--word", "r0r1"],
        ["crystal", "--s", "1", "--t", "0", "-L", "5", "--word", "r0"],
        # no suite takes a seed: every grid is walked in full
        ["verify", "--suite", "sanderson", "--seed", "5"],
        ["verify", "--suite", "boson-fermion", "--seed", "0"],
        ["verify", "--suite", "lemmas", "--seed", "5"],
        # ints are ASCII digits after an optional "-", as in w+L; int() took
        # these as 10, 3, 3 and 2
        ["character", "--s", "1", "-L", "1_0"],
        ["character", "--s", "1", "-L", "\uff13"],
        ["character", "--s", "1", "-L", " 3"],
        ["character", "--s", "1", "-L", "+2"],
        # an empty --out was read as no --out
        ["character", "--s", "1", "-L", "1", "--out", ""],
        ["character", "--s", "1", "-L", "1", "--out="],
    ):
        assert_usage_error(argv, capsys)
    assert main(["crystal", "--s", "1"]) == 2
    assert capsys.readouterr() == ("", "error: crystal requires --word or -L\n")


def test_flag_syntax(capsys):
    """``--flag=value`` is ``--flag value``, ``--word=`` the empty word."""
    argv = ["character", "--s", "1", "--t", "1", "-L", "2"]
    assert run(argv + ["--route=path"], capsys) == run(argv + ["--route", "path"], capsys)
    assert run(["crystal", "--s=1", "--word="], capsys) == run(["crystal", "--s", "1", "--word", ""],
                                                               capsys)


def test_help(capsys):
    for argv, names in ((["-h"], ("crystal", "character", "oracle", "verify")),
                        (["character", "--help"],
                         ("--s", "--t", "--format", "--out", "-L", "--route"))):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and all(name in out for name in names)


def test_no_argparse_gettext_or_locale():
    """A request loads none of the modules whose first use cost more than
    the request's own work."""
    code = ("import sys; before = set(sys.modules); from demcrystal import cli; "
            "assert cli.main(['character', '--s', '1', '-L', '2']) == 0; "
            "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_no_dataclasses_or_inspect():
    """The CLI's modules are plain ``__slots__`` classes and the ring parses
    a str q-exponent by hand: importing it loads neither ``dataclasses`` nor
    the ``inspect`` module it pulls in, nor ``fractions`` and ``decimal``."""
    code = ("import sys; before = set(sys.modules); from demcrystal import cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_entry_point():
    """``main()`` reads ``sys.argv``, as the ``demcrystal`` script calls it."""
    def cli_(*argv):
        return subprocess.run([sys.executable, "-m", "demcrystal.cli", *argv],
                              capture_output=True, text=True, env=_env())

    done = cli_("character", "--s", "1", "-L", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 + z^-1*q\n", "")
    done = cli_("character", "--s", "x")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _env():
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def assert_usage_error(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["character", "--s", "1", "--t", "1", "-L", "-1", "--route", route]
     for route in characters.ROUTES]
    + [["crystal", "--s", "1", "--t", "0", "-L", "-1"],
       ["crystal", "--s", "1", "--t", "0", "--word", "w+-1"]],
)
def test_negative_length_rejected(argv, capsys):
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [["character", "--s", "1", "--t", "0", "-L", "1"],
     ["oracle", "--s", "1", "--t", "0", "--word", "r0"]],
)
def test_unwritable_out(argv, tmp_path, capsys):
    assert_usage_error(argv + ["--out", str(tmp_path / "missing" / "x")], capsys)


@pytest.mark.parametrize("route", ["recursive", "demazure+", "demazure-"])
def test_recursion_too_deep_is_refused(route, tmp_path, capsys):
    """f_recursive recurses once per unit of L: past the interpreter's
    recursion limit a route on it is refused in one line, not a traceback,
    and an --out it created is removed again."""
    argv = ["character", "--s", "1", "-L", "1200", "--route", route]
    assert_usage_error(argv, capsys)
    target = tmp_path / "c.txt"
    assert_usage_error(argv + ["--out", str(target)], capsys)
    assert not target.exists()


def test_recursion_too_deep_names_the_level(capsys):
    """occupation_vectors recurses once per letter weight, so the fermionic
    route runs out of depth at a high level even at L = 1; the refusal names
    the level as well as L, since L alone is not the cause."""
    assert main(["character", "--s", "1200", "-L", "1", "--route", "fermionic"]) == 2
    assert capsys.readouterr() == ("", "error: route fermionic recurses too deep at level 1200, L = 1\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_out(capsys):
    """A write that fails once the sink is open is a usage error too."""
    assert_usage_error(["character", "--s", "1", "-L", "2", "--out", "/dev/full"], capsys)


@pytest.mark.parametrize(
    "argv",
    [["--suite", "boson-fermion", "--max-k", "0"],
     ["--suite", "demazure-crystal", "--max-k", "-1"],
     ["--suite", "specializations", "--max-k", "2", "--max-L", "0"],
     ["--suite", "lemmas", "--max-k", "0"],
     ["--suite", "sanderson", "--max-L", "-3"]],
)
def test_verify_empty_grid_rejected(argv, capsys):
    assert_usage_error(["verify"] + argv, capsys)


def test_verify_golden(capsys):
    """Output of every suite at --max-k 2 --max-L 3, as first recorded."""
    got = ""
    for suite in SUITES:
        code, out = run(["verify", "--suite", suite, "--max-k", "2", "--max-L", "3"], capsys)
        assert code == 0
        got += out
    golden = Path(__file__).parent / "data" / "verify_max_k2_max_L3.txt"
    assert got == golden.read_text()


def test_verify_failure_path(monkeypatch, capsys):
    monkeypatch.setattr(characters, "f_bosonic", lambda *args: ZERO)
    code, out = run(["verify", "--suite", "boson-fermion", "--max-k", "1", "--max-L", "1"],
                    capsys)
    assert code == 1
    assert out == (
        "FAIL bosonic k=1 L=1 b=-1 c=-2\n"
        "boson-fermion k=1 L=1: FAIL\n"
        "suite boson-fermion: FAIL\n"
    )


def test_a_check_is_its_failures():
    # a record stores no verdict: it passes exactly when it names no failure
    assert verify.Check._fields == ("label", "failures", "cases")
    assert verify.Check("cell", (), 1).ok and not verify.Check("cell", ("side cell",), 1).ok


def _returns(value):
    return lambda real: lambda *args: value


def _drop_least(real):
    # the crystal less its key-least vertex
    def dropped(*args):
        vertices = real(*args)
        return vertices - {min(vertices, key=EYDTuple.key)}
    return dropped


def _doubled_right(real):
    # f(b, c) doubled for b > 0 keeps the support and breaks the reflection
    return lambda k, L, b, c: real(k, L, b, c) + (real(k, L, b, c) if b > 0 else ZERO)


@pytest.mark.parametrize("module, target, stub, suite, out", [
    (characters, "f_bosonic", _returns(ZERO), "path-character",
     "FAIL bosonic s=0 t=1 L=1\npath-character s=0 t=1 L=1: FAIL\n"
     "FAIL bosonic s=1 t=0 L=1\npath-character s=1 t=0 L=1: FAIL\n"
     "suite path-character: FAIL\n"),
    (characters, "demazure_ch_oracle", _returns(ZERO), "demazure-character",
     "FAIL oracle s=0 t=1 sign=+ L=1\ndemazure-character s=0 t=1 sign=+ L=1: FAIL\n"
     "FAIL oracle s=0 t=1 sign=- L=1\ndemazure-character s=0 t=1 sign=- L=1: FAIL\n"
     "FAIL oracle s=1 t=0 sign=+ L=1\ndemazure-character s=1 t=0 sign=+ L=1: FAIL\n"
     "FAIL oracle s=1 t=0 sign=- L=1\ndemazure-character s=1 t=0 sign=- L=1: FAIL\n"
     "suite demazure-character: FAIL\n"),
    (verify, "demazure_crystal_direct", _drop_least, "demazure-crystal",
     "FAIL direct+ s=0 t=1 L=1\nFAIL direct- s=0 t=1 L=1\n"
     "demazure-crystal s=0 t=1 L=1: FAIL\n"
     "FAIL direct+ s=1 t=0 L=1\nFAIL direct- s=1 t=0 L=1\n"
     "demazure-crystal s=1 t=0 L=1: FAIL\n"
     "suite demazure-crystal: FAIL\n"),
    (verify, "demazure_crystal_recursive", _drop_least, "demazure-crystal",
     "FAIL recursive+ s=0 t=1 L=1\nFAIL recursive- s=0 t=1 L=1\n"
     "demazure-crystal s=0 t=1 L=1: FAIL\n"
     "FAIL recursive+ s=1 t=0 L=1\nFAIL recursive- s=1 t=0 L=1\n"
     "demazure-crystal s=1 t=0 L=1: FAIL\n"
     "suite demazure-crystal: FAIL\n"),
    (characters, "real_character_check", _returns(False), "specializations",
     "FAIL product s=0 t=1 L=1\nreal s=0 t=1 L=1: FAIL\n"
     "FAIL product s=1 t=0 L=1\nreal s=1 t=0 L=1: FAIL\n"
     "principal k=1 L=1: pass\nsuite specializations: FAIL\n"),
    (characters, "principal_character_check", _returns(False), "specializations",
     "real s=0 t=1 L=1: pass\nreal s=1 t=0 L=1: pass\n"
     "FAIL fermionic k=1 L=1\nprincipal k=1 L=1: FAIL\nsuite specializations: FAIL\n"),
    (characters, "sanderson_identity_check", _returns(False), "sanderson",
     "FAIL q-multinomial k=1 L=0\nsanderson k=1 L=0: FAIL\n"
     "FAIL q-multinomial k=1 L=1\nsanderson k=1 L=1: FAIL\n"
     "suite sanderson: FAIL\n"),
    (characters, "f_fermionic", _returns(ZERO), "boson-fermion",
     "FAIL fermionic k=1 L=1 b=-1 c=-2\nboson-fermion k=1 L=1: FAIL\n"
     "suite boson-fermion: FAIL\n"),
    (characters, "f_recursive", _returns(ONE), "f-symmetry",
     "FAIL support k=1 L=0 b=-1 c=-2\nf-symmetry k=1 L=0: FAIL\n"
     "FAIL support k=1 L=1 b=-2 c=-3\nf-symmetry k=1 L=1: FAIL\n"
     "suite f-symmetry: FAIL\n"),
    (characters, "f_recursive", _doubled_right, "f-symmetry",
     "f-symmetry k=1 L=0: pass\n"
     "FAIL reflection k=1 L=1 b=-1 c=-2\nf-symmetry k=1 L=1: FAIL\n"
     "suite f-symmetry: FAIL\n"),
], ids=["bosonic", "oracle", "direct", "recursive", "real", "principal", "sanderson",
        "fermionic", "support", "reflection"])
def test_verify_failure_names_the_route(module, target, stub, suite, out, monkeypatch, capsys):
    # a FAIL line names the side or condition that fails, a route as --route
    # names it
    monkeypatch.setattr(module, target, stub(getattr(module, target)))
    assert run(["verify", "--suite", suite, "--max-k", "1", "--max-L", "1"], capsys) == (1, out)


def test_vertex_failure_names_the_key_least_vertex(monkeypatch):
    # the report does not hang on the order a set of vertices iterates in
    monkeypatch.setattr(verify, "_vertex_ok", lambda T, s: False)
    checks = verify.demazure_crystal(2, 3)
    for lam in weights_up_to(2):
        for L in range(1, 4):
            prev = generate_crystal(lam, L - 1).vertices if L > 1 else frozenset()
            least = min(T.key() for T in generate_crystal(lam, L).vertices - prev)
            assert next(checks).failures == (f"vertex s={lam.a0} t={lam.a1} L={L} {least}",)


def test_vertex_check_refuses_equal_widths():
    # a valid tuple of widths (1, 1) outside B(Lambda_0 + Lambda_1): Y_1 and
    # Y_{s+1} may not have one width off the vacuum
    T = EYDTuple((ExtendedYoungDiagram.make(0, (-1,)), ExtendedYoungDiagram.make(1, (0,))))
    assert T.widths() == (1, 1)
    assert all(T not in generate_crystal(Weight(1, 1, 0), L).vertices for L in range(1, 4))
    assert not verify._vertex_ok(T, 1)
    assert verify._vertex_ok(EYDTuple.vacuum(1, 1), 1)


@pytest.mark.parametrize("broken", ["e_f", "f_e"])
def test_verify_vertex_failure_path(broken, monkeypatch, capsys):
    # e_i f_i T = T fails when e_i forgets every vertex; f_i e_i T = T fails
    # when e_i returns T wherever it should return None
    real = verify.e_tilde
    wrong = (lambda i, T: None) if broken == "e_f" else (lambda i, T: real(i, T) or T)
    monkeypatch.setattr(verify, "e_tilde", wrong)
    code, out = run(["verify", "--suite", "demazure-crystal", "--max-k", "1", "--max-L", "1"],
                    capsys)
    assert code == 1
    assert out.startswith("FAIL vertex s=0 t=1 L=1 ")
    assert out.endswith("demazure-crystal s=1 t=0 L=1: FAIL\nsuite demazure-crystal: FAIL\n")


@pytest.mark.parametrize(
    "argv",
    [["character", "--s", "1", "--t", "1", "-L", str(least - 1), "--route", route]
     for route, (least, _, _) in characters.ROUTES.items() if least]
    + [["crystal", "--s", "1", "--t", "0", "--word", "r0r0"],
       ["oracle", "--s", "1", "--t", "0", "--word", "r1r1"],
       ["oracle", "--s", "1", "--t", "0", "--word", "w+x"]],
)
def test_checked_before_any_route(argv, capsys):
    assert_usage_error(argv, capsys)


def test_route_fault_is_not_a_usage_error(monkeypatch, capsys):
    def broken(*args):
        raise ValueError(f"inexact polynomial division: non-zero remainder at {args[1:]}")

    monkeypatch.setattr(characters, "f_bosonic", broken)
    monkeypatch.setattr(characters, "demazure_ch_oracle", broken)
    with pytest.raises(ValueError, match="remainder"):
        main(["character", "--s", "1", "--t", "1", "-L", "3", "--route", "bosonic"])
    # oracle --word runs the library's oracle, at the (sign, L) of its word
    with pytest.raises(ValueError, match=r"remainder at \('-', 3\)"):
        main(["oracle", "--s", "1", "--t", "1", "--word", "w-3"])
    assert capsys.readouterr().err == ""


if __name__ == "__main__":
    CORPUS.write_text("".join(f"{digest(argv)}  {shlex.join(argv)}\n" for argv in corpus_requests()))
