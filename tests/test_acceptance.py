"""Acceptance suite. Each criterion emits a single pass/fail line in the
terminal summary and fails the corresponding test on any inexact match.
"""
import random
from collections import Counter
from itertools import chain

from conftest import ACCEPTANCE_LINES
from demcrystal import verify
from demcrystal.characters import (
    F_fermionic,
    ch_path_bruteforce,
    ch_via_f,
    demazure_ch,
    f_recursive,
)
from demcrystal.demazure import generate_crystal
from demcrystal.eyd import EYDTuple, e_tilde, f_tilde
from demcrystal.qlaurent import ZERO
from demcrystal.weights import ALPHA, Weight


def report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, line


def run_engine(expected_cases: dict, *suites):
    """(ok, first-bad detail) over engine records; the grid points, counted
    per label prefix, must be exactly expected_cases, so a shrunken or empty
    grid fails."""
    ok, first_bad, cases = True, "", Counter()
    for check in chain(*suites):
        cases[check.label.split()[0]] += check.cases
        if not check.ok:
            ok = False
            first_bad = first_bad or (check.failures[0] if check.failures else check.label)
    if cases != expected_cases:
        ok = False
        first_bad = first_bad or f"grid {dict(cases)}, expected {expected_cases}"
    return ok, first_bad


def test_a1_boson_fermion_recursion():
    ok, first_bad = run_engine({"boson-fermion": 2992}, verify.boson_fermion(4, 8))
    report("A1 boson = fermion = recursion (k<=4, L<=8)", ok, first_bad)


def test_boson_fermion_wide_grid_slice():
    # a slice of the wide identity grid beside A1's: every k <= 6 at L <= 7
    ok, first_bad = run_engine({"boson-fermion": 6461}, verify.boson_fermion(6, 7))
    assert ok, first_bad


def test_a2_crystal_characterization():
    ok, first_bad = run_engine({"demazure-crystal": 45}, verify.demazure_crystal(3, 5))
    report("A2 crystal characterization (s+t<=3, L<=5)", ok, first_bad)


def test_demazure_crystal_level4_grid():
    # a larger grid beside A2's: every weight of level <= 4 at L <= 4
    ok, first_bad = run_engine({"demazure-crystal": 56}, verify.demazure_crystal(4, 4))
    assert ok, first_bad


def test_a3_path_character():
    first_bad = ""
    ok = True
    for lam in verify.weights_up_to(3):
        k = lam.level
        for L in range(1, 7):
            bf = ch_path_bruteforce(lam, L)
            if ch_via_f(lam, L) != bf:
                ok = False
                first_bad = first_bad or f"ch_via_f s={lam.a0} t={lam.a1} L={L}"
            total = ZERO
            for j in range(-L * k - 1, L * k + 2):
                total = total + F_fermionic(lam, L, j).z_shift(-j)
            if total != bf:
                ok = False
                first_bad = first_bad or f"F-sum s={lam.a0} t={lam.a1} L={L}"
    report("A3 path character (k<=3, L<=6)", ok, first_bad)


def test_a4_demazure_character_triangle():
    ok, first_bad = run_engine({"demazure-character": 90}, verify.demazure_character(3, 5))
    # worked anchor: Lambda = 2 Lambda_0, L = 2 has 9 terms of total value 9
    chi = demazure_ch(Weight(2, 0, 0), "+", 2)
    if len(chi.terms) != 9 or chi.value_at_one() != 9:
        ok = False
        first_bad = first_bad or "anchor 2L0, L=2"
    report("A4 Demazure character triangle (s+t<=3, L<=5)", ok, first_bad)


def test_a5_specializations():
    ok, first_bad = run_engine(
        {"real": 54, "principal": 18, "sanderson": 18},
        verify.specializations(3, 6),
        verify.sanderson(2, 8),
    )
    report("A5 specializations (real, principal, Sanderson)", ok, first_bad)


def test_a6_structural_invariants():
    # ground-state energy closed form and the Gaussian-polynomial lemmas
    ok, first_bad = run_engine({"lemmas": 1883}, verify.lemmas(4, 12))
    # width properties over the A2 crystal range
    for lam in verify.weights_up_to(3):
        s = lam.a0
        for T in generate_crystal(lam, 5).vertices:
            w = T.widths()
            if lam.a0 >= 1 and lam.a1 >= 1 and not T.is_vacuum() and w[0] == w[s]:
                ok = False
                first_bad = first_bad or f"noteq s={lam.a0} t={lam.a1} {T.key()}"
            for i in (0, 1):
                U = f_tilde(i, T)
                if U is not None and any(
                    wu > wt + 1 for wu, wt in zip(U.widths(), w)
                ):
                    ok = False
                    first_bad = first_bad or f"bounded {T.key()} i={i}"
    # inverse-pair property over 10^4 random tuples
    rng = random.Random(2024)
    for _ in range(10_000):
        s = rng.randint(0, 3)
        t = rng.randint(0 if s else 1, 3 - s if s < 3 else 0)
        T = EYDTuple.vacuum(s, t)
        for _ in range(rng.randint(0, 10)):
            U = f_tilde(rng.choice((0, 1)), T)
            if U is not None:
                T = U
        for i in (0, 1):
            U = f_tilde(i, T)
            if U is not None and (
                e_tilde(i, U) != T or U.weight() != T.weight() - ALPHA[i]
            ):
                ok = False
                first_bad = first_bad or f"inverse-pair {T.key()} i={i}"
            V = e_tilde(i, T)
            if V is not None and f_tilde(i, V) != T:
                ok = False
                first_bad = first_bad or f"inverse-pair-e {T.key()} i={i}"
    # support, parity and reflection of f
    for k in (1, 2, 3, 4):
        for L in (0, 1, 2, 3):
            for b in range(-L * k - k, L * k + k + 1):
                for c in range(b - k, b + k + 1, 2):
                    f = f_recursive(k, L, b, c)
                    if (abs(b) > L * k or (b - L * k) % 2) and f != ZERO:
                        ok = False
                        first_bad = first_bad or f"support k={k} L={L} b={b} c={c}"
                    if f != f_recursive(k, L, -b, -c):
                        ok = False
                        first_bad = first_bad or f"reflection k={k} L={L} b={b} c={c}"
    report("A6 structural invariants", ok, first_bad)
