"""Acceptance suite. Each criterion emits a single pass/fail line in the
terminal summary and fails the corresponding test on any inexact match.
Every grid but one is a ``demcrystal.verify`` suite, walked by
``run_engine``.  ``test_demazure_character_oracle_level4_grid`` walks its
own 224 cells; ROADMAP item 13 makes it a suite.
"""
from conftest import ACCEPTANCE_LINES, run_engine
from demcrystal import verify
from demcrystal.characters import demazure_ch, demazure_ch_oracle
from demcrystal.weights import Weight


def report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, line


def test_a1_boson_fermion_recursion():
    ok, first_bad = run_engine({"boson-fermion": 2992}, verify.boson_fermion(4, 8))
    report("A1 boson = fermion = recursion (k<=4, L<=8)", ok, first_bad)


def test_boson_fermion_wide_grid_slice():
    # the wide identity grid beside A1's: every (b, c) of k <= 6, L <= 12,
    # the (k, L) box that identity-sweep samples and two lengths past it
    ok, first_bad = run_engine({"boson-fermion": 17796}, verify.boson_fermion(6, 12))
    assert ok, first_bad


def test_a2_crystal_characterization():
    ok, first_bad = run_engine({"demazure-crystal": 45}, verify.demazure_crystal(3, 5))
    report("A2 crystal characterization (s+t<=3, L<=5)", ok, first_bad)


def test_demazure_crystal_level4_grid():
    # a larger grid beside A2's: every weight of level <= 4 at L <= 4
    ok, first_bad = run_engine({"demazure-crystal": 56}, verify.demazure_crystal(4, 4))
    assert ok, first_bad


def test_a3_path_character():
    ok, first_bad = run_engine({"path-character": 54}, verify.path_character(3, 6))
    report("A3 path character (k<=3, L<=6)", ok, first_bad)


def test_a4_demazure_character_triangle():
    ok, first_bad = run_engine({"demazure-character": 90}, verify.demazure_character(3, 5))
    # worked anchor: Lambda = 2 Lambda_0, L = 2 has 9 terms of total value 9
    chi = demazure_ch(Weight(2, 0, 0), "+", 2)
    if len(chi.terms) != 9 or sum(chi.terms.values()) != 9:
        ok = False
        first_bad = first_bad or "anchor 2L0, L=2"
    report("A4 Demazure character triangle (s+t<=3, L<=5)", ok, first_bad)


def test_demazure_character_oracle_level4_grid():
    # a larger grid beside A4's: the layer formula against the operator
    # oracle for every weight of level <= 4 at L <= 8, both signs
    cells = [(lam, sign, L) for lam in verify.weights_up_to(4) for L in range(1, 9) for sign in "+-"]
    assert len(cells) == 224
    bad = [cell for cell in cells if demazure_ch(*cell) != demazure_ch_oracle(*cell)]
    assert bad == []


def test_a5_specializations():
    ok, first_bad = run_engine(
        {"real": 54, "principal": 18, "sanderson": 18},
        verify.specializations(3, 6),
        verify.sanderson(2, 8),
    )
    report("A5 specializations (real, principal, Sanderson)", ok, first_bad)


def test_a6_structural_invariants():
    # ground-state energy, the Gaussian lemmas, and the support, parity and
    # reflection of f; the width rules and inverse pairs are A2's vertex checks
    ok, first_bad = run_engine(
        {"lemmas": 1883, "f-symmetry": 1270},
        verify.lemmas(4, 12),
        verify.f_symmetry(4, 4),
    )
    report("A6 structural invariants", ok, first_bad)
