"""Verification suites: the grids on which independent routes must agree.

Each suite is a generator of ``Check`` records over a grid bounded by a
level ``max_k`` and a length ``max_L``.  The ``verify`` subcommand prints
the records and the acceptance tests assert them, so every grid is written
once.  Suites share the signature ``(max_k, max_L)``.
"""
from __future__ import annotations

from typing import NamedTuple

from . import characters as ch
from .demazure import demazure_crystal_direct, demazure_crystal_recursive, generate_crystal
from .paths import ground_state_H_sum, ground_state_H_sum_direct
from .qlaurent import verify_gaussian_lemma
from .weights import Weight, weyl_word_minus, weyl_word_plus


class Check(NamedTuple):
    """One verdict: ``label`` names the grid cell, ``failures`` the failing
    points inside it and ``cases`` the number of grid points it covers."""

    label: str
    ok: bool
    failures: tuple[str, ...] = ()
    cases: int = 1


def weights_up_to(k: int):
    """s Lambda_0 + t Lambda_1 for every level 1 <= s + t <= k, s outermost."""
    for s in range(k + 1):
        for t in range(k + 1 - s):
            if s + t >= 1:
                yield Weight(s, t, 0)


def _f_routes_agree(k: int, L: int, b: int, c: int) -> bool:
    fr = ch.f_recursive(k, L, b, c)
    return ch.f_bosonic(k, L, b, c) == fr and ch.f_fermionic(k, L, b, c) == fr


def boson_fermion(max_k: int, max_L: int):
    """f_bosonic == f_fermionic == f_recursive on every (b, c) of each (k, L);
    a cell stops at, and reports, its first failing point."""
    for k in range(1, max_k + 1):
        for L in range(1, max_L + 1):
            points = [
                (b, c)
                for b in range(-L * k, L * k + 1)
                for c in range(b - k, b + k + 1, 2)
            ]
            bad = next(
                (f"k={k} L={L} b={b} c={c}" for b, c in points
                 if not _f_routes_agree(k, L, b, c)),
                None,
            )
            failures = () if bad is None else (bad,)
            yield Check(f"boson-fermion k={k} L={L}", not failures, failures, len(points))


def demazure_crystal(max_k: int, max_L: int):
    """The string recursion and the width characterization give the same
    B_{w+/-_L}(Lambda); their union is B_L, their intersection B_{L-1}, and
    for a weight on one side only the Demazure crystal is all of B_L."""
    for lam in weights_up_to(max_k):
        prev = generate_crystal(lam, 0).vertices
        for L in range(1, max_L + 1):
            rec_p = demazure_crystal_recursive(lam, weyl_word_plus(L))
            rec_m = demazure_crystal_recursive(lam, weyl_word_minus(L))
            dir_p = demazure_crystal_direct(lam, "+", L)
            dir_m = demazure_crystal_direct(lam, "-", L)
            full = generate_crystal(lam, L).vertices
            ok = (
                rec_p == dir_p
                and rec_m == dir_m
                and dir_p | dir_m == full
                and dir_p & dir_m == prev
            )
            if lam.a1 == 0:
                ok = ok and dir_p == full
            if lam.a0 == 0:
                ok = ok and dir_m == full
            yield Check(f"demazure-crystal s={lam.a0} t={lam.a1} L={L}", ok)
            prev = full


def demazure_character(max_k: int, max_L: int):
    """The layer formula, the crystal brute force and the operator oracle
    give the same Demazure character ch^{+/-}_L(Lambda)."""
    for lam in weights_up_to(max_k):
        for L in range(1, max_L + 1):
            for sign in ("+", "-"):
                a = ch.demazure_ch(lam, sign, L)
                b = ch.demazure_ch_bruteforce(lam, sign, L)
                c = ch.demazure_ch_oracle(lam, sign, L)
                label = f"demazure-character s={lam.a0} t={lam.a1} sign={sign} L={L}"
                yield Check(label, a == b == c)


def specializations(max_k: int, max_L: int):
    """The real specialization for every weight, then the principal one for
    k Lambda_0."""
    for lam in weights_up_to(max_k):
        for L in range(1, max_L + 1):
            yield Check(f"real s={lam.a0} t={lam.a1} L={L}", ch.real_character_check(lam, L))
    for k in range(1, max_k + 1):
        for L in range(1, max_L + 1):
            yield Check(f"principal k={k} L={L}", ch.principal_character_check(k, L))


def sanderson(max_k: int, max_L: int):
    """The q^2- and q-multinomial principal forms agree, from L = 0."""
    for k in range(1, max_k + 1):
        for L in range(max_L + 1):
            yield Check(f"sanderson k={k} L={L}", ch.sanderson_identity_check(k, L))


def lemmas(max_k: int, max_L: int):
    """The ground-state energy closed form against direct summation over
    every weight of level <= max_k and 0 <= L <= max_L, then the Gaussian-
    polynomial lemmas on every (M, N, n) with M, N in -6..8, not both
    negative, and 0 <= n <= 8; one record each."""
    points = [(lam, L) for lam in weights_up_to(max_k) for L in range(max_L + 1)]
    failures = tuple(
        f"gse s={lam.a0} t={lam.a1} L={L}"
        for lam, L in points
        if ground_state_H_sum(lam, L) != ground_state_H_sum_direct(lam, L)
    )
    yield Check("lemmas gse", not failures, failures, len(points))
    points = [(M, N, n) for M in range(-6, 9) for N in range(-6, 9) if M >= 0 or N >= 0
              for n in range(9)]
    failures = tuple(f"gaussian-lemma M={M} N={N} n={n}" for M, N, n in points
                     if not verify_gaussian_lemma(M, N, n))
    yield Check("lemmas gaussian", not failures, failures, len(points))


SUITES = {
    "boson-fermion": boson_fermion,
    "demazure-crystal": demazure_crystal,
    "demazure-character": demazure_character,
    "specializations": specializations,
    "sanderson": sanderson,
    "lemmas": lemmas,
}
