"""Verification suites: the grids on which independent routes must agree.

Each suite is a generator of ``Check`` records over a grid bounded by a
level ``max_k`` and a length ``max_L``.  The ``verify`` subcommand prints
the records and the acceptance tests assert them, so every grid is written
once.  Suites share the signature ``(max_k, max_L)``.  A record is its
failures, the names of its false conditions, so it cannot fail unexplained.
"""
from __future__ import annotations

from typing import NamedTuple

from . import characters as ch
from .demazure import (
    _widths,
    demazure_crystal_direct,
    demazure_crystal_recursive,
    extremal_vector,
    generate_crystal,
)
from .eyd import EYDTuple, e_tilde, f_tilde
from .paths import ground_state_H_sum, ground_state_H_sum_direct
from .qlaurent import shifted_sum, verify_gaussian_lemma
from .weights import ALPHA, Weight, apply_word, weyl_word


class Check(NamedTuple):
    """One record: ``label`` names the grid cell, ``failures`` what fails
    inside it and ``cases`` the number of grid points it covers."""

    label: str
    failures: tuple[str, ...]
    cases: int
    ok = property(lambda self: not self.failures)


def _check(label: str, conditions: dict[str, bool], cases: int = 1) -> Check:
    """The record ``label``, failing by each false condition's name, ``"{what} {cell}"``."""
    return Check(label, tuple(name for name, held in conditions.items() if not held), cases)


def weights_up_to(k: int):
    """s Lambda_0 + t Lambda_1 for every level 1 <= s + t <= k, s outermost."""
    for s in range(k + 1):
        for t in range(k + 1 - s):
            if s + t >= 1:
                yield Weight(s, t, 0)


def _f_cells(name: str, max_k: int, Ls, pad: int, holds):
    """One record per (k, L): every named condition of holds(k, L, b, c) at
    every b in -(L+pad)k..(L+pad)k and c in b-k..b+k, in steps of 2; a cell
    stops at, and names what fails at, its first failing point."""
    for k in range(1, max_k + 1):
        for L in Ls:
            reach = (L + pad) * k
            points = [(b, c) for b in range(-reach, reach + 1) for c in range(b - k, b + k + 1, 2)]
            for b, c in points:
                if not all((held := holds(k, L, b, c)).values()):
                    break
            cell = f"k={k} L={L}"
            yield _check(f"{name} {cell}",
                         {f"{n} {cell} b={b} c={c}": ok for n, ok in held.items()}, len(points))


def _f_routes(k: int, L: int, b: int, c: int) -> dict[str, bool]:
    fr = ch.f_recursive(k, L, b, c)
    held = {"bosonic": ch.f_bosonic(k, L, b, c) == fr,
            "fermionic": ch.f_fermionic(k, L, b, c) == fr}
    # the level-lowering sum onto f^(k-1) is defined for k >= 2, b >= 0, c != b + k
    if k >= 2 and b >= 0 and c != b + k:
        held["rank-reduction"] = ch.f_rank_reduction(k, L, b, c) == fr
    return held


def boson_fermion(max_k: int, max_L: int):
    """f_bosonic == f_fermionic == f_recursive on every (b, c) of each (k, L),
    and f_rank_reduction == f_recursive wherever it is defined."""
    return _f_cells("boson-fermion", max_k, range(1, max_L + 1), 0, _f_routes)


def _f_symmetric(k: int, L: int, b: int, c: int) -> dict[str, bool]:
    f = ch.f_recursive(k, L, b, c)
    off_support = abs(b) > L * k or (b - L * k) % 2
    return {"support": not (off_support and f), "reflection": f == ch.f_recursive(k, L, -b, -c)}


def f_symmetry(max_k: int, max_L: int):
    """f^(k)_L(b, c) is zero off |b| <= Lk and the parity lattice b = Lk
    mod 2, and f(b, c) = f(-b, -c), on a band k wider than the support,
    from L = 0."""
    return _f_cells("f-symmetry", max_k, range(max_L + 1), 1, _f_symmetric)


def path_character(max_k: int, max_L: int):
    """The brute force ("path") against every other path-character route of
    ``ch.ROUTES`` and against the sum over j of F_fermionic(Lambda, L, j) z^{-j}."""
    for lam in weights_up_to(max_k):
        k = lam.level
        for L in range(1, max_L + 1):
            sides = {name: route(lam, L) for name, (_, path, route) in ch.ROUTES.items() if path}
            sides["F-sum"] = shifted_sum((ch.F_fermionic(lam, L, j).z_shift(-j), 0)
                                         for j in range(-L * k - 1, L * k + 2))
            bf = sides.pop("path")
            cell = f"s={lam.a0} t={lam.a1} L={L}"
            yield _check(f"path-character {cell}",
                         {f"{name} {cell}": got == bf for name, got in sides.items()})


def _vertex_ok(T: EYDTuple, s: int) -> bool:
    """At one vertex of B_L(s Lambda_0 + t Lambda_1): off the vacuum, Y_1 and
    Y_{s+1} differ in width when s, t >= 1; no f_i grows a width by more
    than 1; e_i f_i T = T with the weight lowered by alpha_i; f_i e_i T = T."""
    w = T.widths()
    if 0 < s < len(w) and w[0] == w[s] and any(w):
        return False
    wt = T.weight()
    for i in (0, 1):
        U, V = f_tilde(i, T), e_tilde(i, T)
        if U is not None and (e_tilde(i, U) != T or U.weight() != wt - ALPHA[i]
                              or any(a > b + 1 for a, b in zip(U.widths(), w))):
            return False
        if V is not None and f_tilde(i, V) != T:
            return False
    return True


def _width_filter(lam: Weight, sign: str, L: int):
    """The width characterization of B_{w^+/-_L}(Lambda) as a test on the
    vertices of B_L(Lambda), coded apart from ``generate_crystal``'s caps:
    Y_1 (if s > 0) and Y_{s+1} (if t > 0) stay within the extremal
    vector's widths."""
    s, t = lam.a0, lam.a1
    cap0, cap1 = _widths(sign, L)
    return lambda T: not (s and T.diagrams[0].width > cap0 or t and T.diagrams[s].width > cap1)


def demazure_crystal(max_k: int, max_L: int):
    """The string recursion, the width characterization as a filter over
    B_L and the closure capped by it (``demazure_crystal_direct``) give the
    same B_{w+/-_L}(Lambda), which holds the extremal vector, of weight
    w+/-_L(Lambda); their union is B_L, their intersection B_{L-1}, and for
    a weight on one side only the Demazure crystal is all of B_L.  Each
    vertex of B_L not in B_{L-1} passes ``_vertex_ok`` (the vacuum at
    L = 1), so every vertex of B_{max_L} is checked once."""
    for lam in weights_up_to(max_k):
        prev = generate_crystal(lam, 0).vertices
        for L in range(1, max_L + 1):
            full = generate_crystal(lam, L).vertices
            cell = f"s={lam.a0} t={lam.a1} L={L}"
            dirs = {sign: set(filter(_width_filter(lam, sign, L), full)) for sign in "+-"}
            held = {}
            for sign, d in dirs.items():
                word = weyl_word(sign, L)
                v = extremal_vector(lam, sign, L)
                held[f"recursive{sign} {cell}"] = demazure_crystal_recursive(lam, word) == d
                held[f"direct{sign} {cell}"] = demazure_crystal_direct(lam, sign, L) == d
                held[f"extremal{sign} {cell}"] = v in d and v.weight() == apply_word(word, lam)
            dir_p, dir_m = dirs.values()
            held[f"union {cell}"] = dir_p | dir_m == full
            held[f"intersection {cell}"] = dir_p & dir_m == prev
            held[f"one-sided {cell}"] = (lam.a1 or dir_p == full) and (lam.a0 or dir_m == full)
            new = full if L == 1 else full - prev
            bad = min((T.key() for T in new if not _vertex_ok(T, lam.a0)), default=None)
            held[f"vertex {cell} {bad}"] = bad is None
            yield _check(f"demazure-crystal {cell}", held)
            prev = full


def demazure_character(max_k: int, max_L: int):
    """The crystal brute force and the operator oracle against the layer
    formula's ch^{+/-}_L(Lambda); a failure names the side that differs."""
    for lam in weights_up_to(max_k):
        for L in range(1, max_L + 1):
            for sign in ("+", "-"):
                layer = ch.demazure_ch(lam, sign, L)
                cell = f"s={lam.a0} t={lam.a1} sign={sign} L={L}"
                yield _check(f"demazure-character {cell}", {
                    f"crystal {cell}": ch.demazure_ch_bruteforce(lam, sign, L) == layer,
                    f"oracle {cell}": ch.demazure_ch_oracle(lam, sign, L) == layer})


def specializations(max_k: int, max_L: int):
    """The real specialization for every weight against the ``product``
    form, then the principal one for k Lambda_0 against the ``fermionic``."""
    for lam in weights_up_to(max_k):
        for L in range(1, max_L + 1):
            cell = f"s={lam.a0} t={lam.a1} L={L}"
            yield _check(f"real {cell}", {f"product {cell}": ch.real_character_check(lam, L)})
    for k in range(1, max_k + 1):
        for L in range(1, max_L + 1):
            cell = f"k={k} L={L}"
            yield _check(f"principal {cell}",
                         {f"fermionic {cell}": ch.principal_character_check(k, L)})


def sanderson(max_k: int, max_L: int):
    """The q^2- and q-multinomial principal forms agree, from L = 0."""
    for k in range(1, max_k + 1):
        for L in range(max_L + 1):
            cell = f"k={k} L={L}"
            yield _check(f"sanderson {cell}",
                         {f"q-multinomial {cell}": ch.sanderson_identity_check(k, L)})


def lemmas(max_k: int, max_L: int):
    """The ground-state energy closed form against direct summation over
    every weight of level <= max_k and 0 <= L <= max_L, then the Gaussian-
    polynomial lemmas on every (M, N, n) with M, N in -6..8, not both
    negative, and 0 <= n <= 8; one record each."""
    points = [(lam, L) for lam in weights_up_to(max_k) for L in range(max_L + 1)]
    yield _check("lemmas gse", {
        f"gse s={lam.a0} t={lam.a1} L={L}":
            ground_state_H_sum(lam, L) == ground_state_H_sum_direct(lam, L)
        for lam, L in points}, len(points))
    points = [(M, N, n) for M in range(-6, 9) for N in range(-6, 9) if M >= 0 or N >= 0
              for n in range(9)]
    yield _check("lemmas gaussian", {
        f"gaussian-lemma M={M} N={N} n={n}": verify_gaussian_lemma(M, N, n) for M, N, n in points
    }, len(points))


SUITES = {
    "boson-fermion": boson_fermion,
    "demazure-crystal": demazure_crystal,
    "demazure-character": demazure_character,
    "specializations": specializations,
    "sanderson": sanderson,
    "lemmas": lemmas,
    "path-character": path_character,
    "f-symmetry": f_symmetry,
}
