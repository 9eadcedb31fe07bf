"""Verification suites: the grids on which independent routes must agree.

Each suite is a generator of ``Check`` records over a grid bounded by a
level ``max_k`` and a length ``max_L``.  The ``verify`` subcommand prints
the records and the acceptance tests assert them, so every grid is written
once.  Suites share the signature ``(max_k, max_L)``.
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
from .qlaurent import ZERO, verify_gaussian_lemma
from .weights import ALPHA, Weight, apply_word, weyl_word


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


def _f_cells(name: str, max_k: int, Ls, pad: int, holds):
    """One record per (k, L): holds(k, L, b, c) at every b in
    -(L+pad)k..(L+pad)k and c in b-k..b+k, in steps of 2; a cell stops at,
    and reports, its first failing point."""
    for k in range(1, max_k + 1):
        for L in Ls:
            reach = (L + pad) * k
            points = [(b, c) for b in range(-reach, reach + 1) for c in range(b - k, b + k + 1, 2)]
            bad = next(
                (f"k={k} L={L} b={b} c={c}" for b, c in points if not holds(k, L, b, c)),
                None,
            )
            failures = () if bad is None else (bad,)
            yield Check(f"{name} k={k} L={L}", not failures, failures, len(points))


def _f_routes_agree(k: int, L: int, b: int, c: int) -> bool:
    fr = ch.f_recursive(k, L, b, c)
    if ch.f_bosonic(k, L, b, c) != fr or ch.f_fermionic(k, L, b, c) != fr:
        return False
    # the level-lowering sum onto f^(k-1) is defined for k >= 2, b >= 0, c != b + k
    return k < 2 or b < 0 or c == b + k or ch.f_rank_reduction(k, L, b, c) == fr


def boson_fermion(max_k: int, max_L: int):
    """f_bosonic == f_fermionic == f_recursive on every (b, c) of each (k, L),
    and f_rank_reduction == f_recursive wherever it is defined."""
    return _f_cells("boson-fermion", max_k, range(1, max_L + 1), 0, _f_routes_agree)


def _f_symmetric(k: int, L: int, b: int, c: int) -> bool:
    f = ch.f_recursive(k, L, b, c)
    off_support = abs(b) > L * k or (b - L * k) % 2
    return not (off_support and f) and f == ch.f_recursive(k, L, -b, -c)


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
            sides["F-sum"] = sum((ch.F_fermionic(lam, L, j).z_shift(-j)
                                  for j in range(-L * k - 1, L * k + 2)), ZERO)
            bf = sides.pop("path")
            cell = f"s={lam.a0} t={lam.a1} L={L}"
            failures = tuple(f"{name} {cell}" for name, got in sides.items() if got != bf)
            yield Check(f"path-character {cell}", not failures, failures)


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
            ok, dirs = True, []
            for sign in "+-":
                word = weyl_word(sign, L)
                dirs.append(set(filter(_width_filter(lam, sign, L), full)))
                v = extremal_vector(lam, sign, L)
                ok = (ok and demazure_crystal_recursive(lam, word) == dirs[-1]
                      and demazure_crystal_direct(lam, sign, L) == dirs[-1]
                      and v in dirs[-1] and v.weight() == apply_word(word, lam))
            dir_p, dir_m = dirs
            ok = ok and dir_p | dir_m == full and dir_p & dir_m == prev
            if lam.a1 == 0:
                ok = ok and dir_p == full
            if lam.a0 == 0:
                ok = ok and dir_m == full
            cell = f"s={lam.a0} t={lam.a1} L={L}"
            new = full if L == 1 else full - prev
            bad = min((T.key() for T in new if not _vertex_ok(T, lam.a0)), default=None)
            failures = () if bad is None else (f"vertex {cell} {bad}",)
            yield Check(f"demazure-crystal {cell}", ok and not failures, failures)
            prev = full


def demazure_character(max_k: int, max_L: int):
    """The crystal brute force and the operator oracle against the layer
    formula's ch^{+/-}_L(Lambda); a failure names the side that differs."""
    for lam in weights_up_to(max_k):
        for L in range(1, max_L + 1):
            for sign in ("+", "-"):
                layer = ch.demazure_ch(lam, sign, L)
                sides = {"crystal": ch.demazure_ch_bruteforce(lam, sign, L),
                         "oracle": ch.demazure_ch_oracle(lam, sign, L)}
                cell = f"s={lam.a0} t={lam.a1} sign={sign} L={L}"
                failures = tuple(f"{name} {cell}" for name, got in sides.items() if got != layer)
                yield Check(f"demazure-character {cell}", not failures, failures)


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
    "path-character": path_character,
    "f-symmetry": f_symmetry,
}
