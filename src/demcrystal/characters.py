"""Configuration sums, path characters and Demazure characters.

The one-dimensional configuration sum f^(k)_L(b,c) is computed by three
independent routes (memoized difference equation, alternating bosonic
double sum, positive fermionic multinomial sum) plus a rank-reduction
route, and the characters built on top of it are cross-checked against
brute-force path sums and the Demazure-operator oracle.

Work shared across c.  f(b, c) for the k + 1 values of c at one (k, L, b)
walks the same occupation vectors and the same q-multinomials, so
``occupation_vectors`` is memoized on (k, L, b) and ``q_multinomial`` on
L and the sorted parts; only the exponent of each term is recomputed per
c.  The bosonic route's Gaussian pairs [L-1, i][L, j] (``_gaussian_pair``)
and (mu, nu) choices (``resolve_mu_nu``) are memoized too.  All these
caches hold pure functions of their arguments, never a value of f, so the
routes and the fermionic F-sum that share them read no other route's
result through them.  The routes themselves are not memoized, except f_recursive, whose recursion
reads its own earlier values.

One way to sum.  Every route collects its terms as (polynomial, quarter
shift) pairs and sums them in one ``qlaurent.shifted_sum`` call, which
builds no shifted copy and no partial sum; the bosonic route too puts
all its (i, j) terms, split by sign, into one call before its division.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .demazure import _widths, demazure_crystal_recursive
from .paths import enumerate_paths, path_weight, pi
from .qlaurent import (
    ONE,
    ZERO,
    BivariatePolynomial,
    gaussian,
    q_multinomial,
    qpoch,
    shifted_sum,
)
from .weights import (
    Weight,
    demazure_character_oracle,
    require_dominant,
    specialize,
    weyl_word,
)


def is_weakly_admissible(k: int, b: int, c: int) -> bool:
    return abs(b - c) <= k and (b - c + k) % 2 == 0


# -- route 1: difference equation ------------------------------------------------

@lru_cache(maxsize=None)
def f_recursive(k: int, L: int, b: int, c: int) -> BivariatePolynomial:
    """f^(k)_L(b,c) by the defining recursion, memoized."""
    if k < 1 or L < 0:
        raise ValueError("requires k >= 1 and L >= 0")
    if not is_weakly_admissible(k, b, c):
        return ZERO
    if L == 0:
        return ONE if b == 0 else ZERO
    if abs(b) > L * k:  # unreachable from the L = 0 seed
        return ZERO
    terms = []
    for d in range(b - k, b + k + 1, 2):
        inner = f_recursive(k, L - 1, d, b)
        if inner:
            terms.append((inner, L * abs(d - c)))
    return shifted_sum(terms)


# -- route 2: bosonic double sum ----------------------------------------------------

@lru_cache(maxsize=None)
def resolve_mu_nu(k: int, L: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
    """All (mu, nu) with b in R_mu, c in R_nu, nu = mu +- 1 and the parity
    conditions mu = L+1, nu = L+2 mod 2; sorted so the canonical choice
    (smallest mu, then smallest nu) comes first; memoized, so a tuple."""

    def in_range(mu: int, x: int) -> bool:
        lo, hi = (mu - 1) * k, (mu + 1) * k
        lo_ok = x > lo or (x == lo and mu - 1 <= 0)
        hi_ok = x < hi or (x == hi and mu + 1 >= 0)
        return lo_ok and hi_ok

    mus = [m for m in range(-abs(b) // k - 2, abs(b) // k + 3)
           if (m - L - 1) % 2 == 0 and in_range(m, b)]
    nus = [n for n in range(-abs(c) // k - 2, abs(c) // k + 3)
           if (n - L) % 2 == 0 and in_range(n, c)]
    return tuple(sorted((m, n) for m in mus for n in nus if abs(m - n) == 1))


@lru_cache(maxsize=None)
def _gaussian_pair(L: int, i: int, j: int) -> BivariatePolynomial:
    """[L-1, i] * [L, j], memoized: like _q_multinomial, a building block
    that depends on its arguments alone and is never a value of f."""
    return gaussian(L - 1, i) * gaussian(L, j)


def f_bosonic(k: int, L: int, b: int, c: int) -> BivariatePolynomial:
    """f^(k)_L(b,c) by the alternating double sum over Gaussian products,
    at the first (mu, nu) resolve_mu_nu returns, read from the module when
    called.  All (i, j) terms are summed at once and divided exactly by
    (q;q)_{L-1}; a remainder raises, an implementation error.
    """
    if k < 1 or L < 1:
        raise ValueError("bosonic form requires k, L >= 1")
    if not is_weakly_admissible(k, b, c):
        return ZERO
    if (b - L * k) % 2:  # outside the parity support, where f vanishes
        return ZERO
    choices = resolve_mu_nu(k, L, b, c)
    if not choices:
        raise ValueError(f"no admissible (mu, nu) for k={k}, L={L}, (b,c)=({b},{c})")
    mu, nu = choices[0]
    # A point (i, j) counts with sign (-1)^(i+j) when 2i >= L+nu and
    # 2j <= L+mu-1 (plus), with the opposite sign when 2i <= L+nu-2 and
    # 2j >= L+mu+1, and not at all otherwise.  As nu = L mod 2, each i fixes
    # one of the two contiguous j-ranges, inside 0..L where gaussian(L, j)
    # lives; each term, with its pair [L-1, i][L, j], joins one sum's plus
    # or minus list.
    j_plus = range(min((L + mu - 1) // 2, L) + 1)
    j_minus = range(max(-(-(L + mu + 1) // 2), 0), L + 1)
    pos, neg = [], []
    for i in range(L):  # gaussian(L-1, i) vanishes outside 0..L-1
        plus = 2 * i >= L + nu
        # 4Q = 2(i-j)(i-j+1) - ABk + bA + cB, with A = 2i-L+1, B = 2j-L
        A = 2 * i - L + 1
        for j in j_plus if plus else j_minus:
            B = 2 * j - L
            term = (_gaussian_pair(L, i, j), 2 * (i - j) * (i - j + 1) - A * B * k + b * A + c * B)
            (pos if ((i + j) % 2 == 0) == plus else neg).append(term)
    return shifted_sum(pos, neg).exact_div(qpoch(L - 1))


# -- route 3: fermionic multinomial sum ------------------------------------------------

@lru_cache(maxsize=None)
def occupation_vectors(k: int, L: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Configurations for f^(k)_L(b, .): sum x = L, sum a*x_a = (Lk - b)/2,
    in lexicographic order.  Memoized; a tuple, so no caller can change it."""
    if (L * k - b) % 2 != 0:
        return ()
    target = (L * k - b) // 2
    if target < 0 or target > L * k:
        return ()
    out = []

    def rec(a: int, rem: int, wrem: int, acc: list):
        if a == k:  # the rem letters left carry weight k, and wrem == rem * k
            out.append(tuple(acc) + (rem,))
            return
        # x letters of weight a leave rem - x letters of weights a+1 .. k,
        # whose totals are exactly (a+1)(rem-x) .. k(rem-x); so every x in
        # this range completes, and no branch is walked in vain
        lo = max(0, (a + 1) * rem - wrem)
        hi = min(rem, (k * rem - wrem) // (k - a))
        for x in range(lo, hi + 1):
            acc.append(x)
            rec(a + 1, rem - x, wrem - a * x, acc)
            acc.pop()

    rec(0, L, target, [])
    return tuple(out)


def f_fermionic(k: int, L: int, b: int, c: int) -> BivariatePolynomial:
    """f^(k)_L(b,c) as a positive sum of q-powers times q-multinomials."""
    if k < 1 or L < 0:
        raise ValueError("requires k >= 1 and L >= 0")
    if not is_weakly_admissible(k, b, c):
        return ZERO
    base = L * L * k - L * (b - c + k) + b  # 4 times the constant part of Q
    thr = (c - b + k) // 2
    terms = []
    for xs in occupation_vectors(k, L, b):
        # Q = -sum_{a < a2} (a2 - a) x_a x_a2 + sum_{a >= thr} (a - thr) x_a,
        # the pair sum read off the count n and weight w of the letters below a
        Q = n = w = 0
        for a, x in enumerate(xs):
            if x:
                Q -= x * (a * n - w)
                n += x
                w += a * x
                if a >= thr:
                    Q += (a - thr) * x
        terms.append((q_multinomial(L, xs), base + 4 * Q))
    return shifted_sum(terms)


# -- route 4: rank reduction -----------------------------------------------------------

def f_rank_reduction(k: int, L: int, b: int, c: int) -> BivariatePolynomial:
    """f^(k)_L(b,c) through the level-lowering sum onto f^(k-1)."""
    if k < 2:
        raise ValueError("rank reduction requires k >= 2")
    if b < 0 or c == b + k:
        raise ValueError("rank reduction requires b >= 0 and c != b + k")
    if not is_weakly_admissible(k, b, c):
        raise ValueError("(b, c) is not weakly admissible")
    if L == 0:
        return ONE if b == 0 else ZERO
    terms = []
    for i in range(L + 1):
        inner = f_recursive(k - 1, L - i, b + (k + 1) * i - L, c + (k + 1) * i - L + 1)
        if inner:
            e4 = L * (L - 1) - (k - 1) * i * i - (2 * L + b + c - 1) * i
            terms.append((gaussian(L, i) * inner, e4))
    return shifted_sum(terms)


# -- path characters ----------------------------------------------------------------

def ch_path_bruteforce(lam: Weight, L: int) -> BivariatePolynomial:
    """Sum of e^{wt p} over all of P_L(Lambda), specialized to z and q."""
    return specialize(Counter(path_weight(p, lam) for p in enumerate_paths(lam, L)), lam)


def ch_via_f(lam: Weight, L: int, f_impl=None) -> BivariatePolynomial:
    """Path character through the configuration sum of f_impl, by default
    f_recursive as this module holds it when called; exponents must close
    to integers, anything else raises."""
    f_impl = f_impl or f_recursive
    if L < 0:
        raise ValueError("requires L >= 0")
    require_dominant(lam)
    s, t = lam.a0, lam.a1
    k = s + t
    eL, eL1 = L % 2, (L + 1) % 2
    terms = []
    base = eL * (s - t)
    j_lo = -((L * k - base) // 2)
    j_hi = (L * k + base) // 2
    for j in range(j_lo, j_hi + 1):
        f = f_impl(k, L, base - 2 * j, eL1 * (s - t) - 2 * j)
        if f:
            terms.append((f.z_shift(-j), 2 * j))
    out = shifted_sum(terms)
    if not out.has_integer_exponents():
        raise ValueError("path character came out with non-integer exponents")
    return out


def F_fermionic(lam: Weight, L: int, j: int) -> BivariatePolynomial:
    """The z^{-j} coefficient of the path character, in fermionic form.

    It sums over the occupations of f^(k)_L(b, .) at the b that ch_via_f
    reads at z^{-j}; x_1 .. x_{k-1} enter the Cartan-matrix part."""
    if L < 0:
        raise ValueError("requires L >= 0")
    require_dominant(lam)
    s, t = lam.a0, lam.a1
    k = s + t
    unit = s if L % 2 == 0 else t
    terms = []
    for full in occupation_vectors(k, L, L % 2 * (s - t) - 2 * j):
        xs = full[1:k]
        # 4k e = 4 x(kC^{-1})x + 4j(j + t) - 4 (kC^{-1} x)_unit; the unit
        # column vanishes at unit = 0 and unit = k
        e4k = 4 * (_cartan_form(k, xs) + j * (j + t)
                   - sum(min(i, unit) * (k - max(i, unit)) * x for i, x in enumerate(xs, start=1)))
        terms.append((q_multinomial(L, full), _quarters_over(e4k, k)))
    return shifted_sum(terms)


def _cartan_form(k: int, xs) -> int:
    """x (k C^{-1}) x for x = (x_1, ..., x_{k-1}), where C is the sl(k)
    Cartan matrix and k C^{-1} is the integer matrix min(i,j)(k - max(i,j))."""
    return sum(
        min(i, j) * (k - max(i, j)) * a * b
        for i, a in enumerate(xs, start=1)
        for j, b in enumerate(xs, start=1)
    )


def _quarters_over(e4k: int, k: int) -> int:
    """The quarter count 4e of a q-exponent e given as the int 4k e; raises
    ValueError unless e has denominator 1, 2 or 4."""
    q4, rem = divmod(e4k, k)
    if rem:
        raise ValueError(f"q-exponent {e4k}/{4 * k} does not have denominator 1, 2 or 4")
    return q4


# -- Demazure characters -----------------------------------------------------------------

def demazure_ch(lam: Weight, sign: str, L: int) -> BivariatePolynomial:
    """ch^{+/-}_L(Lambda) through the layer expansion over ch_{L-1}."""
    if L <= 0:
        raise ValueError("Demazure characters are computed for L > 0")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    require_dominant(lam)
    s, t = lam.a0, lam.a1
    e = L % 2
    # layer m is ch_{L-1} at Lambda moved m steps toward k Lambda_1 ("+") or
    # k Lambda_0 ("-"): the "-" sum is the "+" sum with Lambda_0, Lambda_1 swapped
    n, flip = (s, 1) if sign == "+" else (t, -1)
    return shifted_sum(
        (ch_via_f(Weight(s - flip * m, t + flip * m, 0), L - 1).z_shift(-flip * e * m),
         4 * ((L + flip * e) // 2 * m))
        for m in range(n + 1)
    )


def demazure_ch_bruteforce(lam: Weight, sign: str, L: int) -> BivariatePolynomial:
    """Sum of e^{wt b} over the Demazure crystal B_{w^{+/-}_L}(Lambda), as
    the string recursion along w^{+/-}_L builds it
    (``demazure_crystal_recursive``), each b read through its path,
    specialized to z and q.  It refuses what the width route refuses, by
    its checks, in the same order: the weight, then the sign, then L <= 0."""
    require_dominant(lam)
    _widths(sign, L)
    paths = (pi(T, L) for T in demazure_crystal_recursive(lam, weyl_word(sign, L)))
    return specialize(Counter(path_weight(p, lam) for p in paths), lam)


def demazure_ch_oracle(lam: Weight, sign: str, L: int) -> BivariatePolynomial:
    """Specialized Demazure-operator character for the word w^{+/-}_L."""
    return specialize(demazure_character_oracle(lam, weyl_word(sign, L)), lam)


# name, as --route and FAIL lines give it -> (least L, whether it gives the path
# character ch_L, (Lambda, L) -> character); each looks its route up when called
ROUTES = {
    "path": (0, True, lambda lam, L: ch_path_bruteforce(lam, L)),
    "recursive": (0, True, lambda lam, L: ch_via_f(lam, L, f_recursive)),
    "bosonic": (1, True, lambda lam, L: ch_via_f(lam, L, f_bosonic)),
    "fermionic": (0, True, lambda lam, L: ch_via_f(lam, L, f_fermionic)),
    "demazure+": (1, False, lambda lam, L: demazure_ch(lam, "+", L)),
    "demazure-": (1, False, lambda lam, L: demazure_ch(lam, "-", L)),
    "oracle": (0, False, lambda lam, L: demazure_ch_oracle(lam, "+", L)),
}


# -- specializations -----------------------------------------------------------------------

def real_character_check(lam: Weight, L: int) -> bool:
    """ch^+_L at q = 1, z = q^{-1} against the closed product form."""
    if L < 1:
        raise ValueError("requires L >= 1")
    s = lam.a0
    k = lam.level
    lhs = demazure_ch(lam, "+", L).subs_q_one_z_to_qinv()
    e = L % 2
    # [a] = 1 + q + ... + q^{a-1} is the Gaussian [a, 1]
    rhs = (gaussian(s + 1, 1) * gaussian(k + 1, 1) ** (L - 1)).q_shift(-((L - e) // 2) * k)
    return lhs == rhs


def principal_rhs(k: int, L: int) -> BivariatePolynomial:
    """Sum over occupations of q^{2 x C^{-1} x + (k/2) S (S+1)} times the
    q^2-argument multinomial, with k S = T = sum (k - 2i) x_i, the b of
    the occupation."""
    if L < 0:
        raise ValueError("requires L >= 0")
    terms = []
    for T in range(-L * k, L * k + 1, 2):
        for xs in occupation_vectors(k, L, T):
            e4k = 2 * T * (T + k) + 8 * _cartan_form(k, xs[1:k])
            terms.append((q_multinomial(L, xs).subs_q_to_q2(), _quarters_over(e4k, k)))
    return shifted_sum(terms)


def principal_character_check(k: int, L: int) -> bool:
    """ch^+_L(k Lambda_0) at z = q, q = q^2 against the fermionic form."""
    lam = Weight(k, 0, 0)
    lhs = demazure_ch(lam, "+", L).subs_z_to_q_q_to_q2()
    return lhs == principal_rhs(k, L)


def sanderson_rhs(k: int, L: int) -> BivariatePolynomial:
    """Sum over chains 0 <= i_1 <= ... <= i_k <= L with triangular q-powers.

    A chain is read off its k + 1 gaps, a composition of L, which is the
    occupation of exactly one b; the q-multinomial of the gaps does not
    depend on their order."""
    if L < 0:
        raise ValueError("requires L >= 0")
    terms = []
    for b in range(-L * k, L * k + 1, 2):
        for gaps in occupation_vectors(k, L, b):
            e, i = 0, 0
            for g in gaps[:k]:
                i += g
                e += i * (i + 1) // 2
            terms.append((q_multinomial(L, gaps), 4 * e))
    return shifted_sum(terms)


def sanderson_identity_check(k: int, L: int) -> bool:
    """The q^2-multinomial and q-multinomial principal forms agree."""
    return principal_rhs(k, L) == sanderson_rhs(k, L)
