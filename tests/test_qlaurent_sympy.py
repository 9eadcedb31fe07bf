"""Differential check of the polynomial core against sympy.

Every character route multiplies, shifts and divides through
BivariatePolynomial, so routes that agree with each other can still
share a bug in that core.  These tests recompute its results with sympy,
a test-only dependency.  Substituting q = x^4 turns every quarter-integer
q-exponent into an integer power of x.
"""
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from demcrystal.qlaurent import BivariatePolynomial, gaussian, q_multinomial, qpoch  # noqa: E402

x, z = sympy.symbols("x z")


def to_sympy(p):
    """p at q = x^4, read through the public JSON form."""
    return sympy.Add(*(
        int(t["c"]) * z ** t["ze"] * x ** int(4 * Fraction(t["qe"]))
        for t in p.to_json_obj()
    ))


def from_sympy(expr):
    out = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        out[(int(powers.get(z, 0)), Fraction(int(powers.get(x, 0)), 4))] = int(c)
    return BivariatePolynomial(out)


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def qfact(m: int):
    """(q; q)_m at q = x^4."""
    return sympy.Mul(*(1 - x ** (4 * j) for j in range(1, m + 1)))


def rand_poly(rng, z_free=False):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        ze = 0 if z_free else rng.randint(-3, 3)
        terms[(ze, Fraction(rng.randint(-12, 12), 4))] = rng.randint(-5, 5)
    return BivariatePolynomial(terms)


def test_sympy_conversion_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng)
        assert from_sympy(to_sympy(p)) == p


def test_mul_matches_sympy():
    rng = random.Random(2)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        assert same(to_sympy(a * b), to_sympy(a) * to_sympy(b))


def test_gaussian_matches_sympy():
    # [M, i] is the Laurent polynomial g with g * (q;q)_i = (q^{M-i+1}; q)_i
    for M in range(-6, 11):
        assert to_sympy(gaussian(M, -1)) == 0
        for i in range(0, 7):
            num = sympy.Mul(*(1 - x ** (4 * (M - i + 1 + j)) for j in range(i)))
            assert same(to_sympy(gaussian(M, i)) * qfact(i), num), (M, i)


def test_q_multinomial_matches_sympy():
    rng = random.Random(3)
    for _ in range(40):
        M = rng.randint(0, 8)
        cuts = sorted(rng.randint(0, M) for _ in range(rng.randint(0, 3)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [M])]
        lhs = to_sympy(q_multinomial(M, parts)) * sympy.Mul(*(qfact(m) for m in parts))
        assert same(lhs, qfact(M)), (M, parts)


def test_exact_div_matches_sympy():
    rng = random.Random(4)
    for m in range(0, 7):
        assert same(to_sympy(qpoch(m)), qfact(m))
        for _ in range(5):
            p = rand_poly(rng, z_free=True)
            product = from_sympy(to_sympy(p) * qfact(m))
            assert same(to_sympy(product.exact_div(qpoch(m))), to_sympy(p)), (m, p)


def test_exact_div_rejects_remainder_sympy_confirms():
    rng = random.Random(5)
    for m in range(1, 7):
        for _ in range(3):
            p = rand_poly(rng, z_free=True)
            num = sympy.expand(to_sympy(p) * qfact(m) + x ** rng.randint(-12, 12))
            shift = x ** 48  # clears every negative power, keeps divisibility
            assert sympy.rem(sympy.expand(num * shift), qfact(m), x) != 0
            with pytest.raises(ValueError):
                from_sympy(num).exact_div(qpoch(m))
