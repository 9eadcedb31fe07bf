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
        out[(int(powers.get(z, 0)), int(powers.get(x, 0)))] = int(c)
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
        terms[(ze, rng.randint(-12, 12))] = rng.randint(-5, 5)
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


# -- the packed core at its edges: wide digits, borrows, cancellation ----------

q = BivariatePolynomial.term(1, qe=1)


def test_wide_coefficients_match_sympy():
    # (1 + q)^100 peaks at C(100, 50) ~ 2^96 and its square at ~ 2^196, so
    # both need digits wider than 64 bits
    p = (1 + q) ** 100
    assert p.coefficient(0, 50) == sympy.binomial(100, 50) > 2 ** 64
    assert same(to_sympy(p), (1 + x ** 4) ** 100)
    sq = p * p
    assert max(sq.terms.values()) > 2 ** 190
    assert same(to_sympy(sq), (1 + x ** 4) ** 200)
    assert same(to_sympy(sq - p * (q - 7)), (1 + x ** 4) ** 200 - (1 + x ** 4) ** 100 * (x ** 4 - 7))
    assert sq.exact_div(p) == p
    assert from_sympy(to_sympy(sq)) == sq


def test_exact_div_widens_for_large_quotients():
    # (1 - q^2)^40 / (1 - q)^40 = (1 + q)^40: the quotient's digits need a
    # wider row than the operands' norms alone ask for
    num = (1 - q * q) ** 40
    den = (1 - q) ** 40
    assert same(to_sympy(num.exact_div(den)), (1 + x ** 4) ** 40)


def test_exact_div_rejects_integer_exact_but_inexact():
    # 2 + q^(1/4) at q^(1/4) = 2^B is even for every B, but 2 does not divide
    # the polynomial; only the digit bound tells the two apart
    num = BivariatePolynomial({(0, 0): 2, (0, 1): 1})
    with pytest.raises(ValueError, match="inexact"):
        num.exact_div(BivariatePolynomial.term(2))
    with pytest.raises(ValueError, match="inexact"):
        (num * (1 - q) ** 30).exact_div(BivariatePolynomial.term(2) * (1 - q) ** 30)


def test_adjacent_negative_digits_borrow():
    # each negative digit borrows from the one above it in the packed int;
    # -(2^30) and -(2^30 - 1) together sit at the edge of 32-bit digits
    edge = BivariatePolynomial({(0, 0): -(2 ** 30), (0, 1): -(2 ** 30 - 1)})
    assert edge.terms == {(0, 0): -(2 ** 30), (0, 1): -(2 ** 30 - 1)}
    rows = [
        {(0, -3): -1, (0, -2): -2, (0, -1): -3, (0, 0): 5},
        {(0, 0): -7, (0, 1): -1, (0, 2): 1, (0, 3): -9},
        {(0, 0): -(2 ** 70), (0, 1): -1, (0, 2): -(2 ** 63)},
    ]
    polys = [BivariatePolynomial(r) for r in rows] + [edge]
    for a in polys:
        assert from_sympy(to_sympy(a)) == a
        for b in polys:
            assert same(to_sympy(a * b), to_sympy(a) * to_sympy(b))
            assert same(to_sympy(a + b), to_sympy(a) + to_sympy(b))
            assert same(to_sympy(a - b), to_sympy(a) - to_sympy(b))


def test_negative_and_mixed_quarter_exponents():
    a = BivariatePolynomial({(0, -7): 3, (0, -2): -1, (0, 5): 2})
    b = BivariatePolynomial({(0, -6): -4, (0, 8): 1})
    for shift in (Fraction(-5, 4), Fraction(-1, 2), 0, Fraction(3, 4), 3):
        assert same(to_sympy((a * b).q_shift(shift)), to_sympy(a) * to_sympy(b) * x ** int(4 * shift))
        assert same(to_sympy(a.q_shift(shift) + b), to_sympy(a) * x ** int(4 * shift) + to_sympy(b))
    assert (a * b).exact_div(b) == a
    assert not a.has_integer_exponents() and a.q_shift(Fraction(3, 4)).coefficient(0, -1) == 3


def test_several_z_rows():
    rng = random.Random(6)
    for _ in range(30):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert same(to_sympy(a * b + c), to_sympy(a) * to_sympy(b) + to_sympy(c))
        assert same(to_sympy((a - c).z_shift(2) * b), z ** 2 * (to_sympy(a) - to_sympy(c)) * to_sympy(b))


def test_sums_that_cancel():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_poly(rng)
        zero = a + (-a)
        assert not zero and zero == 0 and zero.to_text() == "0" and zero.to_json_obj() == []
        assert hash(zero) == hash(BivariatePolynomial())
    # the lowest digits cancel, so the row must move its offset up
    assert (1 + q) - 1 == q and ((1 + q) - 1).to_text() == "q"
    assert ((q + q * q) - q).coefficient(0, 2) == 1 and (q + q * q) - q == q * q
    assert (q - 1) + (1 - q) == 0


def test_equal_at_different_widths():
    # the same polynomial reached through a large intermediate is packed at a
    # wider digit width; == and hash must not see the width
    big = BivariatePolynomial.term(2 ** 200)
    for p in ((1 + q) ** 10, (1 + q) ** 100, BivariatePolynomial({(1, -1): -3, (0, 0): 2})):
        wide = (p + big) - big
        assert wide._bits > p._bits
        assert wide == p and p == wide and hash(wide) == hash(p)
        assert wide.to_json_obj() == p.to_json_obj()
        assert len({wide, p}) == 1
