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


def rand_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        terms[(rng.randint(-3, 3), rng.randint(-12, 12))] = rng.randint(-5, 5)
    return BivariatePolynomial(terms)


def one_residue_poly(rng):
    """A non-zero z-free polynomial whose quarter exponents share one
    residue, the operands exact_div takes."""
    r = rng.randrange(4)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        terms[(0, r + 4 * rng.randint(-3, 3))] = rng.choice((-5, -3, -1, 1, 2, 4))
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
            p = one_residue_poly(rng)
            product = from_sympy(to_sympy(p) * qfact(m))
            assert same(to_sympy(product.exact_div(qpoch(m))), to_sympy(p)), (m, p)


def test_exact_div_rejects_remainder_sympy_confirms():
    rng = random.Random(5)
    for m in range(1, 7):
        for _ in range(3):
            p = one_residue_poly(rng)
            low = min(q4 for _, q4 in p.terms)  # an extra term of p's residue
            num = sympy.expand(to_sympy(p) * qfact(m) + x ** (low + 4 * rng.randint(-3, 3)))
            shift = x ** 48  # clears every negative power, keeps divisibility
            assert sympy.rem(sympy.expand(num * shift), qfact(m), x) != 0
            with pytest.raises(ValueError, match="inexact"):
                from_sympy(num).exact_div(qpoch(m))


# -- the packed core at its edges: wide digits, borrows, cancellation ----------

q = BivariatePolynomial.term(1, qe=1)


def test_wide_coefficients_match_sympy():
    # (1 + q)^100 peaks at C(100, 50) ~ 2^96 and its square at ~ 2^196, so
    # both need digits wider than 64 bits
    p = (1 + q) ** 100
    assert p.terms[(0, 200)] == sympy.binomial(100, 50) > 2 ** 64
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
    # 2 + q at q = 2^B is even for every B, but 2 does not divide the
    # polynomial; only the digit bound tells the two apart
    num = 2 + q
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
    # negative exponents, a at quarter residue 1 and b at residue 2
    a = BivariatePolynomial({(0, -7): 3, (0, -3): -1, (0, 5): 2})
    b = BivariatePolynomial({(0, -6): -4, (0, 10): 1})
    for shift in (Fraction(-5, 4), Fraction(-1, 2), 0, Fraction(3, 4), 3):
        assert same(to_sympy((a * b).q_shift(shift)), to_sympy(a) * to_sympy(b) * x ** int(4 * shift))
        assert same(to_sympy(a.q_shift(shift) + b), to_sympy(a) * x ** int(4 * shift) + to_sympy(b))
    assert (a * b).exact_div(b) == a
    assert not a.has_integer_exponents() and a.q_shift(Fraction(3, 4)).terms[(0, -4)] == 3


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
    assert ((q + q * q) - q).terms == {(0, 8): 1} and (q + q * q) - q == q * q
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


# -- rows by quarter residue: mixed steps, offsets and the strided helper -----

t = BivariatePolynomial.term(1, qe=Fraction(1, 4))


def step_poly(rng, g, lo, z_free=False):
    """A polynomial whose terms all sit at quarter exponents lo + g*i."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        ze = 0 if z_free else rng.randint(-2, 2)
        terms[(ze, lo + g * rng.randint(0, 6))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return BivariatePolynomial(terms)


def rows(p):
    """The (z, quarter residue) keys of p's packed rows."""
    return set(p._rows)


def test_mixed_steps_and_offsets_match_sympy():
    rng = random.Random(30)
    for _ in range(120):
        a = step_poly(rng, rng.choice((1, 2, 4)), rng.randint(-5, 5))
        b = step_poly(rng, rng.choice((1, 2, 4)), rng.randint(-5, 5))
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(to_sympy(a + b), sa + sb), (a, b)
        assert same(to_sympy(a - b), sa - sb), (a, b)
        assert same(to_sympy(a * b), sa * sb), (a, b)
        assert same(to_sympy(a * b + a.q_shift(Fraction(1, 4))), sa * sb + sa * x), (a, b)


def test_steps_of_built_sums_and_products():
    one, q2 = BivariatePolynomial.term(1), BivariatePolynomial.term(1, qe=Fraction(1, 2))
    assert rows(1 + q) == {(0, 0)} and rows(q2) == {(0, 2)} and rows(1 + q2) == {(0, 0), (0, 2)}
    assert rows(one + t) == {(0, 0), (0, 1)}  # two rows, at residues 0 and 1
    assert same(to_sympy(one + t), 1 + x)
    assert rows((1 + q) * (1 + q2)) == {(0, 0), (0, 2)}
    assert rows((1 + q) * (1 + t)) == {(0, 0), (0, 1)}
    assert same(to_sympy((1 + q) * (1 + t)), (1 + x ** 4) * (1 + x))
    assert same(to_sympy((1 + q2) * (1 - t) + q2), (1 + x ** 2) * (1 - x) + x ** 2)
    # a q^(3/2) beside q is a second row, at residue 2
    assert rows(q + q2 * q) == {(0, 0), (0, 2)} and (q + q2 * q).to_text() == "q + q^(3/2)"


def test_sums_cancel_to_a_coarser_step_or_another_lo():
    q2 = BivariatePolynomial.term(1, qe=Fraction(1, 2))
    # 1 + q^(1/4) + q has rows at residues 0 and 1; taking q^(1/4) away
    # drops the residue-1 row and leaves the one row of 1 + q
    coarse = (1 + t + q) - t
    assert rows(1 + t + q) == {(0, 0), (0, 1)} and coarse._rows == (1 + q)._rows
    assert coarse == 1 + q and 1 + q == coarse and hash(coarse) == hash(1 + q)
    assert coarse.terms == {(0, 0): 1, (0, 4): 1} and coarse.to_text() == "1 + q"
    assert coarse.has_integer_exponents() and not (coarse + t).has_integer_exponents()
    assert len({coarse, 1 + q, (1 + q2 + q) - q2}) == 1
    # the lowest digit of the residue-0 row cancels: its lo moves up by 4
    moved = (1 + q2 + q) - 1
    assert {key: lo for key, (lo, _) in moved._rows.items()} == {(0, 0): 4, (0, 2): 2}
    assert moved == q2 + q and moved.to_text() == "q^(1/2) + q"
    moved = (t + q2 + q * t) - t - q2
    assert moved == q * t and moved._rows[(0, 1)][0] == 5 and moved.terms == {(0, 5): 1}
    assert rows(moved) == {(0, 1)}
    # a moved lo and a cancelled residue on several z-rows at once
    z = BivariatePolynomial.term(1, ze=1)
    mixed = (z * (t + q) + (1 + q2)) - z * t - q2
    assert mixed == z * q + 1 and hash(mixed) == hash(z * q + 1)
    assert rows(mixed) == rows(z * q + 1) == {(1, 0), (0, 0)} and mixed._rows == (z * q + 1)._rows
    assert mixed != z * q + 2 and mixed != z * q + 1 + q and mixed != z * q2 + 1


def test_equal_across_steps_random():
    # the same value reached through a quarter or a half power added and
    # taken away has the same rows, is equal and hashes alike; one changed
    # term breaks the equality
    rng = random.Random(31)
    for _ in range(40):
        p = step_poly(rng, 4, 4 * rng.randint(-2, 2))
        # a quarter and a half power on every z-row of p, added and taken away
        quarter = BivariatePolynomial({(ze, 1): 1 for ze, _ in p._rows})
        finer = (p + quarter) - quarter
        middle = (p + quarter * t) - quarter * t
        assert all(r == 0 for _, r in p._rows)
        assert finer._rows == middle._rows == p._rows
        assert p == finer == middle and hash(p) == hash(finer) == hash(middle)
        assert finer.to_json_obj() == p.to_json_obj()
        for other in (finer + q, finer + t, finer - q * finer, p * 2):
            assert other != p and p != other


def test_exact_div_with_mixed_steps_matches_sympy():
    # one row over one row divides as sympy does; an operand that mixes
    # quarter residues is refused, also where sympy finds a quotient
    rng = random.Random(32)
    divided = refused = 0
    for _ in range(60):
        quot = step_poly(rng, rng.choice((1, 2, 4)), rng.randint(-5, 5), z_free=True)
        div = step_poly(rng, rng.choice((1, 2, 4)), rng.randint(-5, 5), z_free=True)
        num = quot * div
        if len(rows(num)) == len(rows(div)) == 1:
            assert same(to_sympy(num.exact_div(div)), to_sympy(quot)), (quot, div)
            divided += 1
        else:
            with pytest.raises(ValueError, match="one quarter residue"):
                num.exact_div(div)
            refused += 1
    assert divided and refused, (divided, refused)
    # a one-row numerator over a two-row divisor has a four-row quotient:
    # 1 - q = (1 - q^(1/4)) (1 + q^(1/4)) (1 + q^(1/2))
    # and a two-row numerator over a one-row divisor has a two-row one
    for num, den, want in ((1 - q, 1 + t, (1 - x) * (1 + x ** 2)),
                           ((1 + q) * (1 + t), 1 + q, 1 + x)):
        assert sympy.div(to_sympy(num), to_sympy(den), x) == (sympy.expand(want), 0)
        with pytest.raises(ValueError, match="one quarter residue"):
            num.exact_div(den)
    # a numerator that cancelled down to one row over a one-row divisor
    got = ((1 + t + q * q) - t).exact_div(1 + q * q)
    assert got == 1 and rows(got) == {(0, 0)}
    assert (q * (1 + q) * (1 - q)).exact_div(1 - q * q).q_shift(-1) == 1
    assert (t * (1 + q) * (1 - q)).exact_div(1 - q * q) == t


def test_exact_div_with_mixed_steps_rejects_remainders():
    # q^(1/4) (1 + q) over 1 - q: one row each, and the remainder raises
    with pytest.raises(ValueError, match="inexact"):
        (t * (1 + q)).exact_div(1 - q)
    # a mixed-residue operand raises before any division; sympy confirms
    # that none of these has a quotient either
    shift = x ** 8  # clears every negative power, keeps divisibility
    for num, den in ((1 + q, 1 + t), (1 + t, 1 + q), (1 + q, 1 + q * t),
                     ((1 + q) * (1 + t) + t, 1 + q), ((1 - q) * (1 + t) + q, 1 - q)):
        assert sympy.rem(sympy.expand(to_sympy(num) * shift), to_sympy(den), x) != 0, (num, den)
        with pytest.raises(ValueError, match="one quarter residue"):
            num.exact_div(den)


def test_integer_exponents_from_row_metadata():
    q2 = BivariatePolynomial.term(1, qe=Fraction(1, 2))
    assert (1 + q).has_integer_exponents() and not (t + t * q).has_integer_exponents()
    assert not (1 + q2).has_integer_exponents() and ((1 + q2 + q) - q2).has_integer_exponents()
    assert ((1 + t) * (1 - t)).has_integer_exponents() is False
    assert ((1 + t) * (1 - t) * (1 + q2)).has_integer_exponents()  # 1 - q
    assert BivariatePolynomial().has_integer_exponents()


def test_subs_q_to_q2_at_every_step():
    rng = random.Random(33)
    for _ in range(40):
        p = step_poly(rng, rng.choice((1, 2, 4)), rng.randint(-5, 5))
        p = p + rng.choice((0, 1)) * (p - t)  # cancelled and uncancelled rows alike
        got = p.subs_q_to_q2()
        assert same(to_sympy(got), to_sympy(p).subs(x, x ** 2)), p
        assert got == BivariatePolynomial({(ze, 2 * q4): c for (ze, q4), c in p.terms.items()})


def test_restride_matches_unpack_and_join():
    # the strided copy against the per-digit route it replaces, for widening
    # and for spreading, alone and together
    from demcrystal.qlaurent import _join, _restride, _unpack

    rng = random.Random(34)
    for bits in (32, 64, 128):
        half = 1 << (bits - 1)
        cases = [[], [0], [-half], [half - 1], [-half] * 4 + [1], [half - 1, -half, 0, -1]]
        cases += [[rng.randrange(-half, half) for _ in range(rng.randrange(1, 14))]
                  for _ in range(60)]
        for digits in cases:
            p = _join(digits, bits)
            for wide in (bits, 2 * bits, 4 * bits):
                assert _restride(p, bits, wide) == _join(_unpack(p, bits), wide), (bits, wide, digits)
                for s in (2, 4):  # s - 1 zero digits after each digit
                    spread = [0] * (s * len(digits))
                    spread[::s] = digits
                    assert _restride(p, bits, s * wide) == _join(spread, wide), (bits, wide, s, digits)
