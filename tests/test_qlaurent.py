import operator
import random
from fractions import Fraction

import pytest

from demcrystal.qlaurent import (
    ONE,
    ZERO,
    BivariatePolynomial,
    gaussian,
    pochhammer,
    q_multinomial,
    qpoch,
    qpow,
    shifted_sum,
    verify_gaussian_lemma,
    zpow,
)


def rand_poly(rng, nterms=5):
    p = ZERO
    for _ in range(nterms):
        c = rng.randint(-4, 4)
        ze = rng.randint(-3, 3)
        qe = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        p = p + BivariatePolynomial.term(c, ze=ze, qe=qe)
    return p


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_term_canonicalization():
    p = BivariatePolynomial.term(3, ze=1) + BivariatePolynomial.term(-3, ze=1)
    assert p == ZERO
    assert not p
    assert ZERO.terms == {}


def test_quarter_exponents_only():
    for bad in (Fraction(1, 3), Fraction(1, 8)):
        with pytest.raises(ValueError):
            BivariatePolynomial.term(1, qe=bad)
        with pytest.raises(ValueError):
            ONE.q_shift(bad)


def test_only_exact_exponents_and_operands():
    # qpow(0.25) was q^(1/4), ONE.q_shift(True) was q, and ONE + 1.5 raised
    # AttributeError; a q-exponent is an int or a Fraction, never the str
    # n/d that to_json_obj writes
    for call in (qpow, ONE.q_shift, lambda qe: BivariatePolynomial.term(1, qe=qe)):
        for bad in (0.25, 1.0, True, None, "3/4", "1"):
            with pytest.raises(TypeError):
                call(bad)
    # (1 + z).z_shift(0.5) was z^0.5 + z^1.5, and z_shift(True) was z_shift(1)
    # (1 + z) ** True was 1 + z, and ** 2.0 died in an internal &
    for bad in (0.5, 1.0, True, None, Fraction(1)):
        with pytest.raises(TypeError):
            (ONE + zpow(1)).z_shift(bad)
        with pytest.raises(TypeError, match="exponent"):
            (ONE + zpow(1)) ** bad
    # a bool or a float compares equal to an int: ONE + True was 2, ONE ==
    # True held, and a float coefficient died in _width with a >> message
    for op in (operator.add, operator.sub, operator.mul):
        for bad in (1.5, True):
            for args in ((ONE, bad), (bad, ONE)):
                with pytest.raises(TypeError):
                    op(*args)
    assert ONE != True and ZERO != False and ONE == 1  # noqa: E712
    for terms in ({(0, 0): True}, {(True, 0): 1}, {(0, False): 1}, {(0, 0): 1.5},
                  {(0, 0): 0.0}):
        with pytest.raises(TypeError, match="is not an int"):
            BivariatePolynomial(terms)


def test_constructor_reads_terms():
    # the constructor takes the {(z, 4 * q-exponent): c} dict that terms
    # returns, so the two are inverse; (1 + q)^100 packs 128-bit digits
    rng = random.Random(12)
    wide = (ONE + qpow(1)) ** 100
    assert wide._bits > 64
    polys = [rand_poly(rng) for _ in range(30)]
    for p in polys + [wide, wide * zpow(-2) - qpow(Fraction(3, 4)), ZERO]:
        assert BivariatePolynomial(p.terms) == p
    expected = 2 * zpow(1) * qpow(Fraction(1, 4)) - qpow(Fraction(-3, 2))
    assert BivariatePolynomial({(1, 1): 2, (0, -6): -1}) == expected
    assert BivariatePolynomial() == ZERO and BivariatePolynomial({(0, 0): 1}) == ONE


def test_constructor_rejects_rational_keys():
    # a rational exponent enters only through term, qpow and q_shift; the
    # constructor does not rescale it
    with pytest.raises(TypeError):
        BivariatePolynomial({(0, Fraction(1, 2)): 1})
    with pytest.raises(TypeError):
        BivariatePolynomial({(Fraction(1), 0): 1})


def test_to_text_ordering():
    p = ONE + zpow(-1) * qpow(1) + zpow(-2) * qpow(2)
    assert p.to_text() == "1 + z^-1*q + z^-2*q^2"
    p2 = ONE - zpow(1) - zpow(1) * qpow(1) + zpow(2) * qpow(1)
    assert p2.to_text() == "1 - z - z*q + z^2*q"


def test_text_fractional_powers():
    assert qpow(Fraction(1, 2)).to_text() == "q^(1/2)"


def _mixed_quarters():
    return (
        2 * zpow(-1) * qpow(Fraction(-3, 4))
        - qpow(Fraction(-1, 2))
        + zpow(2) * qpow(Fraction(1, 4))
        - 3 * zpow(1) * qpow(Fraction(5, 4))
        + zpow(-3) * qpow(2)
        + ONE
        + zpow(1) * qpow(Fraction(1, 4))
    )


def test_text_mixed_quarter_powers():
    assert _mixed_quarters().to_text() == (
        "2*z^-1*q^(-3/4) - q^(-1/2) + 1 + z*q^(1/4) + z^2*q^(1/4)"
        " - 3*z*q^(5/4) + z^-3*q^2"
    )


def test_json_mixed_quarter_powers():
    p = _mixed_quarters()
    obj = p.to_json_obj()
    assert obj == [
        {"ze": -1, "qe": "-3/4", "c": "2"},
        {"ze": 0, "qe": "-1/2", "c": "-1"},
        {"ze": 0, "qe": "0/1", "c": "1"},
        {"ze": 1, "qe": "1/4", "c": "1"},
        {"ze": 2, "qe": "1/4", "c": "1"},
        {"ze": 1, "qe": "5/4", "c": "-3"},
        {"ze": -3, "qe": "2/1", "c": "1"},
    ]
    assert p.terms.get((1, 5), 0) == -3
    assert p.terms.get((-3, 8), 0) == 1


def test_pow():
    p = ONE + qpow(1)
    assert p ** 3 == p * p * p
    assert p ** 0 == ONE
    with pytest.raises(ValueError, match="negative powers"):
        p ** -1


def test_gaussian_anchor():
    # [4,2] = 1 + q + 2q^2 + q^3 + q^4
    g = gaussian(4, 2)
    want = ONE + qpow(1) + 2 * qpow(2) + qpow(3) + qpow(4)
    assert g == want


def test_gaussian_edges():
    assert gaussian(5, 0) == ONE
    assert gaussian(5, 5) == ONE
    assert gaussian(3, 4) == ZERO
    assert gaussian(4, -1) == ZERO


def test_gaussian_negative_top():
    # [-M, i] is a Laurent polynomial with (-1)^i leading structure
    g = gaussian(-2, 1)
    assert g != ZERO
    # [M,i] at q=1 is binomial(M,i), extended: C(-2,1) = -2
    assert sum(g.terms.values()) == -2
    assert sum(gaussian(-3, 2).terms.values()) == 6


def test_gaussian_symmetry():
    for M in range(0, 8):
        for i in range(0, M + 1):
            assert gaussian(M, i) == gaussian(M, M - i)


def test_pochhammer_rejects_negative():
    with pytest.raises(ValueError):
        pochhammer(-1)
    assert pochhammer(0) == ONE
    with pytest.raises(ValueError, match="qpoch requires m >= 0"):
        qpoch(-1)
    with pytest.raises(ValueError, match="both M and N are negative"):
        verify_gaussian_lemma(-1, -1, 0)


def test_q_multinomial():
    assert q_multinomial(4, (2, 2)) == gaussian(4, 2)
    m = q_multinomial(4, (1, 1, 2))
    assert m == gaussian(4, 1) * gaussian(3, 1)
    assert sum(m.terms.values()) == 12
    assert q_multinomial(3, (1, 1, 2)) == ZERO
    # memoized on the sorted parts: any order and any iterable give it
    assert q_multinomial(4, [2, 1, 1]) == q_multinomial(4, iter((1, 2, 1))) == m
    assert q_multinomial(2, (3, -1)) == ZERO


def test_exact_div():
    num = qpoch(3)
    assert num.exact_div(qpoch(2)) * qpoch(2) == num
    with pytest.raises(ValueError):
        (ONE + qpow(1) + qpow(2)).exact_div(ONE + qpow(1))
    with pytest.raises(ZeroDivisionError):
        num.exact_div(ZERO)


def test_exact_div_rejects_z():
    with pytest.raises(ValueError):
        (ONE + zpow(1)).exact_div(ONE + qpow(1))


def test_rows_are_canonical():
    # at one digit width a value has one set of packed rows, whichever way
    # it was built, which is all == compares at one width; hashes agree too
    t, q2, q, z = qpow(Fraction(1, 4)), qpow(Fraction(1, 2)), qpow(1), zpow(1)
    pairs = [
        ((1 + q) - 1, q),  # the lowest digit cancels
        ((1 + q + q * q) - 1 - q, q * q),
        ((1 + q + q * q) - q * q, 1 + q),  # the highest digit cancels
        ((1 + t + q) - t, 1 + q),  # a whole residue cancels
        ((t + q2 + q * t) - t - q2, q * t),
        (z * (t + q) - z * t, z * q),
        ((1 + t) * (1 - q2), (1 - q2) * (1 + t)),
        (((1 + t + q) - t).subs_q_to_q2(), (1 + q).subs_q_to_q2()),
    ]
    rng = random.Random(40)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        pairs += [
            ((a + c) - c, a),
            ((c + a) - c, a),
            (a * b, b * a),
            ((a * b) * c, a * (b * c)),
            (a.q_shift(Fraction(5, 4)).z_shift(-2).q_shift(Fraction(-5, 4)).z_shift(2), a),
            (a.q_shift(Fraction(-3, 4)).q_shift(Fraction(3, 4)), a),
            (((a + c) - c).subs_q_to_q2(), a.subs_q_to_q2()),
            ((a * b).subs_q_to_q2(), (b * a).subs_q_to_q2()),
        ]
    for built, value in pairs:
        assert built._bits == value._bits, (built, value)
        assert built._rows == value._rows and hash(built) == hash(value), (built, value)
        assert built == value and not built != value


def test_equality_across_widths_decodes_nothing(monkeypatch):
    # == re-packs the narrower operand's rows at the wider width and
    # compares rows; it never decodes either side to terms
    t, q, z = qpow(Fraction(1, 4)), qpow(1), zpow(1)
    big = BivariatePolynomial.term(1 << 40, ze=3, qe=7)

    def wider(p):
        return (p + big) - big

    values = [
        1 + t - 3 * q * q + qpow(Fraction(-1, 2)),  # one z-power, three residues
        z * (1 - q) + zpow(-2) * t - 5 * z * q.q_shift(Fraction(3, 2)),  # z-rows
        q.q_shift(Fraction(-9, 4)),
        ONE,
    ]
    changes = [ONE, t, z, -q * q, zpow(-2) * qpow(Fraction(1, 4))]
    pairs = []
    for p in values:
        assert wider(p)._bits > p._bits and hash(wider(p)) == hash(p)
        pairs += [(p, wider(p), True)]
        pairs += [(p, wider(p + d), False) for d in changes]
        pairs += [(wider(p), p - d, False) for d in changes]

    def refuse(self):
        raise AssertionError("== decoded terms")

    monkeypatch.setattr(BivariatePolynomial, "terms", property(refuse))
    for a, b, equal in pairs:
        assert a._bits != b._bits
        assert (a == b) is (b == a) is equal and (a != b) is not equal, (a, b)
    assert wider(ONE) == 1 and wider(ONE) != 2


def test_library_divisions_stay_packed():
    # every exact_div the library makes divides one row by one row, since
    # a mixed-residue operand raises
    from conftest import run_engine
    from demcrystal import verify

    ok, first_bad = run_engine({"boson-fermion": 894}, verify.boson_fermion(3, 6))
    assert ok, first_bad
    fresh = gaussian.__wrapped__  # computed anew, past the memo
    for M in range(-5, 10):
        for i in range(1, 7):
            assert fresh(M, i) == fresh(M - 1, i - 1) + qpow(i) * fresh(M - 1, i), (M, i)


def test_route_values_reach_wide_digits(monkeypatch):
    # every (b, c) of the cells (k, L) = (2, 20) and (1, 30) through the f
    # routes: their values build rows of 64-bit digits, and some exact_div
    # finds its first integer quotient past the digit bound and re-runs at
    # a doubled width, reading its operands anew through _at
    from demcrystal import qlaurent, verify

    widths, reads, reruns = set(), [], []
    poly, at, div = qlaurent._poly, BivariatePolynomial._at, BivariatePolynomial.exact_div

    def recorded_poly(rows, norm, bits):
        widths.add(bits)
        return poly(rows, norm, bits)

    def counted_at(self, bits):
        reads.append(bits)
        return at(self, bits)

    def counted_div(self, divisor):
        reads.clear()
        quot = div(self, divisor)
        reruns.append(len(reads) > 2)  # one read of each operand per run
        return quot

    monkeypatch.setattr(qlaurent, "_poly", recorded_poly)
    monkeypatch.setattr(BivariatePolynomial, "_at", counted_at)
    monkeypatch.setattr(BivariatePolynomial, "exact_div", counted_div)
    for k, L, count in ((2, 20, 243), (1, 30, 122)):
        widths.clear()
        reruns.clear()
        points = [(b, c) for b in range(-L * k, L * k + 1) for c in range(b - k, b + k + 1, 2)]
        assert len(points) == count
        bad = [(b, c) for b, c in points if not verify._f_routes_agree(k, L, b, c)]
        assert not bad, (k, L, bad[:3])
        assert 64 in widths and any(reruns), (k, L, widths, sum(reruns))


def test_one_sum_path(monkeypatch):
    # + and - are shifted_sum's two-operand case: each makes one call to it
    # and adds no row outside it, and - builds no negated copy
    from demcrystal import qlaurent

    calls, inside = [], []
    real_sum, real_add_row = qlaurent.shifted_sum, qlaurent._add_row

    def counted_sum(plus, minus=()):
        calls.append(1)
        inside.append(1)
        try:
            return real_sum(plus, minus)
        finally:
            inside.pop()

    def add_row(*args):
        assert inside, "a row was added outside shifted_sum"
        return real_add_row(*args)

    def refuse(self):
        raise AssertionError("- built a negated copy")

    a, b = 1 + qpow(Fraction(1, 4)), qpow(1) - zpow(1)
    a_plus_b = BivariatePolynomial({(0, 0): 1, (0, 1): 1, (0, 4): 1, (1, 0): -1})
    a_minus_b = BivariatePolynomial({(0, 0): 1, (0, 1): 1, (0, 4): -1, (1, 0): 1})
    a_plus_1 = BivariatePolynomial({(0, 0): 2, (0, 1): 1})
    want = {
        "a + b": (lambda: a + b, a_plus_b, 1),
        "a + 1": (lambda: a + 1, a_plus_1, 1),
        "1 + a": (lambda: 1 + a, a_plus_1, 1),
        "a - b": (lambda: a - b, a_minus_b, 1),
        "1 - a": (lambda: 1 - a, BivariatePolynomial({(0, 1): -1}), 1),
        "sum([a, b], ZERO)": (lambda: sum([a, b], ZERO), a_plus_b, 2),
    }
    monkeypatch.setattr(qlaurent, "shifted_sum", counted_sum)
    monkeypatch.setattr(qlaurent, "_add_row", add_row)
    monkeypatch.setattr(BivariatePolynomial, "__neg__", refuse)
    for name, (build, value, count) in want.items():
        calls.clear()
        assert build() == value, name
        assert len(calls) == count, (name, len(calls))


def test_shifted_sum_edges():
    # no operand, or only zero ones, gives the zero polynomial; a quarter
    # shift that is not an int is refused, on a zero operand too
    p = 1 + qpow(Fraction(1, 4)) - 3 * zpow(2)
    for plus, minus in [((), ()), ([], [(ZERO, 3)]), ([(p, 5)], [(p, 5)]), ([(p, 1), (-p, 1)], [])]:
        got = shifted_sum(plus, minus)
        assert not got and (got._rows, got._norm, got._bits) == (ZERO._rows, ZERO._norm, ZERO._bits)
    assert shifted_sum(iter([(p, 2)]), iter([(ONE, 0)])) == p.q_shift(Fraction(1, 2)) - 1
    for q4 in (True, 1.0, Fraction(1), Fraction(1, 4), "1/4"):
        for operand in (p, ZERO):
            with pytest.raises(TypeError, match="is not an int"):
                shifted_sum([(operand, q4)])
            with pytest.raises(TypeError, match="is not an int"):
                shifted_sum([(ONE, 0)], [(operand, q4)])


def test_substitutions():
    p = zpow(-2) * qpow(3) + zpow(1)
    r = p.subs_q_one_z_to_qinv()
    assert r == qpow(2) + qpow(-1)
    s = p.subs_z_to_q_q_to_q2()
    assert s == qpow(4) + qpow(1)


def test_packed_digits_round_trip():
    # any int, including the quotients exact_div decodes before checking
    # them, splits into digits in [-2^(B-1), 2^(B-1)) that rebuild it; a top
    # digit of 1 over digits of -2^(B-1) is the shortest int for its length
    from demcrystal.qlaurent import _join, _unpack

    rng = random.Random(8)
    for bits in (32, 64, 128):
        half = 1 << (bits - 1)
        edge = [-half] * 5 + [1]
        samples = [0, 1, -1, half - 1, -half, _join(edge, bits), -_join(edge, bits)]
        samples += [rng.randint(-(2 ** 300), 2 ** 300) for _ in range(50)]
        for p in samples:
            digits = _unpack(p, bits)
            assert _join(digits, bits) == p
            assert all(-half <= d < half for d in digits)
        assert _unpack(_join(edge, bits), bits)[:6] == edge


def test_join_matches_the_per_digit_reference():
    # the word-packed widths write the same int the byte-by-byte packing did
    from demcrystal.qlaurent import _join

    def reference(digits, bits):
        half = 1 << (bits - 1)
        data = b"".join((d + half).to_bytes(bits // 8, "little") for d in digits)
        return int.from_bytes(data, "little") - half * sum(1 << (bits * i) for i in range(len(digits)))

    rng = random.Random(23)
    for bits in (32, 64, 128):
        half = 1 << (bits - 1)
        extremes = [half - 1, -(half - 1), -half]
        cases = [[], [0], extremes, extremes[::-1], [-half] * 4 + [half - 1]]
        cases += [[rng.randrange(-half, half) for _ in range(rng.randrange(1, 12))] for _ in range(40)]
        for digits in cases:
            assert _join(digits, bits) == reference(digits, bits), (bits, digits)
    assert _join([], 32) == _join([], 128) == 0
