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
    assert ZERO.coefficient() == 0


def test_quarter_exponents_only():
    for bad in (Fraction(1, 3), Fraction(1, 8)):
        with pytest.raises(ValueError):
            BivariatePolynomial.term(1, qe=bad)
        with pytest.raises(ValueError):
            ONE.q_shift(bad)
        with pytest.raises(ValueError):
            ONE.coefficient(qe=bad)
        with pytest.raises(ValueError):
            BivariatePolynomial.from_json_obj([{"ze": 0, "qe": str(bad), "c": "1"}])


def test_only_exact_exponents_and_operands():
    # qpow(0.25) was q^(1/4), ONE.q_shift(True) was q, and ONE + 1.5 raised
    # AttributeError
    for call in (qpow, ONE.q_shift, lambda qe: ONE.coefficient(qe=qe)):
        for bad in (0.25, 1.0, True, None):
            with pytest.raises(TypeError):
                call(bad)
    with pytest.raises(TypeError):
        BivariatePolynomial.from_json_obj([{"ze": 0, "qe": 0.5, "c": "1"}])
    assert qpow("3/4") == qpow(Fraction(3, 4))  # the str JSON carries
    assert qpow("-3/4") == qpow(Fraction(-3, 4)) and qpow("0/1") == ONE
    # any str Fraction reads was taken: "1_0/4" as q^(5/2), and "1/0" raised
    # ZeroDivisionError
    for bad in ("0.25", "1e0", "1_0/4", "\uff13/4", " 1/4", "+1/4", "1/0", "1/00", "1"):
        with pytest.raises(ValueError):
            qpow(bad)
        with pytest.raises(ValueError):
            BivariatePolynomial.from_json_obj([{"ze": 0, "qe": bad, "c": "1"}])
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
    # the JSON reader truncated {"ze": 0.9, "qe": "1/2", "c": 1.5} to q^(1/2)
    # and read a ze or c of true as 1
    for term in ({"ze": 0.9, "c": "1"}, {"ze": True, "c": "1"}, {"ze": "0", "c": "1"},
                 {"ze": 0, "c": 1.5}, {"ze": 0, "c": True}, {"ze": 0, "c": "1.5"},
                 {"ze": 0, "c": " 1"}, {"ze": 0, "c": "1_0"}, {"ze": 0, "c": "--1"}):
        with pytest.raises(TypeError):
            BivariatePolynomial.from_json_obj([{"qe": "1/2", **term}])
    for c in ("-12", -12):
        assert BivariatePolynomial.from_json_obj([{"ze": 0, "qe": "1/2", "c": c}]) == \
            -12 * qpow(Fraction(1, 2))


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
    # a rational exponent enters only through term, qpow, q_shift, coefficient
    # and from_json_obj; the constructor does not rescale it
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
    assert BivariatePolynomial.from_json_obj(obj) == p
    assert p.coefficient(1, Fraction(5, 4)) == -3
    assert p.coefficient(-3, 2) == 1


def test_json_rejects_duplicate_terms():
    # a hand-written file may name one monomial twice, also as 1/2 and 2/4
    for qes in (("1/2", "1/2"), ("1/2", "2/4")):
        obj = [{"ze": 1, "qe": qe, "c": "1"} for qe in qes]
        with pytest.raises(ValueError, match="two terms with ze=1"):
            BivariatePolynomial.from_json_obj(obj)


def test_json_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng)
        assert BivariatePolynomial.from_json_obj(p.to_json_obj()) == p


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
