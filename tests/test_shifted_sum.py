"""shifted_sum gives the sum p1 * q^(e1/4) + ... - ... of the operands'
decoded terms, added up as plain ints, row for row: its bound is the sum
of the operands' bounds, its digit width that bound's, and its packed rows
those of the reference re-packed at that width.  The operands have several
z-rows and mixed quarter residues, arrive at different digit widths, and
have terms that cancel a whole row or only its lowest digits.  The
reference does not go through + or -, which are shifted_sum themselves."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from demcrystal.qlaurent import BivariatePolynomial, _width, shifted_sum  # noqa: E402

# small coefficients, ones near 2^31 (a sum of a few crosses it, so the
# operands arrive at widths 32 and 64) and ones past 2^63 (width 128)
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**30, 2**31 - 1) | st.integers(-(2**31) + 1, -(2**30)),
    st.integers(-(2**70), 2**70),
)
TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-9, 9)), COEFFS, max_size=8
)


def lowest_terms(terms):
    """The lowest term of each (z, residue) row: what cancels only the
    lowest digit of every row."""
    low = {}
    for (z, q4), c in terms.items():
        key = (z, q4 % 4)
        if c and (key not in low or q4 < low[key][0]):
            low[key] = (q4, c)
    return {(z, q4): c for (z, _), (q4, c) in low.items()}


@st.composite
def operands(draw):
    """(plus, minus): lists of (polynomial, quarter shift), where some
    operand is cancelled, wholly, in its lowest digits or in a few of its
    terms, by a later one of either sign."""
    shift = st.integers(-12, 12)
    plus = draw(st.lists(st.tuples(TERMS, shift), max_size=5))
    minus = draw(st.lists(st.tuples(TERMS, shift), max_size=5))
    drawn = [(t, q4, True) for t, q4 in plus] + [(t, q4, False) for t, q4 in minus]
    cancelled = draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    for terms, q4, was_plus in cancelled:
        cut = draw(st.sampled_from(("whole", "lowest", "some")))
        if cut == "lowest":
            terms = lowest_terms(terms)
        elif cut == "some" and terms:
            keys = draw(st.lists(st.sampled_from(sorted(terms)), unique=True))
            terms = {key: terms[key] for key in keys}
        if draw(st.booleans()):  # the same sign, negated
            (plus if was_plus else minus).append(({key: -c for key, c in terms.items()}, q4))
        else:
            (minus if was_plus else plus).append((terms, q4))
    return ([(BivariatePolynomial(t), q4) for t, q4 in plus],
            [(BivariatePolynomial(t), q4) for t, q4 in minus])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(operands())
def test_shifted_sum_is_the_chained_sum(case):
    plus, minus = case
    terms = {}
    for operands, sign in ((plus, 1), (minus, -1)):
        for p, q4 in operands:
            for (z, e), c in p.terms.items():
                terms[(z, e + q4)] = terms.get((z, e + q4), 0) + sign * c
    ref = BivariatePolynomial(terms)
    got = shifted_sum(plus, minus)
    norm = sum(p._norm for p, _ in plus + minus) if got else 0
    assert (got._norm, got._bits) == (norm, _width(norm))
    assert got._rows == ref._at(got._bits)
    assert got == ref
