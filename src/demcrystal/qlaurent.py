"""Exact Laurent polynomials in z and q over the integers.

z-exponents are integers and q-exponents lie in (1/4)Z.  Internally a
q-exponent r is the int 4r, its count of quarters, and the constructor
takes terms in that form, {(z-exponent, 4r): coefficient} with int (not
bool) keys and coefficients, the form ``terms`` returns.  Rational
q-exponents are accepted only at the public boundary (``term``, ``qpow``,
``q_shift``, ``coefficient``, ``from_json_obj``), where ``_quarters``
converts them and raises ValueError for any denominator that does not
divide 4.  ``to_text`` and ``to_json_obj`` print quarters back as reduced
fractions.

Packed rows (Kronecker substitution).  The terms c_e z^a q^(e/4) of one
z-power a are stored as one pair ``(lo, p)``: lo is the lowest quarter
exponent e and p = sum of c_e * 2^(B*(e - lo)), the row evaluated at
q^(1/4) = 2^B.  The digits c_e are signed: every |c_e| < 2^(B-1), so p
determines them, and the digit at lo is non-zero, so equal rows are
equal pairs.  Each polynomial tracks a bound N on the sum of |c| over
all its terms, and its digit width B is the smallest of 32, 64, 128, ...
with N < 2^(B-1).  Sums and products carry the bound along (N1 + N2 and
N1 * N2); when that needs a wider B, the operands are re-packed wider
before the operation, so a digit never overflows.  A product of two rows
is then one int multiply, a sum is a shift and an add, a q-shift moves
lo, and exact division is one divmod (``exact_div`` states why its
quotient is exact).  Terms are decoded only at the boundary: text, JSON,
term queries and hashing.  ``_join`` packs a row's digits and ``_unpack``
reads them back, as native machine words at B = 32 and 64 and byte by
byte at wider B.  Coefficients are Python ints, so all arithmetic is
exact at any size.
"""
from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd


def _quarters(value) -> int:
    """4 * value as an int; the single check on q-exponents entering the
    ring: an int (not a bool), a Fraction or the str n/d that JSON carries."""
    if type(value) is int:
        return 4 * value
    if isinstance(value, str) and not _RATIO.fullmatch(value):
        raise ValueError(f"q-exponent {value!r} is not written n/d with d > 0")
    if not isinstance(value, (Fraction, str)):
        raise TypeError(f"q-exponent {value!r} is not an int, a Fraction or a str")
    f = Fraction(value)
    if 4 % f.denominator:
        raise ValueError(f"q-exponent {f} does not have denominator 1, 2 or 4")
    return f.numerator * (4 // f.denominator)


# a coefficient and a q-exponent as to_json_obj writes them, in ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")
_RATIO = re.compile(r"-?[0-9]+/[0-9]*[1-9][0-9]*")


def _reduced(q4: int) -> tuple[int, int]:
    """A quarter count as the reduced fraction (numerator, denominator)."""
    g = gcd(q4, 4)
    return q4 // g, 4 // g


# -- packed rows -------------------------------------------------------------------

def _width(norm: int) -> int:
    """The digit width B for a coefficient bound: least 32 * 2^j with norm < 2^(B-1)."""
    bits = 32
    while norm >> (bits - 1):
        bits *= 2
    return bits


# The native unsigned word types of 32 and 64 bits, in which _unpack reads
# the digits of those widths; none on a big-endian machine, whose words do
# not read in little-endian byte order.
_WORD_CODES = {
    memoryview(bytes(8)).cast(code).itemsize * 8: code for code in "IQ"
} if sys.byteorder == "little" else {}


def _ones(n: int, bits: int) -> int:
    """Sum of 2^(bits*i) for 0 <= i < n."""
    return ((1 << (bits * n)) - 1) // ((1 << bits) - 1)


def _unpack(p: int, bits: int) -> list[int]:
    """The digits of p in [-2^(bits-1), 2^(bits-1)), lowest first (the last
    ones may be 0).

    Adding 2^(bits-1) to every digit makes them all non-negative, so they
    are read straight off the bytes of one int, as machine words when the
    width has a native word type.  Digits below the top one can make p up
    to two bits shorter than the top digit's place, hence the extra digit
    in n."""
    w = bits // 8
    n = p.bit_length() // bits + 2
    half = 1 << (bits - 1)
    data = (p + half * _ones(n, bits)).to_bytes(n * w, "little")
    if bits in _WORD_CODES:
        words = memoryview(data).cast(_WORD_CODES[bits])
    else:
        words = [int.from_bytes(data[j:j + w], "little") for j in range(0, n * w, w)]
    return [d - half for d in words]


def _join(digits, bits: int) -> int:
    """The int whose signed base-2^bits digits are ``digits``, lowest first.

    The inverse of ``_unpack``: each digit plus 2^(bits-1) is written as one
    machine word when the width has a native word type, else byte by byte."""
    half = 1 << (bits - 1)
    if bits in _WORD_CODES:
        data = array(_WORD_CODES[bits], [d + half for d in digits]).tobytes()
    else:
        w = bits // 8
        data = b"".join((d + half).to_bytes(w, "little") for d in digits)
    return int.from_bytes(data, "little") - half * _ones(len(digits), bits)


def _add_row(rows: dict, z: int, lo: int, p: int, bits: int) -> None:
    """rows[z] += the packed row (lo, p); a row that cancels is dropped."""
    old = rows.get(z)
    if old is None:
        rows[z] = (lo, p)
        return
    lo0, p0 = old
    if lo < lo0:
        lo, p, lo0, p0 = lo0, p0, lo, p
    s = p0 + (p << (bits * (lo - lo0)))
    if not s:
        del rows[z]
        return
    if lo == lo0:  # the lowest digits may have cancelled
        zeros = ((s & -s).bit_length() - 1) // bits
        if zeros:
            s >>= bits * zeros
            lo0 += zeros
    rows[z] = (lo0, s)


def _poly(rows: dict, norm: int, bits: int) -> "BivariatePolynomial":
    """The polynomial with these rows, packed at width bits == _width(norm)."""
    res = object.__new__(BivariatePolynomial)
    if not rows:
        norm, bits = 0, _width(0)
    res._rows = rows
    res._norm = norm
    res._bits = bits
    return res


class BivariatePolynomial:
    """Finite integer combination of z^a * q^r, a integer, r quarter-integer.

    Instances are immutable.  Rows are stored packed (see the module
    docstring); equality and hashing do not depend on the digit width.
    """

    __slots__ = ("_rows", "_norm", "_bits")

    def __init__(self, terms=None):
        """The polynomial with terms {(z-exponent, 4 * q-exponent): coefficient},
        the int keys ``terms`` returns; zero coefficients are dropped."""
        by_z: dict[int, dict[int, int]] = {}
        norm = 0
        for (z, q4), c in (terms or {}).items():
            if not type(z) is type(q4) is type(c) is int:  # a bool or a float equals an int
                raise TypeError(f"term {(z, q4)!r}: {c!r} holds a value that is not an int")
            if c:
                by_z.setdefault(z, {})[q4] = c
                norm += abs(c)
        bits = _width(norm)
        rows = {}
        for z, row in by_z.items():
            lo = min(row)
            rows[z] = (lo, _join([row.get(e, 0) for e in range(lo, max(row) + 1)], bits))
        self._rows, self._norm, self._bits = rows, norm, bits

    def _at(self, bits: int) -> dict:
        """The rows re-packed at a digit width bits >= self._bits."""
        if bits == self._bits:
            return self._rows
        return {z: (lo, _join(_unpack(p, self._bits), bits)) for z, (lo, p) in self._rows.items()}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def term(cls, coeff: int, ze: int = 0, qe=0) -> "BivariatePolynomial":
        return cls({(ze, _quarters(qe)): coeff})

    # -- basic protocol --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The non-zero terms as {(z-exponent, 4 * q-exponent): coefficient}."""
        out = {}
        for z, (lo, p) in self._rows.items():
            for i, c in enumerate(_unpack(p, self._bits)):
                if c:
                    out[(z, lo + i)] = c
        return out

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = BivariatePolynomial.term(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        bits = max(self._bits, other._bits)
        return self._at(bits) == other._at(bits)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            if type(other) is not int:
                return NotImplemented
            other = BivariatePolynomial.term(other)
        if not other._rows:
            return self
        if not self._rows:
            return other
        norm = self._norm + other._norm
        bits = _width(norm)
        out = dict(self._at(bits))
        for z, (lo, p) in other._at(bits).items():
            _add_row(out, z, lo, p, bits)
        return _poly(out, norm, bits)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return _poly({z: (lo, -p) for z, (lo, p) in self._rows.items()}, self._norm, self._bits)

    def __sub__(self, other) -> "BivariatePolynomial":
        if type(other) is bool:  # -True is the int -1, which + would take
            return NotImplemented
        return self + (-other)  # + refuses what is neither int nor polynomial

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            if type(other) is not int:
                return NotImplemented
            other = BivariatePolynomial.term(other)
        norm = self._norm * other._norm
        bits = max(self._bits, other._bits, _width(norm))
        out: dict[int, tuple[int, int]] = {}
        right = other._at(bits).items()
        for z1, (lo1, p1) in self._at(bits).items():
            for z2, (lo2, p2) in right:
                _add_row(out, z1 + z2, lo1 + lo2, p1 * p2, bits)
        return _poly(out, norm, bits)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if type(n) is not int:  # a bool or a float equals an int but is no exponent
            raise TypeError(f"exponent {n!r} is not an int")
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries and transforms ---------------------------------------------------

    def coefficient(self, ze: int = 0, qe=0) -> int:
        return self.terms.get((ze, _quarters(qe)), 0)

    def is_z_free(self) -> bool:
        return all(ze == 0 for ze in self._rows)

    def has_integer_exponents(self) -> bool:
        return all(q4 % 4 == 0 for _, q4 in self.terms)

    def q_shift(self, qe) -> "BivariatePolynomial":
        """Multiply by q^qe."""
        return self.shift_quarters(_quarters(qe))

    def shift_quarters(self, q4: int) -> "BivariatePolynomial":
        """Multiply by q^(q4/4) for an int q4."""
        return _poly({z: (lo + q4, p) for z, (lo, p) in self._rows.items()}, self._norm, self._bits)

    def z_shift(self, ze: int) -> "BivariatePolynomial":
        """Multiply by z^ze for an int (not a bool) ze."""
        if type(ze) is not int:
            raise TypeError(f"z-exponent {ze!r} is not an int")
        return _poly({z + ze: row for z, row in self._rows.items()}, self._norm, self._bits)

    def _substitute(self, new_key) -> "BivariatePolynomial":
        """Move each term to new_key(z, q4), summing terms that collide."""
        out: dict[tuple[int, int], int] = {}
        for (z, q4), c in self.terms.items():
            key = new_key(z, q4)
            out[key] = out.get(key, 0) + c
        return BivariatePolynomial(out)

    def subs_q_one_z_to_qinv(self) -> "BivariatePolynomial":
        """Substitute q = 1 first and then z = q^{-1} (fresh variable q)."""
        return self._substitute(lambda z, q4: (0, -4 * z))

    def subs_z_to_q_q_to_q2(self) -> "BivariatePolynomial":
        """Substitute z = q, q = q^2 simultaneously."""
        return self._substitute(lambda z, q4: (0, 4 * z + 2 * q4))

    def subs_q_to_q2(self) -> "BivariatePolynomial":
        """Substitute q = q^2."""
        return self._substitute(lambda z, q4: (z, 2 * q4))

    # -- exact division ----------------------------------------------------------

    def exact_div(self, divisor: "BivariatePolynomial") -> "BivariatePolynomial":
        """Exact quotient self / divisor for z-free operands.

        Raises ValueError when either operand involves z or the division
        leaves a remainder.

        Both rows n and d are read at one width B and their packed ints
        divided once.  A polynomial quotient would divide them exactly at
        every B, so a non-zero integer remainder raises.  An exact integer
        quotient decodes to a row Q with digits below 2^(B-1); the row
        Q*d - n vanishes at q^(1/4) = 2^B and has every coefficient at
        most max|Q| * ||d||_1 + max|n|.  When that is < 2^(B-1), Q*d - n
        is the zero polynomial and Q is the quotient.  Otherwise B is
        doubled and the division redone.  A true quotient has ||Q||_1 <=
        2^deg(n) * ||n||_1 (Mignotte), so once 2^(B-1) exceeds
        2^deg(n) * ||n||_1 * ||d||_1 + ||n||_1 and the check still fails,
        there is no quotient and the division raises as inexact.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not (self.is_z_free() and divisor.is_z_free()):
            raise ValueError("exact_div is only defined for z-free polynomials")
        if not self:
            return ZERO

        bits = max(self._bits, divisor._bits)
        while True:
            lo_n, n = self._at(bits)[0]
            lo_d, d = divisor._at(bits)[0]
            quot, rem = divmod(n, d)
            if rem:
                raise ValueError("inexact polynomial division")
            digits = _unpack(quot, bits)
            limit = 1 << (bits - 1)
            if max(map(abs, digits)) * divisor._norm + self._norm < limit:
                break
            if (self._norm << (n.bit_length() // bits)) * divisor._norm + self._norm < limit:
                raise ValueError("inexact polynomial division")
            bits *= 2
        norm = sum(map(abs, digits))
        if _width(norm) != bits:
            bits = _width(norm)
            quot = _join(digits, bits)
        return _poly({0: (lo_n - lo_d, quot)}, norm, bits)

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical output order: ascending q-exponent, then z-exponent."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def to_text(self) -> str:
        if not self._rows:
            return "0"
        parts = []
        for (ze, q4), c in self.sorted_terms():
            factors = []
            if ze:
                factors.append("z" if ze == 1 else f"z^{ze}")
            if q4:
                num, den = _reduced(q4)
                if den == 1:
                    factors.append("q" if num == 1 else f"q^{num}")
                else:
                    factors.append(f"q^({num}/{den})")
            mag = abs(c)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_obj(self) -> list:
        return [
            {"ze": ze, "qe": "%d/%d" % _reduced(q4), "c": str(c)}
            for (ze, q4), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "BivariatePolynomial":
        """The polynomial ``to_json_obj`` wrote; two terms with the same
        exponents raise ValueError, since one of them would be lost, and the
        constructor refuses a ze or c that is not an int (c may also be the
        decimal str ``to_json_obj`` writes)."""
        terms = {}
        for t in obj:
            key = (t["ze"], _quarters(t["qe"]))
            if key in terms:
                raise ValueError(f"two terms with ze={key[0]}, qe={t['qe']}")
            c = t["c"]
            terms[key] = int(c) if type(c) is str and _DECIMAL.fullmatch(c) else c
        return cls(terms)


ZERO = BivariatePolynomial()
ONE = BivariatePolynomial({(0, 0): 1})


def zpow(a: int) -> BivariatePolynomial:
    return BivariatePolynomial.term(1, ze=a)


def qpow(r) -> BivariatePolynomial:
    return BivariatePolynomial.term(1, qe=r)


def _rising_factor(start: int, count: int) -> BivariatePolynomial:
    """Product of (1 - q^{start+j}) for j = 0 .. count-1."""
    out = ONE
    for j in range(count):
        out = out * (ONE - qpow(start + j))
    return out


@lru_cache(maxsize=None)
def qpoch(m: int) -> BivariatePolynomial:
    """(q; q)_m for m >= 0."""
    if m < 0:
        raise ValueError("qpoch requires m >= 0")
    return _rising_factor(1, m)


def pochhammer(m: int) -> BivariatePolynomial:
    """(z; q)_m as a polynomial in z and q; m must be nonnegative."""
    if m < 0:
        raise ValueError("pochhammer is polynomial-valued only for m >= 0")
    out = ONE
    for j in range(m):
        out = out * (ONE - zpow(1).q_shift(j))
    return out


@lru_cache(maxsize=None)
def gaussian(M: int, i: int) -> BivariatePolynomial:
    """Gaussian polynomial [M, i] extended to all integer M.

    Equals (q^{M-i+1}; q)_i / (q; q)_i for i >= 0 and 0 for i < 0.  For
    M < 0 the result is a genuine Laurent polynomial in q.
    """
    if i < 0:
        return ZERO
    if i == 0:
        return ONE
    return _rising_factor(M - i + 1, i).exact_div(qpoch(i))


def q_multinomial(M: int, parts) -> BivariatePolynomial:
    """q-multinomial coefficient [M; m_1 ... m_n].

    Zero unless all parts are nonnegative and sum to M.  The unit factors
    [rest, 0] and [rest, rest] are skipped.  The coefficient does not depend
    on the order of the parts, so it is memoized on M and the sorted parts.
    """
    return _q_multinomial(M, tuple(sorted(parts)))


@lru_cache(maxsize=None)
def _q_multinomial(M: int, parts: tuple) -> BivariatePolynomial:
    if any(m < 0 for m in parts) or sum(parts) != M or M < 0:
        return ZERO
    out = None
    rest = M
    for m in parts:
        if 0 < m < rest:
            g = gaussian(rest, m)
            out = g if out is None else out * g
        rest -= m
    return ONE if out is None else out


def verify_gaussian_lemma(M: int, N: int, n: int) -> bool:
    """Check the two Gaussian-polynomial identities exactly.

    The (z; q)_M expansion is checked when M >= 0; the convolution for
    [M+N, n] is checked whenever at least one of M, N is nonnegative
    (otherwise the sum is not finite).
    """
    ok = True
    if M >= 0:
        lhs = pochhammer(M)
        rhs = ZERO
        for i in range(M + 1):
            rhs = rhs + BivariatePolynomial.term(
                (-1) ** i, ze=i, qe=i * (i - 1) // 2
            ) * gaussian(M, i)
        ok = lhs == rhs
    if M < 0 and N < 0:
        raise ValueError("convolution sum is infinite when both M and N are negative")
    lo = max(0, n - N) if N >= 0 else 0
    hi = min(n, M) if M >= 0 else n
    rhs2 = ZERO
    for i in range(lo, hi + 1):
        rhs2 = rhs2 + qpow((n - i) * (M - i)) * gaussian(M, i) * gaussian(N, n - i)
    return ok and gaussian(M + N, n) == rhs2
