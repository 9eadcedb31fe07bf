"""Exact Laurent polynomials in z and q over the integers.

z-exponents are integers and q-exponents lie in (1/4)Z.  Each term
c * z^a * q^r is stored as ``{(a, 4r): c}`` with both key entries plain
ints, so sums, products, shifts and division never touch a rational.
Rational q-exponents are accepted only at the public boundary (``term``,
``qpow``, ``q_shift``, ``coefficient``, ``__init__``, ``from_json_obj``),
where ``_quarters`` converts them and raises ValueError for any
denominator that does not divide 4.  ``to_text`` and ``to_json_obj``
print quarters back as reduced fractions.  Coefficients are Python ints,
so all arithmetic is exact at any size.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index


def _quarters(value) -> int:
    """4 * value as an int; the single check on q-exponents entering the ring."""
    if type(value) is int:
        return 4 * value
    f = Fraction(value)
    if 4 % f.denominator:
        raise ValueError(f"q-exponent {f} does not have denominator 1, 2 or 4")
    return f.numerator * (4 // f.denominator)


def _reduced(q4: int) -> tuple[int, int]:
    """A quarter count as the reduced fraction (numerator, denominator)."""
    g = gcd(q4, 4)
    return q4 // g, 4 // g


class BivariatePolynomial:
    """Finite integer combination of z^a * q^r, a integer, r quarter-integer.

    Instances are immutable; zero coefficients are never stored, so
    equality is plain term-by-term comparison.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        out: dict[tuple[int, int], int] = {}
        if terms:
            for (ze, qe), c in terms.items():
                key = (int(ze), _quarters(qe))
                out[key] = out.get(key, 0) + c
        self._terms = {key: c for key, c in out.items() if c}
        self._hash = None

    @classmethod
    def _from_quarters(cls, terms: dict) -> "BivariatePolynomial":
        """Trusted constructor: keys are already (z-exponent, 4 * q-exponent)
        int pairs.  Drops zero coefficients and skips all other checks."""
        res = cls.__new__(cls)
        res._terms = {key: c for key, c in terms.items() if c}
        res._hash = None
        return res

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls._from_quarters({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, ze: int = 0, qe=0) -> "BivariatePolynomial":
        return cls._from_quarters({(int(ze), _quarters(qe)): coeff})

    # -- basic protocol --------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BivariatePolynomial.term(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            other = BivariatePolynomial.term(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return BivariatePolynomial._from_quarters(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial._from_quarters({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            other = BivariatePolynomial.term(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            other = BivariatePolynomial.term(other)
        out: dict[tuple[int, int], int] = {}
        for (z1, q1), c1 in self._terms.items():
            for (z2, q2), c2 in other._terms.items():
                key = (z1 + z2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePolynomial._from_quarters(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = BivariatePolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries and transforms ---------------------------------------------------

    def coefficient(self, ze: int = 0, qe=0) -> int:
        return self._terms.get((ze, _quarters(qe)), 0)

    def is_z_free(self) -> bool:
        return all(ze == 0 for ze, _ in self._terms)

    def has_integer_exponents(self) -> bool:
        return all(q4 % 4 == 0 for _, q4 in self._terms)

    def value_at_one(self) -> int:
        """Value at z = q = 1 (sum of coefficients)."""
        return sum(self._terms.values())

    def q_shift(self, qe) -> "BivariatePolynomial":
        """Multiply by q^qe."""
        e = _quarters(qe)
        return BivariatePolynomial._from_quarters(
            {(z, q4 + e): c for (z, q4), c in self._terms.items()}
        )

    def z_shift(self, ze: int) -> "BivariatePolynomial":
        """Multiply by z^ze."""
        return BivariatePolynomial._from_quarters(
            {(z + ze, q4): c for (z, q4), c in self._terms.items()}
        )

    def _substitute(self, new_key) -> "BivariatePolynomial":
        """Move each term to new_key(z, q4), summing terms that collide."""
        out: dict[tuple[int, int], int] = {}
        for (z, q4), c in self._terms.items():
            key = new_key(z, q4)
            out[key] = out.get(key, 0) + c
        return BivariatePolynomial._from_quarters(out)

    def scale_q_exponents(self, factor: int) -> "BivariatePolynomial":
        """Substitute q = q^factor for an integer factor."""
        factor = index(factor)
        return self._substitute(lambda z, q4: (z, q4 * factor))

    def subs_q_one_z_to_qinv(self) -> "BivariatePolynomial":
        """Substitute q = 1 first and then z = q^{-1} (fresh variable q)."""
        return self._substitute(lambda z, q4: (0, -4 * z))

    def subs_z_to_q_q_to_q2(self) -> "BivariatePolynomial":
        """Substitute z = q, q = q^2 simultaneously."""
        return self._substitute(lambda z, q4: (0, 4 * z + 2 * q4))

    # -- exact division ----------------------------------------------------------

    def exact_div(self, divisor: "BivariatePolynomial") -> "BivariatePolynomial":
        """Exact quotient self / divisor for z-free operands.

        Raises ValueError when either operand involves z or the division
        leaves a remainder.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not (self.is_z_free() and divisor.is_z_free()):
            raise ValueError("exact_div is only defined for z-free polynomials")
        if not self:
            return BivariatePolynomial.zero()

        div = {q4: c for (_, q4), c in divisor._terms.items()}
        d_lo = min(div)
        d_hi = max(div)
        c_lo = div[d_lo]
        rem = {q4: c for (_, q4), c in self._terms.items()}
        hi_bound = max(rem) - d_hi
        quot: dict[tuple[int, int], int] = {}
        while rem:
            e = min(rem)
            c, r = divmod(rem[e], c_lo)
            if r != 0 or e - d_lo > hi_bound:
                raise ValueError("inexact polynomial division")
            shift = e - d_lo
            quot[(0, shift)] = c
            for q4, dc in div.items():
                key = q4 + shift
                nc = rem.get(key, 0) - c * dc
                if nc:
                    rem[key] = nc
                else:
                    rem.pop(key, None)
        return BivariatePolynomial._from_quarters(quot)

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical output order: ascending q-exponent, then z-exponent."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def to_text(self) -> str:
        if not self._terms:
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
        return cls({(int(t["ze"]), t["qe"]): int(t["c"]) for t in obj})


ZERO = BivariatePolynomial.zero()
ONE = BivariatePolynomial.one()


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

    Zero unless all parts are nonnegative and sum to M.
    """
    parts = list(parts)
    if any(m < 0 for m in parts) or sum(parts) != M or M < 0:
        return ZERO
    out = ONE
    rest = M
    for m in parts:
        out = out * gaussian(rest, m)
        rest -= m
    return out


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
