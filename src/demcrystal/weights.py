"""Weight lattice of affine sl(2), Weyl words and the Demazure operator.

A weight is an integer triple on the basis (Lambda_0, Lambda_1, delta);
`Weight` is a named tuple, equal to its plain (a0, a1, d) triple.  The
Demazure operator acts on the formal character ring Z[P] in its quotient
form D_i chi = (chi - e^{-alpha_i} r_i chi) / (1 - e^{-alpha_i}): each
term c e^mu puts +c at mu and -c at mu - (mu(h_i) + 1) alpha_i, and the
division is one running sum down each alpha_i-string, so a letter costs
O(|chi| log |chi| + |D_i chi|) int operations.
"""
from __future__ import annotations

from typing import NamedTuple

from .qlaurent import BivariatePolynomial


class Weight(NamedTuple):
    """a0 Lambda_0 + a1 Lambda_1 + d delta, a vector under +, - and n * mu."""
    a0: int
    a1: int
    d: int = 0

    def __add__(self, other) -> "Weight":
        b0, b1, e = other
        return Weight(self.a0 + b0, self.a1 + b1, self.d + e)

    __radd__ = __add__  # runs before tuple's: (1, 0, 0) + mu adds, not concatenates

    def __sub__(self, other) -> "Weight":
        b0, b1, e = other
        return Weight(self.a0 - b0, self.a1 - b1, self.d - e)

    def __neg__(self) -> "Weight":
        return Weight(-self.a0, -self.a1, -self.d)

    def __rmul__(self, n: int) -> "Weight":
        return Weight(n * self.a0, n * self.a1, n * self.d)

    __mul__ = None  # mu * n raises TypeError instead of repeating the tuple

    @property
    def level(self) -> int:
        return self.a0 + self.a1


def require_dominant(lam: Weight) -> None:
    """The one guard of every route that takes a weight: paths, crystals
    and characters exist only for a dominant weight with no delta part and
    of level >= 1, with int coefficients (not bools or floats, which
    compare equal to ints); any other weight raises ValueError."""
    a0, a1, d = lam.a0, lam.a1, lam.d
    if (type(a0) is not int or type(a1) is not int or type(d) is not int
            or a0 < 0 or a1 < 0 or d != 0 or a0 + a1 < 1):
        raise ValueError("requires a dominant weight of level >= 1")


LAMBDA0 = Weight(1, 0, 0)
LAMBDA1 = Weight(0, 1, 0)
DELTA = Weight(0, 0, 1)
ALPHA0 = Weight(2, -2, 1)
ALPHA1 = Weight(-2, 2, 0)

ALPHA = (ALPHA0, ALPHA1)


def pairing(mu: Weight, i: int) -> int:
    """mu(h_i); delta pairs to zero with both coroots."""
    if i not in (0, 1):  # mu[-1] would read the delta coefficient
        raise ValueError(f"invalid simple-coroot index {i}")
    return mu[i]


def reflect(i: int, mu: Weight) -> Weight:
    """Simple reflection r_i(mu) = mu - mu(h_i) alpha_i."""
    return mu - pairing(mu, i) * ALPHA[i]


# -- Weyl words ------------------------------------------------------------

def is_reduced(word) -> bool:
    return all(word[j] in (0, 1) for j in range(len(word))) and all(
        word[j] != word[j + 1] for j in range(len(word) - 1)
    )


def weyl_word_plus(L: int):
    """w^+_L: the length-L alternating word ending in r_0."""
    if L < 0:
        raise ValueError("requires L >= 0")
    return tuple((L - 1 - j) % 2 for j in range(L))


def weyl_word_minus(L: int):
    """w^-_L: the length-L alternating word ending in r_1."""
    if L < 0:
        raise ValueError("requires L >= 0")
    return tuple((L - j) % 2 for j in range(L))


def parse_weyl_word(text: str):
    """Parse 'r1r0...' or the shorthand 'w+L' / 'w-L'."""
    text = text.strip()
    if text.startswith("w+") or text.startswith("w-"):
        digits = text[2:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Weyl word {text!r}")
        L = int(digits)
        return weyl_word_plus(L) if text[1] == "+" else weyl_word_minus(L)
    if not text:
        return ()
    letters = []
    i = 0
    while i < len(text):
        if text[i] != "r" or i + 1 >= len(text) or text[i + 1] not in "01":
            raise ValueError(f"cannot parse Weyl word {text!r}")
        letters.append(int(text[i + 1]))
        i += 2
    word = tuple(letters)
    if not is_reduced(word):
        raise ValueError(f"Weyl word {text!r} is not reduced")
    return word


def apply_word(word, mu: Weight) -> Weight:
    """w(mu) for w = r_{i_n} ... r_{i_1} given as (i_n, ..., i_1)."""
    for i in reversed(word):
        mu = reflect(i, mu)
    return mu


# -- formal characters --------------------------------------------------------
# A formal character, a finite integer combination of exponentials e^mu, is a
# dict with no zero coefficients keyed by (a0, a1, d) triples, Weights or not.

def _quotient_runs(num: dict[int, int]):
    """num / (1 - x) on one alpha_i-string, for num given as {position:
    coefficient} with positions rising toward -alpha_i: the running sum
    from the +alpha_i end, as (start, stop, value) for each stretch of
    non-zero value between consecutive numerator positions.  The sum must
    be 0 past the last position; otherwise num was not divisible, an
    internal fault, and ValueError is raised."""
    positions = sorted(num)
    run = 0
    for start, stop in zip(positions, positions[1:]):
        run += num[start]
        if run:
            yield start, stop, run
    if run + num[positions[-1]]:
        raise ValueError("inexact Demazure division: non-zero remainder")


def demazure_operator(i: int, chi: dict[tuple[int, int, int], int]) -> dict[tuple[int, int, int], int]:
    """D_i on Z[P]: for n = mu(h_i), e^mu goes to the sum of e^{mu - j alpha_i}
    over 0 <= j <= n when n >= 0, to zero when n = -1, and to minus the sum
    of e^{mu + j alpha_i} over 1 <= j <= -n - 1 when n <= -2.

    The quotient form, on triple keys (Weights or not); the result has plain
    triple keys.  The alpha_1-string of mu keeps (level, d, a0 mod 2) and
    has position a0, rising by 2 per -alpha_1; the alpha_0-string keeps
    (level, a0 - 2d) and has position -d, rising by 1 per -alpha_0.  With
    n = mu(h_i), mu - (n + 1) alpha_i sits (n + 1) steps past mu.
    """
    if i not in (0, 1):
        raise ValueError(f"invalid simple-coroot index {i}")
    strings: dict[tuple[int, ...], dict[int, int]] = {}
    for (a0, a1, d), c in chi.items():
        if i:
            key, pos, far = (a0 + a1, d, a0 & 1), a0, a0 + 2 * (a1 + 1)
        else:
            key, pos, far = (a0 + a1, a0 - 2 * d), -d, a0 + 1 - d
        num = strings.setdefault(key, {})
        num[pos] = num.get(pos, 0) + c
        num[far] = num.get(far, 0) - c
    out = {}
    for key, num in strings.items():
        for start, stop, c in _quotient_runs(num):
            if i:
                level, d, _ = key
                for a0 in range(start, stop, 2):
                    out[a0, level - a0, d] = c
            else:
                level, e = key
                for p in range(start, stop):
                    out[e - 2 * p, level - e + 2 * p, -p] = c
    return out


def demazure_character_oracle(lam: Weight, word) -> dict[tuple[int, int, int], int]:
    """ch E_w(Lambda) as D_{i_n} ... D_{i_1} e^Lambda."""
    require_dominant(lam)
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    chi = {lam: 1}
    for i in reversed(word):
        chi = demazure_operator(i, chi)
    return chi


def specialize(chi: dict[tuple[int, int, int], int], lam: Weight) -> BivariatePolynomial:
    """Send e^{Lambda + j alpha_1 - n delta} to z^{-j} q^n.

    This is the substitution e^{-alpha_1} -> z, e^{-delta} -> q applied
    after dividing by e^Lambda.  Rejects terms outside the affine line
    Lambda + Z alpha_1 + Z delta.
    """
    l0, l1, ld = lam
    out: dict[tuple[int, int], int] = {}
    for (a0, a1, d), c in chi.items():
        x0, x1 = a0 - l0, a1 - l1
        if x0 != -x1 or x1 % 2 != 0:
            raise ValueError(f"term e^{(a0, a1, d)} is not of the form Lambda + j*alpha1 - n*delta")
        # key (-j, 4n): q-exponents in quarter units; distinct weights give
        # distinct keys, so nothing needs summing
        out[(-(x1 // 2), 4 * (ld - d))] = c
    return BivariatePolynomial(out)
