"""Weight lattice of affine sl(2), Weyl words and the Demazure operator.

Weights are integer triples on the basis (Lambda_0, Lambda_1, delta).
The Demazure operator acts on the formal character ring Z[P] through its
geometric-sum closed form, which keeps everything denominator-free.
"""
from __future__ import annotations

from dataclasses import dataclass

from .qlaurent import BivariatePolynomial


@dataclass(frozen=True, order=True)
class Weight:
    a0: int
    a1: int
    d: int = 0

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a0 + other.a0, self.a1 + other.a1, self.d + other.d)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a0 - other.a0, self.a1 - other.a1, self.d - other.d)

    def __neg__(self) -> "Weight":
        return Weight(-self.a0, -self.a1, -self.d)

    def __rmul__(self, n: int) -> "Weight":
        return Weight(n * self.a0, n * self.a1, n * self.d)

    @property
    def level(self) -> int:
        return self.a0 + self.a1

    def is_dominant(self) -> bool:
        return self.a0 >= 0 and self.a1 >= 0 and self.d == 0


LAMBDA0 = Weight(1, 0, 0)
LAMBDA1 = Weight(0, 1, 0)
DELTA = Weight(0, 0, 1)
ALPHA0 = Weight(2, -2, 1)
ALPHA1 = Weight(-2, 2, 0)
# Any lift of rho with rho(h_i) = 1 gives the same Demazure operator; we
# fix the delta-free one.
RHO = Weight(1, 1, 0)

ALPHA = (ALPHA0, ALPHA1)


def fundamental(i: int) -> Weight:
    """Lambda_i with the index extended mod 2."""
    return LAMBDA0 if i % 2 == 0 else LAMBDA1


def pairing(mu: Weight, i: int) -> int:
    """mu(h_i); delta pairs to zero with both coroots."""
    if i == 0:
        return mu.a0
    if i == 1:
        return mu.a1
    raise ValueError(f"invalid simple-coroot index {i}")


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

class FormalCharacter:
    """Finite integer combination of formal exponentials e^mu, mu in P."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Weight, int] = {}
        if terms:
            for mu, c in terms.items():
                if c:
                    clean[mu] = clean.get(mu, 0) + c
                    if not clean[mu]:
                        del clean[mu]
        self._terms = clean

    @classmethod
    def exponential(cls, mu: Weight) -> "FormalCharacter":
        return cls({mu: 1})

    @property
    def terms(self):
        return self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self._terms == other._terms

    def coefficient(self, mu: Weight) -> int:
        return self._terms.get(mu, 0)

    def dimension(self) -> int:
        """Value at e -> 1, i.e. the total coefficient sum."""
        return sum(self._terms.values())

    def to_json_obj(self) -> list:
        return [
            {"a0": mu.a0, "a1": mu.a1, "d": mu.d, "coeff": c}
            for mu, c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "FormalCharacter":
        return cls({Weight(t["a0"], t["a1"], t["d"]): int(t["coeff"]) for t in obj})

    def __repr__(self):
        return f"FormalCharacter({self._terms!r})"


def demazure_operator(i: int, chi: FormalCharacter) -> FormalCharacter:
    """D_i on Z[P], via the geometric-sum closed form.

    For n = mu(h_i): sum of e^{mu - j alpha_i} over 0 <= j <= n when
    n >= 0; zero when n = -1; minus the sum of e^{mu + j alpha_i} over
    1 <= j <= -n - 1 when n <= -2.
    """
    out: dict[Weight, int] = {}

    def bump(mu, c):
        v = out.get(mu, 0) + c
        if v:
            out[mu] = v
        else:
            del out[mu]

    for mu, c in chi.terms.items():
        n = pairing(mu, i)
        if n >= 0:
            for j in range(n + 1):
                bump(mu - j * ALPHA[i], c)
        elif n <= -2:
            for j in range(1, -n):
                bump(mu + j * ALPHA[i], -c)
    return FormalCharacter(out)


def demazure_character_oracle(lam: Weight, word) -> FormalCharacter:
    """ch E_w(Lambda) as D_{i_n} ... D_{i_1} e^Lambda."""
    if not lam.is_dominant():
        raise ValueError(f"{lam} is not a dominant weight with zero delta part")
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    chi = FormalCharacter.exponential(lam)
    for i in reversed(word):
        chi = demazure_operator(i, chi)
    return chi


def specialize(chi: FormalCharacter, lam: Weight) -> BivariatePolynomial:
    """Send e^{Lambda + j alpha_1 - n delta} to z^{-j} q^n.

    This is the substitution e^{-alpha_1} -> z, e^{-delta} -> q applied
    after dividing by e^Lambda.  Rejects terms outside the affine line
    Lambda + Z alpha_1 + Z delta.
    """
    out: dict[tuple[int, int], int] = {}
    for mu, c in chi.terms.items():
        x = mu - lam
        if x.a0 != -x.a1 or x.a1 % 2 != 0:
            raise ValueError(f"term e^{mu} is not of the form Lambda + j*alpha1 - n*delta")
        # key (-j, 4n): q-exponents in quarter units; distinct weights give
        # distinct keys, so nothing needs summing
        out[(-(x.a1 // 2), -4 * x.d)] = c
    return BivariatePolynomial._from_quarters(out)
