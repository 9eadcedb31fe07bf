import random

import pytest

from demcrystal.qlaurent import ONE, qpow, zpow
from demcrystal.weights import (
    ALPHA,
    ALPHA0,
    ALPHA1,
    DELTA,
    LAMBDA0,
    LAMBDA1,
    Weight,
    _quotient_runs,
    apply_word,
    demazure_character_oracle,
    demazure_operator,
    is_reduced,
    pairing,
    parse_weyl_word,
    reflect,
    specialize,
    weyl_word_minus,
    weyl_word_plus,
)


def test_basis_pairings():
    assert pairing(ALPHA0, 0) == 2
    assert pairing(ALPHA0, 1) == -2
    assert pairing(ALPHA1, 1) == 2
    assert pairing(DELTA, 0) == 0
    assert pairing(DELTA, 1) == 0
    assert ALPHA0 + ALPHA1 == DELTA
    # a weight is its (a0, a1, d) triple, with no tuple operation left on it
    w = Weight(1, 2, 3)
    assert w == (1, 2, 3) and hash(w) == hash((1, 2, 3))
    assert 2 * w == Weight(2, 4, 6) and -w == Weight(-1, -2, -3)
    for bad in (lambda: w * 2, lambda: w * w):
        with pytest.raises(TypeError):
            bad()
    assert (1, 0, 0) + ALPHA0 == Weight(3, -2, 1)
    for i in (-1, 2):
        with pytest.raises(ValueError, match="simple-coroot index"):
            pairing(w, i)
    with pytest.raises(AttributeError):
        w.a0 = 5


def test_reflections_involutive():
    rng = random.Random(5)
    for _ in range(100):
        mu = Weight(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        for i in (0, 1):
            assert reflect(i, reflect(i, mu)) == mu
            assert reflect(i, DELTA) == DELTA


def test_level_invariance():
    mu = Weight(3, -1, 2)
    assert reflect(0, mu).level == mu.level
    assert reflect(1, mu).level == mu.level


def test_weyl_words():
    assert weyl_word_plus(1) == (0,)
    assert weyl_word_plus(2) == (1, 0)
    assert weyl_word_plus(3) == (0, 1, 0)
    assert weyl_word_minus(1) == (1,)
    assert weyl_word_minus(2) == (0, 1)
    assert is_reduced(weyl_word_plus(5))
    assert not is_reduced((0, 0))
    assert weyl_word_plus(0) == weyl_word_minus(0) == ()
    for word in (weyl_word_plus, weyl_word_minus):
        with pytest.raises(ValueError):
            word(-1)


def test_parse_weyl_word():
    assert parse_weyl_word("r1r0") == (1, 0)
    assert parse_weyl_word("w+3") == weyl_word_plus(3)
    assert parse_weyl_word("w-2") == weyl_word_minus(2)
    with pytest.raises(ValueError):
        parse_weyl_word("r2")
    with pytest.raises(ValueError):
        parse_weyl_word("nonsense")
    # only ASCII digits may follow w+ / w-
    for text in ("w+x", "w+1_0", "w-", "w+-1", "w+ 3", "w+\u0663"):
        with pytest.raises(ValueError, match="cannot parse Weyl word"):
            parse_weyl_word(text)


def test_demazure_operator_branches():
    # n >= 0: string of n+1 terms
    chi = {Weight(2, 0, 0): 1}
    d = demazure_operator(0, chi)
    assert sum(d.values()) == 3
    assert d.get(Weight(2, 0, 0), 0) == 1
    assert d.get(Weight(2, 0, 0) - ALPHA0, 0) == 1
    assert d.get(Weight(2, 0, 0) - 2 * ALPHA0, 0) == 1
    # n = -1: kills the term
    mu = Weight(-1, 1, 0)
    assert pairing(mu, 0) == -1
    assert not demazure_operator(0, {mu: 1})
    # n <= -2: negative string
    mu = Weight(-2, 0, 0)
    d = demazure_operator(0, {mu: 1})
    assert d.get(mu + ALPHA0, 0) == -1
    assert sum(d.values()) == -1


def reference_demazure_operator(i, chi):
    """D_i by its geometric-sum closed form, one term at a time: for
    n = mu(h_i), the sum of e^{mu - j alpha_i} over 0 <= j <= n when n >= 0;
    zero when n = -1; minus the sum of e^{mu + j alpha_i} over
    1 <= j <= -n - 1 when n <= -2."""
    out = {}

    def bump(mu, c):
        v = out.get(mu, 0) + c
        if v:
            out[mu] = v
        else:
            del out[mu]

    for mu, c in chi.items():
        n = pairing(mu, i)
        if n >= 0:
            for j in range(n + 1):
                bump(mu - j * ALPHA[i], c)
        elif n <= -2:
            for j in range(1, -n):
                bump(mu + j * ALPHA[i], -c)
    return out


def test_demazure_operator_matches_reference_on_single_terms():
    # n = mu(h_i) runs over -6..6: n >= 0, n = -1 and n <= -2 on both strings
    for a0 in range(-6, 7):
        for a1 in range(-6, 7):
            for d in range(-3, 4):
                mu = Weight(a0, a1, d)
                for i in (0, 1):
                    for c in (1, -3):
                        assert demazure_operator(i, {mu: c}) == reference_demazure_operator(i, {mu: c})


def test_demazure_operator_matches_reference_on_sums():
    rng = random.Random(16)
    for _ in range(300):
        chi = {}
        for _ in range(rng.randint(1, 8)):
            mu = Weight(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-2, 2))
            chi[mu] = chi.get(mu, 0) + rng.choice((-2, -1, 1, 3))
            if rng.random() < 0.5:
                # a second term on the same alpha_i-string, for both i
                i = rng.randint(0, 1)
                nu = mu + rng.randint(-4, 4) * ALPHA[i]
                chi[nu] = chi.get(nu, 0) + rng.choice((-1, 1))
        chi = {mu: c for mu, c in chi.items() if c}
        triples = {tuple(mu): c for mu, c in chi.items()}
        for i in (0, 1):
            assert demazure_operator(i, chi) == reference_demazure_operator(i, chi)
            # the same character keyed by plain triples
            assert demazure_operator(i, triples) == demazure_operator(i, chi)
    for i in (0, 1):
        for mu in (Weight(3, -1, 0), Weight(-4, 2, 1), Weight(0, 0, 0), Weight(1, 5, -2)):
            # D_i e^{r_i(mu) - alpha_i} = -D_i e^mu: the whole string cancels
            partner = reflect(i, mu) - ALPHA[i]
            assert demazure_operator(i, {mu: 2, partner: 2}) == {}
            # cancelling terms on one alpha_i-string beside terms of other levels
            chi = {mu: 1, mu + ALPHA[i]: -1, mu - 3 * ALPHA[i]: 2, mu + LAMBDA0: 1,
                   mu - LAMBDA1: 1, mu - LAMBDA1 + 2 * ALPHA[i]: -1}
            assert demazure_operator(i, chi) == reference_demazure_operator(i, chi)


def test_quotient_runs():
    # (1 - x^3) / (1 - x) = 1 + x + x^2: one run from 0 up to 3
    assert list(_quotient_runs({0: 1, 3: -1})) == [(0, 3, 1)]
    # runs of zero value are skipped
    assert list(_quotient_runs({0: 2, 2: -2, 5: 1, 6: -1})) == [(0, 2, 2), (5, 6, 1)]
    for num in ({0: 1}, {0: 1, 3: -2}, {-4: 1, 0: 0}):
        with pytest.raises(ValueError, match="non-zero remainder"):
            list(_quotient_runs(num))


def test_demazure_operator_rejects_bad_index():
    for i in (-1, 2):
        with pytest.raises(ValueError, match="simple-coroot index"):
            demazure_operator(i, {Weight(1, 0, 0): 1})


def test_oracle_matches_reference_fold():
    for lam in (Weight(1, 0, 0), Weight(0, 1, 0), Weight(2, 1, 0), Weight(1, 3, 0)):
        for word in (weyl_word_plus(5), weyl_word_minus(5)):
            chi = {lam: 1}
            for i in reversed(word):
                chi = reference_demazure_operator(i, chi)
            assert demazure_character_oracle(lam, word) == chi


def test_demazure_operator_idempotent():
    rng = random.Random(2)
    for _ in range(40):
        chi = {Weight(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)): 1}
        for i in (0, 1):
            once = demazure_operator(i, chi)
            assert demazure_operator(i, once) == once


def test_oracle_anchor_dimension():
    lam = Weight(2, 0, 0)
    chi = demazure_character_oracle(lam, (1, 0))
    assert sum(chi.values()) == 9
    assert chi.get(lam, 0) == 1
    # extremal weight space is one dimensional
    w_lam = apply_word((1, 0), lam)
    assert chi.get(w_lam, 0) == 1


def test_oracle_positive_support():
    for lam in (Weight(1, 0, 0), Weight(1, 1, 0), Weight(2, 1, 0)):
        for word in (weyl_word_plus(3), weyl_word_minus(3)):
            chi = demazure_character_oracle(lam, word)
            assert all(c >= 1 for c in chi.values())


def test_oracle_support_monotone():
    lam = Weight(2, 1, 0)
    for L in (1, 2, 3):
        lo = demazure_character_oracle(lam, weyl_word_plus(L))
        hi = demazure_character_oracle(lam, weyl_word_plus(L + 1))
        assert set(lo) <= set(hi)


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        demazure_character_oracle(Weight(-1, 0, 0), (0,))
    with pytest.raises(ValueError):
        demazure_character_oracle(Weight(1, 0, 0), (0, 0))


def test_specialize_anchor():
    lam = Weight(2, 0, 0)
    chi = demazure_character_oracle(lam, (0,))
    poly = specialize(chi, lam)
    assert poly == ONE + zpow(-1) * qpow(1) + zpow(-2) * qpow(2)
    # e^{Lambda + j alpha_1 - n delta} -> z^{-j} q^n, at a Lambda with a delta part too
    mu = Weight(1, 2, -1)
    assert specialize({mu + 2 * ALPHA1 - 3 * DELTA: -2}, mu) == -2 * zpow(-2) * qpow(3)
    for off in (LAMBDA0, LAMBDA0 - LAMBDA1, Weight(-3, 3, 2)):
        with pytest.raises(ValueError, match="not of the form"):
            specialize({lam + off: 1}, lam)

