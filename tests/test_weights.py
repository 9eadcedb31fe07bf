import random

import pytest

from demcrystal.qlaurent import ONE, qpow, zpow
from demcrystal.weights import (
    ALPHA0,
    ALPHA1,
    DELTA,
    LAMBDA0,
    LAMBDA1,
    RHO,
    FormalCharacter,
    Weight,
    apply_word,
    demazure_character_oracle,
    demazure_operator,
    fundamental,
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
    assert pairing(RHO, 0) == 1 and pairing(RHO, 1) == 1
    assert ALPHA0 + ALPHA1 == DELTA


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


def test_fundamental_mod_two():
    assert fundamental(0) == LAMBDA0
    assert fundamental(1) == LAMBDA1
    assert fundamental(2) == LAMBDA0


def test_demazure_operator_branches():
    # n >= 0: string of n+1 terms
    chi = FormalCharacter.exponential(Weight(2, 0, 0))
    d = demazure_operator(0, chi)
    assert d.dimension() == 3
    assert d.coefficient(Weight(2, 0, 0)) == 1
    assert d.coefficient(Weight(2, 0, 0) - ALPHA0) == 1
    assert d.coefficient(Weight(2, 0, 0) - 2 * ALPHA0) == 1
    # n = -1: kills the term
    mu = Weight(2, 0, 0) - ALPHA0  # pairing with alpha0 check
    chi = FormalCharacter.exponential(reflect(0, Weight(2, 0, 0)) + ALPHA0)
    # pick mu with <mu,h_0> = -1 directly
    mu = Weight(-1, 1, 0)
    assert pairing(mu, 0) == -1
    assert not demazure_operator(0, FormalCharacter.exponential(mu))
    # n <= -2: negative string
    mu = Weight(-2, 0, 0)
    d = demazure_operator(0, FormalCharacter.exponential(mu))
    assert d.coefficient(mu + ALPHA0) == -1
    assert d.dimension() == -1


def test_demazure_operator_idempotent():
    rng = random.Random(2)
    for _ in range(40):
        chi = FormalCharacter.exponential(
            Weight(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        )
        for i in (0, 1):
            once = demazure_operator(i, chi)
            assert demazure_operator(i, once) == once


def test_oracle_anchor_dimension():
    lam = Weight(2, 0, 0)
    chi = demazure_character_oracle(lam, (1, 0))
    assert chi.dimension() == 9
    assert chi.coefficient(lam) == 1
    # extremal weight space is one dimensional
    w_lam = apply_word((1, 0), lam)
    assert chi.coefficient(w_lam) == 1


def test_oracle_positive_support():
    for lam in (Weight(1, 0, 0), Weight(1, 1, 0), Weight(2, 1, 0)):
        for word in (weyl_word_plus(3), weyl_word_minus(3)):
            chi = demazure_character_oracle(lam, word)
            assert all(c >= 1 for c in chi.terms.values())


def test_oracle_support_monotone():
    lam = Weight(2, 1, 0)
    for L in (1, 2, 3):
        lo = demazure_character_oracle(lam, weyl_word_plus(L))
        hi = demazure_character_oracle(lam, weyl_word_plus(L + 1))
        assert set(lo.terms) <= set(hi.terms)


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


def test_formal_character_roundtrip():
    lam = Weight(1, 1, 0)
    chi = demazure_character_oracle(lam, weyl_word_plus(2))
    assert FormalCharacter.from_json_obj(chi.to_json_obj()) == chi
