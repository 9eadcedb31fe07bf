import itertools
from collections import Counter
from fractions import Fraction

import pytest
from conftest import run_engine

from demcrystal import characters, verify
from demcrystal.characters import (
    F_fermionic,
    ch_path_bruteforce,
    ch_via_f,
    demazure_ch,
    demazure_ch_bruteforce,
    demazure_ch_oracle,
    f_bosonic,
    f_fermionic,
    f_rank_reduction,
    f_recursive,
    is_weakly_admissible,
    occupation_vectors,
    principal_character_check,
    principal_rhs,
    real_character_check,
    resolve_mu_nu,
    sanderson_identity_check,
    sanderson_rhs,
)
from demcrystal.demazure import (
    demazure_crystal_direct,
    demazure_crystal_recursive,
    extremal_vector,
    generate_crystal,
)
from demcrystal.paths import enumerate_paths, ground_state_path, highest_lift
from demcrystal.qlaurent import ONE, ZERO, BivariatePolynomial, gaussian, qpow, zpow
from demcrystal.weights import Weight, demazure_character_oracle

WEIGHTS = list(verify.weights_up_to(3))


def admissible_pairs(k, L):
    for b in range(-L * k, L * k + 1):
        for c in range(b - k, b + k + 1, 2):
            yield b, c


def test_f_anchors():
    assert f_recursive(1, 1, 1, 0) == ONE
    assert f_recursive(1, 1, 1, 2) == qpow(Fraction(1, 2))
    assert f_recursive(1, 0, 0, 1) == ONE
    assert f_recursive(1, 0, 0, 5) == ZERO  # inadmissible pair
    assert f_recursive(2, 2, 0, 0) == ONE + 2 * qpow(1)
    assert f_recursive(2, 2, 5, 5) == ZERO  # inadmissible pair


def test_mu_nu_ambiguity_choices_agree(monkeypatch):
    # at b = 0 or c = 0 both admissible (mu, nu) give f; the second choice
    # reaches j-ranges of the factored sum that the canonical one does not.
    # f_bosonic reads resolve_mu_nu when called and takes its first choice,
    # so a resolver that returns the choices reversed makes it take the other
    points = doubles = 0
    for k in range(1, 5):
        for L in range(1, 7):
            for b, c in admissible_pairs(k, L):
                if (b - L * k) % 2:  # off the support f_bosonic returns 0 unresolved
                    continue
                choices = resolve_mu_nu(k, L, b, c)
                assert 1 <= len(choices) <= 2
                for order in {choices, choices[::-1]}:
                    monkeypatch.setattr(characters, "resolve_mu_nu", lambda *_: order)
                    assert f_bosonic(k, L, b, c) == f_recursive(k, L, b, c), (k, L, b, c, order[0])
                points += 1
                doubles += len(choices) == 2
    assert (points, doubles) == (924, 84)


@pytest.mark.parametrize("k", [2, 3])
def test_rank_reduction(k):
    # L >= 1 is checked at every point of A1's boson-fermion grid; L = 0
    # lies below every verify grid
    for c in range(-k, k, 2):  # b = 0 and c != b + k
        assert f_rank_reduction(k, 0, 0, c) == f_recursive(k, 0, 0, c)


def intermediate_single_sum(k, L, b, c):
    """Proof-waypoint single-sum form of the configuration sum, used only
    here as a fourth independent route."""
    # brackets are read with the classical convention: zero once the top
    # argument drops below zero
    first = ZERO
    for j in range(0, L + 1):
        top = L - j - 1 - (j - Fraction(L, 2)) * k + Fraction(b, 2)
        if top.denominator != 1:
            return None
        if top < 0:
            continue
        e = Fraction(j * (j - 1), 2) + Fraction(L - 1, 2) * j * k + Fraction(c, 2) * j
        first = first + (-1) ** j * (gaussian(L, j) * gaussian(int(top), L - 1)).q_shift(e)
    second = ZERO
    for j in range(0, L):
        top = L - j - 2 - (j - Fraction(L - 1, 2)) * k + Fraction(c, 2)
        if top.denominator != 1:
            return None
        if top < 0:
            continue
        e = Fraction(j * (j + 1), 2) + Fraction(L, 2) * j * k + Fraction(b, 2) * j
        factor = ONE - qpow(top + 1)
        second = second + (-1) ** j * (
            gaussian(L - 1, j) * gaussian(int(top), L - 1) * factor
        ).q_shift(e)
    pre = Fraction(L * (L - 1) * k + (L - 1) * b + L * c, 4)
    return (first - second).q_shift(-pre)


@pytest.mark.parametrize("k,L", [(1, 3), (2, 3), (3, 2)])
def test_intermediate_single_sum(k, L):
    for b, c in admissible_pairs(k, L):
        if b < -L * k:
            continue
        got = intermediate_single_sum(k, L, b, c)
        if got is None:
            continue
        assert got == f_recursive(k, L, b, c)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_fermionic_F_sum(L):
    # the F-sum and the three f routes against the path brute force on every
    # weight of level <= 5, beside A3's level <= 3 grid
    checks = (c for c in verify.path_character(5, L) if c.label.endswith(f" L={L}"))
    ok, first_bad = run_engine({"path-character": 20}, checks)
    assert ok, first_bad


def test_fermionic_F_vanishes_outside_support():
    lam = Weight(2, 1, 0)
    assert F_fermionic(lam, 2, 50) == ZERO
    assert F_fermionic(lam, 2, -50) == ZERO
    with pytest.raises(ValueError):
        F_fermionic(Weight(1, 0, 0), -1, 0)
    with pytest.raises(ValueError, match="requires L >= 0"):
        ch_via_f(lam, -1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_occupation_vectors_against_product(k):
    """Every fermionic sum walks occupation_vectors: for each b it lists,
    once each and in lexicographic order, the compositions (x_0..x_k) of L
    with sum a*x_a = (Lk - b)/2, so over all b it lists every composition."""
    for L in range(7):
        by_b = {}
        for xs in itertools.product(range(L + 1), repeat=k + 1):
            if sum(xs) == L:
                by_b.setdefault(L * k - 2 * sum(a * x for a, x in enumerate(xs)), []).append(xs)
        union = []
        for b in range(-L * k - 2, L * k + 3):
            got = occupation_vectors(k, L, b)
            assert type(got) is tuple  # memoized, so no caller may change it
            assert list(got) == by_b.get(b, [])
            if (L * k - b) % 2 or abs(b) > L * k:
                assert got == ()
            union += got
        assert sorted(union) == sorted(itertools.chain(*by_b.values()))


def test_F_sum_needs_no_f_route(monkeypatch):
    """The fermionic F-sum stands on its own: with every f route refusing
    to run it still matches the path brute force."""
    def refuse(*args):
        raise AssertionError("F_fermionic called an f route")

    for name in ("f_recursive", "f_bosonic", "f_fermionic"):
        monkeypatch.setattr(characters, name, refuse)
    for lam in WEIGHTS:
        k = lam.level
        for L in range(5):
            total = ZERO
            for j in range(-L * k - 1, L * k + 2):
                total = total + F_fermionic(lam, L, j).z_shift(-j)
            assert total == ch_path_bruteforce(lam, L)


def test_summing_routes_make_no_shifted_copy(monkeypatch):
    """Every route sums its shifted terms through shifted_sum: with q_shift
    refusing to run, each gives the value it gave before."""
    lam = Weight(2, 1, 0)
    cases = [(route, args) for route in (f_recursive, f_bosonic, f_fermionic)
             for args in ((1, 3, 1, 0), (3, 4, 2, 1), (4, 5, -2, 2))]
    cases += [(f_rank_reduction, args) for args in ((2, 3, 2, 0), (3, 4, 0, 1), (4, 4, 2, 0))]
    cases += [(F_fermionic, (lam, L, j)) for L in (2, 3) for j in (-1, 0, 2)]
    cases += [(ch_via_f, (lam, 3, route)) for route in (None, f_bosonic, f_fermionic)]
    cases += [(demazure_ch, (lam, sign, 3)) for sign in "+-"]
    cases += [(rhs, (3, 3)) for rhs in (principal_rhs, sanderson_rhs)]
    f_recursive.cache_clear()
    want = [route(*args) for route, args in cases]
    assert all(want)

    def refuse(self, shift):
        raise AssertionError("a route built a shifted copy")

    monkeypatch.setattr(characters.BivariatePolynomial, "q_shift", refuse)
    f_recursive.cache_clear()
    for (route, args), value in zip(cases, want):
        assert route(*args) == value, (route.__name__, args)
    f_recursive.cache_clear()


# points on the support of f at several (k, L)
BOSONIC_POINTS = [(1, 3, 1, 0), (3, 4, 2, 1), (4, 5, -2, 2), (2, 6, 0, 0), (5, 8, 2, -1)]


def test_bosonic_route_sums_once_and_divides_once(monkeypatch):
    """f_bosonic puts every (i, j) term into one shifted_sum and divides
    that sum once by (q;q)_{L-1}; no per-i sum and no product is left."""
    want = [f_bosonic(*args) for args in BOSONIC_POINTS]  # fills the memos
    calls = Counter()
    real_sum, real_div = characters.shifted_sum, BivariatePolynomial.exact_div

    def counted_sum(*args):
        calls["shifted_sum"] += 1
        return real_sum(*args)

    def counted_div(self, divisor):
        calls["exact_div"] += 1
        return real_div(self, divisor)

    monkeypatch.setattr(characters, "shifted_sum", counted_sum)
    monkeypatch.setattr(BivariatePolynomial, "exact_div", counted_div)
    for args, value in zip(BOSONIC_POINTS, want):
        calls.clear()
        assert f_bosonic(*args) == value
        assert calls == {"shifted_sum": 1, "exact_div": 1}, args


def bosonic_grid(max_k, max_L):
    return [(k, L, b, c) for k in range(1, max_k + 1) for L in range(1, max_L + 1)
            for b, c in admissible_pairs(k, L)]


def test_every_gaussian_pair_entry_is_its_product():
    pair = characters._gaussian_pair
    pair.cache_clear()
    for args in bosonic_grid(3, 7):
        f_bosonic(*args)
    entries = pair.cache_info().currsize
    probes = [(L, i, j) for L in range(1, 8) for i in range(L) for j in range(L + 1)]
    hits = pair.cache_info().hits
    for L, i, j in probes:
        assert pair(L, i, j) == gaussian(L - 1, i) * gaussian(L, j), (L, i, j)
    info = pair.cache_info()
    # every entry f_bosonic stored was read back here, and none lies outside
    # the keys (L, i, j) of 0 <= i < L, 0 <= j <= L
    assert entries and (info.hits - hits, info.currsize) == (entries, len(probes))


def test_clearing_the_bosonic_memos_changes_no_value():
    def packed(p):
        return p._rows, p._norm, p._bits

    grid = bosonic_grid(3, 7)
    warm = [packed(f_bosonic(*args)) for args in grid]
    for memo in (characters._gaussian_pair, resolve_mu_nu, gaussian):
        memo.cache_clear()
    assert [packed(f_bosonic(*args)) for args in grid] == warm


def test_mu_nu_choices_are_one_shared_tuple():
    # memoized, so a list a caller could change would change every later call
    choices = resolve_mu_nu(1, 2, 0, 1)
    assert choices == ((-1, 0), (1, 0)) and resolve_mu_nu(1, 2, 0, 1) is choices


def test_demazure_anchor():
    lam = Weight(2, 0, 0)
    want = ONE + zpow(-1) * qpow(1) + zpow(-2) * qpow(2)
    assert demazure_ch(lam, "+", 1) == want
    # L = 2 gives a 9-term character of total dimension 9
    chi = demazure_ch(lam, "+", 2)
    assert len(chi.terms) == 9
    assert sum(chi.terms.values()) == 9


def test_demazure_routes_reject_unknown_sign():
    lam = Weight(1, 1, 0)
    for route in (demazure_ch, demazure_ch_bruteforce, demazure_ch_oracle):
        with pytest.raises(ValueError, match="sign must be"):
            route(lam, "x", 2)


def test_crystal_brute_force_refusals_keep_their_messages_and_order():
    # the string recursion runs at L = 0 and weyl_word refuses only L < 0,
    # so the crystal brute force checks the weight, the sign and L > 0 first
    def refusal(lam, sign, L):
        with pytest.raises(ValueError) as exc:
            demazure_ch_bruteforce(lam, sign, L)
        return str(exc.value)

    lam = Weight(1, 1, 0)
    for L in (0, -1):
        assert refusal(lam, "+", L) == "the width characterization requires L > 0"
    for L in (2, 0):
        assert refusal(lam, "x", L) == "sign must be '+' or '-'"
    assert refusal(Weight(-1, 2, 0), "x", 0) == "requires a dominant weight of level >= 1"


def test_brute_forces_and_oracle_specialize_through_one_map(monkeypatch):
    # e^{-alpha_1} -> z, e^{-delta} -> q is written once, in specialize
    calls = []
    real = characters.specialize

    def counted(chi, lam):
        calls.append(lam)
        return real(chi, lam)

    monkeypatch.setattr(characters, "specialize", counted)
    lam = Weight(1, 1, 0)
    for route in (lambda: ch_path_bruteforce(lam, 2), lambda: demazure_ch_bruteforce(lam, "-", 2),
                  lambda: demazure_ch_oracle(lam, "+", 2)):
        calls.clear()
        route()
        assert calls == [lam]


def test_demazure_union_sum():
    # ch+ + ch- counts the (L-1)-crystal twice on the overlap
    for lam in WEIGHTS[:4]:
        for L in (1, 2, 3):
            total = demazure_ch(lam, "+", L) + demazure_ch(lam, "-", L)
            overlap = ch_path_bruteforce(lam, L - 1) if L > 1 else None
            full = ch_path_bruteforce(lam, L)
            if L > 1:
                assert total - full == overlap
            else:
                # B_0 is the vacuum alone
                assert sum((total - full).terms.values()) == 1


@pytest.mark.parametrize("k", [4, 5])
def test_principal_and_sanderson_high_level(k):
    # k C^{-1} first has denominators 4 and 5 here, beyond the A5 grids
    for L in range(0, 5):
        assert sanderson_identity_check(k, L)
        if L:
            assert principal_character_check(k, L)


def test_principal_and_sanderson_reject_negative_L():
    # no silent zero, and so no vacuous identity, below L = 0
    for route in (principal_rhs, sanderson_rhs, sanderson_identity_check):
        with pytest.raises(ValueError, match="requires L >= 0"):
            route(2, -1)


def test_routes_refuse_below_their_range():
    for route in (f_recursive, f_fermionic):
        for k, L in ((0, 1), (1, -1)):
            with pytest.raises(ValueError, match="requires k >= 1 and L >= 0"):
                route(k, L, 0, 0)
    with pytest.raises(ValueError, match="bosonic form requires k, L >= 1"):
        f_bosonic(1, 0, 0, 0)
    for args, match in (((1, 1, 1, 0), "requires k >= 2"),
                        ((2, 1, -2, -2), "requires b >= 0"),
                        ((2, 1, 0, 2), "c != b \\+ k"),
                        ((2, 1, 0, 1), "not weakly admissible")):
        with pytest.raises(ValueError, match=match):
            f_rank_reduction(*args)
    lam = Weight(1, 1, 0)
    with pytest.raises(ValueError, match="for L > 0"):
        demazure_ch(lam, "+", 0)
    with pytest.raises(ValueError, match="requires L >= 1"):
        real_character_check(lam, 0)


@pytest.mark.parametrize("target, raised", [
    ("ch_path_bruteforce", {"path": None}),
    ("f_recursive", {"recursive": None, "demazure+": None, "demazure-": None}),
    ("f_bosonic", {"bosonic": None}),
    ("f_fermionic", {"fermionic": None}),
    ("demazure_ch", {"demazure+": "+", "demazure-": "-"}),
    ("demazure_ch_oracle", {"oracle": "+"}),
])
def test_route_table_wiring(target, raised, monkeypatch):
    """With one route replaced by a stub that raises, exactly the table
    entries wired to it raise, with the sign each passes.  The f routes
    give equal characters, so no comparison of outputs can see an entry
    wired to the wrong one."""
    def stub(lam, *args):
        raise LookupError(args[0] if isinstance(args[0], str) else None)

    monkeypatch.setattr(characters, target, stub)
    got = {}
    for name, (least, _, route) in characters.ROUTES.items():
        try:
            route(Weight(1, 1, 0), max(least, 2))
        except LookupError as e:
            got[name] = e.args[0]
    assert got == raised


def test_weak_admissibility():
    assert is_weakly_admissible(2, 0, 2)
    assert not is_weakly_admissible(2, 0, 1)
    assert not is_weakly_admissible(2, 0, 4)


@pytest.mark.parametrize(
    "lam",
    [Weight(-1, 2, 0), Weight(2, -1, 0), Weight(1, 0, 3), Weight(0, 0, 0),
     Weight(True, False, 0), Weight(1.0, 1, 0), Weight(1, 1, 0.0)],
)
def test_non_dominant_weights_are_refused(lam):
    # no such weight has paths, a crystal or a character: a negative
    # coefficient used to give a silent 0, a delta part was ignored, and the
    # path and oracle routes gave 1 at level 0; a bool or a float equals an
    # int, so (True, False, 0) was read as Lambda_0 and 1.0 died in range()
    calls = (
        lambda: ch_via_f(lam, 2),
        lambda: F_fermionic(lam, 1, 0),
        lambda: demazure_ch(lam, "+", 2),
        lambda: demazure_ch(lam, "-", 2),
        lambda: highest_lift((0, 1), lam),
        lambda: ch_path_bruteforce(lam, 2),
        lambda: demazure_ch_bruteforce(lam, "+", 2),
        lambda: demazure_ch_oracle(lam, "+", 2),
        lambda: ground_state_path(lam, 3),
        lambda: enumerate_paths(lam, 2),
        lambda: demazure_character_oracle(lam, (1, 0)),
        lambda: generate_crystal(lam, 2),
        lambda: demazure_crystal_recursive(lam, (1, 0)),
        lambda: demazure_crystal_direct(lam, "-", 2),
        lambda: extremal_vector(lam, "+", 2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="requires a dominant weight of level >= 1"):
            call()
