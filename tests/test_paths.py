import pytest

from demcrystal import paths
from demcrystal.demazure import generate_crystal
from demcrystal.eyd import EYDTuple
from demcrystal.paths import (
    energy,
    enumerate_paths,
    epsilon_L,
    from_letters,
    ground_state_H_sum,
    ground_state_H_sum_direct,
    ground_state_path,
    highest_lift,
    path_weight,
    pi,
    z_exponent,
)
from demcrystal.verify import weights_up_to
from demcrystal.weights import Weight

# every weight of level <= 3 at both parities of L
GRID = [(lam.a0, lam.a1, L) for L in (2, 3) for lam in weights_up_to(3)]


def test_ground_state_path():
    lam = Weight(2, 1, 0)
    p = ground_state_path(lam, 3)
    assert p == (2, 1, 2)
    assert energy(p, lam) == 0
    assert z_exponent(p, lam) == 0
    assert path_weight(p, lam) == lam
    with pytest.raises(ValueError):
        ground_state_path(Weight(-1, 2, 0), 3)


def test_from_letters_iota_roundtrip():
    lam = Weight(1, 1, 0)
    for letters in ((0, 1, 2), (2, 0, 1), (1, 1, 1)):
        p = from_letters(lam, 3, letters)
        assert p == letters
        assert pi(highest_lift(p, lam), 3) == p


def test_path_count():
    lam = Weight(2, 1, 0)
    paths = list(enumerate_paths(lam, 2))
    assert len(paths) == 4 ** 2
    assert len(set(paths)) == len(paths)


def test_energy_anchor():
    # Lambda = 2Lambda_0, L = 2: ground-state H-sum is 4
    lam = Weight(2, 0, 0)
    assert ground_state_H_sum(lam, 2) == 4
    assert ground_state_H_sum_direct(lam, 2) == 4


def test_epsilon_L():
    assert epsilon_L(0) == 0
    assert epsilon_L(1) == 1
    assert epsilon_L(2) == 0


def crystal_paths(lam, L):
    G = generate_crystal(lam, L)
    return {T: pi(T, L) for T in G.vertices}


@pytest.mark.parametrize("s,t,L", GRID)
def test_pi_is_weight_preserving_bijection(s, t, L):
    lam = Weight(s, t, 0)
    m = crystal_paths(lam, L)
    images = set(m.values())
    assert len(images) == len(m)
    assert images == set(enumerate_paths(lam, L))
    for T, p in m.items():
        assert path_weight(p, lam) == T.weight()


@pytest.mark.parametrize("s,t,L", GRID)
def test_highest_lift_inverts_pi(s, t, L):
    lam = Weight(s, t, 0)
    for T, p in crystal_paths(lam, L).items():
        assert highest_lift(p, lam) == T


def test_highest_lift_vacuum():
    lam = Weight(2, 1, 0)
    p = ground_state_path(lam, 4)
    assert highest_lift(p, lam) == EYDTuple.vacuum(2, 1)


def test_step_letters_must_be_integral():
    lam = Weight(1, 1, 0)
    with pytest.raises(ValueError, match="expected 3 free letters"):
        from_letters(lam, 3, (0, 1))
    # 1/2 is not a letter; -1 and k + 1 lie outside 0..k
    for m in (0.5, -1, 3):
        with pytest.raises(ValueError, match="not allowed at level 2"):
            from_letters(lam, 3, (0, m, 1))


def test_highest_lift_rejects_bad_letter():
    with pytest.raises(ValueError, match="not allowed at level 2"):
        highest_lift((0, 3, 1), Weight(1, 1, 0))


def test_highest_lift_checks_round_trip(monkeypatch):
    lam = Weight(1, 1, 0)
    p = from_letters(lam, 3, (0, 0, 0))
    wrong = ground_state_path(lam, 3)
    assert wrong != p
    monkeypatch.setattr(paths, "pi", lambda T, L=None: wrong)
    with pytest.raises(AssertionError, match="does not project back"):
        highest_lift(p, lam)
