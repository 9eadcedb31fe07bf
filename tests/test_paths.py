import pytest

from demcrystal import paths
from demcrystal.demazure import generate_crystal
from demcrystal.eyd import EYDTuple
from demcrystal.paths import (
    Path,
    energy,
    enumerate_paths,
    epsilon_L,
    from_letters,
    ground_state_H_sum,
    ground_state_H_sum_direct,
    ground_state_path,
    highest_lift,
    in_path_set,
    iota,
    path_weight,
    pi,
    step,
    z_exponent,
)
from demcrystal.weights import Weight


def test_step_weights():
    assert step(2, 0) == Weight(2, -2, 0)
    assert step(2, 1) == Weight(0, 0, 0)
    assert step(2, 2) == Weight(-2, 2, 0)


def test_ground_state_path():
    lam = Weight(2, 0, 0)
    p = ground_state_path(lam, 3)
    assert p.L == 3 and p.k == 2
    assert in_path_set(p, lam, 3)
    assert energy(p, lam) == 0
    assert z_exponent(p, lam) == 0
    assert path_weight(p, lam) == lam


def test_from_letters_iota_roundtrip():
    lam = Weight(1, 1, 0)
    for letters in ((0, 1, 2), (2, 0, 1), (1, 1, 1)):
        p = from_letters(lam, 3, letters)
        assert iota(p)[: 3] == letters


def test_path_count():
    lam = Weight(2, 1, 0)
    paths = list(enumerate_paths(lam, 2))
    assert len(paths) == 4 ** 2
    assert len({iota(p) for p in paths}) == len(paths)


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


@pytest.mark.parametrize("s,t,L", [(1, 0, 3), (2, 0, 3), (1, 1, 3), (0, 2, 2), (2, 1, 2)])
def test_pi_is_weight_preserving_bijection(s, t, L):
    lam = Weight(s, t, 0)
    m = crystal_paths(lam, L)
    images = {iota(p) for p in m.values()}
    assert len(images) == len(m)
    assert images == {iota(p) for p in enumerate_paths(lam, L)}
    for T, p in m.items():
        assert path_weight(p, lam) == T.weight()


@pytest.mark.parametrize("s,t,L", [(1, 0, 3), (2, 0, 3), (1, 1, 3), (0, 2, 2), (2, 1, 2)])
def test_highest_lift_inverts_pi(s, t, L):
    lam = Weight(s, t, 0)
    for T, p in crystal_paths(lam, L).items():
        assert highest_lift(p, lam) == T


def test_highest_lift_vacuum():
    lam = Weight(2, 1, 0)
    p = ground_state_path(lam, 4)
    assert highest_lift(p, lam) == EYDTuple.vacuum(2, 1)


def test_invalid_path_rejected():
    lam = Weight(1, 0, 0)
    p = ground_state_path(lam, 2)
    assert not in_path_set(p, lam, 1)


def test_step_letters_must_be_integral():
    a = Weight(1, 0, 0)
    with pytest.raises(ValueError):
        Path((a, a))  # step 0 would need letter m = 1/2
    with pytest.raises(ValueError):
        Path((a, Weight(3, -2, 0)))  # m = -1 is out of range


def test_highest_lift_checks_round_trip(monkeypatch):
    lam = Weight(1, 1, 0)
    p = from_letters(lam, 3, (0, 0, 0))
    wrong = ground_state_path(lam, 3)
    assert iota(wrong) != iota(p)
    monkeypatch.setattr(paths, "pi", lambda T, L=None: wrong)
    with pytest.raises(AssertionError, match="does not project back"):
        highest_lift(p, lam)
