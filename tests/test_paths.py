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
)
from demcrystal.verify import weights_up_to
from demcrystal.weights import Weight

# every weight of level <= 4 at both parities of L
GRID = [(lam.a0, lam.a1, L) for L in (2, 3, 4) for lam in weights_up_to(4)]


def test_ground_state_path():
    lam = Weight(2, 1, 0)
    p = ground_state_path(lam, 3)
    assert p == (2, 1, 2)
    assert energy(p, lam) == 0
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


def reference_pi(T, L):
    """pi as a count over the padded columns, with no per-diagram cache."""
    if any(Y.width > L for Y in T.diagrams):
        raise ValueError("window length L is smaller than a diagram width")
    columns = zip(*(Y.row(L) for Y in T.diagrams))
    return tuple(sum(1 for y in col if (y + j) % 2 == 0) for j, col in enumerate(columns))


@pytest.mark.parametrize("lam", list(weights_up_to(3)), ids=lambda lam: f"s{lam.a0}t{lam.a1}")
def test_pi_matches_reference(lam):
    # every vertex of B_L at every window from its own length up to 5,
    # so the per-diagram cache serves one diagram at several L
    for L in range(6):
        for T in generate_crystal(lam, L).vertices:
            for window in range(L, 6):
                assert pi(T, window) == reference_pi(T, window), (T.key(), window)
    T = max(generate_crystal(lam, 3).vertices, key=lambda T: max(Y.width for Y in T.diagrams))
    assert max(Y.width for Y in T.diagrams) == 3
    for window in (0, 1, 2):
        for projection in (pi, reference_pi):
            with pytest.raises(ValueError, match="smaller than a diagram width"):
                projection(T, window)


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
    # 1/2 and the bools are not letters; -1 and k + 1 lie outside 0..k
    for m in (0.5, -1, 3, True, False):
        with pytest.raises(ValueError, match="not allowed at level 2"):
            from_letters(lam, 3, (0, m, 1))
    with pytest.raises(ValueError, match="not allowed at level 2"):
        highest_lift((True, 0), lam)


def test_highest_lift_rejects_bad_letter():
    with pytest.raises(ValueError, match="not allowed at level 2"):
        highest_lift((0, 3, 1), Weight(1, 1, 0))


def test_highest_lift_checks_round_trip(monkeypatch):
    lam = Weight(1, 1, 0)
    p = from_letters(lam, 3, (0, 0, 0))
    wrong = ground_state_path(lam, 3)
    assert wrong != p
    monkeypatch.setattr(paths, "pi", lambda T, L: wrong)
    with pytest.raises(AssertionError, match="does not project back"):
        highest_lift(p, lam)
