"""Crystal axioms on random tuples of level <= 4, drawn as random f-tilde
walks from the vacuum (the walk is the hypothesis example, so failures
shrink to short walks); many reach beyond the crystals that the
demazure-crystal suite checks vertex by vertex."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from demcrystal.eyd import EYDTuple, e_tilde, epsilon_i, f_tilde, phi_i  # noqa: E402
from demcrystal.weights import ALPHA, pairing  # noqa: E402


@st.composite
def tuples(draw):
    s = draw(st.integers(0, 4))
    t = draw(st.integers(0 if s else 1, 4 - s))
    T = EYDTuple.vacuum(s, t)
    for i in draw(st.lists(st.sampled_from((0, 1)), max_size=14)):
        U = f_tilde(i, T)
        if U is not None:
            T = U
    return T


def string_length(op, i, T, cap: int = 100) -> int:
    """Steps of op before None, stopping at cap so a broken operator fails
    instead of hanging."""
    n = 0
    while n < cap and (T := op(i, T)) is not None:
        n += 1
    return n


@settings(derandomize=True, database=None, deadline=1000, max_examples=400)
@given(tuples())
def test_crystal_axioms(T):
    wt = T.weight()
    for i in (0, 1):
        U = f_tilde(i, T)
        if U is not None:
            assert e_tilde(i, U) == T
            assert U.weight() == wt - ALPHA[i]
        V = e_tilde(i, T)
        if V is not None:
            assert f_tilde(i, V) == T
        assert phi_i(T, i) - epsilon_i(T, i) == pairing(wt, i)
        assert phi_i(T, i) == string_length(f_tilde, i, T)
        assert epsilon_i(T, i) == string_length(e_tilde, i, T)
