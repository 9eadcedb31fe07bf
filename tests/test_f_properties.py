"""The three routes to f^(k)_L(b, c) agree on random sizes beyond the A1
grid (k <= 4, L <= 8): k <= 8, L <= 12, k*L <= 60, with (b, c) drawn from
the support, where f is non-zero."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from demcrystal.characters import f_bosonic, f_fermionic, f_recursive  # noqa: E402


@st.composite
def cases(draw):
    k = draw(st.integers(1, 8))
    L = draw(st.integers(1, min(12, 60 // k)))
    b = draw(st.sampled_from(range(-L * k, L * k + 1, 2)))
    c = draw(st.sampled_from(range(b - k, b + k + 1, 2)))
    return k, L, b, c


@settings(derandomize=True, database=None, deadline=2000, max_examples=200)
@given(cases())
def test_three_routes_agree_beyond_a1(case):
    fr = f_recursive(*case)
    assert fr, case
    assert f_bosonic(*case) == fr, case
    assert f_fermionic(*case) == fr, case
