import json

import pytest

from demcrystal.demazure import (
    demazure_crystal_direct,
    demazure_crystal_recursive,
    export_graph,
    extremal_vector,
    generate_crystal,
    graph_from_json,
    subgraph,
)
from demcrystal.weights import (
    Weight,
    apply_word,
    demazure_character_oracle,
    weyl_word_minus,
    weyl_word_plus,
)

WEIGHTS = [
    Weight(s, t, 0)
    for s in range(0, 4)
    for t in range(0, 4 - s)
    if s + t >= 1
]


def test_generate_crystal_anchor():
    lam = Weight(2, 0, 0)
    G = generate_crystal(lam, 1)
    assert len(G.vertices) == 3
    assert len(generate_crystal(lam, 0).vertices) == 1
    with pytest.raises(ValueError):
        generate_crystal(lam, -1)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_recursive_equals_direct(L):
    for lam in WEIGHTS:
        assert demazure_crystal_recursive(lam, weyl_word_plus(L)) == \
            demazure_crystal_direct(lam, "+", L)
        assert demazure_crystal_recursive(lam, weyl_word_minus(L)) == \
            demazure_crystal_direct(lam, "-", L)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_union_intersection(L):
    for lam in WEIGHTS:
        plus = demazure_crystal_direct(lam, "+", L)
        minus = demazure_crystal_direct(lam, "-", L)
        assert plus | minus == generate_crystal(lam, L).vertices
        assert plus & minus == generate_crystal(lam, L - 1).vertices


@pytest.mark.parametrize("L", [1, 2, 3])
def test_extreme_level_weights(L):
    # for Lambda = k Lambda_0 the plus crystal is everything; dually for minus
    for k in (1, 2, 3):
        lam0 = Weight(k, 0, 0)
        assert demazure_crystal_direct(lam0, "+", L) == \
            generate_crystal(lam0, L).vertices
        lam1 = Weight(0, k, 0)
        assert demazure_crystal_direct(lam1, "-", L) == \
            generate_crystal(lam1, L).vertices


def test_dimension_matches_oracle():
    for lam in WEIGHTS:
        for L in (1, 2, 3):
            for sign, word in (("+", weyl_word_plus(L)), ("-", weyl_word_minus(L))):
                n = sum(demazure_character_oracle(lam, word).values())
                assert len(demazure_crystal_direct(lam, sign, L)) == n


def test_extremal_vector():
    for lam in WEIGHTS:
        for L in (1, 2, 3):
            for sign, word in (("+", weyl_word_plus(L)), ("-", weyl_word_minus(L))):
                v = extremal_vector(lam, sign, L)
                B = demazure_crystal_direct(lam, sign, L)
                assert v in B
                assert v.weight() == apply_word(word, lam)


def test_monotone_inclusion():
    for lam in WEIGHTS:
        for L in (1, 2, 3):
            assert demazure_crystal_direct(lam, "+", L) <= \
                demazure_crystal_direct(lam, "+", L + 1)
            assert demazure_crystal_direct(lam, "-", L) <= \
                demazure_crystal_direct(lam, "-", L + 1)


def test_width_distinct_property():
    # nonvacuum vertices with s,t >= 1 have |Y_1| != |Y_{s+1}|
    for lam in WEIGHTS:
        s, t = lam.a0, lam.a1
        if s < 1 or t < 1:
            continue
        for T in generate_crystal(lam, 4).vertices:
            if T.is_vacuum():
                continue
            w = T.widths()
            assert w[0] != w[s]


def test_width_growth_bound():
    # one application of f-tilde grows each width by at most 1
    from demcrystal.eyd import f_tilde

    for lam in WEIGHTS:
        for T in generate_crystal(lam, 3).vertices:
            for i in (0, 1):
                U = f_tilde(i, T)
                if U is None:
                    continue
                assert all(
                    wu <= wt + 1 for wu, wt in zip(U.widths(), T.widths())
                )


def test_export_json_roundtrip():
    G = generate_crystal(Weight(1, 1, 0), 2)
    H = graph_from_json(export_graph(G, "json"))
    assert H.vertices == G.vertices
    assert H.edges == G.edges


def test_export_dot_deterministic():
    G = generate_crystal(Weight(2, 0, 0), 2)
    a = export_graph(G, "dot")
    b = export_graph(G, "dot")
    assert a == b
    assert a.startswith("digraph")
    assert a.count("label=") == len(G.vertices) + len(G.edges)


def test_export_rejects_unknown_format():
    G = generate_crystal(Weight(1, 0, 0), 1)
    with pytest.raises(ValueError):
        export_graph(G, "svg")


def test_subgraph():
    lam = Weight(2, 0, 0)
    G = generate_crystal(lam, 2)
    sub = demazure_crystal_direct(lam, "+", 2)
    H = subgraph(G, sub)
    assert H.vertices == frozenset(sub)
    assert all(a in sub and b in sub for a, _, b in H.edges)
