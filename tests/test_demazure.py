import pytest

from demcrystal import verify
from demcrystal.demazure import (
    demazure_crystal_direct,
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

WEIGHTS = list(verify.weights_up_to(3))


def test_generate_crystal_anchor():
    lam = Weight(2, 0, 0)
    G = generate_crystal(lam, 1)
    assert len(G.vertices) == 3
    assert len(generate_crystal(lam, 0).vertices) == 1
    with pytest.raises(ValueError):
        generate_crystal(lam, -1)


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
