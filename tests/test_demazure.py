import pytest

from demcrystal.demazure import (
    demazure_crystal_direct,
    export_graph,
    generate_crystal,
    graph_from_json,
    subgraph,
)
from demcrystal.weights import Weight


def test_generate_crystal_anchor():
    lam = Weight(2, 0, 0)
    G = generate_crystal(lam, 1)
    assert len(G.vertices) == 3
    assert len(generate_crystal(lam, 0).vertices) == 1
    with pytest.raises(ValueError):
        generate_crystal(lam, -1)


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
