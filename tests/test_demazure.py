import json

import pytest

from demcrystal.demazure import (
    CrystalGraph,
    demazure_crystal_direct,
    demazure_crystal_recursive,
    export_graph,
    extremal_vector,
    generate_crystal,
    graph_from_json,
    subgraph,
)
from demcrystal.eyd import EYDTuple, epsilon_i, f_tilde
from demcrystal.verify import weights_up_to
from demcrystal.weights import Weight, weyl_word


def test_generate_crystal_anchor():
    lam = Weight(2, 0, 0)
    G = generate_crystal(lam, 1)
    assert len(G.vertices) == 3
    assert len(generate_crystal(lam, 0).vertices) == 1
    # no B_L below L = 0, no B_w for a sign at L = 0, no third sign and no
    # word that is not reduced
    for call in (lambda: generate_crystal(lam, -1), lambda: generate_crystal(lam, 0, "+"),
                 lambda: generate_crystal(lam, 2, "x"), lambda: extremal_vector(lam, "+", 0),
                 lambda: demazure_crystal_recursive(lam, (0, 0))):
        with pytest.raises(ValueError):
            call()


def test_export_json_roundtrip():
    G = generate_crystal(Weight(1, 1, 0), 2)
    text = export_graph(G, "json")
    H = graph_from_json(text)
    assert H.vertices == G.vertices
    assert H.edges == G.edges
    # an edge is an int index into the vertex list and a color 0 or 1; -1
    # was read as the last vertex and "7" as a color
    good = {"source": 0, "color": 0, "target": 1}
    n = len(G.vertices)
    for bad in ({"source": -1, "color": "7", "target": 0}, {"source": -1}, {"target": n},
                {"source": True}, {"source": 0.0}, {"color": 2}, {"color": True},
                {"color": "0"}):
        obj = json.loads(text)
        obj["edges"].append({**good, **bad})
        with pytest.raises(ValueError, match="invalid crystal edge"):
            graph_from_json(json.dumps(obj))


def test_json_rejects_listed_twice():
    # a copy of vertex 0 or of edge 0 used to read back as 2 vertices and 1 edge
    text = export_graph(generate_crystal(Weight(1, 0, 0), 1), "json")
    for part, match in (("vertices", "vertex is listed twice"), ("edges", "edge .* is listed twice")):
        obj = json.loads(text)
        obj[part].append(obj[part][0])
        with pytest.raises(ValueError, match=match):
            graph_from_json(json.dumps(obj))


def test_json_reader_checks_each_vertex():
    # the layout's one reader takes each charge as written, not through
    # int(), and puts each vertex through the full check of EYDTuple
    text = export_graph(generate_crystal(Weight(1, 1, 0), 2), "json")
    for charge in (0.7, "1", True):
        obj = json.loads(text)
        obj["vertices"][0][0]["charge"] = charge
        with pytest.raises(ValueError):
            graph_from_json(json.dumps(obj))
    # column 0 of the second diagram lies below the first's
    obj = json.loads(text)
    obj["vertices"].append([{"charge": 0, "columns": [-1]}, {"charge": 1, "columns": [-2]}])
    with pytest.raises(ValueError, match="inclusion rule violated between consecutive diagrams"):
        graph_from_json(json.dumps(obj))


def test_export_dot_deterministic():
    G = generate_crystal(Weight(2, 0, 0), 2)
    # the same graph with its sets filled in another insertion order
    H = CrystalGraph(frozenset(sorted(G.vertices, key=EYDTuple.key, reverse=True)),
                     frozenset(reversed(list(G.edges))))
    a = export_graph(G, "dot")
    assert a == export_graph(G, "dot") == export_graph(H, "dot")
    assert a.startswith("digraph")
    assert a.count("label=") == len(G.vertices) + len(G.edges)
    assert export_graph(G, "json") == export_graph(H, "json")
    table = export_graph(G, "table")
    assert table == export_graph(H, "table")
    # one row per vertex in key order, then the count
    rows = []
    for T in sorted(G.vertices, key=EYDTuple.key):
        w = T.weight()
        rows.append(f"{T.key()}  wt=({w.a0},{w.a1},{w.d})")
    assert table.splitlines() == rows + [f"total {len(G.vertices)}"]


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


def chained_recursive(lam, word):
    """B_w(Lambda) by the string recursion one f_tilde at a time: each
    i-highest element (epsilon_i = 0) and f_tilde_i of it until None."""
    crystal = {EYDTuple.vacuum(lam.a0, lam.a1)}
    for i in reversed(word):
        grown = set()
        for b in crystal:
            if epsilon_i(b, i) == 0:
                while b is not None:
                    grown.add(b)
                    b = f_tilde(i, b)
        crystal = grown
    return crystal


def test_string_recursion_matches_the_f_tilde_chain():
    # every weight of level <= 4, 1 <= L <= 5, both signs
    for lam in weights_up_to(4):
        for L in range(1, 6):
            for sign in "+-":
                word = weyl_word(sign, L)
                assert demazure_crystal_recursive(lam, word) == chained_recursive(lam, word), (lam, sign, L)
