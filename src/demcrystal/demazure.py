"""Generation of crystals B_L(Lambda) and Demazure crystals B_w(Lambda).

Two independent routes are provided: the Kashiwara string recursion
along a reduced word, and the direct width characterization.  Width-
bounded BFS is sound because one box-adding pass grows each width by at
most one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .eyd import ExtendedYoungDiagram, EYDTuple, e_tilde, f_tilde
from .weights import Weight, is_reduced


@dataclass(frozen=True)
class CrystalGraph:
    vertices: frozenset[EYDTuple]
    edges: frozenset[tuple[EYDTuple, int, EYDTuple]]


def generate_crystal(lam: Weight, L: int) -> CrystalGraph:
    """B_L(Lambda): closure of the vacuum under box-adding, widths <= L."""
    if not lam.is_dominant() or lam.level < 1:
        raise ValueError("crystal generation requires a dominant weight of level >= 1")
    if L < 0:
        raise ValueError("crystal generation requires L >= 0")
    root = EYDTuple.vacuum(lam.a0, lam.a1)
    seen = {root.key(): root}
    frontier = [root]
    edges = set()
    while frontier:
        nxt = []
        for T in frontier:
            for i in (0, 1):
                U = f_tilde(i, T)
                if U is None or any(w > L for w in U.widths()):
                    continue
                edges.add((T, i, U))
                key = U.key()
                if key not in seen:
                    seen[key] = U
                    nxt.append(U)
        frontier = nxt
    # every edge target passed the width check and sits in seen, so all
    # edges are internal to the width-bounded set
    return CrystalGraph(frozenset(seen.values()), frozenset(edges))


def demazure_crystal_recursive(lam: Weight, word) -> set[EYDTuple]:
    """B_w(Lambda) by the string recursion, processing the word inside out."""
    if not lam.is_dominant() or lam.level < 1:
        raise ValueError("requires a dominant weight of level >= 1")
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    crystal = {EYDTuple.vacuum(lam.a0, lam.a1)}
    for i in reversed(word):
        grown = set()
        for b in crystal:
            if e_tilde(i, b) is not None:
                continue
            U = b
            while U is not None:
                grown.add(U)
                U = f_tilde(i, U)
        crystal = grown
    return crystal


def _widths(sign: str, L: int) -> tuple[int, int]:
    """Widths of Y_1 and Y_{s+1} in the extremal vector of w^+/-_L."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return (L, L - 1) if sign == "+" else (L - 1, L)


def demazure_crystal_direct(lam: Weight, sign: str, L: int) -> set[EYDTuple]:
    """B_{w^+/-_L}(Lambda) by the width characterization on B_L(Lambda)."""
    if L <= 0:
        raise ValueError("the width characterization requires L > 0")
    s, t = lam.a0, lam.a1
    cap0, cap1 = _widths(sign, L)
    out = set()
    for T in generate_crystal(lam, L).vertices:
        if s >= 1 and T.diagrams[0].width > cap0:
            continue
        if t >= 1 and T.diagrams[s].width > cap1:
            continue
        out.add(T)
    return out


def extremal_vector(lam: Weight, sign: str, L: int) -> EYDTuple:
    """The weight-w^+/-_L(Lambda) element: maximal-staircase diagrams."""
    if L <= 0:
        raise ValueError("extremal vectors are defined for L > 0")
    w0, w1 = _widths(sign, L)

    def maximal(charge: int, width: int) -> ExtendedYoungDiagram:
        return ExtendedYoungDiagram.make(charge, [charge - width + j for j in range(width)])

    return EYDTuple(
        tuple(maximal(0, w0) for _ in range(lam.a0))
        + tuple(maximal(1, w1) for _ in range(lam.a1))
    )


# -- export ---------------------------------------------------------------------

def _vertex_label(T: EYDTuple) -> str:
    cols = ", ".join(
        "[" + " ".join(str(y) for y in Y.columns) + "]" for Y in T.diagrams
    )
    w = T.weight()
    return f"({cols}) wt=({w.a0},{w.a1},{w.d})"


def _sorted_vertices(G: CrystalGraph) -> list[EYDTuple]:
    return sorted(G.vertices, key=lambda T: T.key())


def export_graph(G: CrystalGraph, fmt: str) -> str:
    """Deterministic DOT or JSON rendering of a crystal graph."""
    verts = _sorted_vertices(G)
    index = {T.key(): n for n, T in enumerate(verts)}
    edges = sorted(G.edges, key=lambda e: (index[e[0].key()], e[1], index[e[2].key()]))
    if fmt == "dot":
        lines = ["digraph crystal {"]
        for n, T in enumerate(verts):
            lines.append(f'  v{n} [label="{_vertex_label(T)}"];')
        for a, i, b in edges:
            lines.append(f'  v{index[a.key()]} -> v{index[b.key()]} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {
            "vertices": [T.to_json_obj() for T in verts],
            "edges": [
                {"source": index[a.key()], "color": i, "target": index[b.key()]}
                for a, i, b in edges
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unsupported export format {fmt!r}")


def graph_from_json(text: str) -> CrystalGraph:
    obj = json.loads(text)
    verts = [EYDTuple.from_json_obj(o) for o in obj["vertices"]]
    edges = frozenset(
        (verts[e["source"]], e["color"], verts[e["target"]]) for e in obj["edges"]
    )
    return CrystalGraph(frozenset(verts), edges)


def subgraph(G: CrystalGraph, subset) -> CrystalGraph:
    """Restriction of a crystal graph to a vertex subset."""
    keep = frozenset(subset)
    return CrystalGraph(
        keep, frozenset(e for e in G.edges if e[0] in keep and e[2] in keep)
    )
