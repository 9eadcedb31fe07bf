"""Generation of crystals B_L(Lambda) and Demazure crystals B_w(Lambda).

Two independent routes are provided: the Kashiwara string recursion
along a reduced word, and the direct width characterization.

Both width-bounded searches are exact, not heuristics:

- Width-bounded BFS reaches all of B_L(Lambda) because one box-adding
  pass grows each width by at most one.
- f-tilde only adds boxes, so no diagram's width ever shrinks along an
  f-tilde chain.  A vertex T that passes the width characterization is
  reached from the vacuum in B_L(Lambda), and every vertex on that chain
  has each width at most T's, so it passes too.  The search capped by
  the characterization (``generate_crystal``'s ``sign``) therefore
  reaches exactly the vertices the filter over all of B_L(Lambda) keeps,
  with the same edges among them, without building the rest of B_L.
- The inclusion rule orders the depths of each column down the tuple, so
  among the diagrams of one charge the first is the widest: the widths
  of Y_1 and Y_{s+1} bound every width.
"""
from __future__ import annotations

import json

from .eyd import ExtendedYoungDiagram, EYDTuple, Frozen, epsilon_i, f_tilde
from .weights import Weight, is_reduced, require_dominant


class CrystalGraph(Frozen):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset[EYDTuple], edges: frozenset[tuple[EYDTuple, int, EYDTuple]]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


def generate_crystal(lam: Weight, L: int, sign=None) -> CrystalGraph:
    """B_L(Lambda): closure of the vacuum under box-adding, widths <= L.

    With ``sign``, "+" or "-", the closure is B_{w^+/-_L}(Lambda): the
    widths of Y_1 and Y_{s+1} are capped at the extremal vector's
    (module docstring), and the graph holds the edges among its vertices."""
    require_dominant(lam)
    cap0, cap1 = (L, L) if sign is None else _widths(sign, L)
    if L < 0:
        raise ValueError("crystal generation requires L >= 0")
    # Y_1 and Y_{s+1} are the widest diagrams (module docstring); s % k is
    # 0 when all diagrams share one charge, whose cap then holds for both
    s = lam.a0 % lam.level
    if not lam.a0:
        cap0 = cap1
    elif not lam.a1:
        cap1 = cap0
    root = EYDTuple.vacuum(lam.a0, lam.a1)
    seen = {root}
    frontier = [root]
    edges = []
    while frontier:
        nxt = []
        for T in frontier:
            for i in (0, 1):
                U = f_tilde(i, T)
                if U is None:
                    continue
                D = U.diagrams
                if len(D[0].columns) > cap0 or len(D[s].columns) > cap1:
                    continue
                # each (T, i) is tried once, so no edge repeats
                edges.append((T, i, U))
                if U not in seen:
                    seen.add(U)
                    nxt.append(U)
        frontier = nxt
    # every edge target passed the caps and sits in seen, so all edges
    # are internal to the vertex set
    return CrystalGraph(frozenset(seen), frozenset(edges))


def demazure_crystal_recursive(lam: Weight, word) -> set[EYDTuple]:
    """B_w(Lambda) by the string recursion, processing the word inside out."""
    require_dominant(lam)
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    crystal = {EYDTuple.vacuum(lam.a0, lam.a1)}
    for i in reversed(word):
        grown = set()
        for b in crystal:
            if epsilon_i(b, i) != 0:  # not i-highest
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
    if L <= 0:
        raise ValueError("the width characterization requires L > 0")
    return (L, L - 1) if sign == "+" else (L - 1, L)


def demazure_crystal_direct(lam: Weight, sign: str, L: int) -> frozenset[EYDTuple]:
    """B_{w^+/-_L}(Lambda) by the width characterization: the closure of
    the vacuum capped by it (module docstring)."""
    return generate_crystal(lam, L, sign).vertices


def extremal_vector(lam: Weight, sign: str, L: int) -> EYDTuple:
    """The weight-w^+/-_L(Lambda) element: maximal-staircase diagrams."""
    require_dominant(lam)
    w0, w1 = _widths(sign, L)

    def maximal(charge: int, width: int) -> ExtendedYoungDiagram:
        return ExtendedYoungDiagram.make(charge, [charge - width + j for j in range(width)])

    return EYDTuple(
        tuple(maximal(0, w0) for _ in range(lam.a0))
        + tuple(maximal(1, w1) for _ in range(lam.a1))
    )


# -- export ---------------------------------------------------------------------

def _weight_text(T: EYDTuple) -> str:
    w = T.weight()
    return f"wt=({w.a0},{w.a1},{w.d})"


def export_graph(G: CrystalGraph, fmt: str) -> str:
    """Deterministic table, JSON or DOT rendering of a crystal graph, with
    the vertices in ``EYDTuple.key`` order; ``graph_from_json`` is the one
    reader of its JSON layout."""
    verts = sorted(G.vertices, key=EYDTuple.key)
    if fmt == "table":
        rows = [f"{T.key()}  {_weight_text(T)}\n" for T in verts]
        return "".join(rows) + f"total {len(verts)}\n"
    index = {T: n for n, T in enumerate(verts)}
    edges = sorted(G.edges, key=lambda e: (index[e[0]], e[1], index[e[2]]))
    if fmt == "dot":
        lines = ["digraph crystal {"]
        for n, T in enumerate(verts):
            cols = ", ".join("[" + " ".join(map(str, Y.columns)) + "]" for Y in T.diagrams)
            lines.append(f'  v{n} [label="({cols}) {_weight_text(T)}"];')
        for a, i, b in edges:
            lines.append(f'  v{index[a]} -> v{index[b]} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {
            "vertices": [[{"charge": Y.charge, "columns": list(Y.columns)} for Y in T.diagrams]
                         for T in verts],
            "edges": [
                {"source": index[a], "color": i, "target": index[b]}
                for a, i, b in edges
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unsupported export format {fmt!r}")


def graph_from_json(text: str) -> CrystalGraph:
    """The graph ``export_graph(G, "json")`` wrote, each vertex through the
    full check of ``EYDTuple``; an edge whose source or target is not an int
    index of a vertex, or whose color is not 0 or 1, raises ValueError, and
    so does a vertex or an edge listed twice, since the graph's sets would
    silently keep one."""
    obj = json.loads(text)
    verts = [EYDTuple(tuple(ExtendedYoungDiagram.make(d["charge"], d["columns"]) for d in o))
             for o in obj["vertices"]]
    vertices = frozenset(verts)
    if len(vertices) != len(verts):
        raise ValueError("a crystal vertex is listed twice")
    n = len(verts)
    edges = set()
    for e in obj["edges"]:
        a, i, b = e["source"], e["color"], e["target"]
        # a bool is an int, and a negative index would count from the end
        if not (type(a) is type(i) is type(b) is int and 0 <= a < n and 0 <= b < n
                and i in (0, 1)):
            raise ValueError(f"invalid crystal edge {e!r}")
        edge = (verts[a], i, verts[b])
        if edge in edges:
            raise ValueError(f"crystal edge {e!r} is listed twice")
        edges.add(edge)
    return CrystalGraph(vertices, frozenset(edges))


def subgraph(G: CrystalGraph, subset) -> CrystalGraph:
    """Restriction of a crystal graph to a vertex subset."""
    keep = frozenset(subset)
    return CrystalGraph(
        keep, frozenset(e for e in G.edges if e[0] in keep and e[2] in keep)
    )
