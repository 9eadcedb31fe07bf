import copy
import pickle
from collections import Counter

import pytest

from demcrystal import eyd
from demcrystal.demazure import export_graph, generate_crystal, graph_from_json
from demcrystal.eyd import (
    CONCAVE,
    CONVEX,
    EYDTuple,
    ExtendedYoungDiagram,
    e_tilde,
    epsilon_i,
    f_tilde,
    i_signature,
    phi_i,
    reduce_signature,
)
from demcrystal.paths import pi
from demcrystal.verify import weights_up_to
from demcrystal.weights import ALPHA0, ALPHA1, LAMBDA1, Weight


def test_make_trims_and_validates():
    Y = ExtendedYoungDiagram.make(1, (-1, 0, 0, 1, 1))
    assert Y.columns == (-1, 0, 0)
    assert Y.width == 3
    with pytest.raises(ValueError):
        ExtendedYoungDiagram(0, (0,))
    with pytest.raises(ValueError):
        ExtendedYoungDiagram(0, (-1, -2))
    # a float or a bool equals an int and hashes like one, so a diagram
    # holding one would alias an int diagram in the value-keyed caches
    for charge, columns in [(0, (-1.5,)), (0, (-2.0,)), (1, (-1, 0.0)), (1, (False,)),
                            (1.0, ()), (True, ()), (0.0, (-1,))]:
        with pytest.raises(ValueError):
            ExtendedYoungDiagram(charge, columns)
    with pytest.raises(ValueError):
        ExtendedYoungDiagram.make(0, (-2.0, 0))


def test_single_diagram_example():
    # Y = (-2,-1,-1,0,0,1,1,...) of charge 1
    Y = ExtendedYoungDiagram.make(1, (-2, -1, -1, 0, 0))
    assert Y.width == 5
    assert EYDTuple((Y,)).weight() == LAMBDA1 - 4 * ALPHA0 - 5 * ALPHA1

    cs = {(c.m, c.n, c.shape): c.color for c in Y.corners()}
    assert cs[(1, -2, CONVEX)] == 1
    assert cs[(5, 0, CONVEX)] == 1
    assert cs[(3, -1, CONVEX)] == 0
    assert cs[(3, 0, CONCAVE)] == 1
    assert cs[(1, -1, CONCAVE)] == 0
    # plus the leftmost-column and first-row junction concave corners
    assert cs[(0, -2, CONCAVE)] == 0
    assert cs[(5, 1, CONCAVE)] == 0
    assert len(cs) == 7


def test_add_remove_box_roundtrip():
    Y = ExtendedYoungDiagram.make(0, (-2, -1))
    Y2 = Y.add_box(0)
    assert Y2.columns == (-3, -1)
    assert Y2.remove_box(0) == Y
    assert Y.add_box(2).columns == (-2, -1, -1)
    for move in (Y.add_box, Y.remove_box):
        with pytest.raises(ValueError):
            move(-1)


def test_reduce_signature_rules():
    # 0 = addable slot, 1 = removable slot; adjacent (0,1) pairs cancel
    assert reduce_signature((0, 0, 1, 1, 0)) == [4]
    assert reduce_signature((1, 1, 0, 0, 0)) == [0, 1, 2, 3, 4]
    assert reduce_signature((0, 1)) == []
    assert reduce_signature(()) == []


def fixture_tuple():
    # Lambda = Lambda_0 + Lambda_1, Y_1 = (-2,-2,-1,-1,0,...) charge 0,
    # Y_2 = (-1,0,0,1,1,...) charge 1
    Y1 = ExtendedYoungDiagram.make(0, (-2, -2, -1, -1))
    Y2 = ExtendedYoungDiagram.make(1, (-1, 0, 0))
    return EYDTuple((Y1, Y2))


def test_worked_example_signatures():
    T = fixture_tuple()
    assert [e.bit for e in i_signature(T, 0)] == [0, 0, 1, 1, 0]
    assert [e.bit for e in i_signature(T, 1)] == [1, 1, 0, 0, 0]


def test_worked_example_operators():
    T = fixture_tuple()
    assert e_tilde(0, T) is None
    U = f_tilde(0, T)
    assert U is not None
    assert U.diagrams[1] == T.diagrams[1]
    assert U.diagrams[0] != T.diagrams[0]
    assert U.weight() == T.weight() - ALPHA0
    assert e_tilde(0, U) == T

    V = f_tilde(1, T)
    assert V is not None
    assert V.diagrams[1] == T.diagrams[1]
    assert V.weight() == T.weight() - ALPHA1

    W = e_tilde(1, T)
    assert W is not None
    assert W.diagrams[0] == T.diagrams[0]
    assert W.diagrams[1] != T.diagrams[1]
    assert W.weight() == T.weight() + ALPHA1
    assert f_tilde(1, W) == T


def test_worked_example_counts():
    T = fixture_tuple()
    assert epsilon_i(T, 0) == 0
    assert phi_i(T, 0) == 1
    assert epsilon_i(T, 1) == 2
    assert phi_i(T, 1) == 3


def test_vacuum():
    T = EYDTuple.vacuum(2, 1)
    assert len(T.diagrams) == 3 and [Y.charge for Y in T.diagrams] == [0, 0, 1]
    assert T.weight() == Weight(2, 1, 0)
    assert e_tilde(0, T) is None and e_tilde(1, T) is None
    assert not any(T.widths())


def test_inclusion_invariant_enforced():
    good = ExtendedYoungDiagram.make(0, (-1,))
    deep = ExtendedYoungDiagram.make(0, (-3,))
    with pytest.raises(ValueError):
        EYDTuple((good, deep))  # later component deeper than earlier one
    with pytest.raises(ValueError):
        EYDTuple((ExtendedYoungDiagram.make(0, (-4,)), good))  # beyond the 2-shift
    EYDTuple((deep, good))  # deeper first component within the shift is fine
    with pytest.raises(ValueError, match="charges must be sorted"):
        EYDTuple((ExtendedYoungDiagram.make(1, ()), good))
    with pytest.raises(ValueError, match="at least one diagram"):
        EYDTuple(())


# -- the one-pass kernel against the corner-geometry reference -----------------

def reference_operators(T, i):
    """(f_tilde, e_tilde, epsilon_i, phi_i) read off ``i_signature`` and
    ``reduce_signature``: the leftmost relevant concave corner gains a box,
    the rightmost relevant convex corner loses one."""
    sig = i_signature(T, i)
    relevant = [sig[idx] for idx in reduce_signature([e.bit for e in sig])]
    concave = [e for e in relevant if e.bit == 0]
    convex = [e for e in relevant if e.bit == 1]
    f = e = None
    if concave:
        c = concave[0]
        f = with_diagram(T, c.diagram - 1, T.diagrams[c.diagram - 1].add_box(c.column))
    if convex:
        c = convex[-1]
        e = with_diagram(T, c.diagram - 1, T.diagrams[c.diagram - 1].remove_box(c.column))
    return f, e, len(convex), len(concave)


def with_diagram(T, index, Y):
    """T with diagram ``index`` set to Y, through the fully checking constructor."""
    return EYDTuple(T.diagrams[:index] + (Y,) + T.diagrams[index + 1:])


def reference_crystal(lam, L):
    """B_L(Lambda) as the width-bounded closure of the vacuum under the
    reference f_tilde, so a broken kernel cannot make it run forever."""
    root = EYDTuple.vacuum(lam.a0, lam.a1)
    seen, frontier = {root}, [root]
    while frontier:
        grown = []
        for T in frontier:
            for i in (0, 1):
                U = reference_operators(T, i)[0]
                if U is not None and max(U.widths()) <= L and U not in seen:
                    seen.add(U)
                    grown.append(U)
        frontier = grown
    return seen


@pytest.mark.parametrize("lam", list(weights_up_to(3)), ids=lambda lam: f"s{lam.a0}t{lam.a1}")
def test_kernel_matches_signature_reference(lam):
    # B_4(Lambda) holds every vertex of B_L(Lambda) for L <= 4
    vertices = reference_crystal(lam, 4)
    assert len(vertices) == (lam.level + 1) ** 4
    for T in vertices:
        for i in (0, 1):
            got = (f_tilde(i, T), e_tilde(i, T), epsilon_i(T, i), phi_i(T, i))
            assert got == reference_operators(T, i), (T.key(), i)
            for U in got[:2]:
                # the kernel checks only the moved column; the full check
                # passes on its result and gives the same hash
                if U is not None:
                    full = EYDTuple(U.diagrams)
                    assert full == U and hash(full) == hash(U), (T.key(), i)
    assert generate_crystal(lam, 4).vertices == vertices


def test_one_column_check_raises_like_the_full_check():
    Y0, Y1 = ExtendedYoungDiagram.make(0, (-1,)), ExtendedYoungDiagram.make(1, ())
    moves = [
        # a box on the second diagram's column 0 puts it below the first
        (EYDTuple((Y0, Y0)), 1, 0, "inclusion rule violated between consecutive diagrams"),
        # a box on the first diagram's column 0 puts it 3 below the last
        (EYDTuple((Y0, Y1)), 0, 0, "inclusion rule violated against the shifted first diagram"),
    ]
    for T, index, column, message in moves:
        with pytest.raises(ValueError) as full:
            with_diagram(T, index, T.diagrams[index].add_box(column))
        with pytest.raises(ValueError) as moved:
            T._move(index, column, -1)
        assert str(moved.value) == str(full.value) == message


def test_neighbour_check_raises_like_the_full_check():
    # every single-box add and remove on every diagram of every vertex of
    # B_4(Lambda), level <= 3, in every column up to width + 1 that leaves a
    # diagram: the one-inequality check raises exactly when the full check
    # does, with its message, and otherwise builds the same tuple
    messages = Counter()
    for lam in weights_up_to(3):
        for T in generate_crystal(lam, 4).vertices:
            for index, D in enumerate(T.diagrams):
                for column in range(D.width + 2):
                    for move, step in ((D.add_box, -1), (D.remove_box, 1)):
                        try:
                            Y = move(column)
                        except ValueError:
                            continue  # no diagram, so no tuple to check
                        full = moved = None
                        try:
                            built = with_diagram(T, index, Y)
                        except ValueError as exc:
                            full = str(exc)
                        try:
                            U = T._move(index, column, step)
                        except ValueError as exc:
                            moved = str(exc)
                        where = (T.key(), index, column, move.__name__)
                        assert moved == full, where
                        if full is None:
                            assert U == built and hash(U) == hash(built), where
                        messages[full] += 1
    # the grid reaches both refusals, from both ends of the tuple
    assert set(messages) == {
        None,
        "inclusion rule violated between consecutive diagrams",
        "inclusion rule violated against the shifted first diagram",
    }


def test_values_are_frozen_and_compare_within_their_class():
    Y = ExtendedYoungDiagram(0, ())
    T = EYDTuple((Y,))
    G = generate_crystal(Weight(1, 0, 0), 1)
    assert Y != (0, ()) and (0, ()) != Y and T != (Y,) and G != (G.vertices, G.edges)
    assert Y == ExtendedYoungDiagram.make(0, [0, 0]) and hash(T) == hash(EYDTuple((Y,)))
    for value, name in ((Y, "charge"), (Y, "_entries"), (T, "diagrams"), (T, "_hash"), (G, "edges")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # no instance dict, so a memo has nowhere to go but a declared slot
    assert not any(hasattr(v, "__dict__") for v in (Y, T, G))
    # equal diagrams are one object, and pickling keeps them so
    assert ExtendedYoungDiagram.make(1, (-1, 1)) is ExtendedYoungDiagram(1, (-1,))
    copied = pickle.loads(pickle.dumps(T))
    assert copied == T and copied.diagrams[0] is Y
    assert pickle.loads(pickle.dumps(G)) == G


def test_every_diagram_constructor_returns_the_interned_diagram():
    # diagrams compare and hash by identity, which is value equality only
    # while every way of making a diagram hands back the interned one
    G = generate_crystal(Weight(2, 1, 0), 4)
    diagrams = {Y for T in G.vertices for Y in T.diagrams}
    assert len(diagrams) > 20 and {Y.charge for Y in diagrams} == {0, 1}
    for Y in diagrams:
        assert ExtendedYoungDiagram.make(Y.charge, Y.columns) is Y
        assert ExtendedYoungDiagram.make(Y.charge, Y.columns + (Y.charge,) * 2) is Y
        assert ExtendedYoungDiagram(Y.charge, list(Y.columns)) is Y
        assert pickle.loads(pickle.dumps(Y)) is Y
        assert copy.copy(Y) is Y and copy.deepcopy(Y) is Y
    # and so does the crystal JSON reader
    by_key = {T.key(): T for T in G.vertices}
    for T in graph_from_json(export_graph(G, "json")).vertices:
        assert all(Y is X for Y, X in zip(T.diagrams, by_key[T.key()].diagrams, strict=True))


def test_kernel_caches_hold_tuples_and_change_no_result(monkeypatch):
    # the kernel's memos live on the diagrams: per position the signature
    # entries, per column the moved diagrams, per window the parity rows
    lam = Weight(2, 2, 0)
    warm = generate_crystal(lam, 5)
    for T in warm.vertices:
        pi(T, 5)
        for pos, Y in enumerate(T.diagrams):
            per_color = Y.signature_entries(pos)
            assert type(per_color) is tuple and len(per_color) == 2
            assert all(type(side) is tuple and all(type(e) is tuple for e in side) for side in per_color)
            for memo in (Y._entries, Y._rows):
                assert memo and all(type(v) is tuple for v in memo.values())
            for memo in (Y._added, Y._removed):
                assert all(type(v) is ExtendedYoungDiagram for v in memo.values())
    # hashes spread: keys of B_5 hash to far fewer values (-1 and -2 hash alike)
    assert len({hash(T) for T in warm.vertices}) == len(warm.vertices)
    # an empty intern table makes every diagram afresh, with empty memos
    monkeypatch.setattr(eyd, "_DIAGRAMS", {})
    cold = generate_crystal(lam, 5)
    old = {id(Y) for T in warm.vertices for Y in T.diagrams}
    assert not old & {id(Y) for T in cold.vertices for Y in T.diagrams}
    assert any(Y._entries for T in cold.vertices for Y in T.diagrams)
    assert {T.key() for T in cold.vertices} == {T.key() for T in warm.vertices}
    assert {(a.key(), i, b.key()) for a, i, b in cold.edges} == {
        (a.key(), i, b.key()) for a, i, b in warm.edges
    }
    # the fresh diagrams hash apart from the old ones, so the vertex sets
    # iterate in another order; every export is byte-identical all the same
    for fmt in ("table", "json", "dot"):
        assert export_graph(cold, fmt) == export_graph(warm, fmt), fmt
