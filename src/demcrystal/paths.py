"""Paths on level-k weights: letter words, energy, enumeration and lifts.

A path of P_L(Lambda) is pinned to the ground-state boundary at positions
L and L+1, so it is the tuple of its L free step letters m_0 .. m_{L-1},
each in 0..k; the letter m moves p_{j+1} - p_j by (k - 2m)(Lambda_0 -
Lambda_1).  The highest lift realizes a path as the column-wise maximal
k-tuple of extended Young diagrams projecting onto it.

For Lambda = s Lambda_0 + t Lambda_1 the forced last letter m_L equals
the ground state's, s for even L and t for odd L; p_L has Lambda_0-
coefficient s for even L and t for odd L; and p_0's Lambda_0-coefficient
is that value minus sum_{j<L} (k - 2 m_j).

``pi`` reads a pattern's letters as the elementwise sum of one parity row
per diagram: for a window of length L, the row of Y holds 1 at column
j < L when y_j + j is even and 0 otherwise, so column j's letter counts
the diagrams with t_{ij} + j even.  Each diagram memoizes its rows, one
tuple of ints per L (``ExtendedYoungDiagram.parity_row``); diagrams are
value-interned, so the paths of B_L(Lambda), which share far fewer
distinct diagrams than they have vertices, share the rows too.  No path,
tuple or crystal is cached.
"""
from __future__ import annotations

from itertools import product

from .eyd import ExtendedYoungDiagram, EYDTuple
from .weights import Weight, require_dominant


def ground_state_path(lam: Weight, L: int) -> tuple[int, ...]:
    """The letters (s, t, s, ...) of the ground-state path of length L."""
    require_dominant(lam)
    return ((lam.a0, lam.a1) * ((L + 1) // 2))[:L]


def from_letters(lam: Weight, L: int, letters) -> tuple[int, ...]:
    """Path in P_L(Lambda) with prescribed free letters m_0 .. m_{L-1}."""
    letters = tuple(letters)
    if len(letters) != L:
        raise ValueError(f"expected {L} free letters, got {len(letters)}")
    k = lam.level
    for m in letters:
        # a bool equals an int but is not a letter
        if not (type(m) is int and 0 <= m <= k):
            raise ValueError(f"letter {m} is not allowed at level {k}")
    return letters


def h_local(k: int, m: int, m2: int) -> int:
    """Local energy H = max(k - m, m')."""
    return max(k - m, m2)


def energy(p: tuple[int, ...], lam: Weight) -> int:
    """Weighted sum of local energies with the forced letter m_L = g_L
    appended, less the ground state's sum in closed form.  The letters are
    walked once as (m_{j-1}, m_j) pairs; at L = 0 there is no pair."""
    k = lam.level
    L = len(p)
    letters = iter(p + ground_state_path(lam, L + 1)[L:])
    h = k - next(letters)  # k - m_{j-1}
    total = 0
    j = 1
    for m in letters:
        # j * h_local(k, m_{j-1}, m_j), inlined
        total += j * (h if h > m else m)
        h = k - m
        j += 1
    return total - ground_state_H_sum(lam, L)


def path_weight(p: tuple[int, ...], lam: Weight) -> tuple[int, int, int]:
    """The weight (a0, a1, d) of p: p_0's Lambda_0-coefficient a, read off
    the letters, then k - a and -E(p).  A plain triple, which ``specialize``
    takes: a ``Weight`` per path made ``ch_path_bruteforce`` 12-14% slower."""
    L = len(p)
    k = lam.level
    a = (lam.a1 if L % 2 else lam.a0) - L * k + 2 * sum(p)
    return (a, k - a, -energy(p, lam))


def ground_state_H_sum(lam: Weight, L: int) -> int:
    """Closed form for the absolute ground-state energy sum."""
    half = (L + 1) // 2
    gs = half * lam.a0
    return half * half * lam.level + (-gs if L % 2 else gs)


def ground_state_H_sum_direct(lam: Weight, L: int) -> int:
    """Direct summation oracle for the same quantity, over the ground-state
    letters g_0 .. g_L."""
    k = lam.level
    gs = ground_state_path(lam, L + 1)
    return sum(j * h_local(k, gs[j - 1], gs[j]) for j in range(1, L + 1))


def enumerate_paths(lam: Weight, L: int):
    """All of P_L(Lambda): every word of L free letters."""
    require_dominant(lam)
    return product(range(lam.level + 1), repeat=L)


# -- patterns and lifts -------------------------------------------------------

def pi(T: EYDTuple, L: int) -> tuple[int, ...]:
    """Project a pattern to its path: column j contributes the letter
    counting the diagrams with t_{ij} + j even, so each letter lies in
    0..k by construction.  The letters are the elementwise sum of the
    diagrams' parity rows, each read through ``parity_row`` (module
    docstring)."""
    return tuple(map(sum, zip(*[Y.parity_row(L) for Y in T.diagrams])))


def _max_column(caps, m: int, parity: int, k: int):
    """Componentwise-maximal nondecreasing column (a_1..a_k) with
    a_k <= a_1 + 2, a_i <= caps[i], and exactly m entries of the given
    parity.  Returns None when no valid column exists.

    Such a column is n0 >= 1 entries v, n1 entries v+1 and the rest v+2.
    The parity count fixes n1, and the caps, which are nondecreasing, give
    the least n0; the first v from caps[0] down that fits is the maximum."""
    for v in range(caps[0], caps[0] - 4, -1):
        n1 = m if (v - parity) % 2 else k - m
        n0 = max(1, sum(c < v + 1 for c in caps), sum(c < v + 2 for c in caps) - n1)
        if n0 + n1 <= k:
            return (v,) * n0 + (v + 1,) * n1 + (v + 2,) * (k - n0 - n1)
    return None


def highest_lift(p: tuple[int, ...], lam: Weight) -> EYDTuple:
    """The column-wise maximal normalized lift of p.

    Built greedily right to left: beyond the window the pattern sits at
    the charges, and each column takes the componentwise-maximal value
    compatible with its right neighbor, the inclusion chain and the step
    letter of the path.
    """
    require_dominant(lam)
    s, t = lam.a0, lam.a1
    k = s + t
    L = len(p)
    ms = from_letters(lam, L, p)
    charges = [0] * s + [1] * t
    caps = charges
    cols = []
    for j in range(L - 1, -1, -1):
        col = _max_column(caps, ms[j], j % 2, k)
        if col is None:
            raise AssertionError(f"no admissible lift column at position {j}")
        cols.append(col)
        caps = col
    cols.reverse()
    diagrams = []
    for i in range(k):
        diagrams.append(
            ExtendedYoungDiagram.make(charges[i], [cols[j][i] for j in range(L)])
        )
    T = EYDTuple(tuple(diagrams))
    if pi(T, L) != ms:
        raise AssertionError("lift does not project back onto the path")
    return T
