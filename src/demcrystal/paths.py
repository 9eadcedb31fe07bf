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
"""
from __future__ import annotations

from itertools import product

from .eyd import ExtendedYoungDiagram, EYDTuple
from .weights import Weight


def ground_state_path(lam: Weight, L: int) -> tuple[int, ...]:
    """The letters (s, t, s, ...) of the ground-state path of length L."""
    if not lam.is_dominant():
        raise ValueError("ground-state path requires a dominant weight")
    return tuple(lam.a1 if j % 2 else lam.a0 for j in range(L))


def from_letters(lam: Weight, L: int, letters) -> tuple[int, ...]:
    """Path in P_L(Lambda) with prescribed free letters m_0 .. m_{L-1}."""
    letters = tuple(letters)
    if len(letters) != L:
        raise ValueError(f"expected {L} free letters, got {len(letters)}")
    k = lam.level
    for m in letters:
        if not (isinstance(m, int) and 0 <= m <= k):
            raise ValueError(f"letter {m} is not allowed at level {k}")
    return letters


def h_local(k: int, m: int, m2: int) -> int:
    """Local energy H = max(k - m, m')."""
    return max(k - m, m2)


def energy(p: tuple[int, ...], lam: Weight) -> int:
    """Weighted sum of local-energy differences against the ground state,
    with the forced letter m_L = g_L appended to both words."""
    k = lam.level
    L = len(p)
    gs = ground_state_path(lam, L + 1)
    ms = p + gs[L:]
    total = 0
    for j in range(1, L + 1):
        total += j * (h_local(k, ms[j - 1], ms[j]) - h_local(k, gs[j - 1], gs[j]))
    return total


def _start_coefficient(p: tuple[int, ...], lam: Weight) -> int:
    """The Lambda_0-coefficient of p_0, read off the letters."""
    end = lam.a1 if len(p) % 2 else lam.a0
    return end - sum(lam.level - 2 * m for m in p)


def path_weight(p: tuple[int, ...], lam: Weight) -> Weight:
    a = _start_coefficient(p, lam)
    return Weight(a, lam.level - a, -energy(p, lam))


def z_exponent(p: tuple[int, ...], lam: Weight) -> int:
    """The j with p_0 = Lambda + j alpha_1; z-grading uses z^{-j}."""
    x = lam.a0 - _start_coefficient(p, lam)
    if x % 2 != 0:
        raise ValueError("p_0 does not lie on Lambda + Z alpha_1")
    return x // 2


def epsilon_L(L: int) -> int:
    """Parity marker: 0 for even L, 1 for odd L."""
    return L % 2


def ground_state_H_sum(lam: Weight, L: int) -> int:
    """Closed form for the absolute ground-state energy sum."""
    s = lam.a0
    k = lam.level
    e = epsilon_L(L)
    half = (L + e) // 2
    return half * half * k + (-1) ** e * half * s


def ground_state_H_sum_direct(lam: Weight, L: int) -> int:
    """Direct summation oracle for the same quantity, over the ground-state
    letters g_0 .. g_L."""
    k = lam.level
    gs = ground_state_path(lam, L + 1)
    return sum(j * h_local(k, gs[j - 1], gs[j]) for j in range(1, L + 1))


def enumerate_paths(lam: Weight, L: int):
    """All of P_L(Lambda): every word of L free letters."""
    if not lam.is_dominant():
        raise ValueError("path enumeration requires a dominant weight")
    return product(range(lam.level + 1), repeat=L)


# -- patterns and lifts -------------------------------------------------------

def pi(T: EYDTuple, L: int | None = None) -> tuple[int, ...]:
    """Project a pattern to its path: column j contributes the letter
    counting the diagrams with t_{ij} + j even."""
    lam = T.highest_weight()
    if L is None:
        L = max(Y.width for Y in T.diagrams)
    if any(Y.width > L for Y in T.diagrams):
        raise ValueError("window length L is smaller than a diagram width")
    columns = zip(*(Y.row(L) for Y in T.diagrams))
    letters = [sum(1 for y in col if (y + j) % 2 == 0) for j, col in enumerate(columns)]
    return from_letters(lam, L, letters)


def _max_column(caps, m: int, parity: int, k: int):
    """Componentwise-maximal nondecreasing column (a_1..a_k) with
    a_k <= a_1 + 2, a_i <= caps[i], and exactly m entries of the given
    parity.  Returns None when no valid column exists."""
    best = None
    found = []
    for a1 in range(caps[0], caps[0] - 4, -1):
        ceiling = [min(c, a1 + 2) for c in caps]
        if any(c < a1 for c in ceiling):
            continue

        def rec(i, prev, cnt, acc):
            if cnt > m or cnt + (k - i) < m:
                return
            if i == k:
                found.append(tuple(acc))
                return
            for v in range(ceiling[i], prev - 1, -1):
                rec(i + 1, v, cnt + (1 if v % 2 == parity else 0), acc + [v])

        rec(1, a1, 1 if a1 % 2 == parity else 0, [a1])
    if not found:
        return None
    best = tuple(max(col[i] for col in found) for i in range(k))
    if best not in found:
        raise AssertionError("column-wise maximum is not itself a valid column")
    return best


def highest_lift(p: tuple[int, ...], lam: Weight) -> EYDTuple:
    """The column-wise maximal normalized lift of p.

    Built greedily right to left: beyond the window the pattern sits at
    the charges, and each column takes the componentwise-maximal value
    compatible with its right neighbor, the inclusion chain and the step
    letter of the path.
    """
    s, t = lam.a0, lam.a1
    k = s + t
    L = len(p)
    ms = from_letters(lam, L, p)
    caps = [0] * s + [1] * t
    cols = []
    for j in range(L - 1, -1, -1):
        col = _max_column(caps, ms[j], j % 2, k)
        if col is None:
            raise AssertionError(f"no admissible lift column at position {j}")
        cols.append(col)
        caps = list(col)
    cols.reverse()
    charges = [0] * s + [1] * t
    diagrams = []
    for i in range(k):
        diagrams.append(
            ExtendedYoungDiagram.make(charges[i], [cols[j][i] for j in range(L)])
        )
    T = EYDTuple(tuple(diagrams))
    if pi(T, L) != ms:
        raise AssertionError("lift does not project back onto the path")
    return T
