"""Paths on level-k weights: encoding, energy, enumeration and lifts.

A length-L path is pinned to the ground-state boundary at positions L
and L+1, so the step letters m_0 .. m_{L-1} are free and m_L is forced.
The highest lift realizes a path as the column-wise maximal k-tuple of
extended Young diagrams projecting onto it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .eyd import ExtendedYoungDiagram, EYDTuple
from .weights import DELTA, Weight


def step(k: int, m: int) -> Weight:
    """p_{i+1} - p_i for the letter m*eps_0 + (k-m)*eps_1.

    With 0-hat = Lambda_1 - Lambda_0 and 1-hat = Lambda_0 - Lambda_1, the
    step m*0-hat + (k-m)*1-hat collapses to (k-2m)(Lambda_0 - Lambda_1).
    """
    return Weight(k - 2 * m, 2 * m - k, 0)


@dataclass(frozen=True)
class Path:
    """Sequence (p_0, ..., p_{L+1}) of level-k weights with zero delta part."""

    points: tuple[Weight, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a path needs at least the two boundary weights")
        pts = self.points
        k = pts[0].a0 + pts[0].a1
        for p in pts:
            if p.a0 + p.a1 != k or p.d != 0:
                raise ValueError("path weights must share one level and carry no delta")
        for a, b in zip(pts, pts[1:]):
            m, odd = divmod(k - (b.a0 - a.a0), 2)
            if odd or not 0 <= m <= k:
                raise ValueError(f"step {b - a} is not an allowed letter at level {k}")

    @property
    def L(self) -> int:
        return len(self.points) - 2

    @property
    def k(self) -> int:
        return self.points[0].level


def iota(p: Path) -> tuple[int, ...]:
    """Step letters m_0 .. m_L; together with p_0 they determine the path."""
    k = p.k
    pts = p.points
    return tuple((k - b.a0 + a.a0) // 2 for a, b in zip(pts, pts[1:]))


def boundary_weight(lam: Weight, i: int) -> Weight:
    """s Lambda_i + t Lambda_{i+1} for Lambda = s Lambda_0 + t Lambda_1."""
    return Weight(lam.a0, lam.a1, 0) if i % 2 == 0 else Weight(lam.a1, lam.a0, 0)


def ground_state_path(lam: Weight, L: int) -> Path:
    if not lam.is_dominant():
        raise ValueError("ground-state path requires a dominant weight")
    return Path(tuple(boundary_weight(lam, i) for i in range(L + 2)))


def from_letters(lam: Weight, L: int, letters) -> Path:
    """Path in P_L(Lambda) with prescribed free letters m_0 .. m_{L-1}."""
    letters = tuple(letters)
    if len(letters) != L:
        raise ValueError(f"expected {L} free letters, got {len(letters)}")
    k = lam.level
    # p_j = (a, k - a, 0), and letter m moves a by step(k, m).a0 = k - 2m
    a = boundary_weight(lam, L).a0
    a0s = [boundary_weight(lam, L + 1).a0, a]
    for m in reversed(letters):
        a -= k - 2 * m
        a0s.append(a)
    return Path(tuple(Weight(a, k - a, 0) for a in reversed(a0s)))


def in_path_set(p: Path, lam: Weight, L: int) -> bool:
    """Membership in P_L(Lambda): boundary condition at positions L, L+1."""
    return (
        p.L == L
        and p.points[L] == boundary_weight(lam, L)
        and p.points[L + 1] == boundary_weight(lam, L + 1)
    )


def h_local(k: int, m: int, m2: int) -> int:
    """Local energy H = max(k - m, m')."""
    return max(k - m, m2)


def energy(p: Path, lam: Weight) -> int:
    """Weighted sum of local-energy differences against the ground state."""
    k = lam.level
    ms = iota(p)
    gs = iota(ground_state_path(lam, p.L))
    total = 0
    for j in range(1, p.L + 1):
        total += j * (h_local(k, ms[j - 1], ms[j]) - h_local(k, gs[j - 1], gs[j]))
    return total


def path_weight(p: Path, lam: Weight) -> Weight:
    return p.points[0] - energy(p, lam) * DELTA


def z_exponent(p: Path, lam: Weight) -> int:
    """The j with p_0 = Lambda + j alpha_1; z-grading uses z^{-j}."""
    x = p.points[0] - lam
    if x.a1 % 2 != 0 or x.a0 != -x.a1:
        raise ValueError("p_0 does not lie on Lambda + Z alpha_1")
    return x.a1 // 2


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
    """Direct summation oracle for the same quantity."""
    k = lam.level
    gs = iota(ground_state_path(lam, L))
    return sum(j * h_local(k, gs[j - 1], gs[j]) for j in range(1, L + 1))


def enumerate_paths(lam: Weight, L: int):
    """All of P_L(Lambda): one path per choice of the L free letters."""
    if not lam.is_dominant():
        raise ValueError("path enumeration requires a dominant weight")
    k = lam.level
    for letters in product(range(k + 1), repeat=L):
        yield from_letters(lam, L, letters)


# -- patterns and lifts -------------------------------------------------------

def pi(T: EYDTuple, L: int | None = None) -> Path:
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


def highest_lift(p: Path, lam: Weight) -> EYDTuple:
    """The column-wise maximal normalized lift of p.

    Built greedily right to left: beyond the window the pattern sits at
    the charges, and each column takes the componentwise-maximal value
    compatible with its right neighbor, the inclusion chain and the step
    letter of the path.
    """
    s, t = lam.a0, lam.a1
    k = s + t
    L = p.L
    if not in_path_set(p, lam, L):
        raise ValueError("path does not satisfy the P_L(Lambda) boundary condition")
    ms = iota(p)
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
    if iota(pi(T, L)) != ms:
        raise AssertionError("lift does not project back onto the path")
    return T
