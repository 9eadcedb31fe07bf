"""Extended Young diagrams, corner geometry and the crystal operators.

A diagram is an eventually-constant nondecreasing column sequence with
charge 0 or 1.  Box-adding (f-tilde) and box-removing (e-tilde) act on
charge-sorted k-tuples through the signature calculus: enumerate the
colored corners in falling (diagonal, tuple-position) order, cancel
adjacent concave/convex pairs, and flip the extremal relevant entry.
"""
from __future__ import annotations

from dataclasses import dataclass

from .weights import ALPHA0, ALPHA1, Weight, fundamental

CONCAVE = "concave"
CONVEX = "convex"


@dataclass(frozen=True)
class Corner:
    m: int
    n: int
    shape: str
    diagonal: int
    color: int
    column: int  # the column whose depth changes when the corner is used


@dataclass(frozen=True)
class ExtendedYoungDiagram:
    """Column sequence stored as the sub-charge prefix plus the charge."""

    charge: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if self.charge not in (0, 1):
            raise ValueError("charge must be 0 or 1")
        prev = None
        for y in self.columns:
            if y >= self.charge:
                raise ValueError("stored prefix must lie strictly below the charge")
            if prev is not None and y < prev:
                raise ValueError("column depths must be nondecreasing")
            prev = y

    @classmethod
    def make(cls, charge: int, columns) -> "ExtendedYoungDiagram":
        """Build from any finite prefix, trimming stabilized columns."""
        cols = list(columns)
        while cols and cols[-1] == charge:
            cols.pop()
        return cls(charge, tuple(cols))

    @classmethod
    def empty(cls, charge: int) -> "ExtendedYoungDiagram":
        return cls(charge, ())

    def y(self, j: int) -> int:
        return self.columns[j] if j < len(self.columns) else self.charge

    def row(self, n: int) -> tuple[int, ...]:
        """(y_0, ..., y_{n-1}) for n >= width: the columns padded with the charge."""
        return self.columns + (self.charge,) * (n - len(self.columns))

    @property
    def width(self) -> int:
        return len(self.columns)

    def node_counts(self) -> tuple[int, int]:
        """(white, black) node counts; node at column j, cell top n has d = j + n."""
        k0 = k1 = 0
        for j, yj in enumerate(self.columns):
            # node tops run over j + yj + 1 .. j + charge
            lo = j + yj + 1
            hi = j + self.charge
            total = hi - lo + 1
            evens = len(range(lo + (lo % 2), hi + 1, 2))
            k0 += evens
            k1 += total - evens
        return k0, k1

    def weight(self) -> Weight:
        k0, k1 = self.node_counts()
        return fundamental(self.charge) - k0 * ALPHA0 - k1 * ALPHA1

    def corners(self) -> list[Corner]:
        """All concave (box-addable) and convex (box-removable) corners.

        A column j accepts a box when j = 0 or y_{j-1} < y_j; this
        includes the corner at the right end of the first row, which is
        the growth site used by the crystal operators.  Sorted by
        decreasing diagonal (diagonals are distinct within one diagram).
        """
        out = []
        w = self.width
        for j in range(w + 1):
            if j == 0 or self.y(j - 1) < self.y(j):
                d = j + self.y(j)
                out.append(Corner(j, self.y(j), CONCAVE, d, d % 2, j))
        for j in range(w):
            if self.y(j) < self.y(j + 1):
                d = j + 1 + self.y(j)
                out.append(Corner(j + 1, self.y(j), CONVEX, d, d % 2, j))
        out.sort(key=lambda c: -c.diagonal)
        return out

    def add_box(self, column: int) -> "ExtendedYoungDiagram":
        cols = list(self.columns)
        while len(cols) <= column:
            cols.append(self.charge)
        cols[column] -= 1
        return ExtendedYoungDiagram.make(self.charge, cols)

    def remove_box(self, column: int) -> "ExtendedYoungDiagram":
        cols = list(self.columns)
        cols[column] += 1
        return ExtendedYoungDiagram.make(self.charge, cols)

    def to_json_obj(self) -> dict:
        return {"charge": self.charge, "columns": list(self.columns)}

    @classmethod
    def from_json_obj(cls, obj) -> "ExtendedYoungDiagram":
        return cls.make(int(obj["charge"]), obj["columns"])


@dataclass(frozen=True)
class SignatureEntry:
    bit: int  # 0 for concave, 1 for convex
    diagram: int  # 1-based position in the tuple
    diagonal: int
    column: int
    shape: str


@dataclass(frozen=True)
class EYDTuple:
    diagrams: tuple[ExtendedYoungDiagram, ...]

    def __post_init__(self):
        charges = [Y.charge for Y in self.diagrams]
        if charges != sorted(charges):
            raise ValueError("diagram charges must be sorted (all 0s before all 1s)")
        if not self.diagrams:
            raise ValueError("tuple must contain at least one diagram")
        maxw = max(len(Y.columns) for Y in self.diagrams)
        for col in zip(*(Y.row(maxw + 1) for Y in self.diagrams)):
            for a, b in zip(col, col[1:]):
                if a > b:
                    raise ValueError("inclusion rule violated between consecutive diagrams")
            if col[-1] > col[0] + 2:
                raise ValueError("inclusion rule violated against the shifted first diagram")

    @classmethod
    def vacuum(cls, s: int, t: int) -> "EYDTuple":
        return cls(
            tuple(ExtendedYoungDiagram.empty(0) for _ in range(s))
            + tuple(ExtendedYoungDiagram.empty(1) for _ in range(t))
        )

    @property
    def k(self) -> int:
        return len(self.diagrams)

    @property
    def s(self) -> int:
        return sum(1 for Y in self.diagrams if Y.charge == 0)

    @property
    def t(self) -> int:
        return sum(1 for Y in self.diagrams if Y.charge == 1)

    def highest_weight(self) -> Weight:
        return self.s * fundamental(0) + self.t * fundamental(1)

    def weight(self) -> Weight:
        out = Weight(0, 0, 0)
        for Y in self.diagrams:
            out = out + Y.weight()
        return out

    def widths(self) -> tuple[int, ...]:
        return tuple(Y.width for Y in self.diagrams)

    def is_vacuum(self) -> bool:
        return all(Y.width == 0 for Y in self.diagrams)

    def replace(self, index: int, Y: ExtendedYoungDiagram) -> "EYDTuple":
        ds = list(self.diagrams)
        ds[index] = Y
        return EYDTuple(tuple(ds))

    def to_json_obj(self) -> list:
        return [Y.to_json_obj() for Y in self.diagrams]

    @classmethod
    def from_json_obj(cls, obj) -> "EYDTuple":
        return cls(tuple(ExtendedYoungDiagram.from_json_obj(o) for o in obj))

    def key(self) -> tuple:
        """Canonical hashable key on column sequences, for fast set work."""
        return tuple((Y.charge, Y.columns) for Y in self.diagrams)


def i_signature(T: EYDTuple, i: int) -> list[SignatureEntry]:
    """The i-signature: 0 per concave and 1 per convex i-corner, ordered by
    (d, j) > (d', j') iff d > d' or (d = d' and j < j')."""
    entries = []
    for pos, Y in enumerate(T.diagrams, start=1):
        for c in Y.corners():
            if c.color == i:
                bit = 0 if c.shape == CONCAVE else 1
                entries.append(SignatureEntry(bit, pos, c.diagonal, c.column, c.shape))
    entries.sort(key=lambda e: (-e.diagonal, e.diagram))
    return entries


def reduce_signature(bits) -> list[int]:
    """Indices of the relevant entries after cancelling adjacent (0, 1) pairs.

    Equivalent to bracket matching with 0 as opener and 1 as closer; the
    surviving subword always reads 1...10...0.
    """
    stack: list[int] = []
    relevant: list[int] = []
    for idx, b in enumerate(bits):
        if b == 0:
            stack.append(idx)
        elif stack:
            stack.pop()
        else:
            relevant.append(idx)
    relevant.extend(stack)
    relevant.sort()
    return relevant


def _unmatched(T: EYDTuple, i: int):
    """The reduced i-signature in one pass over each diagram's columns.

    Emits plain ``(-diagonal, position, bit, column)`` tuples, so sorting
    reproduces the (d, j) order of ``i_signature``: diagonals are distinct
    within one diagram.  Column j (up to the width, where the charge sits)
    has a concave corner on diagonal j + y_j when j = 0 or y_{j-1} < y_j,
    and the same condition gives the convex corner of column j - 1 on
    diagonal j + y_{j-1}; the color is the diagonal's parity.  Returns the
    unmatched convex entries and the unmatched concave entries, each in
    signature order.
    """
    entries = []
    for pos, Y in enumerate(T.diagrams):
        prev = None
        for j, y in enumerate(Y.columns + (Y.charge,)):
            if prev is None or prev < y:
                if (j + y) % 2 == i:
                    entries.append((-j - y, pos, 0, j))
                if prev is not None and (j + prev) % 2 == i:
                    entries.append((-j - prev, pos, 1, j - 1))
            prev = y
    entries.sort()
    ones, zeros = [], []
    for e in entries:
        if e[2] == 0:
            zeros.append(e)
        elif zeros:
            zeros.pop()
        else:
            ones.append(e)
    return ones, zeros


def f_tilde(i: int, T: EYDTuple):
    """Add one i-colored box at the leftmost relevant concave corner, or None."""
    zeros = _unmatched(T, i)[1]
    if not zeros:
        return None
    _, pos, _, column = zeros[0]
    return T.replace(pos, T.diagrams[pos].add_box(column))


def e_tilde(i: int, T: EYDTuple):
    """Remove one i-colored box at the rightmost relevant convex corner, or None."""
    ones = _unmatched(T, i)[0]
    if not ones:
        return None
    _, pos, _, column = ones[-1]
    return T.replace(pos, T.diagrams[pos].remove_box(column))


def epsilon_i(T: EYDTuple, i: int) -> int:
    """Number of times e-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[0])


def phi_i(T: EYDTuple, i: int) -> int:
    """Number of times f-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[1])
