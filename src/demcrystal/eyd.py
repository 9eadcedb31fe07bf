"""Extended Young diagrams, corner geometry and the crystal operators.

A diagram is an eventually-constant nondecreasing column sequence with
charge 0 or 1.  Box-adding (f-tilde) and box-removing (e-tilde) act on
charge-sorted k-tuples through the signature calculus: enumerate the
colored corners in falling (diagonal, tuple-position) order, cancel
adjacent concave/convex pairs, and flip the extremal relevant entry.

Each operator step costs about one diagram's worth of work, not k:

- ``_corner_entries(position, charge, columns)`` caches, per color, the
  signature entries of one diagram at one tuple position, and
  ``_box_move(charge, columns, column, step)`` caches the diagram with one
  box added or removed in one column.  Both are keyed on the diagram's
  value, not on an instance, because every step builds a fresh tuple, and
  they hold tuples and frozen diagrams only, so no caller can change a
  cached value.  They fill lazily and are unbounded: B_L(Lambda) has
  (k+1)^L vertices but far fewer distinct diagrams of width <= L.  No
  tuple-level or crystal-level result is cached.
- A box move changes column j of one diagram and nothing else, and the
  tuple it acts on was valid.  The inclusion rule is a condition on each
  column by itself (nondecreasing down the tuple, last <= first + 2), the
  other columns keep their depths and the charges are unchanged, so
  checking column j alone is the full check.  ``EYDTuple(...)`` still
  checks every column, for every other caller.
- A diagram computes its hash once, from its negated depths, and an
  ``EYDTuple`` once, from its diagrams' hashes.  The canonical ``key()``
  is no hash: CPython hashes -1 and -2 alike, and hashing the keys gave
  3,803 distinct values over the 15,625 vertices of B_6(2Lambda_0 +
  2Lambda_1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .weights import Weight

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
        # a bool or a float equals an int but is not a depth
        if type(self.charge) is not int or self.charge not in (0, 1):
            raise ValueError("charge must be the int 0 or 1")
        prev = None
        for y in self.columns:
            if type(y) is not int:
                raise ValueError(f"column depth {y!r} is not an int")
            if y >= self.charge:
                raise ValueError("stored prefix must lie strictly below the charge")
            if prev is not None and y < prev:
                raise ValueError("column depths must be nondecreasing")
            prev = y
        # the negated depths are >= 0 and each hashes to itself
        object.__setattr__(self, "_hash", hash((self.charge,) + tuple(-y for y in self.columns)))

    def __hash__(self) -> int:
        return self._hash

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
            # node tops run over j + yj + 1 .. j + charge; the white ones are even
            evens = (j + self.charge) // 2 - (j + yj) // 2
            k0 += evens
            k1 += self.charge - yj - evens
        return k0, k1

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
        return _box_move(self.charge, self.columns, column, -1)

    def remove_box(self, column: int) -> "ExtendedYoungDiagram":
        return _box_move(self.charge, self.columns, column, 1)

    def to_json_obj(self) -> dict:
        return {"charge": self.charge, "columns": list(self.columns)}

    @classmethod
    def from_json_obj(cls, obj) -> "ExtendedYoungDiagram":
        return cls.make(obj["charge"], obj["columns"])


@lru_cache(maxsize=None)
def _box_move(charge: int, columns: tuple[int, ...], column: int, step: int) -> ExtendedYoungDiagram:
    """The diagram (charge, columns) with column ``column`` moved by ``step``:
    -1 adds a box, +1 removes one."""
    if column < 0:  # a negative index would move a column counted from the end
        raise ValueError("column must be >= 0")
    cols = list(columns) + [charge] * (column + 1 - len(columns))
    cols[column] += step
    return ExtendedYoungDiagram.make(charge, cols)


@dataclass(frozen=True)
class SignatureEntry:
    bit: int  # 0 for concave, 1 for convex
    diagram: int  # 1-based position in the tuple
    diagonal: int
    column: int


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
            _check_inclusion(list(col))
        object.__setattr__(self, "_hash", hash(self.diagrams))

    def __hash__(self) -> int:
        return self._hash

    def _with_move(self, index: int, Y: ExtendedYoungDiagram, column: int) -> "EYDTuple":
        """This tuple with diagram ``index`` set to ``Y``, one box move away
        from it in ``column``; only that column is checked (module docstring)."""
        ds = self.diagrams[:index] + (Y,) + self.diagrams[index + 1:]
        _check_inclusion([D.columns[column] if column < len(D.columns) else D.charge for D in ds])
        out = object.__new__(EYDTuple)
        # the frozen dataclass blocks __setattr__, not its instance dict
        out.__dict__.update(diagrams=ds, _hash=hash(ds))
        return out

    @classmethod
    def vacuum(cls, s: int, t: int) -> "EYDTuple":
        return cls(
            tuple(ExtendedYoungDiagram.empty(0) for _ in range(s))
            + tuple(ExtendedYoungDiagram.empty(1) for _ in range(t))
        )

    def weight(self) -> Weight:
        """Lambda minus the colored nodes: the sum over the diagrams of
        Lambda_charge - k0 alpha_0 - k1 alpha_1, with alpha_0 = (2, -2, 1)
        and alpha_1 = (-2, 2, 0)."""
        t = k0 = k1 = 0
        for Y in self.diagrams:
            y0, y1 = Y.node_counts()
            t += Y.charge
            k0 += y0
            k1 += y1
        return Weight(len(self.diagrams) - t - 2 * (k0 - k1), t + 2 * (k0 - k1), -k0)

    def widths(self) -> tuple[int, ...]:
        return tuple([len(Y.columns) for Y in self.diagrams])

    def to_json_obj(self) -> list:
        return [Y.to_json_obj() for Y in self.diagrams]

    @classmethod
    def from_json_obj(cls, obj) -> "EYDTuple":
        return cls(tuple(ExtendedYoungDiagram.from_json_obj(o) for o in obj))

    def key(self) -> tuple:
        """Canonical key on column sequences; vertices are listed in its order."""
        return tuple((Y.charge, Y.columns) for Y in self.diagrams)


def _check_inclusion(col: list[int]) -> None:
    """The inclusion rule on one column: its depths y_j, in tuple order."""
    if col != sorted(col):
        raise ValueError("inclusion rule violated between consecutive diagrams")
    if col[-1] > col[0] + 2:
        raise ValueError("inclusion rule violated against the shifted first diagram")


def i_signature(T: EYDTuple, i: int) -> list[SignatureEntry]:
    """The i-signature: 0 per concave and 1 per convex i-corner, ordered by
    (d, j) > (d', j') iff d > d' or (d = d' and j < j')."""
    entries = []
    for pos, Y in enumerate(T.diagrams, start=1):
        for c in Y.corners():
            if c.color == i:
                bit = 0 if c.shape == CONCAVE else 1
                entries.append(SignatureEntry(bit, pos, c.diagonal, c.column))
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


@lru_cache(maxsize=None)
def _corner_entries(position: int, charge: int, columns: tuple[int, ...]):
    """Per color, the signature entries of one diagram at a tuple position,
    as sorted ``(-diagonal, position, bit, column)`` tuples.

    Column j (up to the width, where the charge sits) has a concave corner
    on diagonal j + y_j when j = 0 or y_{j-1} < y_j, and the same condition
    gives the convex corner of column j - 1 on diagonal j + y_{j-1}; the
    color is the diagonal's parity and the bit is 0 for concave, 1 for
    convex.
    """
    out = ([], [])
    prev = None
    for j, y in enumerate(columns + (charge,)):
        if prev is None or prev < y:
            out[(j + y) % 2].append((-j - y, position, 0, j))
            if prev is not None:
                out[(j + prev) % 2].append((-j - prev, position, 1, j - 1))
        prev = y
    return tuple(sorted(out[0])), tuple(sorted(out[1]))


def _unmatched(T: EYDTuple, i: int):
    """The reduced i-signature from each diagram's cached corner entries.

    Sorting the entries reproduces the (d, j) order of ``i_signature``:
    diagonals are distinct within one diagram.  Returns the unmatched
    convex entries and the unmatched concave entries, each in signature
    order.
    """
    entries = []
    for pos, Y in enumerate(T.diagrams):
        entries += _corner_entries(pos, Y.charge, Y.columns)[i]
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
    return T._with_move(pos, T.diagrams[pos].add_box(column), column)


def e_tilde(i: int, T: EYDTuple):
    """Remove one i-colored box at the rightmost relevant convex corner, or None."""
    ones = _unmatched(T, i)[0]
    if not ones:
        return None
    _, pos, _, column = ones[-1]
    return T._with_move(pos, T.diagrams[pos].remove_box(column), column)


def epsilon_i(T: EYDTuple, i: int) -> int:
    """Number of times e-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[0])


def phi_i(T: EYDTuple, i: int) -> int:
    """Number of times f-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[1])
