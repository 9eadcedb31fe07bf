"""Extended Young diagrams, corner geometry and the crystal operators.

A diagram is an eventually-constant nondecreasing column sequence with
charge 0 or 1.  Box-adding (f-tilde) and box-removing (e-tilde) act on
charge-sorted k-tuples through the signature calculus: enumerate the
colored corners in falling (diagonal, tuple-position) order, cancel
adjacent concave/convex pairs, and flip the extremal relevant entry.

Each operator step costs about one diagram's worth of work, not k:

- Diagrams are value-interned: ``ExtendedYoungDiagram(charge, columns)``
  returns the one diagram of that value, so equal diagrams are one
  object.  Each diagram memoizes its own geometry: per tuple position,
  its signature entries of each color; per column, the diagram with one
  box added or removed there; and per window L, the parity row
  ``paths.pi`` reads.  Every step builds a fresh tuple, but its diagrams
  are shared, so a step reads these facts off the diagrams instead of
  hashing their columns again.  The memos hold tuples and interned
  diagrams only, so no caller can change a stored value.  They fill
  lazily and are unbounded: B_L(Lambda) has (k+1)^L vertices but far
  fewer distinct diagrams of width <= L.  No tuple-level or crystal-level
  result is cached, and an ``EYDTuple`` has no slot to hold one.
- A box move changes one entry v = y_j, column j of diagram p, by one,
  and the tuple it acts on was valid.  The inclusion rule is a set of
  inequalities within each column (nondecreasing down the tuple, last <=
  first + 2), so only those holding v can break.  Adding a box lowers v:
  it can only drop below the entry above it (diagram p - 1), or below
  last - 2 when p is the first diagram.  Removing a box raises v: it can
  only pass the entry below it (diagram p + 1), or first + 2 when p is
  the last diagram.  So ``_move`` makes one comparison, and only one
  message can apply.  ``EYDTuple(...)`` still checks every column, for
  every other caller.
- Since equal diagrams are one object, a diagram compares and hashes by
  identity, and an ``EYDTuple`` computes its hash once, from its
  diagrams'.  The canonical ``key()`` is no hash: CPython hashes -1 and
  -2 alike, and hashing the keys gave 3,803 distinct values over the
  15,625 vertices of B_6(2Lambda_0 + 2Lambda_1).
"""
from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .weights import Weight

CONCAVE = "concave"
CONVEX = "convex"


class Frozen:
    """An immutable value kept in ``__slots__``, whose ``_fields`` are its
    value: it equals only instances of its own class with equal fields,
    hashes, prints and pickles by them, and setting or deleting any
    attribute raises."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Corner(NamedTuple):
    m: int
    n: int
    shape: str
    diagonal: int
    color: int
    column: int  # the column whose depth changes when the corner is used


# every diagram made so far, by (charge, columns)
_DIAGRAMS: dict = {}


class ExtendedYoungDiagram(Frozen):
    """Column sequence stored as the sub-charge prefix plus the charge;
    value-interned, with its geometry memoized on it (module docstring)."""

    __slots__ = ("charge", "columns", "_entries", "_added", "_removed", "_rows")
    _fields = ("charge", "columns")
    # interned: equal diagrams are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, charge: int, columns: tuple[int, ...]):
        # a bool or a float equals an int but is not a depth
        if type(charge) is not int or charge not in (0, 1):
            raise ValueError("charge must be the int 0 or 1")
        columns = tuple(columns)
        prev = None
        for y in columns:
            if type(y) is not int:
                raise ValueError(f"column depth {y!r} is not an int")
            if y >= charge:
                raise ValueError("stored prefix must lie strictly below the charge")
            if prev is not None and y < prev:
                raise ValueError("column depths must be nondecreasing")
            prev = y
        Y = _DIAGRAMS.get((charge, columns))
        if Y is None:
            Y = _DIAGRAMS[charge, columns] = object.__new__(cls)
            for name, value in (
                ("charge", charge),
                ("columns", columns),
                ("_entries", {}),
                ("_added", {}),
                ("_removed", {}),
                ("_rows", {}),
            ):
                object.__setattr__(Y, name, value)
        return Y

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
        Y = self._added.get(column)
        if Y is None:
            Y = self._added[column] = self._moved(column, -1)
        return Y

    def remove_box(self, column: int) -> "ExtendedYoungDiagram":
        Y = self._removed.get(column)
        if Y is None:
            Y = self._removed[column] = self._moved(column, 1)
        return Y

    def _moved(self, column: int, step: int) -> "ExtendedYoungDiagram":
        """This diagram with column ``column`` moved by ``step``: -1 adds a
        box, +1 removes one."""
        if column < 0:  # a negative index would move a column counted from the end
            raise ValueError("column must be >= 0")
        cols = list(self.row(column + 1))
        cols[column] += step
        return ExtendedYoungDiagram.make(self.charge, cols)

    def signature_entries(self, position: int):
        """Per color, the signature entries of this diagram at a tuple
        position, as sorted ``(-diagonal, position, bit, column)`` tuples.

        Column j (up to the width, where the charge sits) has a concave
        corner on diagonal j + y_j when j = 0 or y_{j-1} < y_j, and the same
        condition gives the convex corner of column j - 1 on diagonal
        j + y_{j-1}; the color is the diagonal's parity and the bit is 0 for
        concave, 1 for convex.
        """
        per_color = self._entries.get(position)
        if per_color is None:
            out = ([], [])
            prev = None
            for j, y in enumerate(self.columns + (self.charge,)):
                if prev is None or prev < y:
                    out[(j + y) % 2].append((-j - y, position, 0, j))
                    if prev is not None:
                        out[(j + prev) % 2].append((-j - prev, position, 1, j - 1))
                prev = y
            per_color = self._entries[position] = (tuple(sorted(out[0])), tuple(sorted(out[1])))
        return per_color

    def parity_row(self, L: int) -> tuple[int, ...]:
        """Per column j < L, 1 if y_j + j is even, else 0: this diagram's
        share of the letters ``paths.pi`` reads off a window of length L."""
        row = self._rows.get(L)
        if row is None:
            if len(self.columns) > L:
                raise ValueError("window length L is smaller than a diagram width")
            row = self._rows[L] = tuple([1 - (y + j) % 2 for j, y in enumerate(self.row(L))])
        return row


class SignatureEntry(NamedTuple):
    bit: int  # 0 for concave, 1 for convex
    diagram: int  # 1-based position in the tuple
    diagonal: int
    column: int


_CONSECUTIVE = "inclusion rule violated between consecutive diagrams"
_SHIFTED = "inclusion rule violated against the shifted first diagram"


class EYDTuple(Frozen):
    __slots__ = ("diagrams", "_hash")
    _fields = ("diagrams",)

    def __init__(self, diagrams: tuple[ExtendedYoungDiagram, ...]):
        _set_diagrams(self, diagrams)
        self.__post_init__()

    def __post_init__(self):
        """The full check of every column; ``perfbench`` traces it by this
        name, as ``eyd.tuple_validate``."""
        charges = [Y.charge for Y in self.diagrams]
        if charges != sorted(charges):
            raise ValueError("diagram charges must be sorted (all 0s before all 1s)")
        if not self.diagrams:
            raise ValueError("tuple must contain at least one diagram")
        maxw = max(len(Y.columns) for Y in self.diagrams)
        for col in zip(*(Y.row(maxw + 1) for Y in self.diagrams)):
            if list(col) != sorted(col):
                raise ValueError(_CONSECUTIVE)
            if col[-1] > col[0] + 2:
                raise ValueError(_SHIFTED)
        _set_hash(self, hash(self.diagrams))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.diagrams == other.diagrams

    def __hash__(self) -> int:
        return self._hash

    def _move(self, index: int, column: int, step: int) -> "EYDTuple":
        """This tuple with one box moved in ``column`` of diagram ``index``:
        step -1 adds it and +1 removes it.  Only the one inequality the move
        can break is checked (module docstring), on the two depths ``y``
        reads in that column."""
        ds = self.diagrams
        # the rule it can break reads upper <= lower + shift in this column
        if step < 0:
            lower = Y = ds[index].add_box(column)
            if index:
                upper, shift, message = ds[index - 1], 0, _CONSECUTIVE
            else:
                upper, shift, message = ds[-1], 2, _SHIFTED
        else:
            upper = Y = ds[index].remove_box(column)
            if index < len(ds) - 1:
                lower, shift, message = ds[index + 1], 0, _CONSECUTIVE
            else:
                lower, shift, message = ds[0], 2, _SHIFTED
        # (a lone diagram meets its old self in the wrap, one apart, and passes)
        if upper.y(column) > lower.y(column) + shift:
            raise ValueError(message)
        ds = ds[:index] + (Y,) + ds[index + 1:]
        out = object.__new__(EYDTuple)
        _set_diagrams(out, ds)
        _set_hash(out, hash(ds))
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

    def key(self) -> tuple:
        """Canonical key on column sequences; vertices are listed in its order."""
        return tuple((Y.charge, Y.columns) for Y in self.diagrams)


# the slots' own setters, which Frozen.__setattr__ does not guard
_set_diagrams = EYDTuple.diagrams.__set__
_set_hash = EYDTuple._hash.__set__


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


_NEGATED_DIAGONAL = itemgetter(0)


def _unmatched(T: EYDTuple, i: int):
    """The reduced i-signature: the unmatched convex entries and the
    unmatched concave entries, each in signature order.

    The signature is every diagram's memoized entries sorted by falling
    diagonal, which reproduces the (d, j) order of ``i_signature``:
    diagonals are distinct within one diagram, each diagram's entries are
    in that order already, and the sort is stable, so entries on one
    diagonal keep their tuple-position order.
    """
    entries = []
    for pos, Y in enumerate(T.diagrams):
        entries += Y.signature_entries(pos)[i]
    entries.sort(key=_NEGATED_DIAGONAL)
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
    """Add one i-colored box at the leftmost relevant concave corner, the
    first unmatched concave entry, or None."""
    zeros = _unmatched(T, i)[1]
    return T._move(zeros[0][1], zeros[0][3], -1) if zeros else None


def e_tilde(i: int, T: EYDTuple):
    """Remove one i-colored box at the rightmost relevant convex corner, the
    last unmatched convex entry, or None."""
    ones = _unmatched(T, i)[0]
    return T._move(ones[-1][1], ones[-1][3], 1) if ones else None


def f_string(i: int, T: EYDTuple) -> list:
    """T, f-tilde_i T, f-tilde_i^2 T, ... to the last, when T is i-highest
    (epsilon_i(T) = 0); otherwise the empty list.

    One signature gives the whole string: f-tilde_i turns the leftmost
    unmatched 0 into an unmatched 1 and leaves the rest of the i-signature
    as it was (the corner argument is in the ``demazure`` module
    docstring), so f-tilde_i^n T adds the boxes of T's first n unmatched
    zeros, in order.  Each move still makes its inclusion check.
    """
    ones, zeros = _unmatched(T, i)
    if ones:
        return []
    string = [T]
    for e in zeros:
        T = T._move(e[1], e[3], -1)
        string.append(T)
    return string


def epsilon_i(T: EYDTuple, i: int) -> int:
    """Number of times e-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[0])


def phi_i(T: EYDTuple, i: int) -> int:
    """Number of times f-tilde_i applies before annihilating."""
    return len(_unmatched(T, i)[1])
