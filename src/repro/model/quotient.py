"""Equitable partitions of a sparse LP, and the LP on their quotient.

Colour refinement (Grohe, Kersting, Mladenov, Selman, "Dimension
Reduction via Colour Refinement", ESA 2014) applied to the constraint
matrix of ``max c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0``: rows
and columns are split into classes until, for every pair of classes,

* each row's sum over a column class is the same for every row of its
  row class, and
* each column's sum over a row class is the same for every column of
  its column class.

With ``b`` constant on row classes and ``c`` (and the bounds) constant
on column classes, the LP then has an optimum constant on column
classes: averaging any optimum over each class keeps it feasible and
optimal.  So the LP with one variable per column class and one row per
row class -- entry ``(R, C)`` the sum of row ``i``'s entries over ``C``
for any ``i`` in ``R`` -- has the same optimum, and a solution of it,
copied onto every column of each class, is feasible in the full LP.

:func:`refine` finds such a partition from *labels*: an integer per
matrix entry and initial colours per row and column, chosen by the
caller so that every entry's value is a function of its label and of
its column's class, whatever the numeric parameters of the solve.  The
refinement hashes multisets, so its output is a candidate, not a proof:
:meth:`Quotient.matrix` checks the class-sum tables of the actual values
before anything is solved on the quotient.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Partition", "Quotient", "classes", "trivial", "refine"]

# relative spread a class-sum table may show and still count as constant
_TOLERANCE = 1e-12


class Partition(NamedTuple):
    """Row and column classes, each numbered in order of its first member
    (the trivial partition numbers every row and column as itself)."""

    rows: np.ndarray  # (num rows,) class of each row
    cols: np.ndarray  # (num cols,) class of each column
    num_row_classes: int
    num_col_classes: int


def trivial(num_rows: int, num_cols: int) -> Partition:
    """Every row and every column its own class: always equitable."""
    return Partition(
        np.arange(num_rows), np.arange(num_cols), num_rows, num_cols
    )


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise (uint64 arithmetic wraps)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def classes(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Class of each position: equal key tuples share one, and classes are
    numbered in order of their first position."""
    n = len(keys[0])
    if n == 0:
        return np.zeros(0, np.int64)
    order = np.lexsort(keys[::-1])  # stable: a group starts at its least
    new = np.zeros(n, bool)
    new[0] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    group = np.cumsum(new) - 1
    rank = np.empty(int(group[-1]) + 1, np.int64)
    rank[np.argsort(order[new], kind="stable")] = np.arange(len(rank))
    out = np.empty(n, np.int64)
    out[order] = rank[group]
    return out


def _runs(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(order, start, keys, counts)``: ``order`` sorts the positions by
    ``key`` and ``start`` opens each key's run (both int32: a plan keeps
    them); ``keys`` and ``counts`` describe each run."""
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    start = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    counts = np.diff(np.r_[start, len(ranked)])
    return order.astype(np.int32), start.astype(np.int32), ranked[start], counts


class _Side:
    """The entries of one side (rows or columns), grouped by owner, for
    summing a hash per owner."""

    def __init__(self, owner: np.ndarray, size: int) -> None:
        self.order, self.start, self.owners, _ = _runs(owner)
        self.size = size

    def signature(self, key: np.ndarray) -> np.ndarray:
        """Per owner, the wrapped sum of the hashes of its entries' keys:
        a hash of the multiset of keys (0 for an owner with none)."""
        out = np.zeros(self.size, np.uint64)
        if len(key):
            out[self.owners] = np.add.reduceat(_mix(key)[self.order], self.start)
        return out


def refine(
    rows: np.ndarray,
    cols: np.ndarray,
    labels: np.ndarray,
    row_colour: np.ndarray,
    col_colour: np.ndarray,
) -> Partition:
    """The coarsest partition refining ``row_colour`` / ``col_colour`` in
    which every row of a class sees the same multiset of (entry label,
    column class) and every column of a class the same multiset of
    (entry label, row class) -- up to 64-bit hash collisions, which
    :meth:`Quotient.matrix` catches.  ``rows[e], cols[e], labels[e]`` is
    entry ``e``; a row or column may appear in several entries with one
    another (their values add up in the matrix)."""
    by_row = _Side(rows, len(row_colour))
    by_col = _Side(cols, len(col_colour))
    labels = labels.astype(np.int64)
    row_cls = classes([row_colour])
    col_cls = classes([col_colour])
    while True:
        width = int(col_cls.max(initial=0)) + 1
        new_rows = classes(
            [row_cls, by_row.signature(labels * width + col_cls[cols])]
        )
        width = int(new_rows.max(initial=0)) + 1
        new_cols = classes(
            [col_cls, by_col.signature(labels * width + new_rows[rows])]
        )
        stable = new_rows.max(initial=0) == row_cls.max(initial=0) and (
            new_cols.max(initial=0) == col_cls.max(initial=0)
        )
        row_cls, col_cls = new_rows, new_cols
        if stable:  # a refinement with as many classes is the same one
            return Partition(
                row_cls,
                col_cls,
                int(row_cls.max(initial=-1)) + 1,
                int(col_cls.max(initial=-1)) + 1,
            )


def _constant(
    values: np.ndarray,
    runs: Tuple[np.ndarray, np.ndarray],
    zero_too: Optional[np.ndarray] = None,
) -> bool:
    """Is ``values`` the same on every run of ``runs = (order, start)``
    -- and 0, on the runs flagged ``zero_too`` (those with an absent
    member)?"""
    order, start = runs
    ranked = values[order]
    lo = np.minimum.reduceat(ranked, start)
    hi = np.maximum.reduceat(ranked, start)
    if zero_too is not None:
        lo = np.where(zero_too, np.minimum(lo, 0.0), lo)
        hi = np.where(zero_too, np.maximum(hi, 0.0), hi)
    return bool(
        np.all(hi - lo <= _TOLERANCE * np.maximum(np.abs(lo), np.abs(hi)))
    )


class _SumTable:
    """Each owner's sum over each class of the other side (a row's over
    column classes, or a column's over row classes), and those sums
    grouped by (owner's class, other class).  With ``firsts``, ``first``
    indexes the sums of the first owner of each class, ``first_cls`` /
    ``first_other`` the two classes of each."""

    def __init__(
        self,
        owner: np.ndarray,
        owner_cls: np.ndarray,
        other_cls: np.ndarray,
        num_other: int,
        firsts: bool = False,
    ) -> None:
        at, inv = np.unique(owner * num_other + other_cls, return_inverse=True)
        self.size = len(at)
        self.inv = inv.astype(np.int32)
        head, tail = at // num_other, at % num_other
        order, start, block, count = _runs(owner_cls[head] * num_other + tail)
        self.blocks = order, start
        # an owner of the class with no entry in the block sums to 0
        self.missing = count < np.bincount(owner_cls)[block // num_other]
        if firsts:
            by_cls, cls_start, cls_key, _ = _runs(owner_cls)
            first_owner = np.zeros(int(cls_key[-1]) + 1, np.int64)
            first_owner[cls_key] = by_cls[cls_start]  # a stable sort's first
            first = np.flatnonzero(head == first_owner[owner_cls[head]])
            self.first = first.astype(np.int32)
            self.first_cls = owner_cls[head[first]].astype(np.int32)
            self.first_other = tail[first].astype(np.int32)

    def sums(self, vals: np.ndarray) -> np.ndarray:
        return np.bincount(self.inv, vals, self.size)

    def constant(self, sums: np.ndarray) -> bool:
        return _constant(sums, self.blocks, self.missing)


class Quotient:
    """A partition of an LP's rows and columns over the matrix's sparsity
    pattern ``(rows, cols)``: checks the partition against each set of
    values and builds the quotient matrix, from tables computed once.

    The quotient has a row per row class and a column per column class;
    its entry ``(R, C)`` -- at ``(q_rows, q_cols)`` -- is the sum over
    ``C`` of the first row of ``R``: for an equitable partition, of any
    row of ``R``.
    """

    def __init__(
        self,
        part: Partition,
        rows: np.ndarray,
        cols: np.ndarray,
        num_rows: int,
        num_cols: int,
    ) -> None:
        self.part = part
        self.valid = all(
            len(cls) == size and (size == 0 or 0 <= cls.min() <= cls.max() < num)
            for cls, size, num in (
                (part.rows, num_rows, part.num_row_classes),
                (part.cols, num_cols, part.num_col_classes),
            )
        ) and num_rows > 0 and num_cols > 0
        if not self.valid:
            return
        self._by_row = _SumTable(
            rows, part.rows, part.cols[cols], part.num_col_classes, firsts=True
        )
        self._by_col = _SumTable(
            cols, part.cols, part.rows[rows], part.num_row_classes
        )
        self._row_runs = _runs(part.rows)[:2]
        self._col_runs = _runs(part.cols)[:2]
        self.q_rows = self._by_row.first_cls
        self.q_cols = self._by_row.first_other

    def matrix(
        self,
        vals: np.ndarray,
        row_values: Sequence[np.ndarray],
        col_values: Sequence[np.ndarray],
    ) -> Optional[np.ndarray]:
        """The quotient's entries at ``(q_rows, q_cols)`` for the values
        ``vals``, or ``None`` unless the partition is equitable for them
        -- checked from its class-sum tables, to a relative 1e-12 -- with
        each of ``row_values`` (right-hand sides, row kinds) and
        ``col_values`` (costs, bounds) constant on its classes."""
        if not self.valid:
            return None
        row_sums = self._by_row.sums(vals)
        if not (
            all(_constant(v, self._row_runs) for v in row_values)
            and all(_constant(v, self._col_runs) for v in col_values)
            and self._by_row.constant(row_sums)
            and self._by_col.constant(self._by_col.sums(vals))
        ):
            return None
        return row_sums[self._by_row.first]
