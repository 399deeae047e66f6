"""Young diagrams, semistandard tableaux, Kostka numbers, and tableau polynomials.

A diagram is a weakly decreasing tuple of positive integers (trailing zeros
are stripped on normalization).  A semistandard tableau of shape D and
content mu has mu[t-1] entries equal to t, rows weakly increasing and columns
strictly increasing.

Each tableau T yields two polynomials on an n-by-k variable matrix:

* m_T, the monomial with exponent of x[i][j] equal to the number of entries
  j in row i of T, and
* delta_T, the product over the columns of T of the top-aligned minors whose
  column indices are the entries of that column.

delta_T is a highest weight vector of weight = shape, its leading monomial is
m_T with coefficient 1, and for content (m, ..., m) the delta_T form a basis
of the weight-D component of the highest weight space they span.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .actions import permutation_sign
from .polynomials import Monomial, Polynomial, variable

Diagram = tuple[int, ...]


class ShapeTooTallError(ValueError):
    """Raised when a diagram has more rows than the ambient matrix."""


def normalize_partition(parts: tuple[int, ...] | list[int]) -> Diagram:
    """Strip trailing zeros and validate weak decrease."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must weakly decrease, got {parts}")
    return tuple(p for p in parts if p)


def pad(parts: Diagram, length: int) -> tuple[int, ...]:
    if len(parts) > length:
        raise ValueError(f"{parts} has more than {length} parts")
    return parts + (0,) * (length - len(parts))


class Tableau:
    """A semistandard filling, stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row in tableau")
            if i and len(row) > len(rows[i - 1]):
                raise ValueError("row lengths must weakly decrease")
            for j, entry in enumerate(row):
                if entry < 1:
                    raise ValueError(f"entries are positive integers, got {entry}")
                if j and row[j - 1] > entry:
                    raise ValueError("rows must weakly increase")
                if i and rows[i - 1][j] >= entry:
                    raise ValueError("columns must strictly increase")
        self.rows = rows

    @property
    def shape(self) -> Diagram:
        return tuple(len(r) for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        ncols = len(self.rows[0]) if self.rows else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(ncols)
        ]

    def row_reading_word(self) -> tuple[int, ...]:
        return tuple(e for row in self.rows for e in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"

    def __repr__(self) -> str:
        return f"Tableau({self})"

    def to_json_obj(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def enumerate_sst(shape, content) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content.

    Entries come from the alphabet 1..len(content).  The list is generated by
    filling cells in row reading order with the smallest feasible entry first,
    so it is sorted lexicographically by row reading word and is deterministic.
    """
    shape = normalize_partition(shape)
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError(f"negative content {content}")
    k = len(content)
    if sum(shape) != sum(content):
        return []
    if not shape:
        return [Tableau(())] if sum(content) == 0 else []
    if len(shape) > k:
        return []

    cells = [(i, j) for i, width in enumerate(shape) for j in range(width)]
    grid = [[0] * width for width in shape]
    remaining = list(content)
    out: list[Tableau] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        i, j = cells[idx]
        lo = 1
        if j:
            lo = max(lo, grid[i][j - 1])
        if i:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, k + 1):
            if not remaining[v - 1]:
                continue
            grid[i][j] = v
            remaining[v - 1] -= 1
            fill(idx + 1)
            remaining[v - 1] += 1
            grid[i][j] = 0

    fill(0)
    return out


@lru_cache(maxsize=None)
def _kostka(shape: Diagram, content: tuple[int, ...]) -> int:
    if sum(shape) != sum(content):
        return 0
    counts = Counter({shape: 1})
    for size in reversed(content):
        peeled: Counter[Diagram] = Counter()
        for outer, count in counts.items():
            for inner in _strip_removals(outer, size):
                peeled[inner] += count
        counts = peeled
    return counts[()]


@lru_cache(maxsize=None)
def _strip_removals(shape: Diagram, size: int) -> tuple[Diagram, ...]:
    """Shapes obtained by removing a horizontal strip of the given size.

    Row i can lose at most its overhang shape[i] - shape[i+1], and the
    choices are otherwise independent, so a strip is a way of spreading
    `size` cells over the rows that overhang.
    """
    overhangs = [(i, hi - lo) for i, (hi, lo) in enumerate(zip(shape, shape[1:] + (0,)))
                 if hi > lo]
    room = sum(over for _, over in overhangs)
    # (cells taken per overhanging row so far, cells still to take)
    partial: list[tuple[tuple[tuple[int, int], ...], int]] = [((), size)]
    for i, over in overhangs:
        room -= over
        partial = [
            (taken + ((i, t),), left - t)
            for taken, left in partial
            for t in range(max(0, left - room), min(over, left) + 1)
        ]
    out: list[Diagram] = []
    for taken, left in partial:
        if left:
            continue
        rows = list(shape)
        for i, t in taken:
            rows[i] -= t
        out.append(normalize_partition(rows))
    return tuple(out)


def kostka(shape, content) -> int:
    """The number of semistandard tableaux of the given shape and content.

    Computed by peeling horizontal strips, largest letter first, while
    counting the ways to reach each intermediate shape; no recursion, so the
    content may be arbitrarily long.  This is independent of the
    backtracking enumeration.
    """
    return _kostka(normalize_partition(shape), tuple(content))


def column_minor(entries: tuple[int, ...]) -> Polynomial:
    """The s-by-s minor on rows 1..s and the given column indices.

    The column indices must be strictly increasing; s is their count.
    """
    s = len(entries)
    if any(entries[i] >= entries[i + 1] for i in range(s - 1)):
        raise ValueError(f"column indices must strictly increase, got {entries}")
    # distinct permutations give distinct monomials, so nothing cancels
    return Polynomial({
        Monomial({(r + 1, entries[perm[r]]): 1 for r in range(s)}): permutation_sign(perm)
        for perm in itertools.permutations(range(s))
    })


def delta_tableau(T: Tableau, n: int | None = None) -> Polynomial:
    """The product over columns of T of the minors indexed by their entries."""
    if n is not None and len(T.shape) > n:
        raise ShapeTooTallError(
            f"tableau has {len(T.shape)} rows but the matrix has only {n}"
        )
    poly = Polynomial.one()
    for col in T.columns():
        poly = poly * column_minor(col)
    return poly


def content_monomial(T: Tableau) -> Monomial:
    """m_T: exponent of x[i][j] counts the entries j in row i of T."""
    return Monomial(Counter(
        (i, entry) for i, row in enumerate(T.rows, start=1) for entry in row
    ))


def standard_monomial_basis(m: int, shape, k: int) -> list[Polynomial]:
    """The delta_T over semistandard T of the given shape and content (m,...,m)."""
    shape = normalize_partition(shape)
    if sum(shape) != k * m:
        return []
    return [delta_tableau(T) for T in enumerate_sst(shape, (m,) * k)]


def specht_map(f: Polynomial, k: int | None = None) -> Polynomial:
    """The substitution x[i][j] -> x[1][j]^(i-1).

    Restricted to a weight space of square content this intertwines the
    column permutation action with the S_k action on polynomials in the
    single-row variables, up to the character twist carried along by minors.
    """
    sub = {}
    for row, col in f.variables():
        if k is not None and col > k:
            raise ValueError(f"column {col} exceeds declared width {k}")
        sub[(row, col)] = variable(1, col) ** (row - 1)
    return f.substitute(sub)


def specht_polynomial(T: Tableau) -> Polynomial:
    """The product over columns of T of Vandermonde factors in x[1][t].

    For a column with entries t_1 < ... < t_s the factor is
    prod_{p<q} (x[1][t_q] - x[1][t_p]), the image of that column's minor
    under the substitution x[i][j] -> x[1][j]^(i-1).
    """
    poly = Polynomial.one()
    for col in T.columns():
        for a in range(len(col)):
            for b in range(a + 1, len(col)):
                poly = poly * (variable(1, col[b]) - variable(1, col[a]))
    return poly
