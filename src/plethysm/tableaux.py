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
from types import MappingProxyType

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
    if len(shape) > k:
        return []

    cells = [(i, j) for i, width in enumerate(shape) for j in range(width)]
    grid = [[0] * width for width in shape]
    remaining = list(content)
    out: list[Tableau] = []
    # depth first without recursion: cells[:idx] are filled, and every cell
    # keeps the entry it tried last (0 for none), so the grid is the stack
    idx = 0
    while idx >= 0:
        if idx == len(cells):
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            idx -= 1
            continue
        i, j = cells[idx]
        v = grid[i][j]
        if v:
            remaining[v - 1] += 1
        v = max(v + 1, grid[i][j - 1] if j else 1, grid[i - 1][j] + 1 if i else 1)
        while v <= k and not remaining[v - 1]:
            v += 1
        if v <= k:
            remaining[v - 1] -= 1
            # no later cell takes an entry below `floor`: the rest of this row
            # needs v or more, the rows below more than its first entry; an
            # entry left under `floor` is a dead end, and so is every larger v
            floor = min(v if j + 1 < shape[i] else k + 1,
                        (grid[i][0] if j else v) + 1 if i + 1 < len(shape) else k + 1)
            if not any(remaining[:floor - 1]):
                grid[i][j] = v
                idx += 1
                continue
            remaining[v - 1] += 1
        grid[i][j] = 0
        idx -= 1
    return out


@lru_cache(maxsize=None)
def kostka_within(outer: Diagram, content: tuple[int, ...]) -> MappingProxyType[Diagram, int]:
    """K(λ, content) for every diagram λ inside `outer` that has a tableau.

    By the Pieri rule h_r·s_μ is the sum of s_λ over the λ that add a
    horizontal strip of r cells to μ, so h_content = Σ_λ K(λ, content)·s_λ
    is built one letter at a time (Macdonald I.5.16 and I.6): from the empty
    diagram, letter t adds a strip of content[t-1] cells, counting the ways
    to reach each diagram and keeping those inside `outer`.  There is no
    recursion, so the content may be arbitrarily long.  The table is cached.
    """
    if any(c < 0 for c in content):
        raise ValueError(f"negative content {content}")
    counts: Counter[Diagram] = Counter({(): 1})
    for size in content:
        grown: Counter[Diagram] = Counter()
        for inner, count in counts.items():
            rows = inner + (0,) * (len(inner) < len(outer))
            # in a strip row i grows to at most inner[i-1], and it stays in outer
            free = [(i, min(o, above) - r)
                    for i, (o, above, r) in enumerate(zip(outer, outer[:1] + inner, rows))
                    if min(o, above) > r]
            room = sum(f for _, f in free)
            # (the diagram so far, cells still to add), one free row at a time
            spreads = [(rows, size)] if size <= room else []
            for i, f in free:
                room -= f
                spreads = [(shape[:i] + (shape[i] + t,) + shape[i + 1:], left - t)
                           for shape, left in spreads
                           for t in range(max(0, left - room), min(f, left) + 1)]
            for shape, _ in spreads:
                grown[tuple(filter(None, shape))] += count
        counts = grown
    return MappingProxyType(counts)


def kostka(shape, content) -> int:
    """The number of semistandard tableaux of the given shape and content.

    Read off `kostka_within(shape, content)`, the forward Pieri pass that
    stays inside the shape.  This is independent of the backtracking
    enumeration.
    """
    shape = normalize_partition(shape)
    return kostka_within(shape, tuple(content)).get(shape, 0)


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
