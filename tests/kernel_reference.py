"""The kernel oracles that the package's build replaced, kept as references.

`hwv_kernel_multiplicity` is the polynomial-based oracle.  Each basis vector
is the orbit sum (signed for Λ^3) of one column-sorted exponent matrix, built
as a `Polynomial`; every adjacent raising operator is applied to it with
`raising_operator`, and the images' coefficients, indexed by monomial, are
the rows of the matrix whose rank gives the kernel.  This is the former body
of `plethysm.oracle.hwv_kernel_multiplicity`, kept only as the reference for
the differential test in `test_oracle.py`.  It shares the size bound, the
error class and the exact rank with the package.  Like the polynomial layer
it builds on, it holds matrices of at most 4 rows.

`raising_rows` is an earlier body of `plethysm.oracle._raising_rows`: the same
operators in orbit coordinates, as dense rows, one per target.  The package
now returns the transpose, one sparse row per basis vector.
`sparse_raising_rows` is the body that followed, on column tuples: each move
copies the matrix, rebuilds one column and sorts the three.  The package now
works on column codes, which `encode` and `decode` translate.
"""

from __future__ import annotations

import itertools

from plethysm.actions import raising_operator
from plethysm.oracle import (
    MAX_DIM,
    InstanceTooLargeError,
    monomial_exponents,
    rank_of_integer_matrix,
)
from plethysm.polynomials import Monomial, Polynomial
from plethysm.tableaux import normalize_partition, pad


def _exponent_matrices(m: int, n: int, weight: tuple[int, ...]):
    """Each column-sorted n-by-3 exponent matrix of the given row sums."""
    monos = monomial_exponents(m, n)
    mono_set = set(monos)
    for i, col1 in enumerate(monos):
        if any(col1[r] > weight[r] for r in range(n)):
            continue
        rest1 = tuple(weight[r] - col1[r] for r in range(n))
        for col2 in monos[i:]:
            if any(col2[r] > rest1[r] for r in range(n)):
                continue
            col3 = tuple(rest1[r] - col2[r] for r in range(n))
            if col3 <= col2 and col3 in mono_set:
                yield col1, col2, col3


def _matrix_monomial(cols: tuple[tuple[int, ...], ...]) -> Monomial:
    exps = {}
    for j, col in enumerate(cols, start=1):
        for i, e in enumerate(col, start=1):
            if e:
                exps[(i, j)] = e
    return Monomial(exps)


def isotypic_weight_basis(m: int, n: int, weight: tuple[int, ...],
                          variant: str, *, max_dim: int) -> list[Polynomial]:
    """Orbit sums spanning the invariant or sign part of one weight space."""
    reps: list[tuple] = []
    for rep in _exponent_matrices(m, n, weight):
        if variant == "sym" or len(set(rep)) == 3:
            reps.append(rep)
            if len(reps) > max_dim:
                raise InstanceTooLargeError(
                    f"weight space dimension exceeds bound {max_dim}"
                )
    basis: list[Polynomial] = []
    for rep in reps:
        if variant == "sym":
            terms = {_matrix_monomial(perm): 1 for perm in set(itertools.permutations(rep))}
        else:
            terms = {
                _matrix_monomial(tuple(rep[p] for p in perm)): sign
                for perm, sign in (
                    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
                )
            }
        basis.append(Polynomial(terms))
    return basis


def hwv_kernel_multiplicity(m: int, n: int, shape, variant: str,
                            max_dim: int = MAX_DIM) -> int:
    """Multiplicity of the weight-`shape` constituent, by exact kernel computation."""
    if variant not in ("sym", "alt"):
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    shape = normalize_partition(shape)
    if len(shape) > n:
        return 0
    if sum(shape) != 3 * m:
        return 0
    weight = pad(shape, n)
    basis = isotypic_weight_basis(m, n, weight, variant, max_dim=max_dim)
    if not basis:
        return 0
    rows: list[list[int]] = []
    for p in range(1, n):
        images = [raising_operator(v, p, p + 1) for v in basis]
        index: dict[Monomial, int] = {}
        for img in images:
            for mono, _ in img.terms():
                index.setdefault(mono, len(index))
        block = [[0] * len(basis) for _ in range(len(index))]
        for jcol, img in enumerate(images):
            for mono, coeff in img.terms():
                block[index[mono]][jcol] = coeff
        rows.extend(block)
    if not rows:
        return len(basis)
    return len(basis) - rank_of_integer_matrix(
        [{j: a for j, a in enumerate(row) if a} for row in rows])


def raising_rows(basis: list[tuple], alt: bool) -> list[list[int]]:
    """The stacked matrix of every E_p on the v_R named by `basis`, one dense
    row per target, targets in order of first appearance."""
    rows: dict[tuple, list[int]] = {}
    for i, rep in enumerate(basis):
        for j, col in enumerate(rep):
            for p in range(len(col) - 1):
                count = col[p + 1]
                if not count:
                    continue
                moved = list(rep)
                moved[j] = col[:p] + (col[p] + 1, count - 1) + col[p + 2:]
                if alt:
                    a, b, c = moved
                    if a == b or a == c or b == c:
                        continue
                    # for distinct columns, the sign of the sort is (-1)^inversions
                    count *= (-1) ** ((a < b) + (a < c) + (b < c))
                target = tuple(sorted(moved, reverse=True))
                row = rows.get(target)
                if row is None:
                    row = rows[target] = [0] * len(basis)
                row[i] += count
    return list(rows.values())


def encode(m: int, col: tuple[int, ...]) -> int:
    """The code of a column of degree m: its entries as digits in radix 3m + 1."""
    code = 0
    for e in col:
        code = code * (3 * m + 1) + e
    return code


def decode(m: int, n: int, code: int) -> tuple[int, ...]:
    """The column of n rows whose code in radix 3m + 1 is `code`."""
    digits = []
    for _ in range(n):
        code, e = divmod(code, 3 * m + 1)
        digits.append(e)
    return tuple(reversed(digits))


def sparse_raising_rows(basis: list[tuple], alt: bool) -> list[dict[int, int]]:
    """One sparse row per basis vector of column tuples, its images under every
    E_p, targets in order of first appearance."""
    targets: dict[tuple, int] = {}
    rows: list[dict[int, int]] = []
    for rep in basis:
        row: dict[int, int] = {}
        for j, col in enumerate(rep):
            for p in range(len(col) - 1):
                count = col[p + 1]
                if not count:
                    continue
                moved = list(rep)
                moved[j] = col[:p] + (col[p] + 1, count - 1) + col[p + 2:]
                if alt:
                    a, b, c = moved
                    if a == b or a == c or b == c:
                        continue
                    # for distinct columns, the sign of the sort is (-1)^inversions
                    count *= (-1) ** ((a < b) + (a < c) + (b < c))
                target = tuple(sorted(moved, reverse=True))
                t = targets.get(target)
                if t is None:
                    t = targets[target] = len(targets)
                row[t] = row.get(t, 0) + count
        rows.append(row)
    return rows
