"""Column permutations, symmetrizers, and row operations on matrix polynomials.

The symmetric group S_k acts on polynomials in the x[i][j] by permuting
columns.  GL_n acts by row operations; for highest weight considerations only
the unipotent upper triangular subgroup matters, and invariance under it is
equivalent to being killed by the adjacent raising operators

    R_i(f) = sum_j x[i][j] * df/dx[i+1][j],    i = 1, ..., n-1,

because R_i generates the one-parameter subgroup adding a multiple of row i
to row i+1 on the variable matrix, and those subgroups generate the unipotent
group.  Both the infinitesimal and the finite (substitution) forms are
provided so they can be checked against each other.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .polynomials import Polynomial, ZeroPolynomialError, variable

Permutation = tuple[int, ...]  # images of 1..k, so tau[j-1] is tau(j)


def transposition(k: int, a: int, b: int) -> Permutation:
    images = list(range(1, k + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def all_permutations(k: int) -> Iterator[Permutation]:
    return itertools.permutations(range(1, k + 1))


def permutation_sign(tau: Permutation) -> int:
    """The sign of the sort of `tau`, a sequence of distinct values (1..k or 0..k-1).

    A k-cycle is k - 1 transpositions, so the sign is (-1)^(k - cycles) of the
    sorting permutation, found in O(k log k).
    """
    order = sorted(range(len(tau)), key=tau.__getitem__)
    even = True
    # each step puts one entry of the cycle through i in place
    for i, j in enumerate(order):
        while j != i:
            order[j], j = j, order[j]
            even = not even
    return 1 if even else -1


def permute_columns(f: Polynomial, tau: Permutation) -> Polynomial:
    """Send x[i][j] to x[i][tau(j)] for every variable of f; ValueError unless
    tau is a permutation of 1..k, k = len(tau), that covers every column of f.
    The method checks both at key level."""
    return f.permute_columns(tau)


def symmetrize(f: Polynomial, k: int) -> Polynomial:
    """Unnormalized symmetrizer: the sum of all k! column permutations of f."""
    return sum((permute_columns(f, tau) for tau in all_permutations(k)), Polynomial.zero())


def antisymmetrize(f: Polynomial, k: int) -> Polynomial:
    """Unnormalized antisymmetrizer: the signed sum of all column permutations."""
    return sum((permutation_sign(tau) * permute_columns(f, tau) for tau in all_permutations(k)),
               Polynomial.zero())


def raising_operator(f: Polynomial, p: int, q: int) -> Polynomial:
    """The operator sum_j x[p][j] * df/dx[q][j], moving row q content to row p."""
    if not (1 <= p < q):
        raise ValueError(f"raising operator needs 1 <= p < q, got ({p}, {q})")
    return f.polarize(p, q)


def add_row_multiple(f: Polynomial, p: int, q: int, c: int) -> Polynomial:
    """Substitute x[q][j] -> x[q][j] + c*x[p][j]: the finite form of raising."""
    if not (1 <= p < q):
        raise ValueError(f"row operation needs 1 <= p < q, got ({p}, {q})")
    sub = {}
    for row, col in f.variables():
        if row == q:
            sub[(row, col)] = variable(q, col) + c * variable(p, col)
        else:
            sub[(row, col)] = variable(row, col)
    return f.substitute(sub)


def is_un_invariant(f: Polynomial, n: int) -> bool:
    """True iff the unipotent upper triangular subgroup of GL_n fixes f.

    Checks only the adjacent operators R_1, ..., R_{n-1}; the rest are
    commutators of those.  The zero polynomial is rejected since highest
    weight vectors are nonzero by definition.
    """
    if f.is_zero:
        raise ZeroPolynomialError("invariance of the zero polynomial is vacuous")
    return all(raising_operator(f, i, i + 1).is_zero for i in range(1, n))


def is_sk_invariant(f: Polynomial, k: int) -> bool:
    """True iff every column permutation fixes f (adjacent swaps suffice)."""
    return all(permute_columns(f, transposition(k, i, i + 1)) == f for i in range(1, k))


def is_sign_equivariant(f: Polynomial, k: int) -> bool:
    """True iff every column permutation acts on f by its sign."""
    return all(
        permute_columns(f, transposition(k, i, i + 1)) == -f for i in range(1, k)
    )
