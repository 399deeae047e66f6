"""The dense rank that the sparse elimination in `plethysm.oracle` is checked against.

Fraction-free (Bareiss) elimination over Z, run on the whole dense matrix.
This is the former fallback of `plethysm.oracle.rank_of_integer_matrix`,
kept only as the reference for the differential tests in `test_oracle.py`.
It shares no code with the package.
"""

from __future__ import annotations


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][col]
        for i in range(r + 1, nrows):
            factor = mat[i][col]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(col + 1, ncols):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank
