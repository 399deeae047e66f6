"""The all-pairs Weyl dimension formula that `plethysm.oracle.weyl_dimension`
replaced.

dim V_λ(GL_n) = Π_{i<j} (λ_i - λ_j + j - i) / (j - i), taken over every pair
of the n rows, including the pairs past the shape's length, whose factors are
1.  This is the former body of `weyl_dimension`, kept only as the reference
for the differential tests in `test_oracle.py`.  It shares `normalize_partition`
and `pad` with the package, and nothing else.
"""

from __future__ import annotations

from plethysm.tableaux import normalize_partition, pad


def weyl_dimension(shape, n: int) -> int:
    shape = normalize_partition(shape)
    if len(shape) > n:
        raise ValueError(f"{shape} has more than {n} rows")
    lam = pad(shape, n)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den
