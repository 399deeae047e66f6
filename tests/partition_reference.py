"""The recursive listers that plain loops replaced.

`_partitions(total, max_parts)` lists the partitions of `total` into at most
`max_parts` parts, largest part first, in decreasing lexicographic order; it
is the former body of `plethysm.verify._partitions`.  `monomial_exponents(m,
n)` lists the exponent vectors of the degree-m monomials in n variables in
decreasing lexicographic order; it is the former body of
`plethysm.oracle.monomial_exponents`, without its cache.  Both are kept only
as references for differential tests and as shape listers for tests that
need more than three rows.  They share nothing with the package.
"""

from __future__ import annotations


def _partitions(total: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions of `total` into at most `max_parts` parts."""
    out: list[tuple[int, ...]] = []

    def go(rest: int, bound: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        if len(acc) == max_parts:
            return
        for part in range(min(rest, bound), 0, -1):
            go(rest - part, part, acc + (part,))

    go(total, total if total else 0, ())
    return out


def monomial_exponents(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of degree-m monomials in n variables, lex order."""
    if n == 0:
        return ((),) if m == 0 else ()

    def go(rest: int, slots: int):
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest, -1, -1):
            for tail in go(rest - first, slots - 1):
                yield (first,) + tail

    return tuple(go(m, n))
