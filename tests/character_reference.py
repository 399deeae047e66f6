"""The alternant read-off that `plethysm.oracle.multiplicities_by_kostka` replaced.

One pass over the weight table: every weight whose lift by δ has distinct
coordinates is sorted, and the sign of its sort, counted by inversions, is
taken once per weight into a `Counter`.  This is the former body of
`multiplicities_by_kostka`, kept only as the reference for the differential
tests in `test_oracle.py`.  It reads the package's weight table and shares
`normalize_partition` with it, and nothing else.
"""

from __future__ import annotations

from collections import Counter
from operator import add, sub

from plethysm.oracle import weight_table_plethysm
from plethysm.tableaux import Diagram, normalize_partition
from sign_reference import permutation_sign


def multiplicities_by_kostka(m: int, n: int, variant: str) -> dict[Diagram, int]:
    table = weight_table_plethysm(m, n, variant)
    delta = tuple(range(n - 1, -1, -1))
    mults: Counter[tuple[int, ...]] = Counter()
    for weight, count in table.items():
        lifted = tuple(map(add, weight, delta))
        if len(set(lifted)) < n:
            continue
        order = sorted(range(n), key=lifted.__getitem__, reverse=True)
        shape = tuple(map(sub, map(lifted.__getitem__, order), delta))
        mults[shape] += permutation_sign(order) * count
    for shape, value in mults.items():
        if value < 0:
            raise AssertionError(
                f"negative multiplicity {value} at {shape}: the read-off is broken"
            )
    return {normalize_partition(shape): mults[shape]
            for shape in sorted(mults, reverse=True) if mults[shape]}
