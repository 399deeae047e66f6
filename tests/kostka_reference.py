"""The backward strip peel that the forward Pieri pass replaced.

`_kostka(shape, content)` starts from `shape` and removes a horizontal strip
for each letter, largest letter first, counting the ways to reach each
intermediate shape; `_strip_removals` lists the strips one shape can lose.
These are the former bodies from `plethysm.tableaux`, kept only as the
reference for the differential test in `test_tableaux.py`.  They share
`normalize_partition` with the package, and nothing else.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from plethysm.tableaux import Diagram, normalize_partition


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
    """The former `plethysm.tableaux.kostka`, on the backward peel."""
    return _kostka(normalize_partition(shape), tuple(content))
