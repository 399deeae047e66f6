"""The backtracking enumerator that the Pieri strip pass replaced.

`enumerate_sst(shape, content)` fills the cells of `shape` in row reading
order, smallest feasible entry first, with the grid as its stack.  This is
the former body from `plethysm.tableaux`, kept only as the reference for the
differential test in `test_tableaux.py`.  It shares `normalize_partition`
and `Tableau` with the package, and nothing else.
"""

from __future__ import annotations

from plethysm.tableaux import Tableau, normalize_partition


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
