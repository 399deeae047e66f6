"""The inversion count that `plethysm.actions.permutation_sign` replaced.

The sign of a sequence of distinct values is (-1)^(number of inversions),
counted over all pairs in O(n²).  This is the former body of
`permutation_sign`, kept only as the reference for the differential tests in
`test_actions.py` and for `character_reference`.  It shares no code with the
package.
"""

from __future__ import annotations


def permutation_sign(tau) -> int:
    sign = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sign = -sign
    return sign
