"""Check the closed-form tables against two brute-force oracles.

Oracle one never touches a polynomial: it counts the weights of monomial
multisets at three rows by the cycle index of S_3, reads the multiplicities
off by the Weyl alternant, and proves by the Weyl dimension formula that no
constituent of more rows was missed.  Oracle two never counts tableaux: it
names the isotypic weight space by orbits and computes the exact integer
rank of the adjacent raising operators on it, one sparse row per basis
vector.  Both reproduce the word counts, and the Weyl dimension formula
closes the books.
"""

import math

from plethysm import (
    decompose,
    hwv_kernel_multiplicity,
    multiplicities_by_kostka,
    oracle_report_json,
    run_verification,
    weyl_dimension,
)

# Character-level oracle, m = 4 alternating: the weight table and the
# alternant read-off, the same at n = 3 and at n = 6.
m, n = 4, 3
table = decompose(3, m, "alt").multiplicities()
print("alt m=4 table:", table)
assert multiplicities_by_kostka(m, n, "alt") == table
assert multiplicities_by_kostka(m, 6, "alt") == table

# Kernel-level oracle on the interesting shapes.  This one works inside
# the honest representation, in orbit coordinates: each orbit of monomial
# triples is named by its column-sorted triple, all adjacent raising operators
# are read off in one forward pass that moves one unit between rows and sorts
# the result (no polynomial is built), and the rank comes from sparse
# fraction-free elimination over Z, exact with no modulus.
for shape in [(7, 4, 1), (6, 3, 3), (12,)]:
    got = hwv_kernel_multiplicity(m, n, shape, "alt")
    print(f"kernel multiplicity of {shape}:", got)
    assert got == table.get(shape, 0)

# The multiplicity-two diagram at m = 6 survives the kernel oracle too.
assert hwv_kernel_multiplicity(6, 3, (12, 6), "sym") == 2
print("kernel sees multiplicity 2 at (12,6), m = 6")

# Dimension conservation: the multiplicities weighted by Weyl dimensions
# add up to dim S^3 / L^3 of the full symmetric power.
for n in (3, 4):
    for m in range(1, 5):
        d = math.comb(m + n - 1, n - 1)
        sym = sum(mult * weyl_dimension(shape, n)
                  for shape, mult in decompose(3, m, "sym").multiplicities().items()
                  if len(shape) <= n)
        assert sym == math.comb(d + 2, 3)
    print(f"n = {n}: dimensions conserved through m = 4")

# JSON form of the character oracle, for diffing against other tools.
print(oracle_report_json(2, 3, "sym"))

# The whole battery in one call; each check reports its own line.
results = run_verification(m_max=3, n=3)
for r in results:
    print(("ok  " if r.passed else "FAIL"), r.name)
assert all(r.passed for r in results)
