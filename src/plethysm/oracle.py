"""Independent multiplicity oracles for the k = 3 plethysms.

Two cross-checks that share no code with the word enumeration:

1. Character counting.  The dimension of a weight space of S^3(S^m(C^n)) is
   the number of multisets of three degree-m monomials with the prescribed
   total exponent vector (3-subsets of distinct monomials for Λ^3).  The
   whole table comes from the cycle index of S_3 applied to the character
   f of S^m(C^n), (f³ ± 3·f·p_2[f] + 2·p_3[f]) / 6, computed on weights
   packed into ints; the three sums are convolved once per (m, n) and serve
   both signs.  Multiplying the character by the Vandermonde a_δ and reading
   the coefficient of x^(λ+δ) gives the multiplicity of the weight-λ
   constituent, which inverts the Kostka matrix in closed form.  It is read
   off in one pass over the table, with one sign per sort order.  Setting
   every variable past the third to zero keeps exactly the constituents of
   at most three rows, so the table and the read-off are taken at min(n, 3)
   rows, whatever n is.  The Weyl dimensions of the constituents found, at
   n, must then sum to the dimension of the whole module: an exact
   certificate that no constituent of more rows was missed.

2. Kernel computation.  The multiplicity of the weight-D constituent equals
   the dimension of the joint kernel of the adjacent raising operators on the
   weight-D subspace of the invariant (or sign) isotypic component.  The
   operators are written in orbit coordinates: a column-sorted exponent
   matrix R names v_R = Σ_σ (sgn σ)·σ·x^R, a nonzero multiple of its orbit
   sum.  Each column is one int, its exponents as digits in radix 3m + 1,
   so the columns that complete two others come by subtraction, and moving
   one unit up between adjacent rows adds a fixed step.  Each basis vector
   gives one sparse row, its images under all the operators, read off in
   one forward pass over the basis, with no polynomial arithmetic and no
   sort.  These rows form the transpose of the operators' matrix, which has
   the same rank; it is found by sparse fraction-free elimination over Z,
   exact by construction.  Rows of the weight past the shape's length are
   zero and carry no move, so the work is done on the shape's own rows.

Both agree with the closed-form counts and with the explicit word bases; the
point of this module is that they would not if any of those were wrong.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import add, le, sub

from .actions import permutation_sign
from .actions import raising_operator  # noqa: F401  perfbench/tracing.py wraps oracle.raising_operator
from .tableaux import Diagram, normalize_partition, pad
from .tableaux import kostka  # noqa: F401  perfbench/tracing.py wraps oracle.kostka

MAX_DIM = 2000  # the default bound on the dimension of one kernel weight space


class InstanceTooLargeError(RuntimeError):
    """Raised when an instance is past a size bound, before the work starts."""


@lru_cache(maxsize=None)
def monomial_exponents(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of degree-m monomials in n variables, lex order:
    the runs between n - 1 bars among m + n - 1 places (stars and bars)."""
    if n == 0:
        return ((),) if m == 0 else ()
    places = m + n - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))
                 for bars in reversed(list(combinations(range(places), n - 1))))


@lru_cache(maxsize=1)
def _power_sum_products(m: int, n: int) -> tuple[int, int, int, Counter[int], Counter[int],
                                                 Counter[int]]:
    """The packing (width, radix, last) and the packed f³, f·p_2[f] and p_3[f].

    f = Σ x^μ over the degree-m monomials in n variables; the packing is the
    one `weight_table_plethysm` describes.  Both variants combine the same
    three sums, so the cache lets sym followed by alt for one (m, n) convolve
    once; it keeps a single (m, n), so a sweep over m holds one at a time.
    """
    monos = monomial_exponents(m, n)
    d = len(monos)
    # 6·C(d + 2, 3) bounds every coefficient of the sixfold table
    width = (d * (d + 1) * (d + 2)).bit_length() // 8 + 1
    radix = 3 * m + 1
    last = radix if n > 1 else 1

    def power_sum(r: int) -> Counter[int]:
        """p_r[f], as packed middle coordinates -> field-packed last variable."""
        out: Counter[int] = Counter()
        for mono in monos:
            key = 0
            for e in mono[1:]:
                key = key * radix + e
            middle, e_last = divmod(r * key, last)
            out[middle] += 1 << (8 * width * e_last)
        return out

    def times(a: Counter[int], b: Counter[int]) -> Counter[int]:
        out: Counter[int] = Counter()
        for ka, va in a.items():
            for kb, vb in b.items():
                out[ka + kb] += va * vb
        return out

    f = power_sum(1)
    return width, radix, last, times(times(f, f), f), times(f, power_sum(2)), power_sum(3)


def weight_table_plethysm(m: int, n: int, variant: str) -> dict[tuple[int, ...], int]:
    """Weight-space dimensions of S^3(S^m(C^n)) or Λ^3(S^m(C^n)).

    Keys are length-n exponent sums; values count multisets (sym) or
    3-subsets of distinct monomials (alt) of degree-m monomials.  With
    f = Σ x^μ over those monomials the table is the cycle-index sum

        (f³ ± 3·f·p_2[f] + 2·p_3[f]) / 6,    plus for sym, minus for alt,

    where p_r[f] multiplies every exponent by r (Macdonald, Symmetric
    Functions and Hall Polynomials, I.8).

    Every weight in the sum has coordinates summing to 3m, so the first one
    is implied.  The others are packed into one int in mixed radix 3m + 1:
    no coordinate exceeds 3m, so no digit carries, a product of monomials
    adds keys and p_r multiplies them by r.  A character is kept as a map
    from the packed middle coordinates to one int that holds the polynomial
    in the last variable, each coefficient in a fixed-width field (Kronecker
    substitution), so the products run as int multiplications.  The fields
    are wide enough for the final coefficients, which are nonnegative, so the
    fields of the signed sum are exactly those coefficients.  The three sums
    come from `_power_sum_products`, shared by both variants; each middle key
    is decoded once, and each of its fields adds its last coordinate.
    """
    if variant == "sym":
        sign = 1
    elif variant == "alt":
        sign = -1
    else:
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    width, radix, last, cube, mixed, p3 = _power_sum_products(m, n)
    table = {}
    for middle, value in cube.items():
        value += 3 * sign * mixed[middle] + 2 * p3[middle]
        digits = []
        for _ in range(n - 2):
            middle, digit = divmod(middle, radix)
            digits.append(digit)
        inner = tuple(reversed(digits))
        first = 3 * m - sum(inner)
        # the first coordinate is first - e_last >= 0, so later fields are empty
        span = min(last, first + 1)
        fields = value.to_bytes(width * span, "little")
        for e_last in range(span):
            six = int.from_bytes(fields[e_last * width:(e_last + 1) * width], "little")
            if not six:
                continue
            if six % 6:
                raise AssertionError(f"cycle-index coefficient {six} is not divisible by 6")
            # for n < 2 there is one field and no last coordinate
            key = (first - e_last, *inner, e_last) if n > 1 else (first,)[:n]
            table[key] = six // 6
    return table


def multiplicities_by_kostka(m: int, n: int, variant: str) -> dict[Diagram, int]:
    """Irreducible multiplicities read off the weight table by the Weyl alternant.

    The work is done at r = min(n, 3) rows.  Setting x_(r+1), ..., x_n to zero
    turns the character in n variables into the table in r variables, and
    maps s_λ(x_1, ..., x_n) to s_λ(x_1, ..., x_r) when λ has at most r rows
    and to 0 otherwise (Macdonald I.3).  So χ = Σ_μ table[μ]·x^μ is
    Σ_λ m_λ·s_λ over the constituents of at most r rows, each with its
    multiplicity in n variables.  As s_λ·a_δ = a_(λ+δ) with
    δ = (r-1, ..., 0), m_λ is the coefficient of x^(λ+δ) in χ·a_δ.  As χ is
    symmetric, that coefficient is

        m_λ = Σ_{w ∈ S_r} sgn(w) · table[w(λ + δ) - δ],

    the inverse Kostka matrix applied in closed form.  The sum is taken from
    the table's side: each weight μ whose μ + δ has distinct coordinates adds
    sgn(w)·table[μ] to m_λ, where w sorts μ + δ into λ + δ, and every other
    weight adds nothing.  That is one pass over the table, with no sum over
    S_r.  The sign depends only on the order w, and few orders occur, so each
    one's sign is computed once per call.

    The restriction cannot see a constituent of more than three rows, so the
    result is then proved complete: Σ m_λ·dim V_λ(GL_n) must equal the
    dimension of the module, C(d + 2, 3) for sym and C(d, 3) for alt, with
    d = C(m + n - 1, n - 1) monomials of degree m (d = 1 if n = m = 0, else
    0 at n = 0).  Every m_λ is nonnegative and every dimension positive, so
    equality leaves no room for a missing constituent; a mismatch raises
    AssertionError.  Diagrams come back with trailing zeros stripped, in
    decreasing lexicographic order, and only nonzero multiplicities are kept.
    """
    rows = min(n, 3)
    table = weight_table_plethysm(m, rows, variant)
    delta = tuple(range(rows - 1, -1, -1))
    signs: dict[tuple[int, ...], int] = {}
    lifts: dict[tuple[int, ...], int] = {}  # λ + δ -> m_λ
    # Per weight, only lists and tuples of lists: CPython builds a tuple from
    # an iterator at a guessed length and trims it, and freed trimmed tuples
    # pile up (to 2000) in a free list such builds never reuse; at
    # (m, n) = (8, 4), read off at four rows, that cost about 130 KB of peak memory.
    for weight, count in table.items():
        lifted = list(map(add, weight, delta))
        if len(set(lifted)) < rows:
            continue
        order = sorted(range(rows), key=lifted.__getitem__, reverse=True)
        w = tuple(order)
        sign = signs.get(w)
        if sign is None:
            sign = signs[w] = permutation_sign(w)
        key = tuple([lifted[i] for i in order])
        lifts[key] = lifts.get(key, 0) + sign * count
    mults = {tuple(map(sub, key, delta)): value for key, value in lifts.items()}
    for shape, value in mults.items():
        if value < 0:
            raise AssertionError(
                f"negative multiplicity {value} at {shape}: the read-off is broken"
            )
    result = {normalize_partition(shape): mults[shape]
              for shape in sorted(mults, reverse=True) if mults[shape]}
    d = comb(m + n - 1, n - 1) if n else int(m == 0)
    total = comb(d + 2, 3) if variant == "sym" else comb(d, 3)
    found = sum(value * weyl_dimension(shape, n) for shape, value in result.items())
    if found != total:
        raise AssertionError(
            f"constituent dimensions sum to {found}, not the module's {total}: "
            f"a constituent is missing"
        )
    return result


@lru_cache(maxsize=None)
def _column_moves(m: int, n: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Every degree-m column in n rows, by code, to its raising moves.

    A column (e_0, ..., e_{n-1}) is coded as Σ e_i·R^(n-1-i) with R = 3m + 1
    (see `_exponent_matrices`).  Its moves are the pairs (step, count), one
    per p with e_(p+1) > 0 in increasing p: E_p moves one of the count =
    e_(p+1) units from row p + 1 up to row p, which adds step = R^(n-1-p) -
    R^(n-2-p) to the code.  Keys come in the order of `monomial_exponents`,
    which is decreasing code order.
    """
    radix = 3 * m + 1
    steps = [radix ** (n - 1 - p) - radix ** (n - 2 - p) for p in range(n - 1)]
    table = {}
    for col in monomial_exponents(m, n):
        code = 0
        for e in col:
            code = code * radix + e
        table[code] = tuple((step, count) for step, count in zip(steps, col[1:]) if count)
    return table


def _exponent_matrices(m: int, n: int, weight: tuple[int, ...]):
    """Yield each n-by-3 exponent matrix with column sums m and row sums `weight`
    whose columns decrease, col1 >= col2 >= col3: one per orbit of the column
    permutations.

    A matrix is a triple of column codes.  A column (e_0, ..., e_{n-1}) has
    the code Σ e_i·R^(n-1-i) in radix R = 3m + 1, and code order is lex
    order.  A weight with a negative entry or a sum other than 3m has no
    orbit and yields nothing.  Every other weight has its entries in 0..3m,
    so it codes the same way, and w - a - b for columns a, b <= w has
    digits w_i - a_i - b_i in -2m..3m.  Two digit vectors that differ by
    less than R in every place compare like their codes, and are equal only
    if their codes are.  So w - a - b is the code of a column exactly when
    the tuple difference is that column, and its comparison with b is the
    lex one.  Without the guard, an entry past 3m would carry into the next
    digit and alias another weight.
    """
    if sum(weight) != 3 * m or any(e < 0 for e in weight):
        return
    radix = 3 * m + 1
    rest = 0
    for e in weight:
        rest = rest * radix + e
    # decreasing, so fits[i:] are <= fits[i]
    fits = [code for col, code in zip(monomial_exponents(m, n), _column_moves(m, n))
            if all(map(le, col, weight))]
    fit_set = set(fits)
    for i, col1 in enumerate(fits):
        rest1 = rest - col1
        for col2 in fits[i:]:
            col3 = rest1 - col2
            # col3 grows as col2 shrinks, so no later col2 is >= its col3
            if col3 > col2:
                break
            if col3 in fit_set:
                yield col1, col2, col3


def _isotypic_weight_basis(m: int, n: int, weight: tuple[int, ...],
                           variant: str, *, max_dim: int) -> list[tuple[int, int, int]]:
    """Orbit representatives naming a basis of the invariant or sign part of
    one weight space, as triples of column codes (`_exponent_matrices`).

    Column permutations σ act on exponent matrices.  A sorted matrix R names
    v_R = Σ_σ (sgn σ)·σ·x^R (sgn σ = 1 for sym), which is |Stab R| times the
    orbit sum and is never built.  The sign component only sees free orbits:
    a repeated column puts a transposition in the stabilizer, so v_R = 0.
    InstanceTooLargeError is raised once more than max_dim orbits are found.
    """
    alt = variant == "alt"
    reps: list[tuple[int, int, int]] = []
    for rep in _exponent_matrices(m, n, weight):
        if not alt or rep[0] > rep[1] > rep[2]:
            reps.append(rep)
            if len(reps) > max_dim:
                raise InstanceTooLargeError(
                    f"weight space dimension exceeds bound {max_dim}"
                )
    return reps


def _raising_rows(m: int, n: int, basis: list[tuple[int, int, int]],
                  alt: bool) -> list[dict[int, int]]:
    """The images under every E_p, which moves a unit from row p + 1 to row p
    (0-based), of the v_R named by `basis`, a list of decreasing triples of
    column codes of degree m in n rows: one sparse row per basis vector.

    E_p commutes with column permutations, so E_p(v_R) = Σ_j R[j][p+1]·v_N,
    where N moves one unit of column j of R up from row p + 1.  That adds a
    positive step to the code of column j (`_column_moves`), so the moved
    column only passes the columns before it: it is placed by comparing it
    with them, and T, the sorted N, needs no sort.  v_N = v_T for sym; for
    alt v_N = ±v_T by the parity of the columns passed, or 0 if the moved
    column equals one of them.  Targets of different p differ in weight, so
    one index numbers them all, in order of first appearance.  A row maps
    target index to coefficient, and no entry is zero: two moves of one p
    reach the same T only from equal columns, which add with one sign (alt
    has no equal columns).  The rows are the transpose of the matrix of the
    operators, which has the same rank; on plain orbit sums that matrix
    differs by the nonzero stabilizer orders on both sides, so rank and
    kernel agree.
    """
    moves = _column_moves(m, n)
    targets: dict[tuple[int, int, int], int] = {}
    rows: list[dict[int, int]] = []
    for a, b, c in basis:
        row: dict[int, int] = {}
        for step, count in moves[a]:
            target = (a + step, b, c)
            t = targets.setdefault(target, len(targets))
            row[t] = row.get(t, 0) + count
        for step, count in moves[b]:
            x = b + step
            if x < a:
                target = (a, x, c)
            else:
                if alt:
                    if x == a:
                        continue
                    count = -count
                target = (x, a, c)
            t = targets.setdefault(target, len(targets))
            row[t] = row.get(t, 0) + count
        for step, count in moves[c]:
            x = c + step
            if x < b:
                target = (a, b, x)
            else:
                if alt:
                    if x == b:
                        continue
                    count = -count
                if x < a:
                    target = (a, x, b)
                else:
                    if alt:
                        if x == a:
                            continue
                        count = -count
                    target = (x, a, b)
            t = targets.setdefault(target, len(targets))
            row[t] = row.get(t, 0) + count
        rows.append(row)
    return rows


def rank_of_integer_matrix(rows: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows, by elimination over Z.

    A row maps column to nonzero entry; the rows are not modified.  Each row
    r is divided by the gcd of its entries and reduced at its leading column
    against the pivot row p found there, until it vanishes or leads in a
    column with no pivot row yet, where it becomes one.  With leading entries
    a of p and b of r, and g = gcd(a, b) taken with the sign of a, a step
    replaces r by (a/g)·r - (b/g)·p, which clears that column.  Both
    operations are invertible over Q given p, so the pivot rows and the rows
    still to come always span the row space of the input.  The pivot rows
    lead in distinct columns, so they are independent, and their count is
    the rank: every operation is exact in Z.
    """
    # primitive pivot rows, by leading column
    pivots: dict[int, dict[int, int]] = {}
    # sparse rows first keep the pivot rows sparse; a stable sort keeps the
    # given order within a length, and a repeated row reduces to zero
    for r in sorted(rows, key=len):
        r = dict(r)  # reduced in place below
        while r:
            content = gcd(*r.values())
            if content != 1:
                r = {j: a // content for j, a in r.items()}
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = r
                break
            lead = pivot[col]
            g = gcd(lead, r[col]) if lead > 0 else -gcd(lead, r[col])
            scale, factor = lead // g, r[col] // g
            if scale != 1:
                r = {j: scale * a for j, a in r.items()}
            for j, a in pivot.items():
                a = r.get(j, 0) - factor * a
                if a:
                    r[j] = a
                else:
                    del r[j]
    return len(pivots)


def hwv_kernel_multiplicity(m: int, n: int, shape, variant: str,
                            max_dim: int = MAX_DIM) -> int:
    """Multiplicity of the weight-`shape` constituent, by exact kernel computation.

    Names the weight-`shape` slice of the isotypic component by its orbit
    representatives, writes down every adjacent raising operator on it in
    orbit coordinates (no polynomial is built), and returns the dimension of
    the joint kernel.  Any number of rows n works: the work is done on the
    shape's own rows, whatever n is.  Raises ValueError unless `variant` is
    'sym' or 'alt', and InstanceTooLargeError when the slice dimension
    exceeds max_dim, before any matrix entry is computed.
    """
    if variant not in ("sym", "alt"):
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    shape = normalize_partition(shape)
    if len(shape) > n:
        return 0
    if sum(shape) != 3 * m:
        return 0
    # rows past the shape's are zero in every column and have no move, so
    # the shape's own rows give the same basis and rows as pad(shape, n)
    length = len(shape)
    basis = _isotypic_weight_basis(m, length, shape, variant, max_dim=max_dim)
    return len(basis) - rank_of_integer_matrix(
        _raising_rows(m, length, basis, variant == "alt"))


def weyl_dimension(shape, n: int) -> int:
    """Dimension of the irreducible GL_n module with the given highest weight:
    the product over i < j of (λ_i - λ_j + j - i) / (j - i).  A pair of rows
    past the shape's length has λ_i = λ_j = 0 and the factor 1, so i runs
    over the shape's rows only, and n rows cost O(len(shape)·n) factors."""
    shape = normalize_partition(shape)
    if len(shape) > n:
        raise ValueError(f"{shape} has more than {n} rows")
    lam = pad(shape, n)
    num = den = 1
    for i in range(len(shape)):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def oracle_report_json(m: int, n: int, variant: str) -> dict:
    """Stable encoding of the Kostka-inversion multiplicities."""
    mults = multiplicities_by_kostka(m, n, variant)
    return {
        "m": m,
        "n": n,
        "variant": variant,
        "multiplicities": [
            {"diagram": list(d), "mult": mults[d]} for d in sorted(mults, reverse=True)
        ],
    }
