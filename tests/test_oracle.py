import copy
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import character_reference
import kernel_reference
import partition_reference
import weyl_reference
from partition_reference import _partitions
from rank_reference import _rank_bareiss
from plethysm import actions, oracle
from plethysm.hwv import decompose, multiplicity_closed_form
from plethysm.polynomials import Polynomial
from plethysm.oracle import (
    InstanceTooLargeError,
    hwv_kernel_multiplicity,
    monomial_exponents,
    multiplicities_by_kostka,
    oracle_report_json,
    rank_of_integer_matrix,
    weight_table_plethysm,
    weyl_dimension,
)
from plethysm.tableaux import kostka, normalize_partition, pad


def reference_weight_table(m, n, variant):
    """Weight table by enumerating every multiset (or 3-subset) of monomials.

    The triple enumeration that weight_table_plethysm used before the cycle
    index, kept as the reference it is compared against.
    """
    monos = monomial_exponents(m, n)
    if variant == "sym":
        triples = itertools.combinations_with_replacement(monos, 3)
    elif variant == "alt":
        triples = itertools.combinations(monos, 3)
    else:
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    return dict(Counter(
        tuple(a + b + c for a, b, c in zip(m1, m2, m3)) for m1, m2, m3 in triples
    ))


def reference_multiplicities(m, n, variant):
    """Multiplicities by subtracting Kostka contributions of larger constituents.

    The loop that multiplicities_by_kostka used before the alternant read-off,
    run on the reference weight table.
    """
    table = reference_weight_table(m, n, variant)
    dominant = sorted(
        (w for w in table if all(w[i] >= w[i + 1] for i in range(n - 1))),
        reverse=True,
    )
    mults = {}
    for weight in dominant:
        value = table[weight]
        for larger, mult in mults.items():
            if mult:
                value -= mult * kostka(larger, weight)
        assert value >= 0
        mults[weight] = value
    return {normalize_partition(w): v for w, v in mults.items() if v}


DIFFERENTIAL_CASES = [(m, n) for n in (0, 1, 2, 3) for m in range(0, 9)] + [
    (m, 4) for m in range(0, 7)
] + [
    # many variables, few boxes: a read-off that sums over S_n would need
    # n! lookups per dominant weight here
    (3, 6), (2, 9), (1, 12),
]


# the pool of perfbench's `character` workload
CHARACTER_INSTANCES = [(11, 3), (12, 3), (13, 3), (7, 4), (8, 4)]


@pytest.mark.parametrize("m,n", DIFFERENTIAL_CASES)
def test_character_oracle_matches_the_replaced_paths(m, n):
    for variant in ("sym", "alt"):
        table = weight_table_plethysm(m, n, variant)
        assert table == reference_weight_table(m, n, variant)
        assert 0 not in table.values()
        mults = multiplicities_by_kostka(m, n, variant)
        assert mults == reference_multiplicities(m, n, variant)
        readoff = character_reference.multiplicities_by_kostka(m, n, variant)
        assert list(mults.items()) == list(readoff.items())
    if m == 0:
        assert weight_table_plethysm(0, n, "alt") == {}


@pytest.mark.parametrize("m,n", CHARACTER_INSTANCES)
def test_character_readoff_matches_the_replaced_readoff_on_the_bench_pool(m, n):
    for variant in ("sym", "alt"):
        mults = multiplicities_by_kostka(m, n, variant)
        readoff = character_reference.multiplicities_by_kostka(m, n, variant)
        assert list(mults.items()) == list(readoff.items())


def _cold_table(m, n, variant):
    oracle._power_sum_products.cache_clear()
    return list(weight_table_plethysm(m, n, variant).items())


def test_shared_convolution_gives_the_tables_of_cold_runs():
    cases = [(0, 2), (1, 1), (3, 3), (5, 3), (4, 4), (2, 6)]
    cold = {(m, n, variant): _cold_table(m, n, variant)
            for m, n in cases for variant in ("sym", "alt")}

    def warm(m, n, variant):
        return list(weight_table_plethysm(m, n, variant).items())

    for m, n in cases:
        for first, second in (("sym", "alt"), ("alt", "sym")):
            oracle._power_sum_products.cache_clear()
            assert warm(m, n, first) == cold[m, n, first]
            assert warm(m, n, second) == cold[m, n, second]
    # two (m, n) interleaved: each call may evict the other's convolution
    for (m1, n1), (m2, n2) in zip(cases, cases[1:]):
        oracle._power_sum_products.cache_clear()
        for variant in ("sym", "alt", "alt", "sym"):
            assert warm(m1, n1, variant) == cold[m1, n1, variant]
            assert warm(m2, n2, variant) == cold[m2, n2, variant]


def test_bad_variant_is_rejected(monkeypatch):
    def no_work(*args):
        raise AssertionError("convolution run for a bad variant")

    monkeypatch.setattr(oracle, "_power_sum_products", no_work)
    for fn in (weight_table_plethysm, multiplicities_by_kostka):
        with pytest.raises(ValueError):
            fn(2, 3, "both")


def test_kernel_oracle_rejects_a_bad_variant(monkeypatch):
    def no_work(*args):
        raise AssertionError("weight space enumerated for a bad variant")

    monkeypatch.setattr(oracle, "_exponent_matrices", no_work)
    with pytest.raises(ValueError):
        hwv_kernel_multiplicity(2, 3, (4, 2), "bogus")


def test_character_oracle_matches_closed_form_and_words_past_m8():
    for m in list(range(9, 21)) + [30]:
        for variant in ("sym", "alt"):
            mults = multiplicities_by_kostka(m, 3, variant)
            shapes = _partitions(3 * m, 3)
            assert set(mults) <= set(shapes)
            for shape in shapes:
                assert mults.get(shape, 0) == multiplicity_closed_form(shape, variant)
            if m <= 20:
                assert mults == decompose(3, m, variant).multiplicities()


def test_monomial_exponents():
    assert monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert len(monomial_exponents(3, 3)) == math.comb(5, 2)
    assert monomial_exponents(0, 3) == ((0, 0, 0),)


def test_monomial_exponents_match_the_recursive_lister():
    for m in range(15):
        for n in range(7):
            assert monomial_exponents(m, n) == partition_reference.monomial_exponents(m, n)


def test_weight_table_degree_one():
    table = weight_table_plethysm(1, 3, "sym")
    assert table[(1, 1, 1)] == 1
    assert table[(3, 0, 0)] == 1
    assert table[(2, 1, 0)] == 1
    assert sum(table.values()) == math.comb(3 + 2, 3)

    table = weight_table_plethysm(1, 3, "alt")
    assert table == {(1, 1, 1): 1}


def test_weight_table_totals():
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        d = math.comb(m + n - 1, n - 1)
        assert sum(weight_table_plethysm(m, n, "sym").values()) == math.comb(d + 2, 3)
        assert sum(weight_table_plethysm(m, n, "alt").values()) == math.comb(d, 3)


def test_multiplicities_small():
    assert multiplicities_by_kostka(0, 3, "sym") == {(): 1}
    assert multiplicities_by_kostka(1, 3, "sym") == {(3,): 1}
    assert multiplicities_by_kostka(1, 3, "alt") == {(1, 1, 1): 1}
    assert multiplicities_by_kostka(2, 3, "sym") == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}


def test_multiplicities_match_words_m4():
    expected = decompose(3, 4, "alt").multiplicities()
    assert multiplicities_by_kostka(4, 3, "alt") == expected
    assert multiplicities_by_kostka(4, 4, "alt") == expected


def test_multiplicities_stable_in_n():
    for m in range(0, 4):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            assert multiplicities_by_kostka(m, 3, variant) == multiplicities_by_kostka(
                m, 4, variant
            )


def test_kernel_multiplicities():
    assert hwv_kernel_multiplicity(3, 3, (4, 4, 1), "sym") == 1
    assert hwv_kernel_multiplicity(1, 3, (1, 1, 1), "sym") == 0
    assert hwv_kernel_multiplicity(1, 3, (1, 1, 1), "alt") == 1
    assert hwv_kernel_multiplicity(2, 4, (4, 2), "sym") == 1
    assert hwv_kernel_multiplicity(2, 4, (4, 2), "alt") == 0
    # wrong total degree never contributes
    assert hwv_kernel_multiplicity(2, 3, (4, 1), "sym") == 0
    # too many rows for the ambient space
    assert hwv_kernel_multiplicity(2, 3, (3, 1, 1, 1), "sym") == 0


def test_kernel_finds_the_double_point():
    assert hwv_kernel_multiplicity(6, 3, (12, 6), "sym") == 2


def test_kernel_size_bound():
    with pytest.raises(InstanceTooLargeError):
        hwv_kernel_multiplicity(3, 3, (4, 4, 1), "sym", max_dim=1)


def test_kernel_size_guard_fires_before_any_row_is_built(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("matrix built for an over-bound instance")

    monkeypatch.setattr(oracle, "_raising_rows", no_matrix)
    monkeypatch.setattr(oracle, "rank_of_integer_matrix", no_matrix)
    for variant in ("sym", "alt"):
        with pytest.raises(InstanceTooLargeError):
            hwv_kernel_multiplicity(3, 3, (4, 4, 1), variant, max_dim=1)
    with pytest.raises(InstanceTooLargeError):
        hwv_kernel_multiplicity(8, 8, (8, 8, 8), "sym", max_dim=5)
    monkeypatch.undo()
    # all orbits count for sym, free orbits only for alt
    for variant in ("sym", "alt"):
        dim = len(oracle._isotypic_weight_basis(3, 3, (4, 4, 1), variant, max_dim=10**6))
        assert dim >= 2
        assert len(oracle._isotypic_weight_basis(3, 3, (4, 4, 1), variant, max_dim=dim)) == dim
        with pytest.raises(InstanceTooLargeError):
            oracle._isotypic_weight_basis(3, 3, (4, 4, 1), variant, max_dim=dim - 1)


def hand_rows(m, basis, alt):
    """`_raising_rows` on a basis given as column tuples."""
    n = len(basis[0][0])
    codes = [tuple(kernel_reference.encode(m, col) for col in rep) for rep in basis]
    return oracle._raising_rows(m, n, codes, alt)


def test_raising_rows_on_hand_worked_bases():
    # Column vectors are (row 0, row 1, ...); v_R = Σ_σ (sgn σ)·σ·x^R.
    # One row per basis vector, its image E_p(v_R) over every p: target
    # index (in order of first appearance) -> coefficient.  The package
    # takes each column by its code, which `hand_rows` computes.
    # sym, m = 1, n = 2, weight (2, 1): R = ((1,0),(1,0),(0,1)).  Only column
    # 2 can move up, R[2][1] = 1, onto T = ((1,0),(1,0),(1,0)), so E_0 v_R =
    # 1·v_T.  On plain orbit sums the entry was 3: the three monomials of R's
    # orbit each map onto x^T, whose orbit sum is x^T alone.
    assert hand_rows(1, [((1, 0), (1, 0), (0, 1))], False) == [{0: 1}]
    # sym, weight (0, 3): all three columns of R = ((0,1),(0,1),(0,1)) move
    # onto T = ((1,0),(0,1),(0,1)), so E_0 v_R = 3·v_T (orbit sums gave 1).
    assert hand_rows(1, [((0, 1), (0, 1), (0, 1))], False) == [{0: 3}]
    # alt, m = 2, n = 3, R = ((2,0,0),(0,2,0),(0,1,1)).  Moves:
    #   column 1, p = 0, R[1][1] = 2: ((2,0,0),(1,1,0),(0,1,1)), sorted, +2;
    #   column 2, p = 0, R[2][1] = 1: ((2,0,0),(0,2,0),(1,0,1)), which one
    #     transposition sorts into ((2,0,0),(1,0,1),(0,2,0)), so -1;
    #   column 2, p = 1, R[2][2] = 1: ((2,0,0),(0,2,0),(0,2,0)) repeats a
    #     column, so v_N = 0 and no target.
    assert hand_rows(2, [((2, 0, 0), (0, 2, 0), (0, 1, 1))], True) == [{0: 2, 1: -1}]
    # the same basis for sym keeps the repeated-column target and no sign
    assert hand_rows(2, [((2, 0, 0), (0, 2, 0), (0, 1, 1))], False) == [
        {0: 2, 1: 1, 2: 1}]
    # alt, m = 1, n = 3, R = ((1,0,0),(0,1,0),(0,0,1)): the two moves give
    # ((1,0,0),(1,0,0),(0,0,1)) and ((1,0,0),(0,1,0),(0,1,0)), each with a
    # repeated column, so E_p(v_R) = 0 for both p and the row is empty
    assert hand_rows(1, [((1, 0, 0), (0, 1, 0), (0, 0, 1))], True) == [{}]


def dense(rows):
    """The dense matrix of sparse rows, as wide as their highest column."""
    ncols = max((j + 1 for row in rows for j in row), default=0)
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def sparse(rows):
    """The sparse rows of a dense matrix: column -> nonzero entry."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


TRANSPOSE_CASES = [(m, 3) for m in range(0, 9)] + [(m, 4) for m in range(0, 6)]


def decoded_bases(m, n):
    """Each weight space of (m, n) with its variant, shape, basis of column
    codes, and the same basis as column tuples."""
    for variant in ("sym", "alt"):
        for shape in _partitions(3 * m, n):
            basis = oracle._isotypic_weight_basis(m, n, pad(shape, n), variant,
                                                  max_dim=oracle.MAX_DIM)
            cols = [tuple(kernel_reference.decode(m, n, code) for code in rep)
                    for rep in basis]
            yield variant, shape, basis, cols


@pytest.mark.parametrize("m,n", TRANSPOSE_CASES)
def test_raising_rows_match_the_tuple_rows(m, n):
    # the same 668 spaces: codes give the rows that sorting column tuples
    # gave, dict for dict, with the targets numbered alike
    for variant, shape, basis, cols in decoded_bases(m, n):
        assert oracle._raising_rows(m, n, basis, variant == "alt") == (
            kernel_reference.sparse_raising_rows(cols, variant == "alt")), (shape, variant)


@pytest.mark.parametrize("m,n", TRANSPOSE_CASES)
def test_raising_rows_are_the_transpose_of_the_reference_rows(m, n):
    # 668 weight spaces in all: the new rows, densified, are exactly the
    # reference's stacked matrix turned on its side, targets in the same order
    for variant, shape, basis, cols in decoded_bases(m, n):
        want = kernel_reference.raising_rows(cols, variant == "alt")
        got = oracle._raising_rows(m, n, basis, variant == "alt")
        assert len(got) == len(basis)
        assert all(a for row in got for a in row.values())
        assert all(t < len(want) for row in got for t in row)
        assert [[row.get(t, 0) for row in got] for t in range(len(want))] == want, (
            shape, variant)


def test_exponent_matrices_yield_one_sorted_matrix_per_orbit():
    # against every ordered column triple, sorted and deduplicated; the
    # package yields column codes, decoded here
    yields = 0
    for m, n in [(m, 3) for m in range(0, 7)] + [(m, 4) for m in range(0, 4)]:
        orbits = {}
        for cols in itertools.product(monomial_exponents(m, n), repeat=3):
            weight = tuple(map(sum, zip(*cols)))
            orbits.setdefault(weight, set()).add(tuple(sorted(cols, reverse=True)))
        for shape in _partitions(3 * m, n):
            weight = tuple(shape) + (0,) * (n - len(shape))
            got = [tuple(kernel_reference.decode(m, n, code) for code in rep)
                   for rep in oracle._exponent_matrices(m, n, weight)]
            assert len(got) == len(orbits[weight]) and set(got) == orbits[weight]
            if (m, n) == (6, 3):
                yields += len(got)
    assert yields == 851


EXACTNESS_CASES = [(m, n) for m in range(0, 4) for n in range(0, 4)] + [
    (m, 4) for m in range(0, 3)]


@pytest.mark.parametrize("m,n", EXACTNESS_CASES)
def test_exponent_matrices_match_the_tuple_enumeration_on_every_weight(m, n):
    # every weight with entries in 0..3m+3: non-dominant ones, sums other
    # than 3m, and entries past 3m, where a code subtraction would carry
    for weight in itertools.product(range(3 * m + 4), repeat=n):
        got = [tuple(kernel_reference.decode(m, n, code) for code in rep)
               for rep in oracle._exponent_matrices(m, n, weight)]
        assert got == list(kernel_reference._exponent_matrices(m, n, weight)), weight


def test_kernel_oracle_works_on_the_shape_rows():
    # padding rows change neither the basis nor the rows: the oracle at n
    # equals the basis and rows built at n rows, for n = 3, 4, 5
    for m in range(0, 7):
        for variant in ("sym", "alt"):
            for n in (3, 4, 5):
                for shape in _partitions(3 * m, n):
                    basis = oracle._isotypic_weight_basis(m, n, pad(shape, n), variant,
                                                          max_dim=oracle.MAX_DIM)
                    rows = oracle._raising_rows(m, n, basis, variant == "alt")
                    assert hwv_kernel_multiplicity(m, n, shape, variant) == (
                        len(basis) - rank_of_integer_matrix(rows)), (m, n, shape)
    # the codes stay three digits long however many rows the space has
    assert hwv_kernel_multiplicity(3, 200, (3, 3, 3), "alt") == 1


PRIME = 2**61 - 1


def test_rank_of_integer_matrix():
    assert rank_of_integer_matrix([]) == 0
    assert rank_of_integer_matrix(sparse([[0, 0], [0, 0]])) == 0
    assert rank_of_integer_matrix(sparse([[1, 2], [2, 4]])) == 1
    assert rank_of_integer_matrix(sparse([[1, 2], [3, 4]])) == 2
    assert rank_of_integer_matrix(sparse([[0, 1], [1, 0], [1, 1]])) == 2
    # needs exact arithmetic: a float elimination would drift here
    big = 10 ** 30
    assert rank_of_integer_matrix(sparse([[big, 1], [big, 1]])) == 1
    # a multiple of 2^61 - 1, a kernel vector with a large entry, and two
    # matrices with a nontrivial kernel
    assert rank_of_integer_matrix(sparse([[PRIME, 0], [0, 1]])) == 2
    assert rank_of_integer_matrix(sparse([[1, -(2**40)]])) == 1
    assert rank_of_integer_matrix(sparse([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank_of_integer_matrix(sparse([[3, 0, 6], [0, 7, 14]])) == 2
    # repeated rows go through the elimination and reduce to zero
    assert rank_of_integer_matrix(sparse([[1, 2, 0], [0, 3, 5]] * 40)) == 2
    # the input rows are left as they were: here one is divided by its
    # content, one reduced with scale 1 and one scaled before it is reduced
    rows = sparse([[1, 2, 0], [2, 4, 6], [1, 3, 5], [0, 2, 3]])
    before = copy.deepcopy(rows)
    assert rank_of_integer_matrix(rows) == 3
    assert rows == before


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-2, 2).map(lambda k: k * PRIME),
    st.integers(-(2**70), 2**70),
)


def dense_matrices(ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=24)


def low_rank_matrices(ncols):
    """U·V with an inner dimension below ncols, so the kernel is nontrivial."""
    return st.integers(1, ncols - 1).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=1, max_size=24),
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=k, max_size=k),
    )).map(lambda uv: [[sum(a * b for a, b in zip(u, col)) for col in zip(*uv[1])]
                       for u in uv[0]])


integer_matrices = st.integers(1, 6).flatmap(
    lambda ncols: dense_matrices(ncols) | (low_rank_matrices(ncols) if ncols > 1
                                           else dense_matrices(ncols))
)


@settings(max_examples=200, deadline=None)
@given(integer_matrices)
def test_rank_matches_bareiss(rows):
    given_rows = sparse(rows)
    before = copy.deepcopy(given_rows)
    assert rank_of_integer_matrix(given_rows) == _rank_bareiss(rows)
    assert given_rows == before


def test_kernel_oracle_ranks_match_bareiss_up_to_m4(monkeypatch):
    built = []
    rank = oracle.rank_of_integer_matrix

    def record(rows):
        built.append(rows)
        return rank(rows)

    monkeypatch.setattr(oracle, "rank_of_integer_matrix", record)
    for m in range(0, 5):
        for variant in ("sym", "alt"):
            for shape in _partitions(3 * m, 3):
                hwv_kernel_multiplicity(m, 3, shape, variant)
    monkeypatch.undo()
    assert len(built) > 50
    for rows in built:
        assert rank(rows) == _rank_bareiss(dense(rows))


def test_kernel_oracle_at_1200_variables_matches_closed_form():
    # the kernel works on the shape's own three rows, whatever n is
    for shape in [(6, 4, 2), (5, 5, 2), (8, 3, 1)]:
        for variant in ("sym", "alt"):
            assert hwv_kernel_multiplicity(4, 1200, shape, variant) == (
                multiplicity_closed_form(shape, variant)), (shape, variant)


def test_kernel_oracle_matches_closed_form_m4_to_m10():
    for m in range(4, 11):
        for variant in ("sym", "alt"):
            for shape in _partitions(3 * m, 3):
                assert hwv_kernel_multiplicity(m, 3, shape, variant) == (
                    multiplicity_closed_form(shape, variant))


def test_kernel_oracle_matches_closed_form_on_four_rows():
    # the largest matrices built here (up to 1004 x 371), so growth in the
    # rank's entries would show as time
    cases = 0
    for m in range(0, 7):
        for variant in ("sym", "alt"):
            for shape in _partitions(3 * m, 4):
                want = multiplicity_closed_form(shape, variant) if len(shape) <= 3 else 0
                assert hwv_kernel_multiplicity(m, 4, shape, variant) == want, (m, shape)
                cases += 1
    assert cases == 406


KERNEL_REFERENCE_CASES = [(m, 2) for m in range(0, 7)] + [(m, 3) for m in range(0, 6)] + [
    (m, 4) for m in range(0, 5)
]


@pytest.mark.parametrize("m,n", KERNEL_REFERENCE_CASES)
def test_kernel_oracle_matches_the_polynomial_reference(m, n):
    for variant in ("sym", "alt"):
        for shape in _partitions(3 * m, n):
            assert hwv_kernel_multiplicity(m, n, shape, variant) == (
                kernel_reference.hwv_kernel_multiplicity(m, n, shape, variant)), shape


def test_kernel_oracle_matches_the_character_oracle_on_five_rows():
    for m in range(0, 3):
        for variant in ("sym", "alt"):
            mults = multiplicities_by_kostka(m, 5, variant)
            assert set(mults) <= set(_partitions(3 * m, 5))
            for shape in _partitions(3 * m, 5):
                assert hwv_kernel_multiplicity(m, 5, shape, variant) == mults.get(shape, 0)


def test_kernel_oracle_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel oracle used the polynomial layer")

    monkeypatch.setattr(Polynomial, "polarize", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    monkeypatch.setattr(actions, "raising_operator", refuse)
    monkeypatch.setattr(oracle, "raising_operator", refuse)
    got = {(m, shape, variant): hwv_kernel_multiplicity(m, 3, shape, variant)
           for m in range(0, 4) for variant in ("sym", "alt")
           for shape in _partitions(3 * m, 3)}
    monkeypatch.undo()
    for (m, shape, variant), mult in got.items():
        assert mult == multiplicity_closed_form(shape, variant)


def test_weyl_dimension():
    assert weyl_dimension((3,), 3) == 10
    assert weyl_dimension((2, 1), 3) == 8
    assert weyl_dimension((1, 1, 1), 3) == 1
    assert weyl_dimension((1, 1, 1), 4) == 4
    assert weyl_dimension((), 5) == 1
    with pytest.raises(ValueError):
        weyl_dimension((1, 1, 1, 1), 3)


def test_weyl_dimension_matches_the_all_pairs_formula():
    cases = 0
    for size in range(7):
        for shape in _partitions(size, 4):
            for n in range(9):
                if len(shape) > n:
                    for fn in (weyl_dimension, weyl_reference.weyl_dimension):
                        with pytest.raises(ValueError):
                            fn(shape, n)
                else:
                    assert weyl_dimension(shape, n) == weyl_reference.weyl_dimension(shape, n)
                    cases += 1
    assert cases == 182  # 27 shapes, each at every n from its length to 8


def test_weyl_dimension_at_a_thousand_rows():
    # the reference's value, pinned: the reference multiplies all 499500
    # pairs of rows, which builds products near 1000!^3, too slow for a test.
    # It is also the hook-content formula, Π (n + content) / Π hook, with
    # contents 0, 1, 2, -1, 0, -2 and hooks 5, 3, 1, 3, 1, 1.
    assert 1000 ** 2 * 1001 * 1002 * 999 * 998 // 45 == 22222111111200000
    assert weyl_dimension((3, 2, 1), 1000) == 22222111111200000


def test_character_oracle_at_forty_rows_is_the_three_row_answer():
    for variant in ("sym", "alt"):
        assert multiplicities_by_kostka(3, 40, variant) == multiplicities_by_kostka(3, 3, variant)


@pytest.mark.parametrize("n", [2, 3, 4, 40])
def test_a_weight_lost_from_the_restricted_table_fails_the_dimension_certificate(
        monkeypatch, n):
    # the lex-largest weight is dominant and counted by its own constituent
    # alone, so losing it zeroes that multiplicity and no other: the read-off
    # stays nonnegative and only the dimension sum can see the loss
    table = oracle.weight_table_plethysm
    rows = []

    def lossy(m, r, variant):
        rows.append(r)
        out = table(m, r, variant)
        del out[max(out)]
        return out

    monkeypatch.setattr(oracle, "weight_table_plethysm", lossy)
    for variant in ("sym", "alt"):
        with pytest.raises(AssertionError, match="constituent dimensions sum to"):
            multiplicities_by_kostka(3, n, variant)
    assert rows == [min(n, 3)] * 2


def test_character_tables_past_the_recursion_limit():
    # the character oracle works at three rows; its tables still list the
    # monomials of any number of rows with no recursion
    assert monomial_exponents(0, 1000) == ((0,) * 1000,)
    units = monomial_exponents(1, 1000)
    assert units == tuple(tuple(int(i == j) for i in range(1000)) for j in range(1000))
    assert weight_table_plethysm(0, 1000, "sym") == {(0,) * 1000: 1}


def test_dimension_conservation_small():
    for n in (3, 4):
        for m in range(0, 4):
            d = math.comb(m + n - 1, n - 1)
            for variant, total in (("sym", math.comb(d + 2, 3)), ("alt", math.comb(d, 3))):
                if variant == "alt" and m < 1:
                    continue
                mults = multiplicities_by_kostka(m, n, variant)
                assert sum(v * weyl_dimension(s, n) for s, v in mults.items()) == total


def test_isotypic_split_accounts_for_kostka():
    # each weight-D multiplicity space of the full degree-(m,m,m) component
    # has dimension K(D, (m,m,m)) and splits into invariant, sign, and pairs
    for m in range(1, 4):
        sym = multiplicities_by_kostka(m, 3, "sym")
        alt = multiplicities_by_kostka(m, 3, "alt")
        for shape in set(sym) | set(alt):
            k = kostka(shape, (m, m, m))
            rest = k - sym.get(shape, 0) - alt.get(shape, 0)
            assert rest >= 0
            assert rest % 2 == 0


def test_oracle_report_shape():
    obj = oracle_report_json(2, 3, "sym")
    assert obj["m"] == 2 and obj["n"] == 3 and obj["variant"] == "sym"
    assert obj["multiplicities"][0] == {"diagram": [6], "mult": 1}
    diagrams = [tuple(e["diagram"]) for e in obj["multiplicities"]]
    assert diagrams == sorted(diagrams, reverse=True)
