import itertools
from collections import Counter

import kostka_reference
import pytest
import sst_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from plethysm import tableaux, verify
from plethysm.actions import is_un_invariant
from plethysm.polynomials import Monomial, variable
from plethysm.tableaux import (
    ShapeTooTallError,
    Tableau,
    column_minor,
    content_monomial,
    delta_tableau,
    enumerate_sst,
    kostka,
    normalize_partition,
    pad,
    specht_map,
    specht_polynomial,
    standard_monomial_basis,
)


def z(t):
    return variable(1, t)


def test_normalize_partition():
    assert normalize_partition((4, 2, 0, 0)) == (4, 2)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition((2, 3))
    with pytest.raises(ValueError):
        normalize_partition((3, 0, 2))
    with pytest.raises(ValueError):
        normalize_partition((3, -1))


def test_pad():
    assert pad((4, 2), 3) == (4, 2, 0)
    with pytest.raises(ValueError):
        pad((4, 2, 1), 2)


def test_tableau_validation():
    Tableau(((1, 1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Tableau(((1, 2), (1, 3)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)))  # rows growing


def test_enumerate_sst_basic():
    assert [T.rows for T in enumerate_sst((3,), (1, 1, 1))] == [((1, 2, 3),)]
    got = [T.rows for T in enumerate_sst((2, 1), (1, 1, 1))]
    assert got == [((1, 2), (3,)), ((1, 3), (2,))]
    assert enumerate_sst((1, 1, 1, 1), (2, 1, 1)) == []
    assert [T.rows for T in enumerate_sst((6,), (2, 2, 2))] == [((1, 1, 2, 2, 3, 3),)]


def test_enumerate_sst_row_reading_order():
    for shape, content in [((4, 2), (2, 2, 2)), ((3, 2, 1), (2, 2, 2)), ((2, 2), (1, 2, 1))]:
        words = [T.row_reading_word() for T in enumerate_sst(shape, content)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_enumerate_sst_past_the_recursion_limit():
    # one tableau each, filled cell by cell far beyond the recursion limit
    for shape in [(1100,), (1,) * 1100]:
        [T] = enumerate_sst(shape, (1,) * 1100)
        assert T.row_reading_word() == tuple(range(1, 1101))
    assert [T.rows for T in enumerate_sst((999,), (999,))] == [((1,) * 999,)]
    assert [T.rows for T in enumerate_sst((500, 500), (500, 500))] == [((1,) * 500, (2,) * 500)]


def test_enumerate_sst_counts_match_kostka():
    shapes = [(3,), (2, 1), (1, 1, 1), (4, 2), (3, 3), (2, 2, 2), (4, 4, 1), (3, 3, 3)]
    for shape in shapes:
        total = sum(shape)
        for content in itertools.product(range(total + 1), repeat=3):
            if sum(content) != total:
                continue
            count = len(enumerate_sst(shape, content))
            assert count == kostka(shape, content)
            # listing and counting share the strip step, so also the backward peel
            assert count == kostka_reference.kostka(shape, content)


@st.composite
def shapes_and_contents(draw):
    """Shapes and contents of up to 5 parts, zeros allowed, of any length.

    Half the contents are compositions of the shape's size, so the Kostka
    number is often nonzero; the rest have unrelated sizes.
    """
    shape = sorted(draw(st.lists(st.integers(0, 6), max_size=5)), reverse=True)
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, sum(shape)), max_size=4)))
        content = [b - a for a, b in zip([0] + cuts, cuts + [sum(shape)])]
    else:
        content = draw(st.lists(st.integers(0, 6), max_size=5))
    return tuple(shape), tuple(content)


@settings(max_examples=400, deadline=None)
@given(shapes_and_contents())
def test_kostka_matches_the_backward_peel(case):
    shape, content = case
    assert kostka(shape, content) == kostka_reference.kostka(shape, content)


@settings(max_examples=400, deadline=None)
@given(shapes_and_contents())
def test_enumerate_sst_matches_the_backtracker(case):
    shape, content = case
    assert ([T.rows for T in enumerate_sst(shape, content)]
            == [T.rows for T in sst_reference.enumerate_sst(shape, content)])


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((1, 1, 1), (1, 1, 1)) == 1
    assert kostka((4, 2), (2, 2, 2)) == 3
    assert kostka((4, 4, 1), (3, 3, 3)) == 1
    assert kostka((2, 2, 2), (3, 3)) == 0
    assert kostka((), ()) == 1
    # the same error as enumerate_sst, though the sizes agree
    for count in (kostka, enumerate_sst):
        with pytest.raises(ValueError, match="negative content"):
            count((2,), (3, -1))


def test_kostka_content_permutation_invariance():
    for shape in [(4, 2), (3, 2, 1), (5, 3, 1)]:
        base = None
        total = sum(shape)
        for content in set(itertools.permutations((total - 5, 3, 2))):
            if any(c < 0 for c in content):
                continue
            value = kostka(shape, content)
            if base is None:
                base = value
            assert value == base


def test_kostka_check_builds_one_table_per_m(monkeypatch):
    calls = Counter()
    within = tableaux.kostka_within

    def counting(outer, content):
        calls[outer, content] += 1
        return within(outer, content)

    def forbidden(shape, content):
        raise AssertionError("the check reads the table, not kostka")

    monkeypatch.setattr(tableaux, "kostka_within", counting)
    monkeypatch.setattr(tableaux, "kostka", forbidden)
    assert verify.check_kostka_closed_form(8).passed
    assert calls == Counter({((3 * m,) * 3, (m,) * 3): 1 for m in range(1, 9)})


def test_column_minor_is_gamma1():
    det = column_minor((1, 2, 3))
    x = variable
    expected = (
        x(1, 1) * x(2, 2) * x(3, 3) - x(1, 1) * x(3, 2) * x(2, 3)
        - x(2, 1) * x(1, 2) * x(3, 3) + x(2, 1) * x(3, 2) * x(1, 3)
        + x(3, 1) * x(1, 2) * x(2, 3) - x(3, 1) * x(2, 2) * x(1, 3)
    )
    assert det == expected
    with pytest.raises(ValueError):
        column_minor((2, 2))


def test_two_column_minors_are_the_generators_deltas():
    """hwv builds delta[i][j] from column_minor((i, j)): rows 1, 2, columns i, j."""
    x = variable
    for i, j in itertools.combinations(range(1, 5), 2):
        assert column_minor((i, j)) == x(1, i) * x(2, j) - x(2, i) * x(1, j)


def test_delta_tableau_examples():
    x = variable
    row = Tableau(((1, 2, 3),))
    assert delta_tableau(row) == x(1, 1) * x(1, 2) * x(1, 3)

    column = Tableau(((1,), (2,), (3,)))
    assert delta_tableau(column) == column_minor((1, 2, 3))

    # two-column alphabet: (2m-a, a) with second row all 2s
    m, a = 3, 2
    T = Tableau(((1,) * m + (2,) * (m - a), (2,) * a))
    d12 = x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)
    assert delta_tableau(T) == d12 ** a * (x(1, 1) * x(1, 2)) ** (m - a)


def test_delta_tableau_height_bound():
    T = Tableau(((1,), (2,), (3,)))
    delta_tableau(T, 3)
    with pytest.raises(ShapeTooTallError):
        delta_tableau(T, 2)


def test_content_monomial():
    T = Tableau(((1, 1, 2), (2, 3)))
    assert content_monomial(T) == Monomial({(1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1})


def test_delta_leading_monomial_is_content_monomial():
    for m in (1, 2, 3):
        seen = set()
        shapes = set()
        for shape in [(3 * m,), (3 * m - 1, 1), (2 * m, m), (m, m, m),
                      (3 * m - 2, 1, 1), (2 * m, m - 1, 1)]:
            try:
                shapes.add(normalize_partition(shape))
            except ValueError:
                continue
        for shape in sorted(shapes):
            for T in enumerate_sst(shape, (m, m, m)):
                mono, coeff = delta_tableau(T).leading_monomial()
                assert coeff == 1
                assert mono == content_monomial(T)
                assert mono not in seen
                seen.add(mono)


def test_delta_tableau_is_highest_weight():
    for shape in [(2, 1), (4, 2), (2, 2, 2), (4, 4, 1)]:
        m = sum(shape) // 3
        for T in enumerate_sst(shape, (m, m, m)):
            f = delta_tableau(T)
            assert is_un_invariant(f, 4)
            assert f.row_weight(4) == pad(shape, 4)


def test_standard_monomial_basis_counts():
    assert len(standard_monomial_basis(2, (4, 2), 3)) == 3
    assert len(standard_monomial_basis(2, (2, 2, 2), 3)) == 1
    assert standard_monomial_basis(2, (4, 1), 3) == []  # wrong size
    assert len(standard_monomial_basis(1, (1, 1, 1), 3)) == 1


def test_specht_map_basics():
    x = variable
    f = x(2, 1) * x(3, 2) ** 2  # -> z1^1 * z2^4
    assert specht_map(f) == z(1) * z(2) ** 4
    assert specht_map(x(1, 1)) == 1
    with pytest.raises(ValueError):
        specht_map(x(1, 4), 3)


def test_specht_image_of_determinant_is_vandermonde():
    image = specht_map(column_minor((1, 2, 3)))
    vandermonde = (z(2) - z(1)) * (z(3) - z(1)) * (z(3) - z(2))
    assert image == vandermonde


def test_specht_polynomial_matches_mapped_tableau_vectors():
    for shape in [(3,), (2, 1), (1, 1, 1)]:
        for T in enumerate_sst(shape, (1, 1, 1)):
            assert specht_map(delta_tableau(T)) == specht_polynomial(T)


def test_kostka_square_content_closed_form():
    for m in range(1, 6):
        for l1 in range(3 * m, 0, -1):
            for l2 in range(min(l1, 3 * m - l1), -1, -1):
                l3 = 3 * m - l1 - l2
                if l3 < 0 or l3 > l2:
                    continue
                shape = normalize_partition((l1, l2, l3))
                expected = min(l1 - l2, l2 - l3) + 1
                assert kostka(shape, (m, m, m)) == expected
