"""The packed-integer monomials against the tuple-of-pairs layout they replaced,
and the limits of the packed layout."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuple_reference as ref
from plethysm.actions import permute_columns
from plethysm.polynomials import (
    MAX_COL,
    MAX_DEGREE,
    MAX_ROW,
    Monomial,
    Polynomial,
    variable,
)

VARS = [(r, c) for r in range(1, MAX_ROW + 1) for c in range(1, MAX_COL + 1)]


def exponent_maps(max_exp=3, max_vars=5):
    return st.dictionaries(st.sampled_from(VARS), st.integers(0, max_exp), max_size=max_vars)


def term_lists(max_exp=3, max_vars=5, max_terms=6):
    return st.lists(st.tuples(exponent_maps(max_exp, max_vars), st.integers(-4, 4)),
                    max_size=max_terms)


def operands():
    """Term lists, or one term with a coefficient other than 0 and +-1, so
    that products by a single scaled term are always among the draws."""
    one_term = st.tuples(exponent_maps(), st.integers(-4, 4).filter(lambda c: abs(c) > 1))
    return st.one_of(term_lists(), st.lists(one_term, min_size=1, max_size=1))


def both(terms):
    """The same polynomial, built term by term, in the packed and the tuple layout."""
    return (Polynomial({Monomial(e): c for e, c in terms}),
            ref.Polynomial({ref.Monomial(e): c for e, c in terms}))


def same(packed, old):
    """Equal terms in the same iteration order, and equal printed forms."""
    assert ([(list(m.exponents().items()), c) for m, c in packed.terms()]
            == [(list(m.exponents().items()), c) for m, c in old.terms()])
    assert ([(list(m.exponents().items()), c)
             for m, c in sorted(packed.terms(), reverse=True)]
            == [(list(m.exponents().items()), c) for m, c in old.terms_sorted()])
    assert packed.to_json_obj() == old.to_json_obj()
    assert str(packed) == str(old)
    assert len(packed) == len(old)
    assert packed.variables() == old.variables()


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# differential: every operation agrees with the tuple layout


@given(operands(), operands())
def test_ring_operations_match_the_tuple_layout(f_terms, g_terms):
    (f, old_f), (g, old_g) = both(f_terms), both(g_terms)
    same(f, old_f)
    same(f * g, old_f * old_g)
    same(f + g, old_f + old_g)
    same(f - g, old_f - old_g)
    same(-f, -old_f)
    same(3 * f + 2, 3 * old_f + 2)
    assert (f == g) == (old_f == old_g)


@given(term_lists(max_terms=4), st.integers(0, 3))
@settings(max_examples=60)
def test_power_matches_the_tuple_layout(terms, exp):
    f, old = both(terms)
    same(f ** exp, old ** exp)


@given(term_lists(), st.integers(1, MAX_ROW), st.integers(1, MAX_ROW))
def test_polarize_matches_the_tuple_layout(terms, p, q):
    f, old = both(terms)
    same(f.polarize(p, q), old.polarize(p, q))


@given(term_lists(), st.sampled_from(VARS))
def test_partial_derivative_matches_the_tuple_layout(terms, var):
    f, old = both(terms)
    same(f.partial_derivative(*var), old.partial_derivative(*var))


@given(term_lists(max_exp=2, max_vars=3, max_terms=4),
       st.fixed_dictionaries({var: term_lists(max_exp=1, max_vars=2, max_terms=2)
                              for var in VARS}))
@settings(max_examples=60)
def test_substitute_matches_the_tuple_layout(terms, image_terms):
    f, old = both(terms)
    images = {var: both(t) for var, t in image_terms.items()}
    same(f.substitute({var: img[0] for var, img in images.items()}),
         old.substitute({var: img[1] for var, img in images.items()}))


@given(term_lists())
def test_permute_columns_matches_the_tuple_layout(terms):
    """Every permutation of 1..k, k <= MAX_COL, against the general monomial
    map it replaced; the method and the action both refuse a column in use
    past k."""
    f, old = both(terms)
    top = max((col for _, col in f.variables()), default=0)
    for k in range(1, MAX_COL + 1):
        for tau in itertools.permutations(range(1, k + 1)):
            if top > k:
                for permute in (f.permute_columns, partial(permute_columns, f)):
                    with pytest.raises(ValueError, match=f"column {top} out of range"):
                        permute(tau)
                continue
            want = old.rename_variables(lambda row, col: (row, tau[col - 1]))
            same(f.permute_columns(tau), want)
            same(permute_columns(f, tau), want)


@given(term_lists())
def test_leading_monomial_and_gradings_match_the_tuple_layout(terms):
    f, old = both(terms)
    if f.is_zero:
        assert old.is_zero
        return
    (mono, coeff), (old_mono, old_coeff) = f.leading_monomial(), old.leading_monomial()
    assert list(mono.exponents().items()) == list(old_mono.exponents().items())
    assert coeff == old_coeff
    assert f.degree() == old.degree()
    for width in (None, 2, MAX_ROW, MAX_ROW + 2):
        for name in ("row_weight", "column_degree"):
            got = outcome(lambda: getattr(f, name)(width))
            want = outcome(lambda: getattr(old, name)(width))
            if isinstance(want, tuple) or width is None:
                assert got == want
            else:
                # both raise; a term past the width and terms that disagree
                # may be reported in either order
                assert isinstance(got, type) and issubclass(got, ValueError)


@given(term_lists())
@settings(max_examples=60)
def test_json_round_trip_matches_the_tuple_layout(terms):
    f, old = both(terms)
    obj = old.to_json_obj()
    same(Polynomial.from_json_obj(obj), ref.Polynomial.from_json_obj(obj))
    assert Polynomial.from_json_obj(f.to_json_obj()) == f


@given(exponent_maps(), exponent_maps(), st.integers(0, 4))
def test_monomials_match_the_tuple_layout(a_exps, b_exps, exp):
    a, b = Monomial(a_exps), Monomial(b_exps)
    old_a, old_b = ref.Monomial(a_exps), ref.Monomial(b_exps)
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
        old_a < old_b, old_a <= old_b, old_a > old_b, old_a >= old_b,
        old_a == old_b, old_a != old_b)
    assert (a > b) - (a < b) == ref.mono_cmp(old_a, old_b)
    assert a != b or hash(a) == hash(b)
    assert list((a * b).exponents().items()) == list((old_a * old_b).exponents().items())
    assert list((a ** exp).exponents().items()) == list((old_a ** exp).exponents().items())
    assert (str(a), repr(a), a.degree, a == Monomial(), a.variables()) == (
        str(old_a), repr(old_a), old_a.degree, old_a.is_unit, old_a.variables())
    assert all(a.exponents().get(var, 0) == old_a.exponent(*var) for var in VARS)


# ---------------------------------------------------------------------------
# layout limits: out-of-layout variables and overflowing degrees raise


def test_variables_outside_the_layout_raise():
    for row, col in ((MAX_ROW + 1, 1), (1, MAX_COL + 1), (MAX_ROW + 1, MAX_COL + 1)):
        with pytest.raises(ValueError, match="outside"):
            Monomial({(row, col): 1})
        with pytest.raises(ValueError, match="outside"):
            variable(row, col)
        with pytest.raises(ValueError, match="outside"):
            Polynomial.from_json_obj([{"coeff": "1", "exps": [[row, col, 1]]}])
    with pytest.raises(ValueError, match="outside"):
        variable(1, 1).permute_columns((5, 2, 3, 4, 1))
    with pytest.raises(ValueError, match="outside"):
        variable(1, 1).polarize(MAX_ROW + 1, 1)
    with pytest.raises(ValueError, match="1-based"):
        Monomial({(0, 1): 1})


def test_reading_a_variable_outside_the_layout_gives_zero():
    f = variable(1, 1) * variable(MAX_ROW, MAX_COL)
    assert f.partial_derivative(MAX_ROW + 1, 1) == 0
    assert f.polarize(1, MAX_ROW + 1) == 0


def test_degree_bound_is_exact_and_never_wraps():
    top = variable(1, 1) ** 200 * variable(MAX_ROW, MAX_COL) ** (MAX_DEGREE - 200)
    mono, coeff = top.leading_monomial()
    assert mono.exponents() == {(1, 1): 200, (MAX_ROW, MAX_COL): MAX_DEGREE - 200}
    assert (mono.degree, coeff) == (MAX_DEGREE, 1)
    # a full field next to an empty one, and next to the degree field
    assert (variable(2, 1) ** MAX_DEGREE).leading_monomial()[0].exponents() == {
        (2, 1): MAX_DEGREE}
    assert (variable(1, 1) ** MAX_DEGREE).degree() == MAX_DEGREE
    for build in (
        lambda: variable(1, 1) ** (MAX_DEGREE + 1),
        lambda: variable(1, 2) ** MAX_DEGREE * variable(1, 1),
        lambda: top * variable(2, 2),
        lambda: Monomial({(1, 1): MAX_DEGREE + 1}),
        lambda: Monomial({(1, 1): 200, (1, 2): MAX_DEGREE - 199}),
        lambda: Monomial({(1, 1): 128}) ** 2,
        lambda: Monomial({(1, 1): 128}) * Monomial({(2, 1): 128}),
    ):
        with pytest.raises(ValueError, match="exceeds the bound"):
            build()


class _NoArithmetic(int):
    """A key or coefficient that fails the test when a product loop adds or
    multiplies it; comparing and shifting it, as the degree check does, is fine."""

    def _fail(self, other):
        raise AssertionError("the product loop ran")

    __add__ = __radd__ = __mul__ = __rmul__ = _fail


def _loop_detecting(f):
    """f with every key and coefficient a _NoArithmetic: any product or power
    loop over its terms raises AssertionError at its first pair."""
    return Polynomial._make({_NoArithmetic(key): _NoArithmetic(c) for key, c in f._terms.items()})


def test_products_and_powers_check_the_degree_before_their_loop():
    f = _loop_detecting(variable(1, 1) ** 200 + variable(2, 1) ** 200)
    g = _loop_detecting(variable(1, 2) ** 56 - variable(2, 2) ** 56)
    one = _loop_detecting(3 * variable(1, 3) ** 56)  # a one-term factor
    with pytest.raises(AssertionError, match="the product loop ran"):
        f * (variable(1, 2) - variable(2, 2))  # within the bound, the loop runs and is seen
    for one_term in (lambda: f * variable(1, 2), lambda: variable(1, 2) * f,
                     lambda: one * variable(1, 2), lambda: variable(1, 2) * one):
        with pytest.raises(AssertionError, match="the product loop ran"):
            one_term()  # so it does with a one-term factor on either side
    for past in (lambda: f * g, lambda: g * f, lambda: f * one, lambda: one * f):
        with pytest.raises(ValueError, match="total degree 256 exceeds the bound 255"):
            past()
    with pytest.raises(ValueError, match="total degree 400 exceeds the bound 255"):
        f ** 2
    with pytest.raises(ValueError, match="total degree 280 exceeds the bound 255"):
        g ** 5
