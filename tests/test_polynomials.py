import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethysm.polynomials import (
    Monomial,
    NotIsobaricError,
    NotMultihomogeneousError,
    Polynomial,
    ZeroPolynomialError,
    variable,
)


def x(i, j):
    return variable(i, j)


def delta(i, j):
    return x(1, i) * x(2, j) - x(2, i) * x(1, j)


# ---------------------------------------------------------------------------
# monomial order


def test_variable_chain_order():
    # down column 1 first, then column 2
    m11 = Monomial({(1, 1): 1})
    m21 = Monomial({(2, 1): 1})
    m31 = Monomial({(3, 1): 1})
    m12 = Monomial({(1, 2): 1})
    assert m11 > m21 > m31 > m12


def test_degree_dominates():
    assert Monomial({(3, 1): 2}) > Monomial({(1, 1): 1})


def test_lex_tie_break():
    # equal degree: compare along the chain
    a = Monomial({(1, 1): 1, (1, 2): 1})
    b = Monomial({(1, 1): 1, (2, 2): 1})
    assert a > b and b < a
    assert not a < a and a <= a


def test_comparing_a_monomial_with_another_type_raises_type_error():
    assert Monomial() != 1
    for compare in (lambda: Monomial() < 5, lambda: Monomial() >= 5, lambda: 5 > Monomial()):
        with pytest.raises(TypeError):
            compare()


def test_leading_monomial_of_minor():
    lm, coeff = delta(1, 2).leading_monomial()
    assert lm == Monomial({(1, 1): 1, (2, 2): 1})
    assert coeff == 1


def test_leading_monomial_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero().leading_monomial()


# ---------------------------------------------------------------------------
# arithmetic


def test_difference_of_squares():
    assert (x(1, 1) + x(2, 1)) * (x(1, 1) - x(2, 1)) == x(1, 1) ** 2 - x(2, 1) ** 2


def test_cancellation_to_zero():
    f = delta(1, 2)
    assert f - f == 0
    assert (f - f).is_zero


def test_pow_zero_is_one():
    assert delta(1, 2) ** 0 == 1
    assert Polynomial.zero() ** 0 == 1


def test_binomial_cube():
    f = (x(1, 1) + x(1, 2)) ** 3
    assert dict(f.terms()).get(Monomial({(1, 1): 2, (1, 2): 1}), 0) == 3
    assert len(f) == 4


def test_int_scaling():
    f = 3 * delta(1, 2)
    assert dict(f.terms()).get(Monomial({(1, 1): 1, (2, 2): 1}), 0) == 3
    assert 0 * f == 0


def test_minor_squared_leading_coefficient():
    lm, coeff = (delta(1, 2) ** 2).leading_monomial()
    assert lm == Monomial({(1, 1): 2, (2, 2): 2})
    assert coeff == 1


# ---------------------------------------------------------------------------
# gradings


def test_column_degree():
    assert (x(1, 1) * x(1, 2) * x(1, 3)).column_degree() == (1, 1, 1)
    assert delta(1, 2).column_degree() == (1, 1)
    assert delta(1, 2).column_degree(3) == (1, 1, 0)


def test_column_degree_mixed_raises():
    with pytest.raises(NotMultihomogeneousError):
        (x(1, 1) + x(1, 2) ** 2).column_degree()


def test_row_weight():
    gamma1 = (
        x(1, 1) * x(2, 2) * x(3, 3) - x(1, 1) * x(3, 2) * x(2, 3)
        - x(2, 1) * x(1, 2) * x(3, 3) + x(2, 1) * x(3, 2) * x(1, 3)
        + x(3, 1) * x(1, 2) * x(2, 3) - x(3, 1) * x(2, 2) * x(1, 3)
    )
    assert gamma1.row_weight() == (1, 1, 1)
    with pytest.raises(NotIsobaricError):
        (x(1, 1) + x(2, 1)).row_weight()


def test_zero_has_no_grading():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero().column_degree()


# ---------------------------------------------------------------------------
# substitution and derivatives


def test_substitute_identity():
    f = delta(1, 2) * x(1, 1)
    sub = {v: variable(*v) for v in f.variables()}
    assert f.substitute(sub) == f


def test_substitute_column_swap_flips_minor():
    f = delta(1, 2)
    swap = {(1, 1): x(1, 2), (2, 1): x(2, 2), (1, 2): x(1, 1), (2, 2): x(2, 1)}
    assert f.substitute(swap) == -f


def test_substitute_row_operation_fixes_minor():
    # add c times row 1 to row 2: the top 2x2 minors are unchanged
    f = delta(1, 2)
    c = 5
    sub = {
        (1, 1): x(1, 1), (1, 2): x(1, 2),
        (2, 1): x(2, 1) + c * x(1, 1), (2, 2): x(2, 2) + c * x(1, 2),
    }
    assert f.substitute(sub) == f


def test_substitute_requires_total_map():
    with pytest.raises(KeyError):
        delta(1, 2).substitute({(1, 1): x(1, 1)})


def test_partial_derivative():
    f = x(1, 1) ** 2 * x(2, 2)
    assert f.partial_derivative(1, 1) == 2 * x(1, 1) * x(2, 2)
    assert f.partial_derivative(2, 2) == x(1, 1) ** 2
    assert f.partial_derivative(3, 3) == 0


def monomials_of(f):
    return {mono for mono, _ in f.terms()}


def test_cancelling_terms_are_dropped():
    mono = Monomial({(1, 1): 1, (2, 2): 1})
    f = Polynomial({mono: 3, Monomial({(1, 2): 1}): 1})
    g = Polynomial({mono: -3})
    assert monomials_of(f + g) == {Monomial({(1, 2): 1})}
    # (x11 + x21) * (x11 - x21): the mixed terms cancel
    product = (x(1, 1) + x(2, 1)) * (x(1, 1) - x(2, 1))
    assert monomials_of(product) == {Monomial({(1, 1): 2}), Monomial({(2, 1): 2})}
    obj = [
        {"coeff": "2", "exps": [[1, 1, 1]]},
        {"coeff": "-2", "exps": [[1, 1, 1]]},
        {"coeff": "1", "exps": [[2, 2, 1]]},
    ]
    assert monomials_of(Polynomial.from_json_obj(obj)) == {Monomial({(2, 2): 1})}


# ---------------------------------------------------------------------------
# rendering


def test_text_format():
    assert str(delta(1, 2)) == "x[1][1]*x[2][2] - x[2][1]*x[1][2]"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.constant(-7)) == "-7"
    assert str(x(1, 1) ** 2 * 3) == "3*x[1][1]^2"


def test_json_round_trip():
    f = delta(1, 2) ** 3 - 12 * x(3, 1) ** 4
    obj = f.to_json_obj()
    assert all(isinstance(t["coeff"], str) for t in obj)
    assert Polynomial.from_json_obj(obj) == f


@pytest.mark.parametrize("obj, message", [
    # read as x[1][1]^2 before: the 1.5 was truncated to 1
    ([{"coeff": 1.5, "exps": [[1, 1, 2]]}], "coefficient"),
    ([{"coeff": "1.5", "exps": [[1, 1, 2]]}], "invalid literal"),
    ([{"coeff": True, "exps": [[1, 1, 2]]}], "coefficient"),
    ([{"coeff": " 1_0", "exps": [[1, 1, 2]]}], "coefficient"),  # int() reads 10
    ([{"coeff": "1", "exps": [[1.0, 1, 2]]}], "three ints"),
    ([{"coeff": "1", "exps": [[True, 1, 2]]}], "three ints"),
    ([{"coeff": "1", "exps": [[1, True, 2]]}], "three ints"),
    ([{"coeff": "1", "exps": [[1, 1, 2.0]]}], "three ints"),  # a TypeError before
    ([{"coeff": "1", "exps": [[1, 1]]}], "three ints"),
    # kept only the last entry before
    ([{"coeff": "1", "exps": [[1, 1, 1], [1, 1, 1]]}], "listed twice"),
    ([{"coeff": "1", "exps": [[1, 1, 1], [2, 1, 1], [1, 1, 2]]}], "listed twice"),
    # a KeyError or a TypeError before
    ([{"exps": []}], "not an object"),
    ([{"coeff": "1"}], "not an object"),
    ([5], "not an object"),
    (5, "list of terms"),
    ([{"coeff": 1, "exps": 3}], "not an object"),
    ([{"coeff": 1, "exps": [5]}], "three ints"),
], ids=["float-coeff", "float-string-coeff", "bool-coeff", "padded-coeff", "float-row",
        "bool-row", "bool-col", "float-exp", "short-entry", "variable-twice",
        "variable-twice-apart", "no-coeff", "no-exps", "term-not-object", "not-a-list",
        "exps-not-a-list", "entry-not-a-list"])
def test_json_reading_is_exact(obj, message):
    with pytest.raises(ValueError, match=message):
        Polynomial.from_json_obj(obj)


def test_json_reading_takes_int_coefficients_and_adds_like_terms():
    obj = [{"coeff": 2, "exps": [[1, 1, 1]]}, {"coeff": "-12", "exps": [[1, 1, 1]]},
           {"coeff": "7", "exps": []}]
    assert Polynomial.from_json_obj(obj) == -10 * x(1, 1) + 7


def test_json_term_order_is_decreasing():
    f = x(1, 1) + x(2, 1) ** 2
    exps = [t["exps"] for t in f.to_json_obj()]
    assert exps == [[[2, 1, 2]], [[1, 1, 1]]]


# ---------------------------------------------------------------------------
# properties


@st.composite
def monomials(draw):
    pairs = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
            st.integers(1, 3),
            max_size=3,
        )
    )
    return Monomial(pairs)


@st.composite
def polys(draw):
    terms = draw(
        st.lists(st.tuples(monomials(), st.integers(-5, 5)), max_size=4)
    )
    total = Polynomial.zero()
    for mono, coeff in terms:
        total = total + Polynomial({mono: coeff})
    return total


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys(), polys())
def test_leading_monomial_is_multiplicative(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
        return
    (mf, cf), (mg, cg) = f.leading_monomial(), g.leading_monomial()
    mono, coeff = (f * g).leading_monomial()
    assert mono == mf * mg
    assert coeff == cf * cg


@given(polys(), polys())
def test_no_product_holds_a_zero_coefficient(f, g):
    # the product rebuilds its terms only when a sum cancelled; (f + g)(f - g)
    # cancels its cross terms whenever f and g share a monomial
    for product in (f * g, (f + g) * (f - g), f * f * g):
        assert all(coeff for _, coeff in product.terms())


@given(polys(), polys())
def test_substitution_is_a_ring_map(f, g):
    sub = {
        (i, j): variable(1, i) - 2 * variable(j, 1)
        for i in range(1, 4)
        for j in range(1, 4)
    }
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


@given(polys(), polys())
def test_derivative_leibniz(f, g):
    dfg = (f * g).partial_derivative(2, 2)
    assert dfg == f.partial_derivative(2, 2) * g + f * g.partial_derivative(2, 2)


@given(polys(), st.integers(1, 3), st.integers(1, 3))
def test_polarize_is_a_sum_of_derivatives(f, p, q):
    expected = Polynomial.zero()
    for j in range(1, 4):
        expected = expected + variable(p, j) * f.partial_derivative(q, j)
    assert f.polarize(p, q) == expected


@given(polys())
@settings(max_examples=50)
def test_text_is_stable_and_json_round_trips(f):
    assert Polynomial.from_json_obj(f.to_json_obj()) == f
    assert str(f) == str(Polynomial.from_json_obj(f.to_json_obj()))


@given(monomials(), monomials())
def test_monomial_order_is_multiplicative(a, b):
    # the fact behind LM(f*g) = LM(f)*LM(g)
    c = Monomial({(2, 2): 2, (3, 1): 1})
    assert (a < b, a == b) == (a * c < b * c, a * c == b * c)
