"""`Polynomial.to_json_text` against the `json` encoder it stands in for."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethysm.polynomials import MAX_COL, MAX_DEGREE, MAX_ROW, Monomial, Polynomial, variable

VARS = [(r, c) for r in range(1, MAX_ROW + 1) for c in range(1, MAX_COL + 1)]
LEVELS = (0, 6, 10)


def encoded(p, level):
    """What the emitter must reproduce: the encoder's text, re-indented by level."""
    return json.dumps(p.to_json_obj(), indent=2, ensure_ascii=False).replace(
        "\n", "\n" + " " * level)


@st.composite
def monomials(draw):
    """Any monomial of the layout: up to five variables, total degree <= MAX_DEGREE."""
    exponents, budget = {}, MAX_DEGREE
    for var in draw(st.lists(st.sampled_from(VARS), unique=True, max_size=5)):
        if not budget:
            break
        exponents[var] = draw(st.integers(1, budget))
        budget -= exponents[var]
    return Monomial(exponents)


coefficients = st.one_of(st.integers(-5, 5), st.integers(-(1 << 80), 1 << 80))
polynomials = st.dictionaries(monomials(), coefficients, max_size=6).map(Polynomial)


@given(polynomials, st.sampled_from(LEVELS))
def test_emitter_matches_the_json_encoder(p, level):
    assert p.to_json_text(level) == encoded(p, level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("p", [
    Polynomial.zero(),
    Polynomial.constant(-7),
    Polynomial.constant(1 << 64) - variable(1, 1),
    -(3 * variable(4, 1) * variable(1, 4) - variable(4, 4) ** 2 + 1),
    variable(4, 4) ** MAX_DEGREE - (1 << 65) * variable(1, 1) ** MAX_DEGREE,
], ids=["zero", "constant", "past-2^64", "row-and-column-4", "max-degree"])
def test_emitter_edge_cases(p, level):
    assert p.to_json_text(level) == encoded(p, level)


def test_emitter_layout_is_the_documented_one():
    assert Polynomial.zero().to_json_text(10) == "[]"
    assert Polynomial.constant(-2).to_json_text(0) == (
        '[\n  {\n    "coeff": "-2",\n    "exps": []\n  }\n]')
