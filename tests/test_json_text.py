"""The JSON writers, `Polynomial.json_pieces` and
`DecompositionReport.json_chunks`, against the `json` encoder they stand in for,
and the text writer, `Polynomial.text_pieces`, against the one it replaced."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import text_reference
from plethysm.hwv import decompose
from plethysm.polynomials import (MAX_COL, MAX_DEGREE, MAX_ROW, TERMS_PER_PIECE, Monomial,
                                  Polynomial, variable)

VARS = [(r, c) for r in range(1, MAX_ROW + 1) for c in range(1, MAX_COL + 1)]
LEVELS = (0, 6, 10)


def encoded(p, level):
    """What the emitter must reproduce: the encoder's text, re-indented by level."""
    return json.dumps(p.to_json_obj(), indent=2, ensure_ascii=False).replace(
        "\n", "\n" + " " * level)


def joined(p, level):
    """The emitter's text: its pieces for level, joined."""
    return "".join(p.json_pieces(level))


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
    assert joined(p, level) == encoded(p, level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("p", [
    Polynomial.zero(),
    Polynomial.constant(-7),
    Polynomial.constant(1 << 64) - variable(1, 1),
    -(3 * variable(4, 1) * variable(1, 4) - variable(4, 4) ** 2 + 1),
    variable(4, 4) ** MAX_DEGREE - (1 << 65) * variable(1, 1) ** MAX_DEGREE,
    # all 969 monomials of degree <= 3, the constant last: eight runs of terms,
    # three of which mix terms with and without an x[i][1]
    (1 + sum((-1) ** (r + c) * variable(r, c) for r, c in VARS)) ** 3,
], ids=["zero", "constant", "past-2^64", "row-and-column-4", "max-degree",
        "runs-without-column-1"])
def test_emitter_edge_cases(p, level):
    assert joined(p, level) == encoded(p, level)


def test_emitter_layout_is_the_documented_one():
    assert joined(Polynomial.zero(), 10) == "[]"
    assert joined(Polynomial.constant(-2), 0) == (
        '[\n  {\n    "coeff": "-2",\n    "exps": []\n  }\n]')


@given(polynomials, st.sampled_from(LEVELS))
def test_pieces_join_to_the_text(p, level):
    assert "".join(p.json_pieces(level, "<")) == "<" + encoded(p, level)
    assert "".join(p.text_pieces("<", ">")) == "<" + str(p) + ">"


@given(polynomials, monomials())
def test_text_matches_the_replaced_writer(p, mono):
    assert list(p.text_pieces("<", ">")) == list(text_reference.text_pieces(p, "<", ">"))
    assert str(mono) == text_reference.monomial_str(mono)


@pytest.mark.parametrize("p", [
    Polynomial.zero(),
    Polynomial.constant(-7),
    Polynomial.constant(1) + variable(1, 1),
    -(3 * variable(4, 1) * variable(1, 4) - variable(4, 4) ** 2 + 1),
    variable(4, 4) ** MAX_DEGREE - (1 << 65) * variable(1, 1) ** MAX_DEGREE,
], ids=["zero", "constant", "one-plus-variable", "row-and-column-4", "max-degree"])
def test_text_edge_cases_match_the_replaced_writer(p):
    assert list(p.text_pieces("<", ">")) == list(text_reference.text_pieces(p, "<", ">"))
    assert str(p) == "".join(text_reference.text_pieces(p))


@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_expanded_words_print_as_the_replaced_writer_printed_them(variant):
    """Every k = 3 word of grade at most 8, up to 1017 terms and eight runs."""
    for m in range(variant == "alt", 9):
        for w in decompose(3, m, variant).words():
            p = w.expand()
            head = f"      {w} = "
            assert list(p.text_pieces(head, "\n")) == list(
                text_reference.text_pieces(p, head, "\n"))


def test_pieces_hold_runs_of_terms():
    p = Polynomial({Monomial({(1, 1): i % 16, (2, 1): i // 16}): (-1) ** i
                    for i in range(2 * TERMS_PER_PIECE + 1)})
    runs = [TERMS_PER_PIECE, TERMS_PER_PIECE, 1]
    assert [piece.count('"coeff"') for piece in p.json_pieces(4)] == runs
    # the leading term has no sign between spaces
    assert [piece.count(" + ") + piece.count(" - ") for piece in p.text_pieces()] == [
        TERMS_PER_PIECE - 1, TERMS_PER_PIECE, 1]


def _word_objs(words, expand):
    if expand:
        return [dict(w.to_json_obj(), polynomial=w.expand().to_json_obj()) for w in words]
    return [w.to_json_obj() for w in words]


def _report_obj(report, expand):
    obj = report.to_json_obj()
    for entry, words in zip(obj["entries"], (e.words for e in report.entries)):
        entry["words"] = _word_objs(words, expand)
    return obj


def _dumped(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# Expanded documents up to m = 8 (k = 3), where a polynomial has up to 1017
# terms, eight runs; the larger expanded documents are pinned by sha256 in
# tests/test_cli.py.
INSTANCES = [(k, m, variant, expand)
             for k in (2, 3) for variant in ("sym", "alt") for m in range(variant == "alt", 13)
             for expand in (False, True) if not (expand and k == 3 and m > 8)]


@pytest.mark.parametrize("k, m, variant, expand", INSTANCES)
def test_report_chunks_match_the_json_encoder(k, m, variant, expand):
    report = decompose(k, m, variant)
    assert "".join(report.json_chunks(expand)) == _dumped(_report_obj(report, expand))


@pytest.mark.parametrize("expand", [False, True])
@pytest.mark.parametrize("k, m, variant, shape", [
    (3, 6, "sym", (12, 6)), (3, 8, "alt", (12, 9, 3)), (3, 2, "alt", (6,)),
    (2, 7, "alt", (9, 5)), (2, 4, "sym", (7, 1)),
], ids=["k3-sym", "k3-alt", "no-words", "k2-alt", "k2-no-words"])
def test_hwv_chunks_match_the_json_encoder(k, m, variant, shape, expand):
    report = decompose(k, m, variant)
    words = report.words_of(shape)
    assert bool(words) == (shape not in ((6,), (7, 1)))
    obj = {"k": k, "m": m, "variant": variant, "shape": list(shape),
           "words": _word_objs(words, expand)}
    assert "".join(report.json_chunks(expand, shape)) == _dumped(obj)


def test_chunks_are_bounded():
    """No piece holds more than one run of terms, and without expansion no
    piece comes near the size of a document."""
    for chunk in decompose(3, 8, "sym").json_chunks(expand=True):
        assert chunk.count('"coeff"') <= TERMS_PER_PIECE
    chunks = list(decompose(3, 60, "sym").json_chunks())
    assert max(map(len, chunks)) <= 64 * 1024 < sum(map(len, chunks))
