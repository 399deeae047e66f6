import copy
import json
import pickle
import tracemalloc
from collections import Counter

import pytest

import word_reference
from plethysm import hwv, verify
from plethysm.actions import (
    is_sign_equivariant,
    is_sk_invariant,
    is_un_invariant,
    permute_columns,
    transposition,
)
from plethysm.hwv import (
    BadShapeError,
    DecompositionReport,
    GeneratorWord,
    WordK2,
    decompose,
    enumerate_basis,
    generators_k2,
    generators_k3,
    multiplicity_closed_form,
    verify_discriminant_relation,
    words_for_weight,
)
from plethysm.polynomials import TERMS_PER_PIECE, Monomial, Polynomial, variable
from plethysm.tableaux import column_minor, normalize_partition


def test_generator_shapes():
    g = generators_k3()
    x = variable
    assert g["alpha1"] == x(1, 1) * x(1, 2) * x(1, 3)
    assert g["beta2"] == x(1, 2) * column_minor((1, 3))
    assert g["beta3"] == x(1, 3) * column_minor((1, 2))
    # the three products x[1][i]*delta[j][k] satisfy the Pluecker relation
    assert g["beta2"] - g["beta3"] == x(1, 1) * column_minor((2, 3))


def test_cached_generators_are_read_only():
    # both tables are shared by every later caller in the process
    with pytest.raises(TypeError):
        generators_k3()["alpha1"] = Polynomial.zero()
    with pytest.raises(TypeError):
        generators_k2()["alpha"] = Polynomial.zero()
    [word] = decompose(3, 1, "sym").words()
    assert str(word.expand()) == "x[1][1]*x[1][2]*x[1][3]"


def test_generator_grades_and_weights():
    g = generators_k3()
    expected = {
        "alpha1": (1, (3, 0, 0)),
        "alpha2": (2, (4, 2, 0)),
        "alpha3": (3, (6, 3, 0)),
        "gamma1": (1, (1, 1, 1)),
        "gamma2": (2, (3, 3, 0)),
    }
    for name, (grade, weight) in expected.items():
        assert g[name].column_degree(3) == (grade,) * 3
        assert g[name].row_weight(3) == weight


def test_generator_leading_monomials():
    g = generators_k3()
    table = {
        "alpha1": (Monomial({(1, 1): 1, (1, 2): 1, (1, 3): 1}), 1),
        "alpha2": (Monomial({(1, 1): 2, (1, 2): 2, (2, 3): 2}), 1),
        "alpha3": (Monomial({(1, 1): 3, (1, 2): 3, (2, 3): 3}), 2),
        "gamma1": (Monomial({(1, 1): 1, (2, 2): 1, (3, 3): 1}), 1),
        "gamma2": (Monomial({(1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2}), 1),
    }
    for name, expected in table.items():
        assert g[name].leading_monomial() == expected


@pytest.mark.parametrize("name, field, value, detail", [
    ("alpha2", 3, (4, 1, 1), "alpha2 weight"),
    ("gamma1", 2, 2, "gamma1 grade"),
], ids=["alpha2-weight", "gamma1-grade"])
def test_verify_checks_the_factor_table(monkeypatch, name, field, value, detail):
    # every word's grade and weight are read off hwv._FACTORS, so a wrong row
    # there must fail the generator check
    assert verify.check_generator_grades_weights().passed
    altered = tuple(row[:field] + (value,) + row[field + 1:] if row[1] == name else row
                    for row in hwv._FACTORS[3])
    monkeypatch.setitem(hwv._FACTORS, 3, altered)
    result = verify.check_generator_grades_weights()
    assert not result.passed and result.detail == detail


def test_word_leading_monomials_multiply_the_generator_table(monkeypatch):
    # the word check reads each generator's leading term from the same table
    # as the table check, so one wrong entry fails both
    mono, _ = verify._LEADING_MONOMIALS["alpha3"]
    monkeypatch.setitem(verify._LEADING_MONOMIALS, "alpha3", (mono, 1))
    assert verify.check_leading_monomial_table().detail == f"alpha3: got 2*{mono}"
    result = verify.check_word_leading_monomials(4)
    assert not result.passed
    assert result.detail.startswith("a3: leading coefficient 2")


def test_discriminant_relation():
    outcome = verify_discriminant_relation()
    assert outcome.corrected_holds
    assert not outcome.gamma1_variant_holds


def test_word_validation():
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 2, 0, 0, 0, "sym")
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 0, 0, 0, 1, "alt_gamma1")
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 0, 0, 0, 0, "bogus")
    with pytest.raises(ValueError):
        GeneratorWord(-1, 0, 0, 0, 0, 0, "sym")
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 0, 0, 0, 2, "sym")
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 0, 0, 0, -1, "sym")
    with pytest.raises(ValueError):
        GeneratorWord(0, 0, 0, 0, 0, 1, "alt_gamma2")


@pytest.mark.parametrize("build", [
    lambda: GeneratorWord(1.5, 0, 0, 0, 0, 0, "sym"),  # printed a1^1.5, weight (4.5, 0.0, 0.0)
    lambda: GeneratorWord(True, 0, 0, 0, 0, 0, "sym"),  # wrote "a": true to JSON
    lambda: GeneratorWord(0, 0, 0, 0, 0, 1.0, "sym"),  # ("sym", 1.0) hashes like ("sym", 1)
    lambda: GeneratorWord(0, 0, False, 0, 0, 0, "sym"),
    lambda: GeneratorWord(0, 0, 0, 0, -1, 0, "sym"),
    lambda: WordK2(2.0, 1),  # printed a^2.0*g
    lambda: WordK2(0, True),
    lambda: WordK2(-1, 1),
    lambda: WordK2(1, -1),
], ids=["float-a", "bool-a", "float-f", "bool-c", "negative-e",
        "float-i", "bool-j", "negative-i", "negative-j"])
def test_word_fields_are_exact_nonnegative_ints(build):
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        build()


WORD = GeneratorWord(1, 0, 1, 0, 0, 1, "sym")

# every way to build a word from fields; copy.replace exists from Python 3.13
BUILDS = {
    "call": lambda fields: GeneratorWord(*fields),
    "keywords": lambda fields: GeneratorWord(**dict(zip(GeneratorWord._fields, fields))),
    "make": GeneratorWord._make,
    "replace": lambda fields: WORD._replace(**dict(zip(GeneratorWord._fields, fields))),
    # a pickle made of unchecked fields is checked when it is read
    "unpickle": lambda fields: pickle.loads(pickle.dumps(tuple.__new__(GeneratorWord, fields))),
}
if hasattr(copy, "replace"):
    BUILDS["copy-replace"] = lambda fields: copy.replace(
        WORD, **dict(zip(GeneratorWord._fields, fields)))


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("fields, message", [
    ((1, 0, 2, 0, 0, 1, "sym"), "c must be 0 or 1"),
    ((1.0, 0, 1, 0, 0, 1, "sym"), "must be a nonnegative int"),
    ((1, 0, 1, 0, 0, True, "sym"), "must be a nonnegative int"),
    ((1, 0, 1, 0, -1, 1, "sym"), "must be a nonnegative int"),
    ((1, 0, 1, 0, 0, 1, "alt_gamma1"), "no word family"),
], ids=["c-2", "a-float", "f-bool", "e-negative", "family"])
def test_every_way_to_build_a_word_checks_its_fields(build, fields, message):
    with pytest.raises(ValueError, match=message):
        build(fields)


def test_replace_checks_the_fields_it_changes():
    with pytest.raises(ValueError, match="c must be 0 or 1"):
        WORD._replace(c=2)
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        WORD._replace(a=1.0)
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        WordK2._make((True, 0))
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        WordK2(1, 2)._replace(j=-1)
    assert WORD._replace(c=0) == GeneratorWord(1, 0, 0, 0, 0, 1, "sym")


@pytest.mark.parametrize("word", [WORD, GeneratorWord(0, 3, 0, 2, 1, 0, "alt_gamma2"),
                                  WordK2(4, 1)], ids=["k3-sym", "k3-alt", "k2"])
def test_a_word_is_the_tuple_of_its_fields(word):
    fields = tuple(word)
    assert word == fields and hash(word) == hash(fields)
    assert type(word)._make(fields) == word
    again = pickle.loads(pickle.dumps(word))
    assert (type(again), again) == (type(word), word)
    assert copy.deepcopy(word) == word
    assert word._asdict() == dict(zip(type(word)._fields, fields))
    assert repr(word) == type(word).__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(word._fields, fields)) + ")"
    assert not hasattr(word, "__dict__")


def test_listed_words_pass_the_checks_they_skip():
    """enumerate_basis and decompose(2, ...) build their words unchecked; each
    is a valid word."""
    for m in range(41):
        for variant in ("sym", "alt") if m else ("sym",):
            for w in enumerate_basis(m, variant):
                assert type(w) is GeneratorWord and GeneratorWord._make(w) == w
            words = decompose(2, m, variant).words()
            assert all(type(w) is WordK2 and WordK2._make(w) == w for w in words)
            assert words == [WordK2(m - j, j) for j in range(variant == "alt", m + 1, 2)]


def test_word_grade_weight_match_expansion():
    for m in range(0, 5):
        variants = ["sym"] + (["alt"] if m else [])
        for variant in variants:
            for word in enumerate_basis(m, variant):
                poly = word.expand()
                assert poly.column_degree(3) == (m, m, m)
                assert poly.row_weight(3) == word.weight()
                assert word.grade() == m


def test_word_symmetry_types():
    for m in range(1, 5):
        for word in enumerate_basis(m, "sym"):
            assert is_sk_invariant(word.expand(), 3)
        for word in enumerate_basis(m, "alt"):
            assert is_sign_equivariant(word.expand(), 3)


def test_words_are_highest_weight():
    for m in range(1, 5):
        for variant in ("sym", "alt"):
            for word in enumerate_basis(m, variant):
                assert is_un_invariant(word.expand(), 4)


def test_basis_counts_per_grade():
    assert [len(enumerate_basis(m, "sym")) for m in range(1, 7)] == [1, 3, 5, 9, 13, 20]
    assert [len(enumerate_basis(m, "alt")) for m in range(1, 7)] == [1, 2, 4, 7, 12, 18]


def test_enumerate_basis_edge_cases():
    assert len(enumerate_basis(0, "sym")) == 1
    assert enumerate_basis(0, "sym")[0].weight() == (0, 0, 0)
    with pytest.raises(ValueError):
        enumerate_basis(0, "alt")
    with pytest.raises(ValueError):
        enumerate_basis(2, "alt_gamma1")  # callers pick sym/alt, not families
    with pytest.raises(ValueError):
        enumerate_basis(-1, "sym")


def test_words_for_weight():
    words = words_for_weight(5, (9, 6), "sym")
    assert [str(w) for w in words] == ["a1*g2^2"]
    words = words_for_weight(6, (12, 6), "sym")
    assert sorted(str(w) for w in words) == ["a1^2*g2^2", "a2^3"]
    assert words_for_weight(3, (8, 1), "sym") == []
    # a diagram of another size has words, but of another grade
    assert words_for_weight(5, (9, 3), "sym") == []
    assert words_for_weight(5, (12, 6), "sym") == []
    with pytest.raises(BadShapeError):
        words_for_weight(3, (3, 3, 2, 1), "sym")
    with pytest.raises(ValueError):
        words_for_weight(0, (), "alt")


def test_words_for_weight_is_the_report_entry_to_m_30():
    for m in range(31):
        for variant in ("sym", "alt") if m else ("sym",):
            report = decompose(3, m, variant)
            for shape in hwv._shapes(3, m):
                assert words_for_weight(m, shape, variant) == list(report.words_of(shape))


def test_diagram_report_is_the_report_entry_to_m_30():
    for k in (2, 3):
        for m in range(31):
            for variant in ("sym", "alt") if m else ("sym",):
                report = decompose(k, m, variant)
                diagrams = list(hwv._shapes(k, m)) + [(k * m + 1,), (m,) * k + (0, 0)]
                entry_of = {e.diagram: (e,) for e in report.entries}
                for diagram in diagrams + [(1,) * (k + 1)]:
                    entries = entry_of.get(normalize_partition(diagram), ())
                    assert hwv.diagram_report(k, m, variant, diagram) == (k, m, variant, entries)


def test_diagram_report_solves_its_diagram_alone_at_m_191():
    report = hwv.diagram_report(3, 191, "alt", (300, 200, 73))
    assert report.words() == words_for_weight(191, (300, 200, 73), "alt")
    assert len(report.words()) == multiplicity_closed_form((300, 200, 73), "alt") == 16
    assert hwv.diagram_report(2, 191, "sym", (382,)).words() == [WordK2(191, 0)]
    for k, m, variant in [(4, 1, "sym"), (3, -1, "sym"), (3, 0, "alt"), (2, 1, "both")]:
        with pytest.raises(ValueError):
            hwv.diagram_report(k, m, variant, (3 * m,))


def test_multiplicity_closed_form_values():
    assert multiplicity_closed_form((12, 6), "sym") == 2
    assert multiplicity_closed_form((6, 3), "sym") == 1
    assert multiplicity_closed_form((6, 3), "alt") == 1
    assert multiplicity_closed_form((9,), "sym") == 1
    assert multiplicity_closed_form((9,), "alt") == 0
    assert multiplicity_closed_form((1, 1, 1), "alt") == 1
    assert multiplicity_closed_form((1, 1, 1), "sym") == 0
    assert multiplicity_closed_form((4, 1, 1), "alt") == 1
    assert multiplicity_closed_form((4, 1, 1), "sym") == 0
    assert multiplicity_closed_form((2, 2, 2), "sym") == 1
    assert multiplicity_closed_form((2, 2, 2), "alt") == 0


def test_multiplicity_closed_form_validation():
    with pytest.raises(BadShapeError):
        multiplicity_closed_form((3, 3, 3, 3), "sym")
    with pytest.raises(BadShapeError):
        multiplicity_closed_form((4, 3), "sym")
    with pytest.raises(ValueError):
        multiplicity_closed_form((6, 3), "either")


def test_closed_form_matches_enumeration():
    for m in range(0, 7):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            counts = decompose(3, m, variant).multiplicities()
            for l1 in range(3 * m, -1, -1):
                for l2 in range(min(l1, 3 * m - l1), -1, -1):
                    l3 = 3 * m - l1 - l2
                    if l3 < 0 or l3 > l2:
                        continue
                    shape = tuple(p for p in (l1, l2, l3) if p)
                    assert multiplicity_closed_form(shape, variant) == counts.get(shape, 0)


def test_decompose_m2_sym():
    report = decompose(3, 2, "sym")
    assert report.multiplicities() == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}
    assert [e.diagram for e in report.entries] == [(6,), (4, 2), (2, 2, 2)]


def test_decompose_m6_sym_has_one_double():
    report = decompose(3, 6, "sym")
    assert report.total_multiplicity() == 20
    assert len(report.entries) == 19
    assert report.multiplicities()[(12, 6)] == 2


def test_dimension_conservation_keeps_no_report():
    # each report is dropped once read: a check to m = 30 leaves less than
    # 1 MB behind, where keeping the reports of its 61 components holds 4.6 MB
    verify.check_dimension_conservation(1)  # one-time allocations
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        assert verify.check_dimension_conservation(30).passed
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert retained < 2**20, retained


def test_decompose_rejects_unknown_k():
    with pytest.raises(ValueError):
        decompose(4, 2, "sym")


def test_report_json_round_trip():
    for k, m, variant in [(3, 4, "alt"), (3, 5, "sym"), (2, 6, "sym"), (2, 7, "alt")]:
        report = decompose(k, m, variant)
        again = DecompositionReport.from_json_obj(report.to_json_obj())
        assert again == report


def test_report_rejects_a_multiplicity_that_disagrees_with_its_words():
    obj = json.loads(verify.load_golden_text(6, "sym"))
    assert DecompositionReport.from_json_obj(obj) == decompose(3, 6, "sym")
    entry = next(e for e in obj["entries"] if e["diagram"] == [12, 6])
    entry["multiplicity"] += 1
    with pytest.raises(ValueError, match=r"\(12,6\) has multiplicity 3 but 2 words"):
        DecompositionReport.from_json_obj(obj)


@pytest.mark.parametrize("m, change", [
    (6, lambda obj: obj["entries"][0].update(diagram=[1, 1])),
    (6, lambda obj: obj.update(m=5)),
    (6, lambda obj: obj["entries"].reverse()),
    (6, lambda obj: obj.update(variant="alt")),
    (6, lambda obj: obj.update(k=2)),
    # equal to the ints they replace, but not ints
    (1, lambda obj: obj["entries"][0].update(diagram=[3.0])),
    (1, lambda obj: obj["entries"][0]["words"][0].update(a=True)),
    (1, lambda obj: obj["entries"][0]["words"][0].update(a=1.0)),
    # not a word at all: alpha3 squared
    (6, lambda obj: obj["entries"][0]["words"][0].update(a=0, c=2)),
], ids=["diagram", "m", "order", "variant", "k", "diagram-float", "word-bool",
        "word-float", "word-c-2"])
def test_report_rejects_a_document_that_is_not_its_decomposition(m, change):
    obj = json.loads(verify.load_golden_text(m, "sym"))
    change(obj)
    with pytest.raises(ValueError, match="not the decomposition of"):
        DecompositionReport.from_json_obj(obj)


def _m1_document(change):
    obj = json.loads(verify.load_golden_text(1, "sym"))
    change(obj)
    return obj


@pytest.mark.parametrize("attempt", [
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(m=True))),
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(k=3.0))),
    lambda: DecompositionReport.from_json_obj({}),
    lambda: DecompositionReport.from_json_obj(
        _m1_document(lambda o: o["entries"][0].pop("multiplicity"))),
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(m="6"))),
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(m=6.0))),
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(entries=None))),
    lambda: DecompositionReport.from_json_obj(_m1_document(lambda o: o.update(variant=["sym"]))),
    lambda: decompose(3, True, "sym"),
    lambda: decompose(3.0, 1, "sym"),
    lambda: decompose(2, 1.0, "sym"),
], ids=["doc-m-bool", "doc-k-float", "doc-empty", "doc-no-multiplicity", "doc-m-str",
        "doc-m-float", "doc-entries-null", "doc-variant-list", "m-bool", "k-float",
        "k2-m-float"])
def test_a_k_or_m_that_is_not_an_int_is_refused(attempt):
    # a bool or float equal to the int would be written into the report's
    # "k" or "m" field ("m": true), so it is refused; the int report keeps int fields
    with pytest.raises(ValueError):
        attempt()
    report = decompose(3, 1, "sym")
    assert (type(report.k), type(report.m), report.m) == (int, int, 1)


def test_report_text_contains_each_diagram():
    report = decompose(3, 3, "alt")
    text = report.to_text()
    for diagram in ["(7,1,1)", "(6,3)", "(5,3,1)", "(3,3,3)"]:
        assert diagram in text


def _k2_words(m, variant):
    return [w for entry in decompose(2, m, variant).entries for w in entry.words]


def test_k2_words():
    g = generators_k2()
    x = variable
    assert g["alpha"] == x(1, 1) * x(1, 2)
    assert g["gamma"] == column_minor((1, 2))
    assert [(w.i, w.j) for w in _k2_words(3, "sym")] == [(3, 0), (1, 2)]
    assert [(w.i, w.j) for w in _k2_words(3, "alt")] == [(2, 1), (0, 3)]
    with pytest.raises(ValueError):
        decompose(2, 0, "alt")


def test_k2_swap_sign_and_weight():
    for m in range(0, 8):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            for word in _k2_words(m, variant):
                poly = word.expand()
                assert poly.column_degree(2) == (m, m)
                assert poly.row_weight(2) == word.weight()
                swapped = permute_columns(poly, transposition(2, 1, 2))
                assert swapped == (poly if variant == "sym" else -poly)
                assert is_un_invariant(poly, 2)


def test_k2_decompose():
    report = decompose(2, 3, "sym")
    assert report.multiplicities() == {(6,): 1, (4, 2): 1}
    report = decompose(2, 10, "alt")
    assert set(report.multiplicities()) == {(19, 1), (17, 3), (15, 5), (13, 7), (11, 9)}


def test_word_rendering():
    assert str(GeneratorWord(1, 0, 0, 0, 1, 0, "sym")) == "a1*g2^2"
    assert str(GeneratorWord(0, 3, 0, 0, 0, 0, "sym")) == "a2^3"
    assert str(GeneratorWord(0, 0, 0, 0, 0, 0, "sym")) == "1"
    assert str(GeneratorWord(0, 0, 1, 1, 0, 0, "alt_gamma1")) == "a3*g1^3"
    assert str(WordK2(2, 3)) == "a^2*g^3"


def _word_view(word) -> tuple:
    """Everything a word shows: printed form, grade, weight (which fixes its
    diagram), expansion, and its JSON object with the key order."""
    return (str(word), word.grade(), word.weight(), word.expand(),
            list(word.to_json_obj().items()))


@pytest.mark.parametrize("k, m_max", [(3, 10), (2, 12)])
@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_words_match_the_reference(k, m_max, variant):
    for m in range(0 if variant == "sym" else 1, m_max + 1):
        report = decompose(k, m, variant)
        expected = word_reference.grouped_words(k, m, variant)
        assert [e.diagram for e in report.entries] == [d for d, _ in expected]
        for entry, (_, words) in zip(report.entries, expected):
            assert [_word_view(w) for w in entry.words] == [_word_view(w) for w in words]
        if k == 3:
            assert ([_word_view(w) for w in enumerate_basis(m, variant)]
                    == [_word_view(w) for w in word_reference.enumerate_basis(m, variant)])


@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_enumerate_basis_matches_the_reference_to_m_40(variant):
    # the fields, printed form and weight of every word, in order; the
    # expansions are compared to m = 10 above
    def view(word):
        return list(word.to_json_obj().items()), str(word), word.weight()

    for m in range(0 if variant == "sym" else 1, 41):
        assert ([view(w) for w in enumerate_basis(m, variant)]
                == [view(w) for w in word_reference.enumerate_basis(m, variant)]), m


@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_decompose_groups_words_like_the_reference_to_m_40(variant):
    # the diagrams in order and the fields of each diagram's words in order;
    # the expansions are compared to m = 10 above
    for m in range(0 if variant == "sym" else 1, 41):
        report = decompose(3, m, variant)
        expected = word_reference.grouped_words(3, m, variant)
        assert [e.diagram for e in report.entries] == [d for d, _ in expected], m
        assert ([[list(w.to_json_obj().items()) for w in e.words] for e in report.entries]
                == [[list(w.to_json_obj().items()) for w in words]
                    for _, words in expected]), m


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_decompose_matches_the_field_order_listing_to_m_80(k, variant):
    """Every report's diagrams, words and word order, and enumerate_basis,
    against the loop that listed every word in field order and grouped the
    words by their table weights."""
    for m in range(0 if variant == "sym" else 1, 81):
        entries = decompose(k, m, variant).entries
        assert entries == tuple(word_reference.field_order_entries(k, m, variant)), m
        if k == 3:
            assert (enumerate_basis(m, variant)
                    == word_reference.field_order_basis(m, variant)), m


def test_words_for_weight_matches_the_reference():
    for m in range(0, 13):
        for variant in ("sym", "alt") if m else ("sym",):
            for l2 in range(0, 3 * m // 2 + 1):
                for l3 in range(0, min(l2, 3 * m - 2 * l2) + 1):
                    shape = (3 * m - l2 - l3, l2, l3)
                    assert ([str(w) for w in words_for_weight(m, shape, variant)]
                            == [str(w) for w in
                                word_reference.words_for_weight(m, shape, variant)]), shape


@pytest.mark.parametrize("k, m, variant", [(2, 7, "alt"), (2, 6, "sym"),
                                           (3, 4, "sym"), (3, 5, "alt")])
def test_report_reads_back_an_expanded_json_document(k, m, variant):
    report = decompose(k, m, variant)
    obj = json.loads(report.to_json_text(expand=True))
    assert all("polynomial" in w for e in obj["entries"] for w in e["words"])
    assert DecompositionReport.from_json_obj(obj) == report


def test_json_chunks_expand_one_word_at_a_time(monkeypatch):
    calls = Counter()
    expand = GeneratorWord.expand

    def counting(self):
        calls[self] += 1
        return expand(self)

    monkeypatch.setattr(GeneratorWord, "expand", counting)
    chunks = decompose(3, 6, "sym").json_chunks(expand=True)
    head, first_polynomial = next(chunks), next(chunks)
    # the first word's fields open the first run of its polynomial's terms
    assert head.endswith('"words": ')
    assert first_polynomial.startswith("[") and '"polynomial": [' in first_polynomial
    assert sum(calls.values()) <= 1


def test_text_lines_write_long_polynomials_in_runs():
    lines = list(decompose(3, 6, "sym").text_lines(expand=True))  # up to 406 terms
    assert max(line.count(" + ") + line.count(" - ") for line in lines) <= TERMS_PER_PIECE
    assert any(not line.endswith("\n") for line in lines)


@pytest.mark.parametrize("expand", [False, True])
def test_text_is_the_joined_lines(expand):
    report = decompose(3, 3, "alt")
    lines = list(report.text_lines(expand))
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert report.to_text(expand) + "\n" == "".join(lines)
