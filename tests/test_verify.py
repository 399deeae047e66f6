"""The self-check suite: its shape lister, the failure path of the checks
that read that lister or an oracle, and the package's rule of no recursion."""

import ast
from pathlib import Path

import pytest

from partition_reference import _partitions
from plethysm import hwv, oracle, tableaux, verify


def test_shapes_match_the_recursive_lister_to_m_120():
    for k in (2, 3):
        for m in range(121):
            assert list(hwv._shapes(k, m)) == _partitions(k * m, k), (k, m)


def test_a_word_listed_under_the_wrong_diagram_fails_its_check(monkeypatch):
    """The listing reads no word's weight, so the word check ties each word's
    table weight to the diagram it is listed under."""
    solve = hwv._diagram_words

    def misfiled(k, diagram, variant):
        # the word a1^2*a2 of (10, 2) moves under (12,), after a1^4
        if variant == "sym" and diagram == (12,):
            return solve(k, (12,), variant) + solve(k, (10, 2), variant)
        if variant == "sym" and diagram == (10, 2):
            return ()
        return solve(k, diagram, variant)

    assert verify.check_word_leading_monomials(4).passed
    monkeypatch.setattr(hwv, "_diagram_words", misfiled)
    hwv.decompose.cache_clear()
    try:
        result = verify.check_word_leading_monomials(4)
    finally:
        hwv.decompose.cache_clear()
    assert result.passed is False
    assert result.detail == "a1^2*a2: weight (10, 2, 0) under (12,)"


def test_two_words_with_one_leading_monomial_collide_in_the_word_check(monkeypatch):
    """With gamma2 replaced by alpha2, g2 expands to a2: its leading monomial
    is off the table and it collides with a2."""
    gens = dict(hwv.generators_k3(), gamma2=hwv.generators_k3()["alpha2"])
    monkeypatch.setattr(hwv, "generators_k3", lambda: gens)
    monkeypatch.setattr(hwv, "_POWERS", {})
    hwv.decompose.cache_clear()
    result = verify.check_word_leading_monomials(2)
    assert result.passed is False
    assert result.detail == ("g2: leading monomial x[1][1]^2*x[1][2]^2*x[2][3]^2; "
                             "collision a2 (sym) vs g2 (alt)")


def test_a_word_whose_parent_is_not_listed_is_expanded_alone(monkeypatch):
    """Without a2 in the listing, the walk cannot reach a1*a2, a2^2 and
    a1^2*a2 from it; the check expands those three alone and still passes,
    and the whole suite runs to its end."""
    solve = hwv._diagram_words

    def dropped(k, diagram, variant):
        words = solve(k, diagram, variant)
        return tuple(w for w in words if k == 2 or w.exponents() != (0, 1, 0, 0, 0))

    expanded = []
    expand = hwv.GeneratorWord.expand
    monkeypatch.setattr(hwv, "_diagram_words", dropped)
    monkeypatch.setattr(hwv.GeneratorWord, "expand",
                        lambda word: expanded.append(str(word)) or expand(word))
    hwv.decompose.cache_clear()
    try:
        result = verify.check_word_leading_monomials(4)
        assert sorted(expanded) == ["a1*a2", "a1^2*a2", "a2^2"]
        results = verify.run_verification(2)
    finally:
        hwv.decompose.cache_clear()
    assert result == ("word-leading-monomials", True, "32 words through grade 4: exponent "
                      "relations hold, all leading monomials distinct")
    assert [r.name for r in results][4] == "word-leading-monomials" and results[4].passed


def _closed_form(original):
    return lambda shape, variant: original(shape, variant) + (shape == (6, 3, 3))


def _kostka_oracle(original):
    def drop_first(m, n, variant):
        table = original(m, n, variant)
        return dict(list(table.items())[m == 4:])
    return drop_first


def _kernel_oracle(original):
    def one_more(m, n, shape, variant, **kwargs):
        return original(m, n, shape, variant, **kwargs) + (m == 3 and shape == (9,))
    return one_more


def _kostka_within(original):
    def one_more(outer, content):
        table = dict(original(outer, content))
        if (8, 2, 2) in table:
            table[(8, 2, 2)] += 1
        return table
    return one_more


def _enumerate_sst(original):
    return lambda shape, content: original(shape, content) * 2


def _weyl_dimension(original):
    return lambda shape, n: original(shape, n) + (shape == (6, 3))


def _golden_text(original):
    def altered(m, variant):
        text = original(m, variant)
        return text.replace('"a": 1', '"a": 2') if (m, variant) == (3, "alt") else text
    return altered


@pytest.mark.parametrize("module, name, mutate, check, broken", [
    (hwv, "multiplicity_closed_form", _closed_form,
     lambda: verify.check_closed_form(4), "m=4 sym (6, 3, 3)"),
    (oracle, "multiplicities_by_kostka", _kostka_oracle,
     lambda: verify.check_against_kostka_oracle(4, 3), "m=4 sym: words"),
    (oracle, "hwv_kernel_multiplicity", _kernel_oracle,
     lambda: verify.check_against_kernel_oracle(3, 3), "m=3 sym (9,): kernel 2, words 1"),
    (tableaux, "kostka_within", _kostka_within,
     lambda: verify.check_kostka_closed_form(4), "wrong at (8, 2, 2)"),
    (tableaux, "enumerate_sst", _enumerate_sst,
     lambda: verify.check_standard_monomials(2), "leading monomial collision at "),
    (oracle, "weyl_dimension", _weyl_dimension,
     lambda: verify.check_dimension_conservation(3), "m=3 n=3 sym: "),
    (verify, "load_golden_text", _golden_text,
     lambda: verify.check_golden_tables(), "mismatch at m=3 alt"),
], ids=["closed-form", "kostka-oracle", "kernel-oracle", "kostka-closed-form",
        "standard-monomials", "dimension-conservation", "golden-tables"])
def test_a_wrong_shape_or_oracle_value_fails_its_check(monkeypatch, module, name,
                                                       mutate, check, broken):
    assert check().passed
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = check()
    assert result.passed is False
    assert broken in result.detail


def test_a_check_stopped_below_m_max_says_so():
    capped = {"word-leading-monomials": 8, "basis-vs-kostka-oracle": 5,
              "basis-vs-kernel-oracle": 3, "standard-monomial-vectors": 3,
              "pair-case-complete": 10, "dimension-conservation": 5}
    assert sorted(capped.values()) == sorted(verify.CAPS.values())
    for m_max in (3, 11):
        for result in verify.run_verification(m_max):
            cap = capped.get(result.name, m_max)
            assert result.passed
            assert result.detail.endswith(f"; capped at {cap} below m = {m_max}") == (cap < m_max)


def test_run_verification_past_the_recursion_limit():
    """A thousand variables, listed with no recursion, at m = 0."""
    results = verify.run_verification(0, 1000)
    assert len(results) == 18
    assert all(result.passed for result in results)


@pytest.mark.parametrize("m_max, n", [(1, 2), (-1, 3), (0, 0), (1.0, 3), (True, 3),
                                      (3, 3.0), (3, None)])
def test_run_verification_refuses_arguments_outside_its_contract(monkeypatch, m_max, n):
    """At n = 2 the oracles drop the three-row constituents and at m_max < 0
    checks run over nothing: a bad argument must not read as a verdict."""
    ran = []
    monkeypatch.setattr(verify, "check_generators_un_invariant", lambda: ran.append(1))
    with pytest.raises(ValueError, match=r"int m_max >= 0 and an int n >= 3"):
        verify.run_verification(m_max, n)
    assert ran == []


def test_no_function_in_the_package_calls_itself():
    """The recursion-limit tests rely on the package never recursing: no
    function calls itself by bare name or through ``self.`` or ``cls.``."""
    calls = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = node.func if isinstance(node, ast.Call) else None
                if (isinstance(callee, ast.Name) and callee.id == func.name
                        or isinstance(callee, ast.Attribute) and callee.attr == func.name
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id in ("self", "cls")):
                    calls.append(f"{path.name}:{node.lineno} {func.name}")
    assert calls == []


def test_only_polynomials_touches_the_packed_layout():
    """The packed monomials stay behind one module: no other module of the
    package reads ``_terms``, ``_key`` or ``_of``, or imports an underscore
    name from ``polynomials`` other than ``_check_degree``."""
    uses = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_key", "_of"):
                uses.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "polynomials"):
                uses.extend(f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and alias.name != "_check_degree")
    assert uses == []
