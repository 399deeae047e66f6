"""Acceptance suite: every headline claim, each at its full stated range.

Each test prints one PASS/FAIL line (run pytest with -s to watch them).  All
comparisons are exact; there are no numeric tolerances anywhere.
"""

import json
import math

from partition_reference import _partitions
from plethysm import actions, hwv, oracle, tableaux
from plethysm.hwv import DecompositionReport, decompose
from plethysm.polynomials import Monomial
from plethysm.verify import load_golden_text


def _report(cid, name, ok):
    print(f"ACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{cid} {name}"


def test_c01_decomposition_tables():
    ok = True
    for m in range(1, 7):
        for variant in ("sym", "alt"):
            produced = decompose(3, m, variant).to_json_text()
            ok = ok and produced == load_golden_text(m, variant)
    _report("C01", "decomposition-tables-m1-6", ok)


def test_c02_word_grades_and_weights():
    ok = True
    for m in range(1, 7):
        for variant in ("sym", "alt"):
            report = DecompositionReport.from_json_obj(
                json.loads(load_golden_text(m, variant))
            )
            for entry in report.entries:
                padded = tableaux.pad(entry.diagram, 3)
                for word in entry.words:
                    ok = ok and word.grade() == m
                    ok = ok and word.weight() == padded
                    poly = word.expand()
                    ok = ok and poly.column_degree(3) == (m, m, m)
                    ok = ok and poly.row_weight(3) == padded
    _report("C02", "word-grades-and-weights", ok)


def test_c03_leading_monomials_to_grade_8():
    g = hwv.generators_k3()
    table = {
        "alpha1": (Monomial({(1, 1): 1, (1, 2): 1, (1, 3): 1}), 1),
        "alpha2": (Monomial({(1, 1): 2, (1, 2): 2, (2, 3): 2}), 1),
        "alpha3": (Monomial({(1, 1): 3, (1, 2): 3, (2, 3): 3}), 2),
        "gamma1": (Monomial({(1, 1): 1, (2, 2): 1, (3, 3): 1}), 1),
        "gamma2": (Monomial({(1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2}), 1),
    }
    ok = all(g[name].leading_monomial() == want for name, want in table.items())

    seen = set()
    for m in range(0, 9):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            for word in hwv.enumerate_basis(m, variant):
                mono, coeff = word.expand().leading_monomial()
                a, b, c, p, q = word.exponents()
                ok = ok and mono == Monomial({
                    (1, 1): a + 2 * b + 3 * c + p + 2 * q,
                    (1, 2): a + 2 * b + 3 * c + q,
                    (1, 3): a,
                    (2, 2): p + q,
                    (2, 3): 2 * b + 3 * c + 2 * q,
                    (3, 3): p,
                })
                ok = ok and coeff == 2 ** c
                ok = ok and mono not in seen
                seen.add(mono)
    _report("C03", "leading-monomials-grade-8", ok)


def test_c04_discriminant_identity_and_erratum():
    outcome = hwv.verify_discriminant_relation()
    g = hwv.generators_k3()
    phi = hwv.phi_images_k3()
    ok = outcome.corrected_holds and not outcome.gamma1_variant_holds
    ok = ok and phi["sigma2"] == -3 * g["alpha2"]
    ok = ok and phi["sigma3"] == -g["alpha3"]
    ok = ok and phi["delta"] == 27 * g["alpha1"] * g["gamma2"]
    ok = ok and phi["delta"] ** 2 == 27 * (4 * g["alpha2"] ** 3 - g["alpha3"] ** 2)
    _report("C04", "discriminant-identity-and-erratum", ok)


def test_c05_independent_oracles_agree():
    ok = True
    for n in (3, 4):
        for m in range(0, 6):
            for variant in ("sym", "alt"):
                if variant == "alt" and m < 1:
                    continue
                counts = decompose(3, m, variant).multiplicities()
                ok = ok and oracle.multiplicities_by_kostka(m, n, variant) == counts
                if m <= 3:
                    for shape in _partitions(3 * m, 3):
                        kernel = oracle.hwv_kernel_multiplicity(m, n, shape, variant)
                        ok = ok and kernel == counts.get(shape, 0)
    _report("C05", "independent-oracles-agree", ok)


def test_c06_closed_form_multiplicities_to_m8():
    ok = True
    for m in range(0, 9):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            counts = decompose(3, m, variant).multiplicities()
            for shape in _partitions(3 * m, 3):
                formula = hwv.multiplicity_closed_form(shape, variant)
                ok = ok and formula == counts.get(shape, 0)
            ok = ok and sum(counts.values()) == sum(
                hwv.multiplicity_closed_form(s, variant) for s in _partitions(3 * m, 3)
            )
    _report("C06", "closed-form-multiplicities-m8", ok)


def test_c07_kostka_closed_form_to_m6():
    ok = True
    for m in range(1, 7):
        for shape in _partitions(3 * m, 3):
            l1, l2, l3 = tableaux.pad(shape, 3)
            ok = ok and tableaux.kostka(shape, (m, m, m)) == min(l1 - l2, l2 - l3) + 1
    _report("C07", "kostka-closed-form-m6", ok)


def test_c08_standard_monomial_vectors_to_size_9():
    ok = True
    for m in range(1, 4):
        seen = set()
        for shape in _partitions(3 * m, 3):
            tabs = tableaux.enumerate_sst(shape, (m, m, m))
            l1, l2, l3 = tableaux.pad(shape, 3)
            ok = ok and len(tabs) == min(l1 - l2, l2 - l3) + 1
            for T in tabs:
                poly = tableaux.delta_tableau(T, 4)
                mono, coeff = poly.leading_monomial()
                ok = ok and (mono, coeff) == (tableaux.content_monomial(T), 1)
                ok = ok and actions.is_un_invariant(poly, 4)
                ok = ok and poly.row_weight(4) == tableaux.pad(shape, 4)
                ok = ok and poly.column_degree(3) == (m, m, m)
                ok = ok and mono not in seen
                seen.add(mono)
    _report("C08", "standard-monomial-vectors-size-9", ok)


def test_c09_pair_case_to_m10():
    ok = True
    for m in range(0, 11):
        for variant in ("sym", "alt"):
            if variant == "alt" and m < 1:
                continue
            report = decompose(2, m, variant)
            start = 0 if variant == "sym" else 1
            want = {
                tableaux.normalize_partition((2 * m - j, j)): 1
                for j in range(start, m + 1, 2)
            }
            ok = ok and report.multiplicities() == want
            for entry in report.entries:
                for word in entry.words:
                    poly = word.expand()
                    ok = ok and actions.is_un_invariant(poly, 2)
                    swapped = actions.permute_columns(
                        poly, actions.transposition(2, 1, 2)
                    )
                    ok = ok and swapped == (poly if word.j % 2 == 0 else -poly)
    _report("C09", "pair-case-m10", ok)


def test_c10_degree_one_tensor_cube():
    counts = {
        shape: tableaux.kostka(shape, (1, 1, 1))
        for shape in ((3,), (2, 1), (1, 1, 1))
    }
    ok = counts == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    for n in (3, 4, 5):
        total = sum(c * oracle.weyl_dimension(s, n) for s, c in counts.items())
        ok = ok and total == n ** 3
    _report("C10", "degree-one-tensor-cube", ok)


def test_c11_specht_images_at_degree_3():
    ok = True
    for shape in ((3,), (2, 1), (1, 1, 1)):
        for T in tableaux.enumerate_sst(shape, (1, 1, 1)):
            image = tableaux.specht_map(tableaux.delta_tableau(T), 3)
            ok = ok and image == tableaux.specht_polynomial(T)
    _report("C11", "specht-images-degree-3", ok)


def test_c12_dimension_conservation_to_m5():
    ok = True
    for n in (3, 4):
        for m in range(0, 6):
            d = math.comb(m + n - 1, n - 1)
            for variant, total in (("sym", math.comb(d + 2, 3)),
                                   ("alt", math.comb(d, 3))):
                if variant == "alt" and m < 1:
                    continue
                report = decompose(3, m, variant)
                found = sum(
                    e.multiplicity * oracle.weyl_dimension(e.diagram, n)
                    for e in report.entries
                    if len(e.diagram) <= n
                )
                ok = ok and found == total
    _report("C12", "dimension-conservation-m5", ok)
