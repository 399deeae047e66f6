"""Named self-checks tying the word bases to independent recomputations.

Each check recomputes something two ways and compares exactly; there are no
tolerances anywhere.  The golden decomposition tables live in
data/golden/ and are compared byte for byte, so a formatting drift fails as
loudly as a wrong multiplicity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from . import actions, hwv, oracle, tableaux
from .polynomials import Monomial, Polynomial


def _components(m_lo: int, m_hi: int) -> Iterator[tuple[int, str]]:
    """(m, variant) for m_lo <= m <= m_hi, sym before alt; alt needs m >= 1."""
    for m in range(m_lo, m_hi + 1):
        yield m, "sym"
        if m >= 1:
            yield m, "alt"


GOLDEN_CASES = tuple(_components(1, 6))


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    """The outcome of one named check: whether it passed, and what it found."""

    __slots__ = ()


def load_golden_text(m: int, variant: str) -> str:
    # imported here: from Python 3.12 on, importlib.resources imports inspect
    from importlib import resources

    golden = resources.files("plethysm").joinpath(f"data/golden/k3_m{m}_{variant}.json")
    return golden.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# individual checks


def check_generators_un_invariant() -> CheckResult:
    n = 4
    gens = hwv.generators_k3()
    bad = [
        name
        for _, name, _, _ in hwv._FACTORS[3]
        if not actions.is_un_invariant(gens[name], n)
    ]
    for name, poly in hwv.generators_k2().items():
        if not actions.is_un_invariant(poly, 2):
            bad.append(f"k2:{name}")
    return CheckResult(
        "generators-un-invariant",
        not bad,
        f"raising operators kill all generators (n={n})" if not bad
        else f"not killed: {', '.join(bad)}",
    )


def check_generators_symmetry_type() -> CheckResult:
    gens = hwv.generators_k3()
    problems = []
    for name in ("alpha1", "alpha2", "alpha3"):
        if not actions.is_sk_invariant(gens[name], 3):
            problems.append(f"{name} not invariant")
    for name in ("gamma1", "gamma2"):
        if not actions.is_sign_equivariant(gens[name], 3):
            problems.append(f"{name} not sign-equivariant")
    if not actions.is_sk_invariant(gens["gamma1"] * gens["gamma2"], 3):
        problems.append("gamma1*gamma2 not invariant")
    return CheckResult(
        "generators-symmetry-type",
        not problems,
        "alphas invariant, gammas sign-equivariant" if not problems
        else "; ".join(problems),
    )


def check_generator_grades_weights() -> CheckResult:
    """Every word's grade and weight are read off ``hwv._FACTORS``, so the
    k = 3 rows of that table are what is checked here."""
    gens = hwv.generators_k3()
    problems = []
    for _, name, grade, weight in hwv._FACTORS[3]:
        poly = gens[name]
        if poly.column_degree(3) != (grade,) * 3:
            problems.append(f"{name} grade")
        if poly.row_weight(3) != weight:
            problems.append(f"{name} weight")
    return CheckResult(
        "generator-grades-weights",
        not problems,
        "column degrees and torus weights match" if not problems
        else "; ".join(problems),
    )


# The leading monomial and coefficient of each k = 3 generator.
_LEADING_MONOMIALS = {
    "alpha1": (Monomial({(1, 1): 1, (1, 2): 1, (1, 3): 1}), 1),
    "alpha2": (Monomial({(1, 1): 2, (1, 2): 2, (2, 3): 2}), 1),
    "alpha3": (Monomial({(1, 1): 3, (1, 2): 3, (2, 3): 3}), 2),
    "gamma1": (Monomial({(1, 1): 1, (2, 2): 1, (3, 3): 1}), 1),
    "gamma2": (Monomial({(1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2}), 1),
}


def check_leading_monomial_table() -> CheckResult:
    gens = hwv.generators_k3()
    problems = []
    for name, expected in _LEADING_MONOMIALS.items():
        mono, c = gens[name].leading_monomial()
        if (mono, c) != expected:
            problems.append(f"{name}: got {c}*{mono}")
    return CheckResult(
        "leading-monomial-table",
        not problems,
        "five generator leading monomials as tabulated" if not problems
        else "; ".join(problems),
    )


def _expansions(words) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
    """(exponents, expansion) of each k = 3 word in `words` that the walk
    reaches, depth first from the empty word through listed words only.

    A word's parent is the word with its first nonzero exponent, in factor
    table order, lowered by one, so the word is its parent times that
    generator, one product per word.  alpha1, a single term, comes first in
    the table, so it is the last factor of every word that has it.  A word is
    multiplied out when it is popped: the stack holds the parents on the
    current path, not the expansions of pending siblings.  A word whose
    parent is not listed is not reached.
    """
    listed = {word.exponents() for word in words}
    gens = hwv.generators_k3()
    factors = [gens[name] for _, name, _, _ in hwv._FACTORS[3]]
    root = (0,) * len(factors)
    # (exponents, parent's expansion, index of the last factor or None at the root)
    stack = [(root, Polynomial.one(), None)] if root in listed else []
    while stack:
        exps, poly, last = stack.pop()
        if last is None:
            last = len(factors) - 1
        else:
            poly = factors[last] * poly
        yield exps, poly
        for i in range(last + 1):
            child = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
            if child in listed:
                stack.append((child, poly, i))


def _leading_term(poly: Polynomial) -> tuple[Monomial, int] | None:
    """The leading monomial and coefficient, or None for zero."""
    return None if poly.is_zero else poly.leading_monomial()


def check_word_leading_monomials(max_grade: int) -> CheckResult:
    """LM(f*g) = LM(f)*LM(g), so a word's leading monomial and coefficient
    are the products of its generators' table entries, each raised to the
    word's exponent; the words are expanded and compared with that.  Each
    word's weight, read off the factor table, must be its entry's diagram.

    The listed words are expanded once each by ``_expansions`` and only their
    leading terms are kept, keyed by exponents; the words are then checked
    in listing order.  A word that the walk does not reach, because a broken
    lister left out its parent, is expanded alone by ``word.expand()``."""
    reports = [(variant, hwv.decompose(3, m, variant))
               for m, variant in _components(0, max_grade)]
    leads = {exps: _leading_term(poly) for exps, poly
             in _expansions(word for _, report in reports for word in report.words())}
    seen: dict[Monomial, str] = {}
    count = 0
    problems = []
    for variant, report in reports:
        for entry in report.entries:
            weight = tableaux.pad(entry.diagram, 3)
            for word in entry.words:
                count += 1
                if word.weight() != weight:
                    problems.append(f"{word}: weight {word.weight()} under {entry.diagram}")
                exps = word.exponents()
                lead = leads[exps] if exps in leads else _leading_term(word.expand())
                if lead is None:
                    problems.append(f"{word} expands to zero")
                    continue
                mono, coeff = lead
                wanted, wanted_coeff = Monomial(), 1
                for (_, name, _, _), exp in zip(hwv._FACTORS[3], exps):
                    lm, c = _LEADING_MONOMIALS[name]
                    wanted, wanted_coeff = wanted * lm ** exp, wanted_coeff * c ** exp
                if mono != wanted:
                    problems.append(f"{word}: leading monomial {mono}")
                if coeff != wanted_coeff:
                    problems.append(f"{word}: leading coefficient {coeff}")
                prior = seen.get(mono)
                if prior is not None:
                    problems.append(f"collision {prior} vs {word} ({variant})")
                seen[mono] = f"{word} ({variant})"
    return CheckResult(
        "word-leading-monomials",
        not problems,
        f"{count} words through grade {max_grade}: exponent relations hold, "
        "all leading monomials distinct" if not problems
        else "; ".join(problems[:4]),
    )


def check_discriminant() -> list[CheckResult]:
    outcome = hwv.verify_discriminant_relation()
    return [
        CheckResult(
            "discriminant-identity",
            outcome.corrected_holds,
            "4*alpha2^3 - alpha3^2 == 27*alpha1^2*gamma2^2",
        ),
        CheckResult(
            "discriminant-gamma1-variant-fails",
            not outcome.gamma1_variant_holds,
            "the gamma1 form of the identity fails, as the gradings force",
        ),
    ]


def check_phi_images() -> CheckResult:
    gens = hwv.generators_k3()
    phi = hwv.phi_images_k3()
    problems = []
    if phi["sigma2"] != -3 * gens["alpha2"]:
        problems.append("sigma2 != -3*alpha2")
    if phi["sigma3"] != -gens["alpha3"]:
        problems.append("sigma3 != -alpha3")
    target = 27 * gens["alpha1"] * gens["gamma2"]
    if phi["delta"] == target:
        delta_note = "delta == 27*alpha1*gamma2"
    elif phi["delta"] == -target:
        delta_note = "delta == -27*alpha1*gamma2"
    else:
        problems.append("delta is not +-27*alpha1*gamma2")
        delta_note = ""
    if phi["delta"] ** 2 != 27 * (4 * gens["alpha2"] ** 3 - gens["alpha3"] ** 2):
        problems.append("delta^2 != 27*(4*alpha2^3 - alpha3^2)")
    return CheckResult(
        "elementary-symmetric-images",
        not problems,
        f"sigma2, sigma3, delta match ({delta_note})" if not problems
        else "; ".join(problems),
    )


def check_golden_tables() -> CheckResult:
    problems = []
    for m, variant in GOLDEN_CASES:
        produced = hwv.decompose(3, m, variant).to_json_text()
        stored = load_golden_text(m, variant)
        if produced != stored:
            problems.append(f"m={m} {variant}")
    return CheckResult(
        "golden-decomposition-tables",
        not problems,
        f"all {len(GOLDEN_CASES)} stored tables reproduced byte for byte"
        if not problems else "mismatch at " + ", ".join(problems),
    )


def check_against_kostka_oracle(m_max: int, n: int) -> CheckResult:
    problems = []
    cases = 0
    for m, variant in _components(0, m_max):
        cases += 1
        basis = hwv.decompose(3, m, variant).multiplicities()
        table = oracle.multiplicities_by_kostka(m, n, variant)
        if basis != table:
            problems.append(f"m={m} {variant}: words {basis} vs oracle {table}")
    return CheckResult(
        "basis-vs-kostka-oracle",
        not problems,
        f"word counts equal character multiplicities for {cases} components "
        f"(m <= {m_max}, n = {n})" if not problems else "; ".join(problems[:2]),
    )


def check_against_kernel_oracle(m_max: int, n: int) -> CheckResult:
    problems = []
    cases = 0
    for m, variant in _components(0, m_max):
        counts = hwv.decompose(3, m, variant).multiplicities()
        for shape in hwv._shapes(3, m):
            cases += 1
            kernel = oracle.hwv_kernel_multiplicity(m, n, shape, variant)
            if kernel != counts.get(shape, 0):
                problems.append(
                    f"m={m} {variant} {shape}: kernel {kernel}, "
                    f"words {counts.get(shape, 0)}"
                )
    return CheckResult(
        "basis-vs-kernel-oracle",
        not problems,
        f"raising-operator kernels match word counts in {cases} weight spaces "
        f"(m <= {m_max}, n = {n})" if not problems else "; ".join(problems[:2]),
    )


def check_closed_form(m_max: int) -> CheckResult:
    """The floor formula against each diagram's solved word count, no report."""
    problems = []
    cases = 0
    for m, variant in _components(0, m_max):
        for shape in hwv._shapes(3, m):
            cases += 1
            formula = hwv.multiplicity_closed_form(shape, variant)
            if formula != len(hwv._diagram_words(3, shape, variant)):
                problems.append(f"m={m} {variant} {shape}")
    return CheckResult(
        "multiplicity-closed-form",
        not problems,
        f"floor formula equals word count in {cases} cases (m <= {m_max})"
        if not problems else "wrong at " + ", ".join(problems[:4]),
    )


def check_kostka_closed_form(m_max: int) -> CheckResult:
    problems = []
    cases = 0
    for m in range(1, m_max + 1):
        # one forward pass gives K(D, (m,m,m)) for every shape D of 3m
        table = tableaux.kostka_within((3 * m,) * 3, (m, m, m))
        for shape in hwv._shapes(3, m):
            cases += 1
            l1, l2, l3 = tableaux.pad(shape, 3)
            if table.get(shape, 0) != min(l1 - l2, l2 - l3) + 1:
                problems.append(str(shape))
    return CheckResult(
        "kostka-square-content",
        not problems,
        f"K(D, (m,m,m)) = min(l1-l2, l2-l3) + 1 in {cases} cases (m <= {m_max})"
        if not problems else "wrong at " + ", ".join(problems[:4]),
    )


def check_standard_monomials(m_max: int) -> CheckResult:
    n = 4
    problems = []
    cases = 0
    for m in range(0, m_max + 1):
        seen: set[Monomial] = set()
        for shape in hwv._shapes(3, m):
            for T in tableaux.enumerate_sst(shape, (m, m, m)):
                cases += 1
                poly = tableaux.delta_tableau(T, n)
                mono, coeff = poly.leading_monomial()
                if (mono, coeff) != (tableaux.content_monomial(T), 1):
                    problems.append(f"LM wrong for {T}")
                if not actions.is_un_invariant(poly, n):
                    problems.append(f"delta_T not a highest weight vector: {T}")
                if tableaux.normalize_partition(poly.row_weight(n)) != shape:
                    problems.append(f"weight wrong for {T}")
                if mono in seen:
                    problems.append(f"leading monomial collision at {T}")
                seen.add(mono)
    return CheckResult(
        "standard-monomial-vectors",
        not problems,
        f"{cases} tableau vectors: highest weight, LM = m_T, all distinct "
        f"(m <= {m_max})" if not problems else "; ".join(problems[:4]),
    )


def check_k2(m_max: int) -> CheckResult:
    problems = []
    for m, variant in _components(0, m_max):
        report = hwv.decompose(2, m, variant)
        want = {
            tableaux.normalize_partition((2 * m - j, j))
            for j in range(0 if variant == "sym" else 1, m + 1, 2)
        }
        if set(report.multiplicities()) != want:
            problems.append(f"m={m} {variant}: diagrams")
        if any(mult != 1 for mult in report.multiplicities().values()):
            problems.append(f"m={m} {variant}: multiplicity")
        for word in report.words():
            poly = word.expand()
            if not actions.is_un_invariant(poly, 2):
                problems.append(f"{word} not highest weight")
            right_sign = (actions.is_sk_invariant(poly, 2) if word.j % 2 == 0
                          else actions.is_sign_equivariant(poly, 2))
            if not right_sign:
                problems.append(f"{word} has wrong swap sign")
    return CheckResult(
        "pair-case-complete",
        not problems,
        f"k=2 words through m={m_max}: one constituent per even (sym) or odd "
        "(alt) gamma power, each a highest weight vector with the right sign"
        if not problems else "; ".join(problems[:4]),
    )


def check_schur_weyl_degree_one() -> CheckResult:
    problems = []
    counts = {
        shape: tableaux.kostka(shape, (1, 1, 1))
        for shape in ((3,), (2, 1), (1, 1, 1))
    }
    if counts != {(3,): 1, (2, 1): 2, (1, 1, 1): 1}:
        problems.append(f"standard tableau counts {counts}")
    for n in (3, 4, 5):
        total = sum(
            counts[shape] * oracle.weyl_dimension(shape, n) for shape in counts
        )
        if total != n ** 3:
            problems.append(f"n={n}: {total} != {n ** 3}")
    return CheckResult(
        "cube-decomposition-counts",
        not problems,
        "(C^n)^(x3) splits as 1,2,1 copies with total dimension n^3 for "
        "n = 3, 4, 5" if not problems else "; ".join(problems),
    )


def check_specht_images() -> CheckResult:
    problems = []
    cases = 0
    for shape in ((3,), (2, 1), (1, 1, 1)):
        for T in tableaux.enumerate_sst(shape, (1, 1, 1)):
            cases += 1
            image = tableaux.specht_map(tableaux.delta_tableau(T), 3)
            direct = tableaux.specht_polynomial(T)
            if image != direct:
                problems.append(f"{T}")
    return CheckResult(
        "specht-images",
        not problems,
        f"tableau vectors map onto the {cases} Specht products at degree one"
        if not problems else "wrong at " + ", ".join(problems),
    )


def check_dimension_conservation(m_max: int) -> CheckResult:
    by_n = {3: [], 4: []}  # each report is read at both n; n = 3's problems come first
    cases = 0
    for m, variant in _components(0, m_max):
        report = hwv.decompose(3, m, variant)
        for n, problems in by_n.items():
            d = math.comb(m + n - 1, n - 1)
            total = math.comb(d + 2, 3) if variant == "sym" else math.comb(d, 3)
            cases += 1
            found = sum(entry.multiplicity * oracle.weyl_dimension(entry.diagram, n)
                        for entry in report.entries)
            if found != total:
                problems.append(f"m={m} n={n} {variant}: {found} != {total}")
    problems = by_n[3] + by_n[4]
    return CheckResult(
        "dimension-conservation",
        not problems,
        f"constituent dimensions sum to dim S^3/Λ^3 in {cases} components "
        f"(m <= {m_max}, n = 3, 4)" if not problems else "; ".join(problems[:3]),
    )


# ---------------------------------------------------------------------------
# the suite


# The m (the grade, for word leading monomials) where each capped check stops.
CAPS = {"word_grade": 8, "character_oracle": 5, "kernel_oracle": 3,
        "standard_monomials": 3, "k2": 10, "dimension": 5}


def run_verification(m_max: int = 3, n: int = 3) -> list[CheckResult]:
    """Run every check; heavier checks scale with m_max and n.  ValueError,
    before any check runs, unless m_max is an int >= 0 and n an int >= 3."""
    if type(m_max) is not int or m_max < 0 or type(n) is not int or n < 3:
        raise ValueError(f"need an int m_max >= 0 and an int n >= 3, got {m_max!r}, {n!r}")
    def capped(cap: str, check, *args) -> CheckResult:
        """``check(min(m_max, CAPS[cap]), *args)``, saying so if it stops below m_max."""
        result = check(min(m_max, CAPS[cap]), *args)
        note = f"; capped at {CAPS[cap]} below m = {m_max}" if m_max > CAPS[cap] else ""
        return result._replace(detail=result.detail + note)
    return [
        check_generators_un_invariant(),
        check_generators_symmetry_type(),
        check_generator_grades_weights(),
        check_leading_monomial_table(),
        capped("word_grade", lambda grade: check_word_leading_monomials(max(grade, 4))),
        *check_discriminant(),
        check_phi_images(),
        check_golden_tables(),
        capped("character_oracle", check_against_kostka_oracle, n),
        capped("kernel_oracle", check_against_kernel_oracle, n),
        check_closed_form(m_max),
        check_kostka_closed_form(max(m_max, 6)),
        capped("standard_monomials", check_standard_monomials),
        capped("k2", lambda _: check_k2(CAPS["k2"])),
        check_schur_weyl_degree_one(),
        check_specht_images(),
        capped("dimension", check_dimension_conservation),
    ]
