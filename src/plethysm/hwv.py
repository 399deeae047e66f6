"""Highest weight vector bases for S^k(S^m(C^n)) and Λ^k(S^m(C^n)), k <= 3.

Realize S^m(C^n) tensor ... tensor S^m(C^n) (k factors) as the polynomials on
an n-by-k variable matrix that are homogeneous of degree m in each column.
S_k permutes columns; the symmetric (resp. alternating) plethysm component is
the invariant (resp. sign) isotypic part.  GL_n highest weight vectors that
are S_k-invariant or sign-equivariant therefore enumerate the irreducible
constituents of the plethysms.

For k = 3 every such vector is a monomial word in seven generators built from
the 2x2 minors delta[i][j] = tableaux.column_minor((i, j)) of the top two rows
and the 3x3 determinant:

    alpha1 = x[1][1]*x[1][2]*x[1][3]
    beta2  = x[1][2]*delta[1][3],   beta3 = x[1][3]*delta[1][2]
    alpha2 = beta2^2 + beta3^2 - beta2*beta3
    alpha3 = 2*(beta2^3 + beta3^3) - 3*(beta2^2*beta3 + beta2*beta3^2)
    gamma1 = det of the 3x3 top submatrix, tableaux.column_minor((1, 2, 3))
    gamma2 = delta[1][2]*delta[1][3]*delta[2][3]

The alphas are S_3-invariant, the gammas are sign-equivariant, and the words

    alpha1^a * alpha2^b * alpha3^c * gamma1^p * gamma2^q,   c in {0, 1},

with (p, q) = (2d, 2e) or (2d+1, 2e+1) give the invariant basis, while
(p, q) = (2d+1, 2e) or (2d, 2e+1) give the sign basis.  Distinct words have
distinct leading monomials, which is how linear independence is proved.

For k = 2 the words are alpha^i * gamma^j with alpha = x[1][1]*x[1][2] and
gamma = delta[1][2], j even for the invariants and odd for the sign part.
``decompose(k, m, variant)``, the entry point for both k, lists the words
diagram by diagram: ``_shapes`` lists the diagrams of km with at most k rows
and ``_diagram_words`` solves each diagram's weight equations for its words,
for either k.  ``diagram_report`` solves one diagram alone, for ``hwv
--shape``; both build their report in ``_report``, which checks k and the
component.  A word's grade, weight, expansion and printed form are read off
one factor table, ``_FACTORS``, of each generator's label, grade and weight.
``verify`` checks the k = 3 rows of that table against the generators,
requires each word's weight to be the diagram it is listed under, and
multiplies its own table of generator leading monomials along the same rows
to get each word's leading monomial.

A note on indexing: beta2 here carries the factor x[1][2] (the cofactor
convention that makes beta2 + beta3 + the missing term sum against the
Pluecker relation).  The permutation-equivariant family ``beta_general``
attaches delta[1][i] to the complementary product of first-row variables, so
``beta_general(3, 2)`` equals ``beta3`` above; see its docstring.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import lru_cache, reduce
from operator import mul
from types import MappingProxyType

from .polynomials import Polynomial, _check_degree, variable
from .tableaux import Diagram, column_minor, normalize_partition, pad

# The word families of k = 3: (variant, f) -> the parities (p - 2d, q - 2e)
# of the gamma exponents of a GeneratorWord, and inverted, parities -> family.
# Equal parities give the S_3-invariants ("sym"), unequal ones the sign part.
_FAMILIES = {("sym", 0): (0, 0), ("sym", 1): (1, 1),
             ("alt_gamma1", 0): (1, 0), ("alt_gamma2", 0): (0, 1)}
_FAMILY_OF_PARITIES = {parities: family for family, parities in _FAMILIES.items()}


class BadShapeError(ValueError):
    """Raised for weights that cannot index a constituent here."""


@lru_cache(maxsize=None)
def generators_k3() -> Mapping[str, Polynomial]:
    """The seven named generators for k = 3, on rows 1..3 of the matrix, read-only."""
    x = variable
    alpha1 = x(1, 1) * x(1, 2) * x(1, 3)
    beta2 = x(1, 2) * column_minor((1, 3))
    beta3 = x(1, 3) * column_minor((1, 2))
    alpha2 = beta2 ** 2 + beta3 ** 2 - beta2 * beta3
    alpha3 = 2 * (beta2 ** 3 + beta3 ** 3) - 3 * (beta2 ** 2 * beta3 + beta2 * beta3 ** 2)
    gamma1 = column_minor((1, 2, 3))
    gamma2 = column_minor((1, 2)) * column_minor((1, 3)) * column_minor((2, 3))
    return MappingProxyType({
        "alpha1": alpha1,
        "beta2": beta2,
        "beta3": beta3,
        "alpha2": alpha2,
        "alpha3": alpha3,
        "gamma1": gamma1,
        "gamma2": gamma2,
    })


@lru_cache(maxsize=None)
def generators_k2() -> Mapping[str, Polynomial]:
    """The two generators for k = 2: alpha = x[1][1]*x[1][2], gamma = delta[1][2]."""
    return MappingProxyType({"alpha": variable(1, 1) * variable(1, 2),
                             "gamma": column_minor((1, 2))})


def beta_general(k: int, i: int) -> Polynomial:
    """beta_i for general k: delta[1][i] times the first-row variables x[1][j],
    j != i, j >= 2.

    Defined for 2 <= i <= k.  Under a column permutation sigma,

        sigma . beta_i = beta_sigma(i)                if sigma(1) = 1,
        sigma . beta_i = -beta_sigma(1)               if sigma(i) = 1,
        sigma . beta_i = beta_sigma(i) - beta_sigma(1) otherwise,

    which makes T_i = T_1 - k*beta_i (with T_1 = sum of all beta_i) a genuine
    permutation orbit: sigma . T_i = T_sigma(i).
    """
    if not 2 <= i <= k:
        raise ValueError(f"beta index must satisfy 2 <= i <= k, got i={i}, k={k}")
    poly = column_minor((1, i))
    for j in range(2, k + 1):
        if j != i:
            poly = poly * variable(1, j)
    return poly


def t_general(k: int, i: int) -> Polynomial:
    """T_i = T_1 - k*beta_i for i >= 2, and T_1 = beta_2 + ... + beta_k."""
    if not 1 <= i <= k:
        raise ValueError(f"T index must satisfy 1 <= i <= k, got i={i}, k={k}")
    t1 = Polynomial.zero()
    for j in range(2, k + 1):
        t1 = t1 + beta_general(k, j)
    if i == 1:
        return t1
    return t1 - k * beta_general(k, i)


def phi_images_k3() -> dict[str, Polynomial]:
    """Images of the elementary symmetric functions and the Vandermonde in the T_i.

    With e1 = T1+T2+T3 = 0 the invariants of the triple are generated by
    sigma2 = e2(T) and sigma3 = e3(T); the discriminant square root is
    delta = (T1-T2)(T1-T3)(T2-T3).
    """
    t1, t2, t3 = (t_general(3, i) for i in (1, 2, 3))
    sigma2 = t1 * t2 + t1 * t3 + t2 * t3
    sigma3 = t1 * t2 * t3
    delta = (t1 - t2) * (t1 - t3) * (t2 - t3)
    return {"sigma2": sigma2, "sigma3": sigma3, "delta": delta}


class DiscriminantCheck(namedtuple("DiscriminantCheck",
                                   "corrected_holds gamma1_variant_holds")):
    """Outcome of the degree-six discriminant identity check:
    ``corrected_holds`` is 4*alpha2^3 - alpha3^2 == 27*alpha1^2*gamma2^2, and
    ``gamma1_variant_holds`` the same with gamma1 in place of gamma2."""

    __slots__ = ()


def verify_discriminant_relation() -> DiscriminantCheck:
    """Check 4*alpha2^3 - alpha3^2 == 27*alpha1^2*gamma2^2 by expansion.

    Also evaluates the same identity with gamma1 in place of gamma2, which
    fails; it is kept around because the gamma1 form circulates and the
    gradings (alpha2^3 has degree 18, alpha1^2*gamma1^2 only 12) already rule
    it out.
    """
    g = generators_k3()
    lhs = 4 * g["alpha2"] ** 3 - g["alpha3"] ** 2
    corrected = lhs == 27 * g["alpha1"] ** 2 * g["gamma2"] ** 2
    printed = lhs == 27 * g["alpha1"] ** 2 * g["gamma1"] ** 2
    return DiscriminantCheck(corrected_holds=corrected, gamma1_variant_holds=printed)


# The factor table: for each k, the generators of a word in the order they
# are multiplied and printed, each with its printed label, its name in
# generators_k2/generators_k3, its grade (the degree in every column) and
# its weight.
_FACTORS = {
    2: (("a", "alpha", 1, (2, 0)),
        ("g", "gamma", 1, (1, 1))),
    3: (("a1", "alpha1", 1, (3, 0, 0)),
        ("a2", "alpha2", 2, (4, 2, 0)),
        ("a3", "alpha3", 3, (6, 3, 0)),
        ("g1", "gamma1", 1, (1, 1, 1)),
        ("g2", "gamma2", 2, (3, 3, 0))),
}
# Row r of a word's weight is sum(exponent * weight[r]) over the factors.
_WEIGHT_ROWS = {k: tuple(zip(*(weight for _, _, _, weight in table)))
                for k, table in _FACTORS.items()}


class _Word:
    """Grade, weight, expansion and printed form of a word, read off the
    factor table of its k.  A subclass is also a named tuple of the word's
    fields; it sets ``_k``, gives ``exponents()``, one per row of the table,
    and checks its fields in ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable) -> "_Word":
        """The word of these fields, checked; ``_replace`` and ``copy.replace``
        build their words here."""
        return cls(*iterable)

    def _check_ints(self, count: int) -> None:
        """Raise ValueError unless the first ``count`` fields are ints >= 0."""
        # a float or a bool would print, weigh and hash like the int it equals
        for name, value in zip(self._fields[:count], self):
            if type(value) is not int or value < 0:
                raise ValueError(f"word field {name} must be a nonnegative int, got {value!r}")

    def _factors(self):
        return zip(_FACTORS[self._k], self.exponents())

    def grade(self) -> int:
        return sum(grade * exp for (_, _, grade, _), exp in self._factors())

    def weight(self) -> tuple[int, ...]:
        exponents = self.exponents()
        return tuple([sum(map(mul, row, exponents)) for row in _WEIGHT_ROWS[self._k]])

    def expand(self) -> Polynomial:
        """The word as an explicit polynomial on rows 1..k.

        Its degree, k times its grade, is checked against the bound before
        any power is built.  The nonzero generator powers are then multiplied
        smallest first (by term count), which forms fewer term pairs than
        table order: 158569 against 186279 over the words of m = 10.
        """
        _check_degree(self._k * self.grade())
        powers = sorted([_generator_power(self._k, name, exp)
                         for (_, name, _, _), exp in self._factors() if exp], key=len)
        return reduce(mul, powers) if powers else Polynomial.one()

    def __str__(self) -> str:
        factors = [label if exp == 1 else f"{label}^{exp}"
                   for (label, _, _, _), exp in self._factors() if exp]
        return "*".join(factors) or "1"


# The powers of each generator built so far, by (k, name): entry e is power e.
_POWERS: dict[tuple[int, str], list[Polynomial]] = {}


def _generator_power(k: int, name: str, exp: int) -> Polynomial:
    """The generator ``name`` of k to the power ``exp``.

    The degree bound, exp times the generator's degree, is checked before any
    power is built.  Each missing power is then the one below it times the
    generator, one product per power, and every power built is kept in
    ``_POWERS``, so the powers that the words of one grade share are built
    once; ``_Word.expand`` multiplies them smallest first.  ``Polynomial.__mul__``
    rebuilds a product's terms only when some coefficient summed to zero.
    """
    base = (generators_k3() if k == 3 else generators_k2())[name]
    if exp < 0:
        raise ValueError("negative polynomial power")
    _check_degree(base.degree() * exp)
    powers = _POWERS.setdefault((k, name), [Polynomial.one()])
    while len(powers) <= exp:
        powers.append(powers[-1] * base)
    return powers[exp]


class GeneratorWord(_Word, namedtuple("GeneratorWord", "a b c d e f variant")):
    """A word alpha1^a * alpha2^b * alpha3^c * gamma1^p * gamma2^q.

    The gamma exponents are encoded through (d, e, f) so that each parity
    class is enumerated without repetition; ``_FAMILIES`` holds the parities:

        sym:        p = 2d + f, q = 2e + f, f in {0, 1}
        alt_gamma1: p = 2d + 1, q = 2e     (f fixed at 0)
        alt_gamma2: p = 2d,     q = 2e + 1 (f fixed at 0)

    c is 0 or 1 throughout (alpha3^2 reduces against the discriminant
    identity), and sym words span the S_3-invariants, alt words the
    sign-equivariants.  A word is the tuple of its fields: it orders, hashes
    and compares equal like that tuple.  Its fields a to f are ints.
    """

    __slots__ = ()
    _k = 3

    def __new__(cls, a, b, c, d, e, f, variant):
        word = tuple.__new__(cls, (a, b, c, d, e, f, variant))
        word._check_ints(6)
        if (variant, f) not in _FAMILIES:
            raise ValueError(f"no word family has variant {variant!r} and f={f}")
        if c > 1:
            raise ValueError("alpha3 exponent c must be 0 or 1")
        return word

    def exponents(self) -> tuple[int, int, int, int, int]:
        """(a, b, c, p, q), the exponents of alpha1, alpha2, alpha3, gamma1, gamma2."""
        p, q = _FAMILIES[self.variant, self.f]
        return (self.a, self.b, self.c, 2 * self.d + p, 2 * self.e + q)

    def to_json_obj(self) -> dict:
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "d": self.d, "e": self.e, "f": self.f,
            "variant": self.variant,
        }


def _check_component(m: int, variant: str) -> None:
    """Reject a grade or a component ("sym" or "alt") that has no words."""
    if type(m) is not int or m < 0:  # True or 1.0 would share the cache key of 1
        raise ValueError(f"grade must be a nonnegative int, got {m!r}")
    if variant not in ("sym", "alt"):
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    if variant == "alt" and m < 1:
        raise ValueError("the alternating component needs m >= 1")


def enumerate_basis(m: int, variant: str) -> list[GeneratorWord]:
    """All words of grade m of S^3(S^m) ("sym") or Λ^3(S^m) ("alt", m >= 1),
    in field order; each (a, b, c, d) has one word, so the sort stops at d."""
    return sorted(decompose(3, m, variant).words())


def _diagram_words(k: int, diagram: Diagram, variant: str) -> tuple:
    """The words of k and the variant whose weight is the diagram, in field
    order, unchecked; the diagram has at most k rows.

    For k = 2 a diagram (l1, l2) has the one word alpha^((l1 - l2) / 2)*gamma^l2
    when l2 is even (sym) or odd (alt).  For k = 3 and (l1, l2, l3), with
    s = 2b + 3c (s != 1 fixes b and c, as c <= 1) the table gives l3 = p,
    l1 - l2 = 3a + s, l2 - l3 = s + 3q; l3 and the variant fix q mod 2, hence
    s mod 6.  A descending s is an ascending a."""
    if k == 2:
        l1, l2 = pad(diagram, 2)
        return ((tuple.__new__(WordK2, ((l1 - l2) // 2, l2)),)
                if l2 % 2 == (variant == "alt") else ())
    l1, l2, p = pad(diagram, 3)
    u, v = l1 - l2, l2 - p
    if (u - v) % 3:
        return ()
    q_parity = (p + (variant != "sym")) % 2
    family, f = _FAMILY_OF_PARITIES[p % 2, q_parity]
    top = min(u, v)
    return tuple([tuple.__new__(GeneratorWord, ((u - s) // 3, (s - 3 * (s % 2)) // 2,
                                                s % 2, p // 2, (v - s) // 6, f, family))
                  for s in range(top - (top - v + 3 * q_parity) % 6, -1, -6) if s != 1])


def words_for_weight(m: int, shape, variant: str) -> list[GeneratorWord]:
    """The k = 3 words of grade m whose weight is the diagram; none unless
    |shape| = 3m."""
    shape = normalize_partition(shape)
    if len(shape) > 3:
        raise BadShapeError(f"{shape} has more than three rows")
    return diagram_report(3, m, variant, shape).words()


def multiplicity_closed_form(shape, variant: str) -> int:
    """Multiplicity of the weight-`shape` constituent, by the counting formula.

    For shape (l1, l2, l3) with |shape| = 3m the number of sym words equals

        floor((min(l1-l2, l2-l3) + 2*l1 + l2) / 6) + floor(l2 / 2)
          + floor(-(l1 + 2*l2) / 3) + 1

    clamped at zero, and the alt count is the same with the first floor
    shifted by +3, the second by +1, and without the trailing +1.
    """
    shape = normalize_partition(shape)
    if len(shape) > 3:
        raise BadShapeError(f"{shape} has more than three rows")
    if sum(shape) % 3:
        raise BadShapeError(f"|{shape}| is not divisible by three")
    l1, l2, l3 = pad(shape, 3)
    hook = min(l1 - l2, l2 - l3)
    if variant == "sym":
        value = (hook + 2 * l1 + l2) // 6 + l2 // 2 + (-(l1 + 2 * l2)) // 3 + 1
    elif variant == "alt":
        value = (hook + 2 * l1 + l2 + 3) // 6 + (l2 + 1) // 2 + (-(l1 + 2 * l2)) // 3
    else:
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    return max(value, 0)


class WordK2(_Word, namedtuple("WordK2", "i j")):
    """A word alpha^i * gamma^j for k = 2, the tuple (i, j) of ints."""

    __slots__ = ()
    _k = 2

    def __new__(cls, i, j):
        word = tuple.__new__(cls, (i, j))
        word._check_ints(2)
        return word

    def exponents(self) -> tuple[int, int]:
        return (self.i, self.j)

    def to_json_obj(self) -> dict:
        return {"alpha": self.i, "gamma": self.j}


class DecompositionEntry(namedtuple("DecompositionEntry", "diagram words")):
    """One constituent: its diagram and the tuple of its words."""

    __slots__ = ()

    @property
    def multiplicity(self) -> int:
        return len(self.words)


class DecompositionReport(namedtuple("DecompositionReport", "k m variant entries")):
    """The full list of constituents of one plethysm component: ``entries``
    is a tuple of ``DecompositionEntry``."""

    __slots__ = ()

    def multiplicities(self) -> dict[Diagram, int]:
        return {entry.diagram: entry.multiplicity for entry in self.entries}

    def words(self) -> list:
        """Every word of the report, entry by entry."""
        return [w for entry in self.entries for w in entry.words]

    def words_of(self, diagram: Diagram) -> tuple:
        """The words of the constituent with this diagram; () if it has none."""
        return next((e.words for e in self.entries if e.diagram == diagram), ())

    def total_multiplicity(self) -> int:
        return sum(entry.multiplicity for entry in self.entries)

    def component_name(self) -> str:
        outer = f"S^{self.k}" if self.variant == "sym" else f"Λ^{self.k}"
        return f"{outer}(S^{self.m}(C^n))"

    def to_text(self, expand: bool = False) -> str:
        return "".join(self.text_lines(expand))[:-1]  # no final newline

    def text_lines(self, expand: bool = False) -> Iterator[str]:
        """The lines of ``to_text``, each with its newline; with ``expand`` a
        word's polynomial is built only when its line is reached, and a line
        of more than ``TERMS_PER_PIECE`` terms comes in pieces of that many."""
        yield f"{self.component_name()}  [k={self.k}, m={self.m}, {self.variant}]\n"
        width = max((len(_diagram_str(e.diagram)) for e in self.entries), default=4)
        for entry in self.entries:
            words = ", ".join(str(w) for w in entry.words)
            yield f"  {_diagram_str(entry.diagram):<{width}}  x{entry.multiplicity}  {words}\n"
            if expand:
                for w in entry.words:
                    yield from w.expand().text_pieces(f"      {w} = ", "\n")
        yield f"total multiplicity {self.total_multiplicity()}\n"

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "variant": self.variant,
            "entries": [
                {
                    "diagram": list(entry.diagram),
                    "multiplicity": entry.multiplicity,
                    "words": [w.to_json_obj() for w in entry.words],
                }
                for entry in self.entries
            ],
        }

    def to_json_text(self, expand: bool = False) -> str:
        return "".join(self.json_chunks(expand))

    def json_chunks(self, expand: bool = False,
                    shape: Diagram | None = None) -> Iterator[str]:
        """``json.dumps(obj, indent=2, ensure_ascii=False)`` and a final newline,
        in pieces, for obj the ``to_json_obj()`` of the report.

        The header and each entry's diagram and multiplicity are fixed text,
        and each word's object is written from its ``to_json_obj()``, one
        piece per word.  With ``expand`` each word object gains a
        ``"polynomial"`` key, the ``to_json_obj()`` of its expansion, written
        by ``Polynomial.json_pieces`` in runs of ``TERMS_PER_PIECE`` terms; a
        word is expanded only when its piece is reached, so one polynomial
        exists at a time.  With ``shape`` only that diagram's words are
        written, in the ``{"k", "m", "variant", "shape", "words"}`` layout of
        ``hwv``.
        """
        head = (f'{{\n  "k": {self.k},\n  "m": {self.m},\n'
                f'  "variant": {_json_str(self.variant)},\n')
        if shape is not None:
            yield head + f'  "shape": {_json_ints(shape, 2)},\n  "words": '
            yield from _json_words(self.words_of(shape), 2, expand)
        elif not self.entries:
            yield head + '  "entries": []'
        else:
            before = head + '  "entries": [\n    {'
            for entry in self.entries:
                yield (f'{before}\n      "diagram": {_json_ints(entry.diagram, 6)},\n'
                       f'      "multiplicity": {entry.multiplicity},\n      "words": ')
                yield from _json_words(entry.words, 6, expand)
                before = "\n    },\n    {"
            yield "\n    }\n  ]"
        yield "\n}\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecompositionReport":
        """The report that `obj` writes out, ignoring "polynomial" keys.

        A valid document is exactly ``decompose(k, m, variant)`` in JSON, so
        that report is built and returned; any other document raises
        ``ValueError``.  Keys and types are checked before anything is built.
        """
        _require_fields(obj, "the document", k=int, m=int, variant=str, entries=list)
        for e in obj["entries"]:
            _require_fields(e, "an entry", diagram=list, multiplicity=int, words=list)
            for w in e["words"]:
                _require_fields(w, "a word")
            if e["multiplicity"] != len(e["words"]):
                raise ValueError(f"{_diagram_str(e['diagram'])} has multiplicity "
                                 f"{e['multiplicity']} but {len(e['words'])} words")
        report = decompose(obj["k"], obj["m"], obj["variant"])
        entries = [dict(e, words=[{key: v for key, v in w.items() if key != "polynomial"}
                                  for w in e["words"]])
                   for e in obj["entries"]]
        # as JSON texts, so that a float or a bool does not pass for the int it equals
        if (json.dumps(dict(obj, entries=entries), sort_keys=True)
                != json.dumps(report.to_json_obj(), sort_keys=True)):
            raise ValueError(f"the document is not the decomposition of "
                             f"{report.component_name()}")
        return report


def _require_fields(obj, what: str, **fields: type) -> None:
    """Raise ValueError unless `obj` is a dict that maps each key of `fields`
    to a value of exactly that type: a bool or a float is not an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is a {type(obj).__name__}, not an object")
    for key, kind in fields.items():
        if type(obj.get(key)) is not kind:
            raise ValueError(f"{what} has no {key!r} of type {kind.__name__}")


# json.dumps's encoder of a string, as it runs with ensure_ascii=False
_json_str = json.encoder.encode_basestring


def _json_ints(values, level: int) -> str:
    """``json.dumps(list(values), indent=2)`` for ints, on a line indented by
    ``level``."""
    if not values:
        return "[]"
    inner = "\n" + " " * (level + 2)
    return "[" + inner + ("," + inner).join(map(str, values)) + "\n" + " " * level + "]"


def _json_words(words, level: int, expand: bool) -> Iterator[str]:
    """The JSON array of the words' objects, on a line indented by ``level``,
    in pieces: one per word, or with ``expand`` each word's expansion under
    ``"polynomial"`` in runs of terms.  A word's values are ints and strings.
    """
    if not words:
        yield "[]"
        return
    inner = "\n" + " " * (level + 2)  # the indent of each word's braces
    keys = inner + "  "  # and of its keys
    before = "[" + inner + "{" + keys
    for w in words:
        fields = before + ("," + keys).join([
            f"{_json_str(key)}: {value if type(value) is int else _json_str(value)}"
            for key, value in w.to_json_obj().items()])
        if expand:
            yield from w.expand().json_pieces(level + 4, fields + "," + keys + '"polynomial": ')
        else:
            yield fields
        before = inner + "}," + inner + "{" + keys
    yield inner + "}\n" + " " * level + "]"


def _diagram_str(diagram: Diagram) -> str:
    return "(" + ",".join(map(str, diagram)) + ")"


def _shapes(k: int, m: int) -> Iterator[Diagram]:
    """The diagrams of km with at most k rows (k = 2 or 3), one at a time in
    decreasing lex order; l1 >= l2 >= l3 >= 0 puts l2 between (km - l1) /
    (k - 1) and min(l1, km - l1), so l3 = km - l1 - l2 is 0 for k = 2."""
    total = k * m
    return (tuple(filter(None, (l1, l2, total - l1 - l2)))
            for l1 in range(total, m - 1, -1)
            for l2 in range(min(l1, total - l1), (total - l1 + k - 2) // (k - 1) - 1, -1))


def _report(k: int, m: int, variant: str, diagrams) -> DecompositionReport:
    """The report of the diagrams in ``diagrams(k, m)`` that have words, each
    solved by ``_diagram_words``, once k, m and the variant are checked."""
    if type(k) is not int or k not in _FACTORS:
        raise ValueError(f"only k = 2 and k = 3 are implemented, got k={k!r}")
    _check_component(m, variant)
    entries = tuple(DecompositionEntry(diagram, words) for diagram in diagrams(k, m)
                    if (words := _diagram_words(k, diagram, variant)))
    return DecompositionReport(k=k, m=m, variant=variant, entries=entries)


@lru_cache(maxsize=None, typed=True)
def decompose(k: int, m: int, variant: str) -> DecompositionReport:
    """The complete decomposition of S^k(S^m) or Λ^k(S^m) for k in {2, 3}:
    the diagrams of ``_shapes(k, m)`` that ``_diagram_words`` finds words
    for, in decreasing lex order, each with its words in field order.
    Reports are immutable: each (k, m, variant), int k and m, is built once.
    """
    return _report(k, m, variant, _shapes)


def diagram_report(k: int, m: int, variant: str, diagram) -> DecompositionReport:
    """The entry of ``decompose(k, m, variant)`` with this diagram, alone in a
    report, or no entry if the diagram has no words.  Only this diagram is
    solved, and the cache of ``decompose`` is left as it is."""
    def alone(k: int, m: int) -> list[Diagram]:
        shape = normalize_partition(diagram)
        return [shape] if len(shape) <= k and sum(shape) == k * m else []
    return _report(k, m, variant, alone)
