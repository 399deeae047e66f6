"""Highest weight vector bases for S^k(S^m(C^n)) and Λ^k(S^m(C^n)), k <= 3.

Realize S^m(C^n) tensor ... tensor S^m(C^n) (k factors) as the polynomials on
an n-by-k variable matrix that are homogeneous of degree m in each column.
S_k permutes columns; the symmetric (resp. alternating) plethysm component is
the invariant (resp. sign) isotypic part.  GL_n highest weight vectors that
are S_k-invariant or sign-equivariant therefore enumerate the irreducible
constituents of the plethysms.

For k = 3 every such vector is a monomial word in seven generators built from
the 2x2 minors delta[i][j] of the top two rows and the 3x3 determinant:

    alpha1 = x[1][1]*x[1][2]*x[1][3]
    beta2  = x[1][2]*delta[1][3],   beta3 = x[1][3]*delta[1][2]
    alpha2 = beta2^2 + beta3^2 - beta2*beta3
    alpha3 = 2*(beta2^3 + beta3^3) - 3*(beta2^2*beta3 + beta2*beta3^2)
    gamma1 = det of the full 3x3 top submatrix
    gamma2 = delta[1][2]*delta[1][3]*delta[2][3]

The alphas are S_3-invariant, the gammas are sign-equivariant, and the words

    alpha1^a * alpha2^b * alpha3^c * gamma1^p * gamma2^q,   c in {0, 1},

with (p, q) = (2d, 2e) or (2d+1, 2e+1) give the invariant basis, while
(p, q) = (2d+1, 2e) or (2d, 2e+1) give the sign basis.  Distinct words have
distinct leading monomials, which is how linear independence is proved.

A note on indexing: beta2 here carries the factor x[1][2] (the cofactor
convention that makes beta2 + beta3 + the missing term sum against the
Pluecker relation).  The permutation-equivariant family ``beta_general``
attaches delta[1][i] to the complementary product of first-row variables, so
``beta_general(3, 2)`` equals ``beta3`` above; see its docstring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .polynomials import Polynomial, variable
from .tableaux import Diagram, normalize_partition, pad

VARIANTS = ("sym", "alt_gamma1", "alt_gamma2")


class BadShapeError(ValueError):
    """Raised for weights that cannot index a constituent here."""


def delta_minor(i: int, j: int) -> Polynomial:
    """The 2x2 minor on rows 1, 2 and columns i, j."""
    return variable(1, i) * variable(2, j) - variable(2, i) * variable(1, j)


@lru_cache(maxsize=None)
def generators_k3() -> dict[str, Polynomial]:
    """The seven named generators for k = 3, on rows 1..3 of the matrix."""
    x = variable
    alpha1 = x(1, 1) * x(1, 2) * x(1, 3)
    beta2 = x(1, 2) * delta_minor(1, 3)
    beta3 = x(1, 3) * delta_minor(1, 2)
    alpha2 = beta2 ** 2 + beta3 ** 2 - beta2 * beta3
    alpha3 = 2 * (beta2 ** 3 + beta3 ** 3) - 3 * (beta2 ** 2 * beta3 + beta2 * beta3 ** 2)
    gamma1 = (
        x(1, 1) * x(2, 2) * x(3, 3)
        - x(1, 1) * x(3, 2) * x(2, 3)
        - x(2, 1) * x(1, 2) * x(3, 3)
        + x(2, 1) * x(3, 2) * x(1, 3)
        + x(3, 1) * x(1, 2) * x(2, 3)
        - x(3, 1) * x(2, 2) * x(1, 3)
    )
    gamma2 = delta_minor(1, 2) * delta_minor(1, 3) * delta_minor(2, 3)
    return {
        "alpha1": alpha1,
        "beta2": beta2,
        "beta3": beta3,
        "alpha2": alpha2,
        "alpha3": alpha3,
        "gamma1": gamma1,
        "gamma2": gamma2,
    }


@lru_cache(maxsize=None)
def generators_k2() -> dict[str, Polynomial]:
    """The two generators for k = 2: alpha = x[1][1]*x[1][2], gamma = delta[1][2]."""
    return {"alpha": variable(1, 1) * variable(1, 2), "gamma": delta_minor(1, 2)}


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
    poly = delta_minor(1, i)
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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class DiscriminantCheck:
    """Outcome of the degree-six discriminant identity check."""

    corrected_holds: bool  # 4*alpha2^3 - alpha3^2 == 27*alpha1^2*gamma2^2
    gamma1_variant_holds: bool  # the same with gamma1 in place of gamma2

    def __bool__(self) -> bool:
        return self.corrected_holds


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


# Grades (column degree, all columns equal) and weights of the generators.
_GRADE = {"alpha1": 1, "alpha2": 2, "alpha3": 3, "gamma1": 1, "gamma2": 2}
_WEIGHT = {
    "alpha1": (3, 0, 0),
    "alpha2": (4, 2, 0),
    "alpha3": (6, 3, 0),
    "gamma1": (1, 1, 1),
    "gamma2": (3, 3, 0),
}


@dataclass(frozen=True)
class GeneratorWord:
    """A word alpha1^a * alpha2^b * alpha3^c * gamma1^p * gamma2^q.

    The gamma exponents are encoded through (d, e, f) so that each parity
    class is enumerated without repetition:

        sym:        p = 2d + f, q = 2e + f, f in {0, 1}
        alt_gamma1: p = 2d + 1, q = 2e     (f fixed at 0)
        alt_gamma2: p = 2d,     q = 2e + 1 (f fixed at 0)

    c is 0 or 1 throughout (alpha3^2 reduces against the discriminant
    identity), and sym words span the S_3-invariants, alt words the
    sign-equivariants.
    """

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if min(self.a, self.b, self.c, self.d, self.e, self.f) < 0:
            raise ValueError("word exponents must be nonnegative")
        if self.c > 1:
            raise ValueError("alpha3 exponent c must be 0 or 1")
        if self.f > 1:
            raise ValueError("shared gamma parity f must be 0 or 1")
        if self.variant != "sym" and self.f:
            raise ValueError("f is only used by sym words")

    @property
    def gamma1_exponent(self) -> int:
        if self.variant == "alt_gamma1":
            return 2 * self.d + 1
        return 2 * self.d + self.f

    @property
    def gamma2_exponent(self) -> int:
        if self.variant == "alt_gamma2":
            return 2 * self.e + 1
        return 2 * self.e + self.f

    def grade(self) -> int:
        p, q = self.gamma1_exponent, self.gamma2_exponent
        return self.a + 2 * self.b + 3 * self.c + p + 2 * q

    def weight(self) -> tuple[int, int, int]:
        p, q = self.gamma1_exponent, self.gamma2_exponent
        w1 = 3 * self.a + 4 * self.b + 6 * self.c + p + 3 * q
        w2 = 2 * self.b + 3 * self.c + p + 3 * q
        w3 = p
        return (w1, w2, w3)

    def diagram(self) -> Diagram:
        return normalize_partition(self.weight())

    def expand(self) -> Polynomial:
        """The word as an explicit polynomial on rows 1..3."""
        p, q = self.gamma1_exponent, self.gamma2_exponent
        poly = _generator_power("alpha1", self.a)
        for name, exp in (
            ("alpha2", self.b),
            ("alpha3", self.c),
            ("gamma1", p),
            ("gamma2", q),
        ):
            if exp:
                poly = poly * _generator_power(name, exp)
        return poly

    def sort_key(self) -> tuple:
        return (self.a, self.b, self.c, self.d, self.e, self.f, self.variant)

    def __str__(self) -> str:
        p, q = self.gamma1_exponent, self.gamma2_exponent
        factors = []
        for label, exp in (("a1", self.a), ("a2", self.b), ("a3", self.c),
                           ("g1", p), ("g2", q)):
            if exp == 1:
                factors.append(label)
            elif exp:
                factors.append(f"{label}^{exp}")
        return "*".join(factors) if factors else "1"

    def to_json_obj(self) -> dict:
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "d": self.d, "e": self.e, "f": self.f,
            "variant": self.variant,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeneratorWord":
        return cls(obj["a"], obj["b"], obj["c"], obj["d"], obj["e"], obj["f"],
                   obj["variant"])


@lru_cache(maxsize=None)
def _generator_power(name: str, exp: int) -> Polynomial:
    return generators_k3()[name] ** exp


def enumerate_basis(m: int, variant: str) -> list[GeneratorWord]:
    """All words of grade m for the requested component.

    variant "sym" covers S^3(S^m); "alt" merges the two sign families that
    cover Λ^3(S^m) (m >= 1 there; Λ^3 of a line is zero so grade 0 is empty
    anyway, but callers should not ask).
    """
    if m < 0:
        raise ValueError(f"grade must be nonnegative, got {m}")
    if variant == "sym":
        variants = ("sym",)
    elif variant == "alt":
        if m < 1:
            raise ValueError("the alternating component needs m >= 1")
        variants = ("alt_gamma1", "alt_gamma2")
    else:
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")

    words = []
    for var in variants:
        f_values = (0, 1) if var == "sym" else (0,)
        for f in f_values:
            # grade = a + 2b + 3c + (2d + 4e) + fixed offset from f or the
            # forced odd gamma exponent
            offset = {"sym": 3 * f, "alt_gamma1": 1, "alt_gamma2": 2}[var]
            rest = m - offset
            if rest < 0:
                continue
            for c in (0, 1):
                if 3 * c > rest:
                    continue
                for b in range((rest - 3 * c) // 2 + 1):
                    for d in range((rest - 3 * c - 2 * b) // 2 + 1):
                        for e in range((rest - 3 * c - 2 * b - 2 * d) // 4 + 1):
                            a = rest - 3 * c - 2 * b - 2 * d - 4 * e
                            words.append(GeneratorWord(a, b, c, d, e, f, var))
    words.sort(key=GeneratorWord.sort_key)
    return words


def words_for_weight(m: int, shape, variant: str) -> list[GeneratorWord]:
    """The words of grade m whose weight is the given diagram."""
    shape = normalize_partition(shape)
    if len(shape) > 3:
        raise BadShapeError(f"{shape} has more than three rows")
    target = pad(shape, 3)
    return [w for w in enumerate_basis(m, variant) if w.weight() == target]


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


@dataclass(frozen=True)
class WordK2:
    """A word alpha^i * gamma^j for k = 2."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise ValueError("word exponents must be nonnegative")

    def grade(self) -> int:
        return self.i + self.j

    def weight(self) -> tuple[int, int]:
        return (2 * self.i + self.j, self.j)

    def diagram(self) -> Diagram:
        return normalize_partition(self.weight())

    def expand(self) -> Polynomial:
        g = generators_k2()
        return g["alpha"] ** self.i * g["gamma"] ** self.j

    def sort_key(self) -> tuple:
        return (self.i, self.j)

    def __str__(self) -> str:
        factors = []
        for label, exp in (("a", self.i), ("g", self.j)):
            if exp == 1:
                factors.append(label)
            elif exp:
                factors.append(f"{label}^{exp}")
        return "*".join(factors) if factors else "1"

    def to_json_obj(self) -> dict:
        return {"alpha": self.i, "gamma": self.j}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WordK2":
        return cls(obj["alpha"], obj["gamma"])


def enumerate_basis_k2(m: int, variant: str) -> list[WordK2]:
    """Words alpha^(m-j)*gamma^j with j even (sym) or odd (alt)."""
    if m < 0:
        raise ValueError(f"grade must be nonnegative, got {m}")
    if variant == "sym":
        start = 0
    elif variant == "alt":
        if m < 1:
            raise ValueError("the alternating component needs m >= 1")
        start = 1
    else:
        raise ValueError(f"variant must be 'sym' or 'alt', got {variant!r}")
    return [WordK2(m - j, j) for j in range(start, m + 1, 2)]


@dataclass(frozen=True)
class DecompositionEntry:
    diagram: Diagram
    multiplicity: int
    words: tuple


@dataclass(frozen=True)
class DecompositionReport:
    """The full list of constituents of one plethysm component."""

    k: int
    m: int
    variant: str
    entries: tuple[DecompositionEntry, ...]

    def multiplicities(self) -> dict[Diagram, int]:
        return {entry.diagram: entry.multiplicity for entry in self.entries}

    def words_of(self, diagram: Diagram) -> tuple:
        """The words of the constituent with this diagram; () if it has none."""
        return next((e.words for e in self.entries if e.diagram == diagram), ())

    def total_multiplicity(self) -> int:
        return sum(entry.multiplicity for entry in self.entries)

    def component_name(self) -> str:
        outer = f"S^{self.k}" if self.variant == "sym" else f"Λ^{self.k}"
        return f"{outer}(S^{self.m}(C^n))"

    def to_text(self, expand: bool = False) -> str:
        lines = [f"{self.component_name()}  [k={self.k}, m={self.m}, {self.variant}]"]
        width = max((len(_diagram_str(e.diagram)) for e in self.entries), default=4)
        for entry in self.entries:
            words = ", ".join(str(w) for w in entry.words)
            lines.append(
                f"  {_diagram_str(entry.diagram):<{width}}  x{entry.multiplicity}  {words}"
            )
            if expand:
                for w in entry.words:
                    lines.append(f"      {w} = {w.expand()}")
        lines.append(f"total multiplicity {self.total_multiplicity()}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return self._json_obj(expand=False)

    def _json_obj(self, expand: bool) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "variant": self.variant,
            "entries": [
                {
                    "diagram": list(entry.diagram),
                    "multiplicity": entry.multiplicity,
                    "words": _word_json_objs(entry.words, expand),
                }
                for entry in self.entries
            ],
        }

    def to_json_text(self, expand: bool = False, shape: Diagram | None = None) -> str:
        """The report as JSON with ``indent=2``, and a final newline.

        With ``expand`` each word object gains a ``"polynomial"`` key, whose
        value ``Polynomial.to_json_text`` writes; only the rest goes through
        ``json.dumps``.  With ``shape`` only that diagram's words are written,
        in the ``{"k", "m", "variant", "shape", "words"}`` layout of ``hwv``.
        """
        if shape is None:
            words = [w for entry in self.entries for w in entry.words]
            obj = self._json_obj(expand)
            level = 10  # indent of a word's keys under "entries"
        else:
            words = self.words_of(shape)
            obj = {"k": self.k, "m": self.m, "variant": self.variant,
                   "shape": list(shape), "words": _word_json_objs(words, expand)}
            level = 6  # indent of a word's keys under "words"
        pieces = json.dumps(obj, indent=2, ensure_ascii=False).split(_POLYNOMIAL_SLOT_TEXT)
        out = [pieces[0]]
        for word, piece in zip(words, pieces[1:]):  # the slots are in word order
            out += (word.expand().to_json_text(level), piece)
        out.append("\n")
        return "".join(out)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecompositionReport":
        word_cls = GeneratorWord if obj["k"] == 3 else WordK2
        entries = tuple(
            DecompositionEntry(
                diagram=tuple(e["diagram"]),
                multiplicity=e["multiplicity"],
                words=tuple(word_cls.from_json_obj(w) for w in e["words"]),
            )
            for e in obj["entries"]
        )
        return cls(k=obj["k"], m=obj["m"], variant=obj["variant"], entries=entries)


# Stands in for a polynomial until the JSON text is written.  json.dumps
# escapes it as "\u0000", which no other string in a report contains.
_POLYNOMIAL_SLOT = "\0"
_POLYNOMIAL_SLOT_TEXT = json.dumps(_POLYNOMIAL_SLOT)


def _word_json_objs(words, expand: bool) -> list[dict]:
    if expand:
        return [dict(w.to_json_obj(), polynomial=_POLYNOMIAL_SLOT) for w in words]
    return [w.to_json_obj() for w in words]


def _diagram_str(diagram: Diagram) -> str:
    return "(" + ",".join(map(str, diagram)) + ")"


def group_words_into_entries(words) -> tuple[DecompositionEntry, ...]:
    """Group words by diagram, diagrams in decreasing lexicographic order."""
    by_diagram: dict[Diagram, list] = {}
    for w in words:
        by_diagram.setdefault(w.diagram(), []).append(w)
    entries = []
    for diagram in sorted(by_diagram, reverse=True):
        group = by_diagram[diagram]
        group.sort(key=lambda w: w.sort_key())
        entries.append(
            DecompositionEntry(
                diagram=diagram, multiplicity=len(group), words=tuple(group)
            )
        )
    return tuple(entries)


def decompose(k: int, m: int, variant: str) -> DecompositionReport:
    """The complete decomposition of S^k(S^m) or Λ^k(S^m) for k in {2, 3}."""
    if k == 3:
        words = enumerate_basis(m, variant)
    elif k == 2:
        words = enumerate_basis_k2(m, variant)
    else:
        raise ValueError(f"only k = 2 and k = 3 are implemented, got k={k}")
    return DecompositionReport(
        k=k, m=m, variant=variant, entries=group_words_into_entries(words)
    )
