"""The two word classes that the shared factor table replaced.

`GeneratorWord` (k = 3) and `WordK2` (k = 2) each wrote out their own grade,
weight, diagram, expansion, sort key and printed form; `enumerate_basis`,
`enumerate_basis_k2` and `words_for_weight` built and filtered them, and
`group_words_into_entries` ordered each constituent's words by the sort key.
These are the former bodies from `plethysm.hwv`, kept only as the reference
for the differential test in `test_hwv.py`.  They share the generators with
the package, and nothing else of the word layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from plethysm.hwv import BadShapeError, generators_k2, generators_k3
from plethysm.polynomials import Polynomial
from plethysm.tableaux import Diagram, normalize_partition, pad

VARIANTS = ("sym", "alt_gamma1", "alt_gamma2")


@dataclass(frozen=True)
class GeneratorWord:
    """A word alpha1^a * alpha2^b * alpha3^c * gamma1^p * gamma2^q."""

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


@lru_cache(maxsize=None)
def _generator_power(name: str, exp: int) -> Polynomial:
    return generators_k3()[name] ** exp


def enumerate_basis(m: int, variant: str) -> list[GeneratorWord]:
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
    shape = normalize_partition(shape)
    if len(shape) > 3:
        raise BadShapeError(f"{shape} has more than three rows")
    target = pad(shape, 3)
    return [w for w in enumerate_basis(m, variant) if w.weight() == target]


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


def enumerate_basis_k2(m: int, variant: str) -> list[WordK2]:
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


def grouped_words(k: int, m: int, variant: str) -> list[tuple[Diagram, list]]:
    """(diagram, words) per constituent, as `decompose` ordered them."""
    words = enumerate_basis(m, variant) if k == 3 else enumerate_basis_k2(m, variant)
    by_diagram: dict[Diagram, list] = {}
    for w in words:
        by_diagram.setdefault(w.diagram(), []).append(w)
    return [(diagram, sorted(by_diagram[diagram], key=lambda w: w.sort_key()))
            for diagram in sorted(by_diagram, reverse=True)]
