"""The tuple-of-pairs monomial and polynomial that the packed layout replaced.

A monomial here is a sorted tuple of ((col, row), exponent) pairs and is
compared by an explicit graded-lex sort key.  This is the former body of
`plethysm.polynomials`, kept only as the reference for the differential test
in `test_packed_monomials.py`.  It shares the error classes with the package
so that both sides raise the same exceptions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from plethysm.polynomials import (
    NotIsobaricError,
    NotMultihomogeneousError,
    ZeroPolynomialError,
)

_Key = TypeVar("_Key", bound=Hashable)


VarId = tuple[int, int]  # (row, col), both 1-based
Pairs = tuple[tuple[tuple[int, int], int], ...]  # sorted ((col, row), exponent)


def _sum_terms(terms: Iterable[tuple[_Key, int]]) -> dict[_Key, int]:
    """Add up the values of repeated keys, then drop the keys that sum to zero.

    This is the one place where like terms are collected: coefficients keyed
    by monomial, and exponents keyed by variable.
    """
    out: dict[_Key, int] = {}
    for key, value in terms:
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _bump(pairs: Pairs, key: tuple[int, int], step: int) -> Pairs:
    """The pairs with the exponent on (col, row) `key` changed by `step`.

    A variable whose exponent reaches zero loses its pair, and an absent one
    gains a pair at its place in the variable chain.
    """
    at = bisect_left(pairs, (key,))
    if at < len(pairs) and pairs[at][0] == key:
        exp = pairs[at][1] + step
        return pairs[:at] + (((key, exp),) if exp else ()) + pairs[at + 1:]
    return pairs[:at] + ((key, step),) + pairs[at:]


class Monomial:
    """An immutable product of variable powers; ``Monomial()`` is the unit."""

    __slots__ = ("_pairs", "_degree", "_hash")

    def __init__(self, exponents: Mapping[VarId, int] | None = None):
        pairs = []
        if exponents:
            for (row, col), exp in exponents.items():
                if row < 1 or col < 1:
                    raise ValueError(f"variable indices are 1-based, got x[{row}][{col}]")
                if exp < 0:
                    raise ValueError(f"negative exponent {exp} on x[{row}][{col}]")
                if exp:
                    pairs.append(((col, row), exp))
        pairs.sort()
        self._init_from_pairs(tuple(pairs))

    def _init_from_pairs(self, pairs: Pairs) -> None:
        self._pairs = pairs
        self._degree = sum(e for _, e in pairs)
        self._hash = hash(pairs)

    @classmethod
    def _from_pairs(cls, pairs: Pairs) -> "Monomial":
        m = cls.__new__(cls)
        m._init_from_pairs(pairs)
        return m

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_unit(self) -> bool:
        return not self._pairs

    def exponent(self, row: int, col: int) -> int:
        for (c, r), e in self._pairs:
            if (c, r) == (col, row):
                return e
        return 0

    def exponents(self) -> dict[VarId, int]:
        """Exponent map keyed by (row, col), in decreasing variable order."""
        return {(r, c): e for (c, r), e in self._pairs}

    def variables(self) -> list[VarId]:
        return [(r, c) for (c, r), _ in self._pairs]

    def sort_key(self) -> tuple:
        # Graded lex: degree first, then exponents read along the variable
        # chain.  Negating (col, row) makes tuple comparison scan variables
        # in decreasing order, and missing variables (exponent 0) sort below
        # present ones exactly when they should.
        return (self._degree, tuple((-c, -r, e) for (c, r), e in self._pairs))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self._pairs, other._pairs
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ka, kb = a[i][0], b[j][0]
            if ka == kb:
                out.append((ka, a[i][1] + b[j][1]))
                i += 1
                j += 1
            elif ka < kb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial._from_pairs(tuple(out))

    def __pow__(self, exp: int) -> "Monomial":
        if exp < 0:
            raise ValueError("negative monomial power")
        if exp == 0:
            return Monomial()
        return Monomial._from_pairs(tuple((k, e * exp) for k, e in self._pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Monomial") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Monomial") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Monomial") -> bool:
        return self.sort_key() >= other.sort_key()

    def __str__(self) -> str:
        if not self._pairs:
            return "1"
        factors = []
        for (c, r), e in self._pairs:
            factors.append(f"x[{r}][{c}]" if e == 1 else f"x[{r}][{c}]^{e}")
        return "*".join(factors)

    def __repr__(self) -> str:
        return f"Monomial({self.exponents()!r})"


def mono_cmp(a: Monomial, b: Monomial) -> int:
    """Three-way comparison in graded lex order: -1, 0, or 1."""
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


class Polynomial:
    """A finite Z-linear combination of monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = _sum_terms(terms.items()) if terms else {}

    @classmethod
    def _make(cls, terms: dict[Monomial, int]) -> "Polynomial":
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls._make({Monomial(): c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def terms_sorted(self) -> list[tuple[Monomial, int]]:
        """Terms in decreasing monomial order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def monomials(self) -> set[Monomial]:
        return set(self._terms)

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for mono in self._terms:
            out.update(mono.variables())
        return out

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._make(
            _sum_terms(itertools.chain(self._terms.items(), other._terms.items()))
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._make({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        right = other._terms.items()
        return Polynomial._make(_sum_terms(
            (m1 * m2, c1 * c2) for m1, c1 in self._terms.items() for m2, c2 in right
        ))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == Polynomial.constant(other)._terms
        return isinstance(other, Polynomial) and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def leading_monomial(self) -> tuple[Monomial, int]:
        """The graded-lex largest monomial and its coefficient.

        Raises ZeroPolynomialError on the zero polynomial: zero has no
        leading monomial, and callers that could feed zero here must check
        first.
        """
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading monomial")
        mono = max(self._terms, key=Monomial.sort_key)
        return mono, self._terms[mono]

    def degree(self) -> int:
        """Total degree; the zero polynomial has no degree."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(m.degree for m in self._terms)

    def _graded_vector(self, index: int, width: int | None) -> tuple[int, ...]:
        # index 0 sums exponents per column, index 1 per row
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no grading vector")
        if width is None:
            width = 0
            for mono in self._terms:
                for (c, r), _ in mono._pairs:
                    width = max(width, (c, r)[index])
        vec: tuple[int, ...] | None = None
        for mono in self._terms:
            cur = [0] * width
            for (c, r), e in mono._pairs:
                pos = (c, r)[index] - 1
                if pos >= width:
                    raise ValueError(f"variable index {pos + 1} exceeds width {width}")
                cur[pos] += e
            if vec is None:
                vec = tuple(cur)
            elif vec != tuple(cur):
                if index == 0:
                    raise NotMultihomogeneousError("terms disagree on column degree")
                raise NotIsobaricError("terms disagree on row weight")
        assert vec is not None
        return vec

    def column_degree(self, k: int | None = None) -> tuple[int, ...]:
        """Per-column degree vector, if all terms agree.

        With k given the vector is padded to length k; otherwise it runs up
        to the largest column index occurring in the polynomial.
        """
        return self._graded_vector(0, k)

    def row_weight(self, n: int | None = None) -> tuple[int, ...]:
        """Per-row degree vector (the torus weight), if all terms agree."""
        return self._graded_vector(1, n)

    def substitute(self, sub: Mapping[VarId, "Polynomial | int"]) -> "Polynomial":
        """Apply the ring homomorphism sending each variable to its image.

        The map must cover every variable occurring in the polynomial.
        """
        images: dict[VarId, Polynomial] = {}
        for var in self.variables():
            if var not in sub:
                raise KeyError(f"no image for variable x[{var[0]}][{var[1]}]")
            img = sub[var]
            images[var] = Polynomial.constant(img) if isinstance(img, int) else img

        def images_of_terms() -> Iterator[tuple[Monomial, int]]:
            for mono, coeff in self._terms.items():
                term = Polynomial.constant(coeff)
                for (col, row), e in mono._pairs:
                    term = term * images[(row, col)] ** e
                yield from term._terms.items()

        return Polynomial._make(_sum_terms(images_of_terms()))

    def rename_variables(self, rename: Callable[[int, int], VarId]) -> "Polynomial":
        """Apply the monomial map x[i][j] -> x[rename(i, j)]."""
        def image(mono: Monomial) -> Monomial:
            return Monomial(_sum_terms((rename(r, c), e) for (c, r), e in mono._pairs))

        return Polynomial._make(
            _sum_terms((image(mono), coeff) for mono, coeff in self._terms.items())
        )

    def partial_derivative(self, row: int, col: int) -> "Polynomial":
        """Formal partial derivative with respect to x[row][col]."""
        key = (col, row)
        return Polynomial._make(_sum_terms(
            (Monomial._from_pairs(_bump(mono._pairs, key, -1)), coeff * e)
            for mono, coeff in self._terms.items()
            for k, e in mono._pairs
            if k == key
        ))

    def polarize(self, p: int, q: int) -> "Polynomial":
        """The polarization operator sum_j x[p][j] * d/dx[q][j].

        Each factor x[q][j] of each monomial is moved in turn to x[p][j],
        weighted by its exponent.
        """
        def moved() -> Iterator[tuple[Monomial, int]]:
            for mono, coeff in self._terms.items():
                for (col, row), e in mono._pairs:
                    if row == q:
                        pairs = _bump(_bump(mono._pairs, (col, q), -1), (col, p), 1)
                        yield Monomial._from_pairs(pairs), coeff * e

        return Polynomial._make(_sum_terms(moved()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms_sorted():
            mag = abs(coeff)
            if mono.is_unit:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"

    def to_json_obj(self) -> list[dict]:
        """Stable encoding: terms in decreasing order, coefficients as strings."""
        out = []
        for mono, coeff in self.terms_sorted():
            exps = [[r, c, e] for (c, r), e in mono._pairs]
            out.append({"coeff": str(coeff), "exps": exps})
        return out

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> "Polynomial":
        return cls._make(_sum_terms(
            (Monomial({(r, c): e for r, c, e in term["exps"]}), int(term["coeff"]))
            for term in obj
        ))


def variable(row: int, col: int) -> Polynomial:
    """The polynomial x[row][col]."""
    return Polynomial({Monomial({(row, col): 1}): 1})
