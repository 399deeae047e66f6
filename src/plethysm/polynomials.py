"""Exact sparse polynomial arithmetic over Z on the entries of a matrix of variables.

The variables x[i][j] are the entries of an n-by-k matrix (row i, column j),
ordered down successive columns:

    x[1][1] > x[2][1] > ... > x[n][1] > x[1][2] > ... > x[n][k].

Monomials are compared in the graded lexicographic order induced by that
chain: larger total degree wins, and ties go to the monomial with the larger
exponent on the earliest variable where they differ.  This order is
multiplicative, so the leading monomial of a product is the product of the
leading monomials.

A monomial is stored as one Python int, its key: a packed exponent vector
(Monagan & Pearce, CASC 2007).  Each x[i][j] with i <= MAX_ROW, j <= MAX_COL
owns a FIELD_BITS-wide field, in chain order with x[1][1] highest, and the
total degree sits in the field above them all.  So integer order is graded
lex order (the degree field decides first, then the highest differing field,
which is the earliest variable whose exponents differ), a product of
monomials is the sum of their keys, and a leading monomial is the largest
key.  The degree is at most MAX_DEGREE, the largest value a field holds, and
no exponent exceeds the degree, so no field carries into the next.  A
product or power past the bound, or a variable outside the layout, raises
ValueError before it is computed; nothing wraps.  A polynomial maps keys to
nonzero Python integers (exact at arbitrary precision); a `Monomial` wraps a
key where one crosses the API.  Both types are immutable.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce, total_ordering
from operator import or_


class ZeroPolynomialError(ValueError):
    """Raised by operations that are undefined on the zero polynomial."""


class NotMultihomogeneousError(ValueError):
    """Raised when the terms of a polynomial disagree on column degree."""


class NotIsobaricError(ValueError):
    """Raised when the terms of a polynomial disagree on row weight."""


VarId = tuple[int, int]  # (row, col), both 1-based

# The layout holds every variable that the package, its tests and its demos
# build: the k = 3 model needs rows and columns 1..3, the n = 4 and k = 4
# checks reach the fourth.
MAX_ROW = 4
MAX_COL = 4
FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1

_VARS: tuple[VarId, ...] = tuple(
    (row, col) for col in range(1, MAX_COL + 1) for row in range(1, MAX_ROW + 1)
)
_SHIFT = {var: FIELD_BITS * (len(_VARS) - 1 - i) for i, var in enumerate(_VARS)}
_DEGREE_SHIFT = FIELD_BITS * len(_VARS)
_DEGREE_ONE = 1 << _DEGREE_SHIFT
_KEY_BYTES = len(_VARS) + 1  # FIELD_BITS is 8: one byte per field
_COLUMN_BITS = FIELD_BITS * MAX_ROW  # the fields of one column, row 1 highest
_COLUMN_MASK = (1 << _COLUMN_BITS) - 1
# the shift of each column's field group, in chain order
_COLUMN_SHIFT = {col: _COLUMN_BITS * (MAX_COL - col) for col in range(1, MAX_COL + 1)}

# The most terms in one piece of `Polynomial.text_pieces` or `json_pieces`.
# Written out, a polynomial of the --expand limit runs to megabytes; runs of
# this many terms keep each piece to kilobytes.  With one join per run they
# wrote m = 10 as fast as runs of 256 and faster than 32, 64 or 1024 terms.
TERMS_PER_PIECE = 128


def _sum_terms(terms: Iterable[tuple[Hashable, int]]) -> dict:
    """Add up the values of repeated keys, then drop the keys that sum to zero.

    Every caller but one collects its like terms here: coefficients keyed by
    monomial, and exponents keyed by variable.  The exception is the product
    of two polynomials: ``Polynomial.__mul__`` adds its term pairs up in its
    own nested loop, because a generator of pairs costs this routine a resumed
    frame per pair.  It rebuilds its dict only if some sum is zero, as in 360
    of the 861 products that expand the words of grade <= 10 (k = 2 and 3).
    """
    out: dict = {}
    for key, value in terms:
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"total degree {degree} exceeds the bound {MAX_DEGREE}")


def _shift(row: int, col: int) -> int:
    """Bit offset of the field of x[row][col]; ValueError outside the layout."""
    if (row, col) in _SHIFT:
        return _SHIFT[(row, col)]
    raise ValueError(f"x[{row}][{col}] is outside the {MAX_ROW}-by-{MAX_COL} layout")


def _encode(exponents: Mapping[VarId, int]) -> int:
    key = degree = 0
    for (row, col), exp in exponents.items():
        if row < 1 or col < 1:
            raise ValueError(f"variable indices are 1-based, got x[{row}][{col}]")
        if exp < 0:
            raise ValueError(f"negative exponent {exp} on x[{row}][{col}]")
        if exp:
            key += exp << _shift(row, col)
            degree += exp
    _check_degree(degree)
    return key + (degree << _DEGREE_SHIFT)


def _json_term(term: dict) -> tuple[int, int]:
    """The key and coefficient of one term of ``Polynomial.from_json_obj``."""
    if type(term) is not dict or type(term.get("exps")) is not list or "coeff" not in term:
        raise ValueError(f"term {term!r} is not an object with a \"coeff\" and an \"exps\" list")
    coeff = term["coeff"]
    if type(coeff) is str and coeff == str(int(coeff)):  # int() refuses "1.5"
        coeff = int(coeff)
    elif type(coeff) is not int:
        raise ValueError(f"coefficient {coeff!r} is neither an int nor an int's string")
    exponents: dict[VarId, int] = {}
    for entry in term["exps"]:
        if (type(entry) is not list or len(entry) != 3
                or any(type(value) is not int for value in entry)):
            raise ValueError(f"exponent entry {entry!r} is not three ints [row, col, exp]")
        row, col, exp = entry
        if (row, col) in exponents:
            raise ValueError(f"x[{row}][{col}] is listed twice in one term")
        exponents[row, col] = exp
    return _encode(exponents), coeff


def _fields(key: int) -> bytes:
    """The exponents of the key, one byte per variable in chain order."""
    return key.to_bytes(_KEY_BYTES, "big")[1:]


def _decode(key: int) -> list[tuple[VarId, int]]:
    """The (variable, exponent) pairs of the key with exponent > 0, in chain order."""
    return [(var, e) for var, e in zip(_VARS, _fields(key)) if e]


def _key_str(key: int) -> str:
    """The monomial as ``str`` writes it: one looked-up text per column."""
    if not key:
        return "1"
    return "*".join([texts[group] for shift, texts in _TEXT_COLUMNS
                     if (group := key >> shift & _COLUMN_MASK)])


def _term_str(key: int, coeff: int) -> str:
    """One term as ``str`` writes it after the first: " + 3*x[1][1]^2"."""
    mag = abs(coeff)
    body = str(mag) if not key else _key_str(key) if mag == 1 else f"{mag}*{_key_str(key)}"
    return (" + " if coeff > 0 else " - ") + body


@total_ordering
class Monomial:
    """An immutable product of variable powers; ``Monomial()`` is the unit."""

    __slots__ = ("_key",)

    def __init__(self, exponents: Mapping[VarId, int] | None = None):
        self._key = _encode(exponents) if exponents else 0

    @classmethod
    def _of(cls, key: int) -> "Monomial":
        m = cls.__new__(cls)
        m._key = key
        return m

    @property
    def degree(self) -> int:
        return self._key >> _DEGREE_SHIFT

    def exponents(self) -> dict[VarId, int]:
        """Exponent map keyed by (row, col), in decreasing variable order."""
        return dict(_decode(self._key))

    def variables(self) -> list[VarId]:
        return [var for var, _ in _decode(self._key)]

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        _check_degree(self.degree + other.degree)
        return Monomial._of(self._key + other._key)

    def __pow__(self, exp: int) -> "Monomial":
        if exp < 0:
            raise ValueError("negative monomial power")
        _check_degree(self.degree * exp)
        return Monomial._of(self._key * exp)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key < other._key

    def __str__(self) -> str:
        return _key_str(self._key)

    def __repr__(self) -> str:
        return f"Monomial({self.exponents()!r})"


class Polynomial:
    """A finite Z-linear combination of monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[int, int] = (
            _sum_terms((mono._key, c) for mono, c in terms.items()) if terms else {}
        )

    @classmethod
    def _make(cls, terms: dict[int, int]) -> "Polynomial":
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
        return cls._make({0: c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return ((Monomial._of(key), c) for key, c in self._terms.items())

    def variables(self) -> set[VarId]:
        # a field of the union of all keys is nonzero iff some term uses it
        union = reduce(or_, self._terms, 0)
        return {var for var, _ in _decode(union)}

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
        if not isinstance(other, (Polynomial, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        """The product with a polynomial or an integer.

        The degree bound is checked before the first term pair is formed.
        The len(self) * len(other) pairs are then added up in this method's
        own nested loop, the one place that does not use ``_sum_terms`` (whose
        docstring says why), so a chain of products is cheapest smallest
        first.  The dict is rebuilt without cancelled monomials only if there
        are any; terms keep the order in which their keys first arise.
        """
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._make({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not (self._terms and other._terms):
            return Polynomial.zero()
        _check_degree(self.degree() + other.degree())
        out: dict[int, int] = {}
        get = out.get
        right = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        return Polynomial._make(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative polynomial power")
        if self._terms:
            _check_degree(self.degree() * exp)
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
        key = max(self._terms)
        return Monomial._of(key), self._terms[key]

    def degree(self) -> int:
        """Total degree; the zero polynomial has no degree."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(self._terms) >> _DEGREE_SHIFT

    def _graded_vector(self, by_column: bool, width: int | None) -> tuple[int, ...]:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no grading vector")
        # the fields of a column are adjacent; those of a row are MAX_ROW apart
        starts, span, stride = ((range(0, len(_VARS), MAX_ROW), MAX_ROW, 1) if by_column
                                else (range(MAX_ROW), len(_VARS), MAX_ROW))
        vectors = {tuple(sum(data[i:i + span:stride]) for i in starts)
                   for data in map(_fields, self._terms)}
        if len(vectors) > 1:
            if by_column:
                raise NotMultihomogeneousError("terms disagree on column degree")
            raise NotIsobaricError("terms disagree on row weight")
        (vec,) = vectors
        used = max((i + 1 for i, e in enumerate(vec) if e), default=0)
        if width is None:
            width = used
        elif used > width:
            raise ValueError(f"variable index {used} exceeds width {width}")
        return vec[:width] + (0,) * (width - len(vec))

    def column_degree(self, k: int | None = None) -> tuple[int, ...]:
        """Per-column degree vector, if all terms agree.

        With k given the vector is padded to length k; otherwise it runs up
        to the largest column index occurring in the polynomial.
        """
        return self._graded_vector(True, k)

    def row_weight(self, n: int | None = None) -> tuple[int, ...]:
        """Per-row degree vector (the torus weight), if all terms agree."""
        return self._graded_vector(False, n)

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

        def images_of_terms() -> Iterator[tuple[int, int]]:
            for key, coeff in self._terms.items():
                term = Polynomial.constant(coeff)
                for var, e in _decode(key):
                    term = term * images[var] ** e
                yield from term._terms.items()

        return Polynomial._make(_sum_terms(images_of_terms()))

    def permute_columns(self, tau: Sequence[int]) -> "Polynomial":
        """Send x[i][j] to x[i][tau(j)], for tau a permutation of 1..len(tau).
        Each column's field group moves to that of column tau(j) and the degree
        field stays: keys map one to one, so nothing is decoded or added up.
        ValueError if a column in use lies past len(tau), if tau is not a
        permutation, or if it sends a column in use outside the layout."""
        # a field group of the union of all keys is nonzero iff some term uses it
        used = reduce(or_, self._terms, 0)
        top = max((col for col, shift in _COLUMN_SHIFT.items()
                   if used >> shift & _COLUMN_MASK), default=0)
        if top > len(tau):
            raise ValueError(f"column {top} out of range for a permutation of {len(tau)} columns")
        if sorted(tau) != list(range(1, len(tau) + 1)):
            raise ValueError(f"{tuple(tau)} is not a permutation of 1..{len(tau)}")
        moves = [(shift, _COLUMN_SHIFT.get(image))  # the groups in use that move
                 for (col, shift), image in zip(_COLUMN_SHIFT.items(), tau)
                 if image != col and used >> shift & _COLUMN_MASK]
        if any(to is None for _, to in moves):
            raise ValueError(f"{tuple(tau)} sends a column in use outside the "
                             f"{MAX_ROW}-by-{MAX_COL} layout")
        kept = ~sum([_COLUMN_MASK << shift for shift, _ in moves])
        return Polynomial._make({
            (key & kept) + sum([(key >> s & _COLUMN_MASK) << t for s, t in moves]): coeff
            for key, coeff in self._terms.items()
        })

    def partial_derivative(self, row: int, col: int) -> "Polynomial":
        """Formal partial derivative with respect to x[row][col]."""
        shift = _SHIFT.get((row, col))
        if shift is None:  # no term can hold a variable outside the layout
            return Polynomial.zero()
        step = _DEGREE_ONE + (1 << shift)
        # distinct keys stay distinct and no coefficient becomes zero
        return Polynomial._make({
            key - step: coeff * e
            for key, coeff in self._terms.items()
            if (e := key >> shift & MAX_DEGREE)
        })

    def polarize(self, p: int, q: int) -> "Polynomial":
        """The polarization operator sum_j x[p][j] * d/dx[q][j].

        Each factor x[q][j] of each monomial is moved in turn to x[p][j],
        weighted by its exponent; the degree stays, so no field overflows.
        """
        if not 1 <= q <= MAX_ROW:  # no term can hold row q
            return Polynomial.zero()
        moves = [(_SHIFT[(q, col)], (1 << _shift(p, col)) - (1 << _SHIFT[(q, col)]))
                 for col in range(1, MAX_COL + 1)]

        def moved() -> Iterator[tuple[int, int]]:
            for key, coeff in self._terms.items():
                for shift, step in moves:
                    e = key >> shift & MAX_DEGREE
                    if e:
                        yield key + step, coeff * e

        return Polynomial._make(_sum_terms(moved()))

    def __str__(self) -> str:
        return "".join(self.text_pieces())

    def text_pieces(self, head: str = "", tail: str = "") -> Iterator[str]:
        """``head + str(self) + tail`` in pieces of at most ``TERMS_PER_PIECE``
        terms each, head at the start of the first and tail at the end of the
        last; the zero polynomial is the one piece ``head + "0" + tail``.  A
        term's variables are one looked-up text per column that it touches."""
        terms = self._terms
        if not terms:
            yield head + "0" + tail
            return
        keys = sorted(terms, reverse=True)
        for start in range(0, len(keys), TERMS_PER_PIECE):
            text = "".join([_term_str(key, terms[key])
                            for key in keys[start:start + TERMS_PER_PIECE]])
            if not start:  # the leading term has no spaces around its sign
                text = head + (text[3:] if text[1] == "+" else "-" + text[3:])
            yield text + tail if start + TERMS_PER_PIECE >= len(keys) else text

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"

    def to_json_obj(self) -> list[dict]:
        """Stable encoding: terms in decreasing order, coefficients as strings."""
        terms = self._terms
        return [
            {"coeff": str(terms[key]),
             "exps": [[r, c, e] for (r, c), e in zip(_VARS, _fields(key)) if e]}
            for key in sorted(terms, reverse=True)
        ]

    def json_pieces(self, level: int = 0, head: str = "") -> Iterator[str]:
        """``head + json.dumps(self.to_json_obj(), indent=2, ensure_ascii=False)``
        with every line after the first indented by ``level`` more spaces, in
        pieces of at most ``TERMS_PER_PIECE`` terms each, head at the start of
        the first, written from the keys without building the list of dicts.

        ``level`` is the indent of the line that holds the polynomial, so the
        text can be spliced into a larger ``indent=2`` document.  A run is one
        list of fragments, joined once: per term its opener, its coefficient,
        and the looked-up text of each column, led by its separator.
        """
        terms = self._terms
        if not terms:
            yield head + "[]"
            return
        pad, columns = _json_layout(level)
        first, column_1 = columns[0]
        close = pad + "    ]"
        open_term = pad + "  {" + pad + '    "coeff": "'
        between = pad + "  }," + open_term
        keys = sorted(terms, reverse=True)
        lead = head + "[" + open_term
        for start in range(0, len(keys), TERMS_PER_PIECE):
            fragments: list[str] = []
            append = fragments.append
            for key in keys[start:start + TERMS_PER_PIECE]:
                append(between)
                append(str(terms[key]))
                if key >> first & _COLUMN_MASK:
                    for shift, texts in columns:
                        append(texts[key >> shift & _COLUMN_MASK])
                    append(close)
                else:  # no x[i][1]: the list opens in place of the next separator
                    rest = "".join([texts[key >> shift & _COLUMN_MASK]
                                    for shift, texts in columns])
                    append(column_1.lead + rest[len(column_1.sep):] + close if rest
                           else '",' + pad + '    "exps": []')
            fragments[0] = lead
            lead = between
            if start + TERMS_PER_PIECE >= len(keys):
                append(pad + "  }" + pad + "]")
            yield "".join(fragments)

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "Polynomial":
        """The polynomial that ``to_json_obj`` writes as `obj`; like terms add up.

        `obj` is a list of objects, each with a "coeff" and an "exps" list.  A
        coefficient is an int or the string ``str`` gives for one, and each
        ``[row, col, exp]`` is a list of three ints, no variable twice in one
        term.  Anything else raises ValueError: a float or a bool is refused,
        not taken for the int it is close to.
        """
        if type(obj) is not list:
            raise ValueError(f"a polynomial is a list of terms, not a {type(obj).__name__}")
        return cls._make(_sum_terms(map(_json_term, obj)))


class _ColumnTexts(dict):
    """For one column: its field group -> ``lead`` and then the text of that
    group's nonzero exponents, ``write(row, exp)`` for each, joined by
    ``sep``; group 0 -> "".  An entry is built on its first lookup."""

    def __init__(self, sep: str, write: Callable[[int, int], str], lead: str = ""):
        super().__init__({0: ""})
        self.sep, self.write, self.lead = sep, write, lead

    def __missing__(self, group: int) -> str:
        text = self[group] = self.lead + self.sep.join([
            self.write(row, e) for row, e in enumerate(group.to_bytes(MAX_ROW, "big"), 1) if e
        ])
        return text


@lru_cache(maxsize=None)
def _json_layout(level: int) -> tuple[str, tuple[tuple[int, _ColumnTexts], ...]]:
    """The line break for ``level`` and, per column in chain order, the shift
    of its field group and its ``_ColumnTexts`` of ``[row, col, exp]``
    triples, as ``Polynomial.json_pieces`` writes them; column 1's lead
    opens the ``"exps"`` list, the others' is the separator."""
    pad = "\n" + " " * level
    sep = "," + pad + "      "

    def triples(col: int) -> _ColumnTexts:
        return _ColumnTexts(sep, lambda row, e: (
            f"[{pad}        {row},{pad}        {col},{pad}        {e}{pad}      ]"),
            '",' + pad + '    "exps": [' + pad + "      " if col == 1 else sep)

    return pad, tuple((shift, triples(col)) for col, shift in _COLUMN_SHIFT.items())


def _power_texts(col: int) -> _ColumnTexts:
    """The ``_ColumnTexts`` of variable powers that ``str`` writes: x[1][2]^3*x[2][2]."""
    return _ColumnTexts("*", lambda row, e: f"x[{row}][{col}]^{e}" if e > 1 else f"x[{row}][{col}]")


# per column in chain order, the shift of its field group and its powers' text
_TEXT_COLUMNS = tuple((shift, _power_texts(col)) for col, shift in _COLUMN_SHIFT.items())


def variable(row: int, col: int) -> Polynomial:
    """The polynomial x[row][col]."""
    return Polynomial({Monomial({(row, col): 1}): 1})
