"""The text writer that per-column cached texts replaced.

`Polynomial.text_pieces` wrote each term by joining the names of all sixteen
variable fields of its key, one generator step per field.  These are the
former bodies of `polynomials._key_str`, `_term_str` and `text_pieces`, kept
only as the reference for the differential tests in `test_json_text.py`.
They read a polynomial's packed keys and the layout constants, and share no
writing code with the package.
"""

from __future__ import annotations

from collections.abc import Iterator

from plethysm.polynomials import _KEY_BYTES, _VARS, TERMS_PER_PIECE, Monomial, Polynomial

_NAMES = tuple(f"x[{row}][{col}]" for row, col in _VARS)


def key_str(key: int) -> str:
    if not key:
        return "1"
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(_NAMES, key.to_bytes(_KEY_BYTES, "big")[1:]) if e)


def monomial_str(mono: Monomial) -> str:
    return key_str(mono._key)


def _term_str(key: int, coeff: int) -> str:
    mag = abs(coeff)
    body = str(mag) if not key else key_str(key) if mag == 1 else f"{mag}*{key_str(key)}"
    return (" + " if coeff > 0 else " - ") + body


def text_pieces(p: Polynomial, head: str = "", tail: str = "") -> Iterator[str]:
    terms = p._terms
    if not terms:
        yield head + "0" + tail
        return
    keys = sorted(terms, reverse=True)
    for start in range(0, len(keys), TERMS_PER_PIECE):
        text = "".join([_term_str(key, terms[key])
                        for key in keys[start:start + TERMS_PER_PIECE]])
        if not start:
            text = head + (text[3:] if text[1] == "+" else "-" + text[3:])
        yield text + tail if start + TERMS_PER_PIECE >= len(keys) else text
