"""Serialization: the JSON scalar/matrix encoding and LaTeX pmatrix output.

A scalar is encoded as {"re": [4 reduced "p/q" strings], "im": [same]}
with coordinate order (1, sqrt2, sqrt3, sqrt6); matrices are row-major
nested arrays of scalars.  Both directions round-trip exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .field import ZERO, ExactScalar
from .matrix import Matrix

_P_OVER_Q = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")
_RADICAL_LATEX = ("", r"\sqrt{2}", r"\sqrt{3}", r"\sqrt{6}")


def scalar_to_json(x: ExactScalar) -> dict:
    coords = ["0/1"] * 8
    den = x.den
    for k, c in x.nums:
        g = gcd(c, den)
        coords[k] = f"{c // g}/{den // g}"
    return {"re": coords[:4], "im": coords[4:]}


def _strings(obj) -> tuple:
    """The eight coordinate strings of a JSON scalar, "re" then "im"."""
    parts = [obj.get(key) if isinstance(obj, dict) else None for key in ("re", "im")]
    if not all(isinstance(part, list) and len(part) == 4
               and all(isinstance(s, str) for s in part) for part in parts):
        raise _malformed(obj)
    return (*parts[0], *parts[1])


def _decode(strings: tuple, obj) -> ExactScalar:
    if not all(_P_OVER_Q.fullmatch(s) for s in strings):
        raise _malformed(obj)
    return ExactScalar([Fraction(s) for s in strings])


def _malformed(obj) -> ValueError:
    return ValueError(f'a scalar is {{"re": [4 "p/q"], "im": [4 "p/q"]}}, not {obj!r}')


def scalar_from_json(obj) -> ExactScalar:
    """Decode a scalar; "re" and "im" must each be four "p/q" strings."""
    return _decode(_strings(obj), obj)


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(row.get(j, ZERO)) for j in range(m.n)] for row in m.rows]


def matrix_from_json(rows) -> Matrix:
    """Decode a matrix of JSON scalars, each distinct one once: entries with
    the same eight strings share one decoded scalar."""
    decoded = {}

    def entry(obj):
        strings = _strings(obj)
        if (x := decoded.get(strings)) is None:
            x = decoded[strings] = _decode(strings, obj)
        return x

    return Matrix([[entry(obj) for obj in row] for row in rows])


def _frac_latex(num: int, den: int, radical: str) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    sign = "-" if num < 0 else ""
    num = abs(num)
    if den == 1:
        if radical and num == 1:
            return sign + radical
        return f"{sign}{num}{radical}"
    top = radical if (num == 1 and radical) else f"{num}{radical}"
    return sign + r"\frac{%s}{%d}" % (top, den)


def scalar_to_latex(x: ExactScalar) -> str:
    if x.is_zero:
        return "0"
    terms = []
    for k, c in x.nums:
        radical = _RADICAL_LATEX[k % 4]
        if k >= 4:
            radical = "i" + (" " + radical if radical else "")
        terms.append(_frac_latex(c, x.den, radical))
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def matrix_to_latex(m: Matrix) -> str:
    body = r" \\ ".join(" & ".join(scalar_to_latex(row.get(j, ZERO)) for j in range(m.n))
                        for row in m.rows)
    return r"\begin{pmatrix} %s \end{pmatrix}" % body
