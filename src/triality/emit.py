"""Serialization: the JSON scalar/matrix encoding and LaTeX pmatrix output.

A scalar is encoded as {"re": [4 reduced "p/q" strings], "im": [same]}
with coordinate order (1, sqrt2, sqrt3, sqrt6); matrices are row-major
nested arrays of scalars.  Both directions round-trip exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .field import ZERO, ExactScalar
from .matrix import Matrix

_P_OVER_Q = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")
_RADICAL_LATEX = ("", r"\sqrt{2}", r"\sqrt{3}", r"\sqrt{6}")


def scalar_to_json(x: ExactScalar) -> dict:
    coords = [f"{f.numerator}/{f.denominator}" if (f := x.terms.get(k)) else "0/1"
              for k in range(8)]
    return {"re": coords[:4], "im": coords[4:]}


def scalar_from_json(obj) -> ExactScalar:
    """Decode a scalar; "re" and "im" must each be four "p/q" strings."""
    parts = [obj.get(key) if isinstance(obj, dict) else None for key in ("re", "im")]
    if not all(isinstance(part, list) and len(part) == 4
               and all(isinstance(s, str) and _P_OVER_Q.fullmatch(s) for s in part)
               for part in parts):
        raise ValueError(f'a scalar is {{"re": [4 "p/q"], "im": [4 "p/q"]}}, not {obj!r}')
    return ExactScalar([Fraction(s) for part in parts for s in part])


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(row.get(j, ZERO)) for j in range(m.n)] for row in m.rows]


def matrix_from_json(rows) -> Matrix:
    return Matrix([[scalar_from_json(x) for x in row] for row in rows])


def _frac_latex(f: Fraction, radical: str) -> str:
    num, den = f.numerator, f.denominator
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
    for k, f in sorted(x.terms.items()):
        radical = _RADICAL_LATEX[k % 4]
        if k >= 4:
            radical = "i" + (" " + radical if radical else "")
        terms.append(_frac_latex(f, radical))
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def matrix_to_latex(m: Matrix) -> str:
    body = r" \\ ".join(" & ".join(scalar_to_latex(row.get(j, ZERO)) for j in range(m.n))
                        for row in m.rows)
    return r"\begin{pmatrix} %s \end{pmatrix}" % body
