"""Serialization: the JSON scalar/matrix encoding, the indented JSON
writer and LaTeX pmatrix output.

A scalar is encoded as {"re": [4 reduced "p/q" strings], "im": [same]}
with coordinate order (1, sqrt2, sqrt3, sqrt6); matrices are row-major
nested arrays of scalars.  Both directions round-trip exactly.

One ``Encoder`` builds the scalars and matrices of one payload.  It hands
out one dict per distinct scalar and one list per distinct row, shared
across every matrix and coefficient of that payload, so equal entries and
equal rows are the same object; treat the results as read-only.  The
sharing is per payload, never across payloads: the memo belongs to the
encoder and goes when it does.  ``matrix_to_json(m)`` encodes one matrix
with an encoder of its own.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2,
sort_keys=True)`` for payloads built from dicts with str keys, lists,
str, int, bool and None, and raises ``TypeError`` for anything else
(a float, a tuple, a non-str key).  The stdlib never uses its C encoder
when it indents; ``dumps`` instead writes a list or dict that recurs at
the same depth once and reuses its text, which is what makes the shared
rows and scalars of an ``Encoder`` cheap: a payload of 28 matrices
renders each distinct row at most twice, not all 224 rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
# json.encoder's own C function; importing json.encoder would load the
# whole json package (json.decoder, json.scanner) in every cold request
from _json import encode_basestring_ascii as _quote
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


class Encoder:
    """The JSON scalars and rows of one payload.

    Equal scalars, keyed by ``(den, nums)``, come out as one dict, and equal
    rows, keyed by their sparse ``(column, den, nums)`` entries, as one
    list, across every matrix and coefficient encoded through this encoder.
    Make one per payload and drop it with the payload: it keeps every
    object it has handed out.
    """

    __slots__ = ("_scalars", "_rows")

    def __init__(self):
        self._scalars = {}
        self._rows = {}

    def scalar(self, x: ExactScalar) -> dict:
        key = (x.den, x.nums)
        if (obj := self._scalars.get(key)) is None:
            obj = self._scalars[key] = scalar_to_json(x)
        return obj

    def matrix(self, m: Matrix) -> list:
        """Row-major JSON scalars."""
        rows, scalar, n = self._rows, self.scalar, m.n
        out = []
        for row in m.rows:
            key = (n, *sorted((j, x.den, x.nums) for j, x in row.items()))
            if (obj := rows.get(key)) is None:
                obj = rows[key] = [scalar(row.get(j, ZERO)) for j in range(n)]
            out.append(obj)
        return out


def matrix_to_json(m: Matrix) -> list:
    """Row-major JSON scalars; equal entries share one dict, equal rows one
    list."""
    return Encoder().matrix(m)


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


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with str
    keys, lists, str, int, bool and None; ``TypeError`` for anything else.

    A list or dict is keyed by ``(id, depth)``, which is sound because
    ``obj`` keeps every object in it alive for the whole call.  Its text
    is kept only once that key recurs: the first visit leaves a ``None``
    marker, the second stores the text, later ones reuse it.
    """
    out = []
    append = out.append
    texts = {}

    def value(o, depth):
        if isinstance(o, (list, dict)):
            key = (id(o), depth)
            if key not in texts:
                texts[key] = None
                container(o, depth)
            elif (text := texts[key]) is not None:
                append(text)
            else:
                start = len(out)
                container(o, depth)
                texts[key] = text = "".join(out[start:])
                del out[start:]
                append(text)
        elif isinstance(o, str):
            append(_quote(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        else:
            raise TypeError(f"dumps writes dict, list, str, int, bool and None, "
                            f"not {type(o).__name__}")

    def container(o, depth):
        if not o:
            append("[]" if isinstance(o, list) else "{}")
            return
        depth += 1
        inner = "\n" + "  " * depth
        if isinstance(o, list):
            sep, comma, close = "[" + inner, "," + inner, inner[:-2] + "]"
            for x in o:
                append(sep)
                sep = comma
                value(x, depth)
        else:
            if bad := [k for k in o if not isinstance(k, str)]:
                raise TypeError(f"dumps takes str keys, not {type(bad[0]).__name__}")
            sep, comma, close = "{" + inner, "," + inner, inner[:-2] + "}"
            for k, x in sorted(o.items()):
                append(sep + _quote(k) + ": ")
                sep = comma
                value(x, depth)
        append(close)

    value(obj, 0)
    return "".join(out)


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
    """A pmatrix of the entries, row by row.

    Rows start as ``"0"`` cells and get only their nonzero entries; each
    distinct entry, keyed by ``(den, nums)``, goes through
    ``scalar_to_latex`` once per call.
    """
    texts = {}
    lines = []
    for row in m.rows:
        line = ["0"] * m.n
        for j, x in row.items():
            key = (x.den, x.nums)
            if (text := texts.get(key)) is None:
                text = texts[key] = scalar_to_latex(x)
            line[j] = text
        lines.append(" & ".join(line))
    return r"\begin{pmatrix} %s \end{pmatrix}" % r" \\ ".join(lines)
