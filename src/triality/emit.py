"""Serialization: the JSON scalar/matrix encoding, the indented JSON
writer, and the text and LaTeX layouts of a matrix.

A scalar is encoded as {"re": [4 reduced "p/q" strings], "im": [same]}
with coordinate order (1, sqrt2, sqrt3, sqrt6); matrices are row-major
nested arrays of scalars.  Both directions round-trip exactly.

``dumps_line(obj)`` is the one JSON writer: it returns exactly
``json.dumps(tree, indent=2, sort_keys=True) + "\\n"``, where ``tree`` is
``obj`` with each ``Matrix`` replaced by ``matrix_to_json(m)`` and each
``ExactScalar`` by ``scalar_to_json(x)``, for payloads built from those
two, dicts with str keys, lists, str, int, bool and None.  It checks each
node's exact type once and raises ``TypeError`` for anything else (a
float, a tuple, a non-str key, a subclass of str, int, dict or list).
The stdlib never uses its C encoder when it indents, so a payload's
matrices never become dicts and lists, and the newline is the last piece
of the one join, so a payload written to stdout is copied once.
``matrix_to_json(m)`` is the plain reference tree that the writer's bytes
are compared with.  Every matrix layout (JSON at a depth, ``str(m)`` and
``matrix_to_latex(m)``) goes through one grid writer, ``_grid``, with one
memo of texts per payload, made by the call that writes it: each distinct
scalar and row is rendered once per payload and layout (the 224 rows of a
``map`` payload take 31 row texts and 5 scalar texts).
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
# (begin, row separator, end, row opener, cell separator, row closer)
_TEXT = ("", "\n", "", "[ ", "  ", " ]")
_LATEX = (r"\begin{pmatrix} ", r" \\ ", r" \end{pmatrix}", "", " & ", "")


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
    """Row-major JSON scalars, one fresh object per entry."""
    return [[scalar_to_json(r.get(j, ZERO)) for j in range(m.n)] for r in m.rows]


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


def dumps_line(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for dicts with
    str keys, lists, str, int, bool and None, with each ``Matrix`` written
    as ``matrix_to_json(m)`` and each ``ExactScalar`` as
    ``scalar_to_json(x)``; ``TypeError`` for anything else.  The memo of
    texts lives for the call, and the newline is the last piece of the one
    join, so the payload's text is copied once."""
    out = []
    _write(obj, 0, out.append, {})
    out.append("\n")
    return "".join(out)


def _write(o, depth, append, texts):
    """Append the JSON of ``o``, laid out ``depth`` levels in, by one check
    of its exact type."""
    kind = type(o)
    if kind is str:
        append(_quote(o))
    elif kind is dict:
        _object(o, depth, append, texts)
    elif kind is list:
        _items(o, depth, append, texts)
    elif kind is Matrix:
        _matrix(o, depth, append, texts)
    elif o is None:
        append("null")
    elif kind is bool:
        append("true" if o else "false")
    elif kind is int:
        append(int.__repr__(o))
    elif kind is ExactScalar:
        append(_scalar_text(o, depth, texts))
    else:
        raise TypeError(f"dumps_line writes dict, list, str, int, bool, None, "
                        f"Matrix and ExactScalar, not {kind.__name__}")


def _object(o, depth, append, texts):
    """A JSON object, its pairs in key order, each checked for a str key as
    it is written."""
    try:
        pairs = sorted(o.items())
    except TypeError:  # keys of mixed types
        raise _key_error(o) from None
    inner = "\n" + "  " * (depth + 1)
    sep, comma = "{" + inner, "," + inner
    depth += 1
    for k, v in pairs:
        if type(k) is not str:
            raise _key_error(o)
        append(sep + _quote(k) + ": ")
        sep = comma
        _write(v, depth, append, texts)
    append(inner[:-2] + "}" if pairs else "{}")


def _key_error(o) -> TypeError:
    bad = next(k for k in o if type(k) is not str)
    return TypeError(f"dumps_line takes str keys, not {type(bad).__name__}")


def _items(items, depth, append, texts):
    """A JSON list: each item on a line of its own, one level in."""
    inner = "\n" + "  " * (depth + 1)
    sep, comma = "[" + inner, "," + inner
    depth += 1
    for x in items:
        append(sep)
        sep = comma
        _write(x, depth, append, texts)
    append(inner[:-2] + "]" if items else "[]")


def _scalar_text(x, depth, texts):
    """The text of ``scalar_to_json(x)`` at ``depth``, keyed in ``texts`` by
    ``(den, nums, depth)``."""
    key = (x.den, x.nums, depth)
    if (text := texts.get(key)) is None:
        out = []
        _object(scalar_to_json(x), depth, out.append, texts)
        text = texts[key] = "".join(out)
    return text


def _matrix(m, depth, append, texts):
    """``matrix_to_json(m)`` laid out ``depth`` levels in: the grid in the
    JSON layout under the tag ``depth``, each cell a scalar's text two
    levels further in.  A row's text starts with its own line break, so
    the rows are joined by a bare comma, and an empty matrix is ``[]``."""
    line = "\n" + "  " * depth
    row_line, cell_line = line + "  ", line + "    "
    _grid(m, depth, lambda x: _scalar_text(x, depth + 2, texts),
          ("[", ",", line + "]" if m.n else "]", row_line + "[" + cell_line,
           "," + cell_line, row_line + "]"), append, texts)


def _grid(m, tag, cell, layout, append, texts):
    """Append ``m`` in ``layout``: begin, the rows joined by the row
    separator, then end; a row is its opener, its cells joined by the cell
    separator, and its closer.  A cell is ``cell(x)`` for an entry x and
    ``cell(ZERO)``, fetched once a row has an empty cell, elsewhere.  A
    row's text is keyed in ``texts`` by ``(tag, n, sorted (column, den,
    nums) entries)``, an empty row's by ``(tag, n)`` and a one-entry row's
    by ``(tag, n, column, den, nums)``, with nothing to sort."""
    begin, row_sep, end, opener, cell_sep, closer = layout
    n = m.n
    sep = zero = ""
    append(begin)
    for r in m.rows:
        if len(r) == 1:
            for j, x in r.items():
                key = (tag, n, j, x.den, x.nums)
        elif r:
            key = (tag, n, *sorted([(j, x.den, x.nums) for j, x in r.items()]))
        else:
            key = (tag, n)
        if (text := texts.get(key)) is None:
            if not zero and len(r) < n:
                zero = cell(ZERO)
            cells = [zero] * n
            for j, x in r.items():
                cells[j] = cell(x)
            text = texts[key] = opener + cell_sep.join(cells) + closer
        append(sep)
        append(text)
        sep = row_sep
    append(end)


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


def _memo(x, render, texts):
    """``render(x)``, keyed in a one-layout memo by ``(den, nums)``."""
    if (text := texts.get(key := (x.den, x.nums))) is None:
        text = texts[key] = render(x)
    return text


def _text(m, append, texts):
    """``str(m)``, each cell right-justified to the longest entry of ``m``
    (or 1): the row tag holds that width, as a payload's matrices differ."""
    width = 1
    for r in m.rows:
        for x in r.values():
            if (text := texts.get(key := (x.den, x.nums))) is None:
                text = texts[key] = str(x)
            if len(text) > width:
                width = len(text)
    _grid(m, ("str", width), lambda x: _memo(x, str, texts).rjust(width),
          _TEXT, append, texts)


def _latex(m, append, texts):
    _grid(m, "latex", lambda x: _memo(x, scalar_to_latex, texts),
          _LATEX, append, texts)


def _alone(write, m) -> str:
    """``m`` written by ``write`` as a payload of its own."""
    out = []
    write(m, out.append, {})
    return "".join(out)


def matrix_to_latex(m: Matrix) -> str:
    """A pmatrix of the entries, row by row."""
    return _alone(_latex, m)
