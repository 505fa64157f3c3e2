"""Serialization: the JSON scalar/matrix encoding, the indented JSON
writer and LaTeX pmatrix output.

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
matrices never become dicts and lists: ``dumps_line`` writes a matrix row
by row from a memo of texts that lives for one call, which renders each
distinct scalar and each distinct row once per depth (the 224 rows of a
``map`` payload take 31 row texts and 5 scalar texts), and the newline is
the last piece of the one join, so a payload written to stdout is copied
once.  ``matrix_to_json(m)`` is the plain reference tree of dicts and
lists that the writer's bytes are compared with.
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
    """The rows of ``m``, each row's text keyed in ``texts`` by ``(depth, n,
    sorted (column, den, nums) entries)``: an empty row's key is ``(depth,
    n)`` and a one-entry row's ``(depth, n, column, den, nums)``, with
    nothing to sort.  Each row's text is appended once, after its
    separator."""
    n = m.n
    inner = "\n" + "  " * (depth + 1)
    sep, comma = "[" + inner, "," + inner
    for r in m.rows:
        if len(r) == 1:
            for j, x in r.items():
                key = (depth, n, j, x.den, x.nums)
        elif r:
            key = (depth, n, *sorted([(j, x.den, x.nums) for j, x in r.items()]))
        else:
            key = (depth, n)
        if (text := texts.get(key)) is None:
            text = texts[key] = _row(r, n, depth + 2, texts)
        append(sep)
        append(text)
        sep = comma
    append(inner[:-2] + "]" if n else "[]")


def _row(r, n, depth, texts):
    """The text of a row of ``n >= 1`` cells, each ``depth`` levels in:
    ZERO's text in every cell if one is empty, each entry's text in its
    own cell, and the separators between them, in one join.  So a payload
    renders no scalar that none of its cells holds."""
    inner = "\n" + "  " * depth
    zero = _scalar_text(ZERO, depth, texts) if len(r) < n else None
    pieces = ["," + inner, zero] * n
    pieces[0] = "[" + inner
    for j, x in r.items():
        pieces[2 * j + 1] = _scalar_text(x, depth, texts)
    pieces.append(inner[:-2] + "]")
    return "".join(pieces)


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

    Rows start as ``"0"`` cells and get only their nonzero entries, and
    an empty row's line is built once; each distinct entry, keyed by
    ``(den, nums)``, goes through ``scalar_to_latex`` once per call.
    """
    texts = {}
    empty = None
    lines = []
    for row in m.rows:
        if not row:
            empty = empty or " & ".join(["0"] * m.n)
            lines.append(empty)
            continue
        line = ["0"] * m.n
        for j, x in row.items():
            key = (x.den, x.nums)
            if (text := texts.get(key)) is None:
                text = texts[key] = scalar_to_latex(x)
            line[j] = text
        lines.append(" & ".join(line))
    return r"\begin{pmatrix} %s \end{pmatrix}" % r" \\ ".join(lines)
