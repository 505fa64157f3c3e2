"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every numeric literal appearing in the constructions lives in this field:
1/2, 1/sqrt2, 1/sqrt6, 1/(2 sqrt3), i sqrt3, and the third roots of unity
e^{+-i 2pi/3} = -1/2 +- i sqrt3/2.  Elements have eight rational
coordinates over the basis {1, sqrt2, sqrt3, sqrt6} x {1, i}, so equality
is decidable with zero tolerance and every nonzero element has an exact
inverse.  An element stores only its nonzero coordinates, as
``terms = {index: Fraction}``: the sparse layout of ``Matrix`` rows and
``linalg`` vectors, so every operation costs time in proportion to the
nonzeros and equal elements have equal terms.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)

# Coordinate p = 4*f + 2*e3 + e2 stands for i^f sqrt2^e2 sqrt3^e3, so the
# product of coordinates p and q is a multiple of coordinate p ^ q: times 2
# if both carry sqrt2, 3 if both carry sqrt3 and -1 if both carry i.
_MUL = tuple(tuple((p ^ q, (2 if p & q & 1 else 1) * (3 if p & q & 2 else 1)
                    * (-1 if p & q & 4 else 1)) for q in range(8)) for p in range(8))

_COORD_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")

_RATIONAL = frozenset({0})
_REAL = frozenset(range(4))
_IMAGINARY = frozenset(range(4, 8))
# The coordinates that sqrt2 -> -sqrt2, sqrt3 -> -sqrt3 and both negate.
_GALOIS = (frozenset({1, 3, 5, 7}), frozenset({2, 3, 6, 7}), frozenset({1, 2, 5, 6}))


class ExactScalar:
    """An element of Q(i, sqrt2, sqrt3), immutable and hashable.

    Arithmetic is total except division by zero.  ``terms`` maps each
    coordinate index to its nonzero Fraction, in the order (1, sqrt2,
    sqrt3, sqrt6) real block then the same four multiplied by i; ``coords``
    is the dense 8-tuple view.
    """

    __slots__ = ("terms",)

    def __init__(self, coords):
        """Build from exactly eight int or Fraction coordinates."""
        coords = tuple(coords)
        if len(coords) != 8:
            raise ValueError("ExactScalar needs 8 coordinates")
        if inexact := [c for c in coords if not isinstance(c, (int, Fraction))]:
            raise TypeError(
                f"ExactScalar coordinates are int or Fraction, not {inexact[0]!r}")
        object.__setattr__(self, "terms", {
            k: c if isinstance(c, Fraction) else Fraction(c)
            for k, c in enumerate(coords) if c})

    @classmethod
    def _of(cls, terms: dict) -> "ExactScalar":
        """Wrap terms that already hold only nonzero Fractions."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coords(self) -> tuple:
        """All eight coordinates, zeros included."""
        return tuple(self.terms.get(k, _F0) for k in range(8))

    # -- predicates ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_real(self) -> bool:
        return self.terms.keys() <= _REAL

    @property
    def is_rational(self) -> bool:
        return self.terms.keys() <= _RATIONAL

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.terms.get(0, _F0)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return ExactScalar._of(_merge(self.terms, other.terms, False))

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return ExactScalar._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        return ExactScalar._of(_merge(self.terms, other.terms, True))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        acc = {}
        for p, x in a.items():
            row = _MUL[p]
            for q, y in b.items():
                r, m = row[q]
                t = x * y if m == 1 else x * y * m
                acc[r] = acc[r] + t if r in acc else t
        return ExactScalar._of({r: t for r, t in acc.items() if t})

    __rmul__ = __mul__

    def _negate(self, keys):
        """This element with the coordinates in ``keys`` negated."""
        if keys.isdisjoint(self.terms):
            return self
        return ExactScalar._of({k: -c if k in keys else c
                                for k, c in self.terms.items()})

    def conj(self):
        """Complex conjugate: negates the imaginary block."""
        return self._negate(_IMAGINARY)

    def inverse(self):
        """Exact multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        # z * conj(z) is real; multiplying by its three Galois conjugates
        # over Q(sqrt2, sqrt3) lands in Q, giving the norm to divide by.
        w = self * self.conj()
        a, b, c = (w._negate(keys) for keys in _GALOIS)
        u = a * b * c
        return (self.conj() * u) * (1 / (w * u).as_rational())

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A rational hashes as its Fraction, as ``==`` with ints demands.
        if self.is_rational:
            return hash(self.terms.get(0, _F0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- conversions -----------------------------------------------------
    def __complex__(self):
        # Float view, for display/debugging only; never used by any check.
        r2, r3, r6 = 2 ** 0.5, 3 ** 0.5, 6 ** 0.5
        a = self.coords
        re = a[0] + a[1] * r2 + a[2] * r3 + a[3] * r6
        im = a[4] + a[5] * r2 + a[6] * r3 + a[7] * r6
        return complex(re, im)

    def __repr__(self):
        return f"ExactScalar({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        terms = []
        # Coordinate order, not storage order: products store terms as
        # they come.
        for k, c in sorted(self.terms.items()):
            name = _COORD_NAMES[k]
            if k == 0:
                term = str(c)
            elif c == 1:
                term = name
            elif c == -1:
                term = "-" + name
            else:
                term = f"{c}*{name}"
            terms.append(term)
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _merge(a: dict, b: dict, subtract: bool) -> dict:
    """The terms of a + b, or of a - b if ``subtract``, zeros dropped."""
    out = dict(a)
    for k, y in b.items():
        s = out.pop(k, None)
        if s is None:
            out[k] = -y if subtract else y
        elif s := s - y if subtract else s + y:
            out[k] = s
    return out


def _coerce(value):
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar._of({0: Fraction(value)} if value else {})
    return None


def scalar(value) -> ExactScalar:
    """Coerce an int, Fraction, or ExactScalar into the field."""
    out = _coerce(value)
    if out is None:
        raise TypeError(f"cannot coerce {value!r} into ExactScalar")
    return out


def rational(numerator, denominator=1) -> ExactScalar:
    """The rational number numerator/denominator as a field element."""
    return scalar(Fraction(numerator, denominator))


def from_parts(re=(0, 0, 0, 0), im=(0, 0, 0, 0)) -> ExactScalar:
    """Build a scalar from its coordinates over {1, sqrt2, sqrt3, sqrt6}."""
    return ExactScalar(tuple(re) + tuple(im))


ZERO = ExactScalar((0,) * 8)
ONE = rational(1)
MINUS_ONE = rational(-1)
HALF = rational(1, 2)
I = from_parts(im=(1, 0, 0, 0))
SQRT2 = from_parts(re=(0, 1, 0, 0))
SQRT3 = from_parts(re=(0, 0, 1, 0))
SQRT6 = from_parts(re=(0, 0, 0, 1))

# Third roots of unity: the triality eigenvalues.
OMEGA = from_parts(re=(Fraction(-1, 2), 0, 0, 0), im=(0, 0, Fraction(1, 2), 0))
OMEGA_BAR = OMEGA.conj()
