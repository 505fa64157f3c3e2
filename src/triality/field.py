"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every numeric literal appearing in the constructions lives in this field:
1/2, 1/sqrt2, 1/sqrt6, 1/(2 sqrt3), i sqrt3, and the third roots of unity
e^{+-i 2pi/3} = -1/2 +- i sqrt3/2.  Elements carry eight rational
coordinates over the basis {1, sqrt2, sqrt3, sqrt6} x {1, i}, so equality
is decidable with zero tolerance and every nonzero element has an exact
inverse.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)

# Multiplication of the radical basis {1, sqrt2, sqrt3, sqrt6}:
# entry [a][b] = (index, integer factor) with e_a * e_b = factor * e_index.
_RADICAL_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, 2), (1, 3), (0, 6)),
)

# Full 8x8 table over {1, sqrt2, sqrt3, sqrt6} x {1, i}: coordinate p = 4*f + b
# where f is the imaginary flag.  i*i = -1 contributes the sign.
_MUL = tuple(
    tuple(
        (4 * ((p >= 4) ^ (q >= 4)) + _RADICAL_MUL[p % 4][q % 4][0],
         (-1 if (p >= 4 and q >= 4) else 1) * _RADICAL_MUL[p % 4][q % 4][1])
        for q in range(8)
    )
    for p in range(8)
)

_COORD_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")


class ExactScalar:
    """An element of Q(i, sqrt2, sqrt3), immutable and hashable.

    Arithmetic is total except division by zero.  ``coords`` holds the
    eight Fractions in the order (1, sqrt2, sqrt3, sqrt6) real block then
    the same four multiplied by i.
    """

    __slots__ = ("coords", "_nz")

    def __init__(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != 8:
            raise ValueError("ExactScalar needs 8 coordinates")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_nz", tuple(k for k in range(8) if coords[k]))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- predicates ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._nz

    @property
    def is_real(self) -> bool:
        return all(k < 4 for k in self._nz)

    @property
    def is_rational(self) -> bool:
        return self._nz in ((), (0,))

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other._nz:
            return self
        if not self._nz:
            return other
        a, b = self.coords, other.coords
        return ExactScalar(tuple(a[k] + b[k] for k in range(8)))

    __radd__ = __add__

    def __neg__(self):
        if not self._nz:
            return self
        return ExactScalar(tuple(-c for c in self.coords))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other._nz:
            return self
        a, b = self.coords, other.coords
        return ExactScalar(tuple(a[k] - b[k] for k in range(8)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        na, nb = self._nz, other._nz
        if not na or not nb:
            return ZERO
        a, b = self.coords, other.coords
        if na == (0,) and nb == (0,):
            return ExactScalar((a[0] * b[0], _F0, _F0, _F0, _F0, _F0, _F0, _F0))
        acc = [_F0] * 8
        for p in na:
            ap = a[p]
            row = _MUL[p]
            for q in nb:
                r, m = row[q]
                acc[r] += ap * b[q] * m
        return ExactScalar(acc)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate: negates the imaginary block."""
        if self.is_real:
            return self
        a = self.coords
        return ExactScalar(a[:4] + tuple(-c for c in a[4:]))

    def _galois(self, flip_sqrt2: bool, flip_sqrt3: bool):
        signs = [1] * 8
        if flip_sqrt2:
            for k in (1, 3, 5, 7):
                signs[k] = -signs[k]
        if flip_sqrt3:
            for k in (2, 3, 6, 7):
                signs[k] = -signs[k]
        return ExactScalar(tuple(s * c for s, c in zip(signs, self.coords)))

    def inverse(self):
        """Exact multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self._nz:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        # z * conj(z) is real; multiplying by its three Galois conjugates
        # over Q(sqrt2, sqrt3) lands in Q, giving the norm to divide by.
        w = self * self.conj()
        u = w._galois(True, False) * w._galois(False, True) * w._galois(True, True)
        norm = (w * u).as_rational()
        inv_norm = 1 / norm
        return (self.conj() * u) * ExactScalar(
            (inv_norm, _F0, _F0, _F0, _F0, _F0, _F0, _F0))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational:
            q = other.as_rational()
            if not q:
                raise ZeroDivisionError("division by zero ExactScalar")
            return self * ExactScalar((1 / q, _F0, _F0, _F0, _F0, _F0, _F0, _F0))
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
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return bool(self._nz)

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
        if not self._nz:
            return "0"
        terms = []
        for k in self._nz:
            c = self.coords[k]
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


def _coerce(value):
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar((Fraction(value), _F0, _F0, _F0, _F0, _F0, _F0, _F0))
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
