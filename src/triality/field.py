"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every numeric literal appearing in the constructions lives in this field:
1/2, 1/sqrt2, 1/sqrt6, 1/(2 sqrt3), i sqrt3, and the third roots of unity
e^{+-i 2pi/3} = -1/2 +- i sqrt3/2.  Elements have eight rational
coordinates over the basis {1, sqrt2, sqrt3, sqrt6} x {1, i}, so equality
is decidable with zero tolerance and every nonzero element has an exact
inverse.  An element stores integer numerators over one shared
denominator, the layout of FLINT's ``fmpq_poly``: ``den`` is a positive
int and ``nums`` a tuple of ``(coordinate index, nonzero int)`` pairs
sorted by index, with ``gcd(den, *numerators) == 1``.  Every operation
works on ints and reduces its result with one gcd, so equal elements
have equal ``(den, nums)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_F0 = Fraction(0)

# Coordinate p = 4*f + 2*e3 + e2 stands for i^f sqrt2^e2 sqrt3^e3, so the
# product of coordinates p and q is a multiple of coordinate p ^ q: times 2
# if both carry sqrt2, 3 if both carry sqrt3 and -1 if both carry i.
_MUL = tuple(tuple((p ^ q, (2 if p & q & 1 else 1) * (3 if p & q & 2 else 1)
                    * (-1 if p & q & 4 else 1)) for q in range(8)) for p in range(8))

_COORD_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")

# The coordinates that complex conjugation negates, then the real ones that
# sqrt2 -> -sqrt2, sqrt3 -> -sqrt3 and both negate (``inverse``'s real w).
_IMAGINARY = frozenset(range(4, 8))
_GALOIS = (frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2}))


class ExactScalar:
    """An element of Q(i, sqrt2, sqrt3), immutable and hashable.

    ``+``, ``-``, ``*``, ``x / y`` and ``inverse`` are exact and total
    except division by zero; there is no power and no float view.  The
    element is ``sum(c * e_k for k, c in nums) / den``, where e_k runs
    over (1, sqrt2, sqrt3, sqrt6) and then the same four multiplied by i;
    ``nums`` holds only nonzero numerators, sorted by index, and
    ``den > 0`` shares no factor with all of them.  ``coords`` is the
    dense 8-tuple of Fractions, a view built on demand.
    """

    __slots__ = ("den", "nums")

    def __init__(self, coords):
        """Build from exactly eight int or Fraction coordinates."""
        coords = tuple(coords)
        if len(coords) != 8:
            raise ValueError("ExactScalar needs 8 coordinates")
        if inexact := [c for c in coords if not isinstance(c, (int, Fraction))]:
            raise TypeError(
                f"ExactScalar coordinates are int or Fraction, not {inexact[0]!r}")
        # Over the lcm of reduced denominators the numerators share no factor.
        den = lcm(*(c.denominator for c in coords))
        _set_den(self, den)
        _set_nums(self, tuple([(k, c.numerator * (den // c.denominator))
                               for k, c in enumerate(coords) if c]))

    @classmethod
    def _of(cls, den: int, nums: tuple) -> "ExactScalar":
        """Wrap a (den, nums) pair already in canonical form."""
        x = _new(cls)
        _set_den(x, den)
        _set_nums(x, nums)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coords(self) -> tuple:
        """All eight coordinates as Fractions, zeros included."""
        out = [_F0] * 8
        for k, c in self.nums:
            out[k] = Fraction(c, self.den)
        return tuple(out)

    # -- predicates ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_real(self) -> bool:
        return not self.nums or self.nums[-1][0] < 4

    @property
    def is_rational(self) -> bool:
        return not self.nums or self.nums[-1][0] == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0][1], self.den) if self.nums else _F0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return other
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        if not self.nums:
            return self
        return ExactScalar._of(self.den, tuple([(k, -c) for k, c in self.nums]))

    def __sub__(self, other):
        if not isinstance(other, ExactScalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return -other
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        if len(a) == 1 and len(b) == 1:
            (p, x), = a
            (q, y), = b
            r, m = _MUL[p][q]
            n, d = x * y * m, self.den * other.den
            g = gcd(n, d)
            return ExactScalar._of(d // g, ((r, n // g),))
        if not a or not b:
            return ZERO
        acc = [0] * 8
        for p, x in a:
            row = _MUL[p]
            for q, y in b:
                r, m = row[q]
                acc[r] += x * y * m
        return _reduced(self.den * other.den, acc)

    __rmul__ = __mul__

    def _negate(self, keys):
        """This element with the coordinates in ``keys`` negated."""
        nums = self.nums
        if keys.isdisjoint([k for k, _ in nums]):
            return self
        return ExactScalar._of(self.den, tuple([(k, -c if k in keys else c)
                                                for k, c in nums]))

    def conj(self):
        """Complex conjugate: negates the imaginary block."""
        return self._negate(_IMAGINARY)

    def parts(self):
        """``(re, im)`` with ``self == re + i*im``; both have real coordinates."""
        if self.is_real:
            return self, ZERO
        re, im = [0] * 8, [0] * 8
        for k, c in self.nums:
            (im if k & 4 else re)[k & 3] = c
        return _reduced(self.den, re), _reduced(self.den, im)

    def inverse(self):
        """Exact multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self.nums:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        if len(self.nums) == 1:
            # (c/den) e_k with e_k * e_k = m: the inverse is den e_k / (c m).
            (k, c), = self.nums
            d = c * _MUL[k][k][1]
            g = gcd(self.den, d) if d > 0 else -gcd(self.den, d)
            return ExactScalar._of(d // g, ((k, self.den // g),))
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

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # A rational hashes as its Fraction, as ``==`` with ints demands.
        if self.is_rational:
            return hash(self.as_rational())
        return hash((self.den, self.nums))

    def __bool__(self):
        return bool(self.nums)

    # -- conversions -----------------------------------------------------
    def __repr__(self):
        return f"ExactScalar({self})"

    def __str__(self):
        """The nonzero coordinates as "c*name" terms in index order, each
        c reduced from its numerator over ``den`` by one gcd."""
        if not self.nums:
            return "0"
        den = self.den
        out = ""
        for k, c in self.nums:
            if c == den:  # a coefficient of 1, and "1" itself for k = 0
                term = _COORD_NAMES[k]
            elif c == -den:
                term = "-" + _COORD_NAMES[k]
            else:
                g = gcd(c, den)
                term = str(c // g) if g == den else f"{c // g}/{den // g}"
                if k:
                    term += "*" + _COORD_NAMES[k]
            if not out:
                out = term
            elif term[0] == "-":
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


# The slot setters bypass the ``__setattr__`` that keeps instances immutable.
_new = object.__new__
_set_den = ExactScalar.den.__set__
_set_nums = ExactScalar.nums.__set__


def _reduced(den: int, acc: list) -> ExactScalar:
    """The element sum(acc[k] e_k) / den, from eight int numerators."""
    g = gcd(den, *acc)
    nums = tuple([(k, c // g) for k, c in enumerate(acc) if c])
    return ExactScalar._of(den // g, nums) if nums else ZERO


def _sum(x: ExactScalar, y: ExactScalar, sign: int) -> ExactScalar:
    """x + sign * y for nonzero x and y; over a shared denominator the
    numerators add as they are."""
    a, b, da, db = x.nums, y.nums, x.den, y.den
    if da == db:
        sa, sb, d = 1, sign, da
    else:
        sa, sb, d = db, sign * da, da * db
    if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
        n = a[0][1] * sa + b[0][1] * sb
        if not n:
            return ZERO
        g = gcd(n, d)
        return ExactScalar._of(d // g, ((a[0][0], n // g),))
    acc = [0] * 8
    for k, c in a:
        acc[k] = c * sa
    for k, c in b:
        acc[k] += c * sb
    return _reduced(d, acc)


def _coerce(value):
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        if not value:
            return ZERO
        return ExactScalar._of(value.denominator, ((0, value.numerator),))
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
