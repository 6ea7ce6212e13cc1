"""Scalar arithmetic for the exact path: Gaussian rationals.

An exact scalar is a complex number whose real and imaginary parts are
arbitrary-precision fractions.  Arithmetic never rounds.  The float path
uses ordinary Python/numpy complex numbers; mixing the two kinds is an
error, not a silent promotion.  ``complex(x)`` and ``abs(x)`` are the
explicit conversions to float.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number, Rational

from .errors import KindMismatchError

EXACT = "exact"
FLOAT = "float"

_RATIONAL = (int, Fraction, Rational)


class GaussianRational:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def parse(re_str: str, im_str: str = "0") -> "GaussianRational":
        """Parse fraction strings like "3/4" (also plain integers)."""
        return GaussianRational(Fraction(re_str), Fraction(im_str))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # explicit conversions: complex(x), abs(x), np.abs and astype(complex)
    # treat an exact scalar as a number; mixed arithmetic still raises
    def __complex__(self) -> complex:
        return self.to_complex()

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _RATIONAL):
            return GaussianRational(other)
        if isinstance(other, (float, complex)):
            raise KindMismatchError(
                "cannot mix exact scalars with floats; convert explicitly"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("exact scalar powers must be nonnegative integers")
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


Number.register(GaussianRational)


def as_gaussian(value) -> GaussianRational:
    """Coerce an exact-compatible value (int, Fraction, GaussianRational)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RATIONAL):
        return GaussianRational(value)
    raise KindMismatchError(f"{value!r} is not an exact scalar")


def is_exact_scalar(value) -> bool:
    return isinstance(value, (GaussianRational, *_RATIONAL))
