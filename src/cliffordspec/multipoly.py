"""Sparse multivariate polynomials with exact or float coefficients.

Polynomials support +, -, *, ** with each other and with rational
constants, which is how reference closed forms are expanded for
comparison: build variables with :func:`variables` and write the formula
as an ordinary Python expression.  Serialization is a canonical text form,
one term per line, graded-lexicographic order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, KindMismatchError
from .scalars import EXACT, FLOAT, GaussianRational, as_gaussian, is_exact_scalar
from .tolerances import POLY_EQUAL_SCALE_FLOOR, PRUNE_RTOL


def _coerce_coeff(value, kind):
    if kind == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if is_exact_scalar(value):
            return GaussianRational(value)
        raise KindMismatchError(f"{value!r} is not an exact coefficient")
    return complex(value)


class MultiPoly:
    """Sparse polynomial: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "kind")

    def __init__(self, nvars: int, terms: dict | None = None, kind: str = EXACT):
        self.nvars = nvars
        self.kind = kind
        clean = {}
        if terms:
            for expo, c in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise ContractError(f"bad exponent vector {expo}")
                c = _coerce_coeff(c, kind)
                if c:
                    clean[expo] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, nvars: int, kind: str = EXACT) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: value}, kind)

    @staticmethod
    def variable(index: int, nvars: int, kind: str = EXACT) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return MultiPoly(nvars, {tuple(expo): 1}, kind)

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ContractError("polynomials have different variable counts")
        if self.kind != other.kind:
            raise KindMismatchError("cannot mix exact and float polynomials")

    def _wrap(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return other
        if is_exact_scalar(other):
            return MultiPoly.constant(other, self.nvars, self.kind)
        if isinstance(other, (float, complex)):
            if self.kind == FLOAT:
                return MultiPoly.constant(other, self.nvars, self.kind)
            raise KindMismatchError(
                "float constants cannot enter an exact polynomial"
            )
        return None

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def as_float(self) -> "MultiPoly":
        return self if self.kind == FLOAT else MultiPoly(self.nvars, self.terms, FLOAT)

    def map_coefficients(self, fn, kind=None) -> "MultiPoly":
        return MultiPoly(
            self.nvars,
            {e: fn(c) for e, c in self.terms.items()},
            kind or self.kind,
        )

    def imag_part(self) -> "MultiPoly":
        if self.kind == EXACT:
            return self.map_coefficients(lambda c: GaussianRational(c.im))
        return self.map_coefficients(lambda c: complex(c.imag))

    def max_abs_coeff(self) -> float:
        return max([0.0, *map(abs, self.terms.values())])

    def pruned(self, rtol: float = PRUNE_RTOL) -> "MultiPoly":
        """Drop float coefficients below rtol * max |coefficient|."""
        if self.kind == EXACT:
            return self
        cut = rtol * self.max_abs_coeff()
        return MultiPoly(
            self.nvars,
            {e: c for e, c in self.terms.items() if abs(c) > cut},
            FLOAT,
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, 0) + c if e in terms else c
        return MultiPoly(self.nvars, terms, self.kind)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()}, self.kind)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return MultiPoly(self.nvars, terms, self.kind)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ContractError("polynomial powers must be nonnegative integers")
        out = MultiPoly.constant(1, self.nvars, self.kind)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, kind={self.kind!r}, terms={len(self.terms)})"

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point; complex result for float/complex input,
        exact result for exact poly at exact points."""
        if len(point) != self.nvars:
            raise ContractError("point length must equal nvars")
        exact_eval = self.kind == EXACT and all(is_exact_scalar(v) for v in point)
        if exact_eval:
            pt = [as_gaussian(v) for v in point]
            total = GaussianRational(0)
            for expo, c in self.terms.items():
                term = c
                for v, e in zip(pt, expo):
                    if e:
                        term = term * v**e
                total = total + term
            return total
        pt = [complex(v) for v in point]
        total = 0j
        for expo, c in self.terms.items():
            term = complex(c)
            for v, e in zip(pt, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def evaluate_abs(self, point) -> float:
        """sum |c| * |point^alpha|: a magnitude scale for tolerance checks."""
        pt = [abs(complex(v)) for v in point]
        total = 0.0
        for expo, c in self.terms.items():
            cc = abs(c)
            for v, e in zip(pt, expo):
                if e:
                    cc *= v**e
            total += cc
        return total


def variables(names: str | int, kind: str = EXACT):
    """Polynomial generators, e.g. ``x, y, z = variables("x y z")``."""
    count = names if isinstance(names, int) else len(names.split())
    return tuple(MultiPoly.variable(i, count, kind) for i in range(count))


def poly_equal(a: MultiPoly, b: MultiPoly, tol: float = 0.0):
    """Compare coefficientwise.

    Returns (equal, max_discrepancy).  Exact pairs compare exactly; any
    float operand switches to a float comparison with `tol` relative to
    the largest coefficient magnitude.
    """
    if a.nvars != b.nvars:
        raise ContractError("polynomials have different variable counts")
    if a.kind == EXACT and b.kind == EXACT and tol == 0.0:
        keys = set(a.terms) | set(b.terms)
        worst = 0.0
        zero = GaussianRational(0)
        equal = True
        for k in keys:
            diff = a.terms.get(k, zero) - b.terms.get(k, zero)
            if diff:
                equal = False
                worst = max(worst, abs(diff))
        return equal, worst
    af, bf = a.as_float(), b.as_float()
    keys = set(af.terms) | set(bf.terms)
    scale = max(af.max_abs_coeff(), bf.max_abs_coeff(), POLY_EQUAL_SCALE_FLOOR)
    worst = 0.0
    for k in keys:
        worst = max(worst, abs(af.terms.get(k, 0j) - bf.terms.get(k, 0j)))
    return worst <= tol * scale, worst


GRADED_LEX = "graded-lex (ascending total degree, then lexicographic)"


def _coeff_text(c) -> tuple[str, str]:
    if isinstance(c, GaussianRational):
        return str(c.re), str(c.im)
    return repr(c.real), repr(c.imag)


def to_text(p: MultiPoly) -> str:
    """Canonical serialization: "re im e1 ... ed" per term, graded-lex."""
    lines = []
    for expo in sorted(p.terms, key=lambda e: (sum(e), e)):
        re_s, im_s = _coeff_text(p.terms[expo])
        lines.append(" ".join([re_s, im_s, *map(str, expo)]))
    return "\n".join(lines) + ("\n" if lines else "")


def polar_radial_coefficients(p: MultiPoly, theta: float, phi: float) -> np.ndarray:
    """Coefficients a_k with p(r cos t, r sin t, r cos f, r sin f) =
    sum a_k r^k, for a 4-variable polynomial."""
    if p.nvars != 4:
        raise ContractError("polar substitution needs a 4-variable polynomial")
    out = np.zeros(p.total_degree + 1, dtype=complex)
    ct, st = np.cos(theta), np.sin(theta)
    cf, sf = np.cos(phi), np.sin(phi)
    for (a, b, c, d), coeff in p.terms.items():
        out[a + b + c + d] += complex(coeff) * ct**a * st**b * cf**c * sf**d
    return out


def substitute_polar(p: MultiPoly):
    """Callable (r, theta, phi) -> complex for a 4-variable polynomial,
    evaluating on the equal-radius locus w = r cos t, x = r sin t,
    y = r cos f, z = r sin f."""
    if p.nvars != 4:
        raise ContractError("polar substitution needs a 4-variable polynomial")

    def value(r: float, theta: float, phi: float) -> complex:
        coeffs = polar_radial_coefficients(p, theta, phi)
        acc = 0j
        for a in coeffs[::-1]:
            acc = acc * r + a
        return acc

    return value
