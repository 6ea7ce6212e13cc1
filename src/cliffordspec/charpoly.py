"""Characteristic polynomials of Hermitian tuples.

det L(lambda) of an affine pencil L(lambda) = L0 - sum_j lambda_j P_j has
total degree at most the side of L.

Exact tuples are interpolated by Newton divided differences on the lower
set {alpha : |alpha| <= side} of the integer node grid 0..side:
C(side + d, d) determinants, a unisolvent set for that space (Dyn &
Floater, J. Approx. Theory 2014).  The values are the Gaussian-integer
determinants of den * L, den the lcm of the entry denominators, so every
divided difference is an exact integer division, the falling-factorial
basis changes to monomials with integer (Stirling) coefficients, and
1/den^side applies to the final terms only.

Float tuples are first divided by s = max ||X_j||_2, so the pencil has unit
scale.  det L is then sampled on the unit torus, lambda = omega^a for
a in {0..side}^d and omega = exp(2 pi i / (side + 1)), with batched
complex128 determinants; since every variable has degree at most side, the
d-dimensional FFT of those (side + 1)^d values divided by (side + 1)^d is
exactly the coefficient array (Hromcik & Sebek, ECC 1999).  That transform
is unitary, so the coefficients carry the rounding of the determinants,
about 1e-12 relative to the largest one, well inside the 1e-9 comparison
tolerances (tested for scales 1e-2 to 1e2 and for off-centre tuples).  Each
coefficient c_alpha is finally multiplied by s^(side - |alpha|).  A
held-out determinant check validates every reconstruction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .cliffordrep import GammaRep, rep_for, standard_rep
from .errors import ContractError, InterpolationError
from .linalg import _common_denominator, _gaussian_int_bareiss, exact_determinant, operator_norm
from .localizer import build, build_reduced, laplace
from .matrices import EXACT, FLOAT, HermitianTuple, exact_eye, kron, to_float
from .multipoly import MultiPoly
from .scalars import GaussianRational

HELD_OUT_RTOL = 1e-9
REAL_COEFF_RTOL = 1e-9
_CHUNK = 4096


class _AffineFamily:
    """Matrix family base - sum_j lambda_j * parts[j], with fast exact and
    batched float determinant evaluation."""

    def __init__(self, base: np.ndarray, parts: list, kind: str):
        self.kind = kind
        self.size = base.shape[0]
        self.degree = self.size
        self.d = len(parts)
        if kind == EXACT:
            den = _common_denominator((base, *parts))
            self.den_power = den**self.size
            self.base_re = [int(e.re * den) for e in base.reshape(-1)]
            self.base_im = [int(e.im * den) for e in base.reshape(-1)]
            self.part_re = [
                [int(e.re * den) for e in p.reshape(-1)] for p in parts
            ]
            self.part_im = [
                [int(e.im * den) for e in p.reshape(-1)] for p in parts
            ]
        else:
            self.base_c = np.ascontiguousarray(base)
            self.parts_c = np.array(parts)

    def det_scaled_at(self, node) -> tuple:
        """(re, im) integer determinant of den * L at an integer node."""
        n = self.size
        re = list(self.base_re)
        im = list(self.base_im)
        for j, lam in enumerate(node):
            if not lam:
                continue
            pr = self.part_re[j]
            pi = self.part_im[j]
            for i in range(n * n):
                re[i] -= lam * pr[i]
                im[i] -= lam * pi[i]
        rows_re = [re[i * n : (i + 1) * n] for i in range(n)]
        rows_im = [im[i * n : (i + 1) * n] for i in range(n)]
        return _gaussian_int_bareiss(rows_re, rows_im, n)

    def float_dets(self, lam: np.ndarray) -> np.ndarray:
        """det L at each row of lam, complex points of shape (count, d)."""
        return np.linalg.det(self.base_c - np.tensordot(lam, self.parts_c, axes=1))

    def float_det_single(self, lam) -> complex:
        m = self.base_c.copy()
        for j, part in enumerate(self.parts_c):
            m = m - complex(lam[j]) * part
        return complex(np.linalg.det(m))


class _LaplaceFamily:
    """det(sum_j (X_j - lambda_j)^2), of total degree at most 2n."""

    def __init__(self, tuple_: HermitianTuple):
        self.kind = tuple_.kind
        self.d = tuple_.d
        self.degree = 2 * tuple_.n
        self.tuple_ = tuple_
        if self.kind == EXACT:
            self.q = _common_denominator(tuple_.matrices)
            self.scaled = HermitianTuple([m * self.q for m in tuple_.matrices])
            self.den_power = self.q**self.degree
        else:
            self.mats = np.array(tuple_.matrices)
            self.square_sum = sum(x @ x for x in self.mats)

    def det_scaled_at(self, node) -> tuple:
        """(re, im) integer determinant of q^2 times the Laplace operator:
        laplace(q X, q lambda) has Gaussian-integer entries."""
        v = exact_determinant(laplace(self.scaled, [self.q * x for x in node]))
        return int(v.re), int(v.im)

    def float_dets(self, lam: np.ndarray) -> np.ndarray:
        """det of sum_j X_j^2 - 2 lambda_j X_j + lambda_j^2 at each row of
        lam, complex points of shape (count, d)."""
        eye = np.eye(self.tuple_.n)
        ops = (
            self.square_sum
            - 2 * np.tensordot(lam, self.mats, axes=1)
            + (lam**2).sum(axis=1)[:, None, None] * eye
        )
        return np.linalg.det(ops)

    def float_det_single(self, lam) -> complex:
        return complex(np.linalg.det(laplace(self.tuple_, lam)))


# ---------------------------------------------------------------------------
# interpolation


def _lower_set(d: int, m: int) -> np.ndarray:
    """Exponents alpha with |alpha| <= m, one row each."""
    return np.array(
        [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) <= m]
    )


def _newton_to_monomial(v: tuple, expo: np.ndarray, m: int) -> None:
    """Turn the values of a polynomial at the integer nodes alpha, the rows
    of the lower set expo, into its monomial coefficients, in place.  ``v``
    is (re, im), Gaussian-integer object arrays indexed like expo.

    The tensor Newton basis N_alpha has leading monomial lambda^alpha, so
    the Newton coefficients with |alpha| > m vanish, and c_alpha needs only
    the values at nodes beta <= alpha, all inside the lower set.  Divided
    differences therefore run along every axis before any axis changes to
    the monomial basis; interleaving the two would read coefficients from
    outside the set."""
    n, d = expo.shape
    # index of each exponent in expo; the padding row m + 1, also reached
    # by index -1, marks exponents outside the lower set
    where = np.full((m + 2,) * d, -1)
    where[tuple(expo.T)] = np.arange(n)
    unit = np.eye(d, dtype=int)
    for axis in range(d):
        col = expo[:, axis]
        prev = where[tuple((expo - unit[axis]).T)]
        for k in range(1, m + 1):
            sel = np.nonzero(col >= k)[0]
            for part in v:
                diff = part[sel] - part[prev[sel]]
                quot = diff // k
                if np.any(diff - quot * k):
                    raise InterpolationError(
                        "divided difference is not a Gaussian integer: the "
                        "determinant exceeds its degree bound"
                    )
                part[sel] = quot
    for axis in range(d):
        col = expo[:, axis]
        succ = where[tuple((expo + unit[axis]).T)]
        for k in range(m - 1, -1, -1):
            sel = np.nonzero((col >= k) & (succ >= 0))[0]
            for part in v:
                part[sel] = part[sel] - k * part[succ[sel]]


def _interpolate(family) -> MultiPoly:
    d = family.d
    m = family.degree
    expo = _lower_set(d, m)
    if family.kind == EXACT:
        dets = [family.det_scaled_at(tuple(map(int, a))) for a in expo]
        v = tuple(np.array(c, dtype=object) for c in zip(*dets))
        _newton_to_monomial(v, expo, m)
        den = family.den_power
        terms = {
            tuple(a): GaussianRational(Fraction(re, den), Fraction(im, den))
            for a, re, im in zip(expo, *v)
        }
        poly = MultiPoly(d, terms, EXACT)
    else:
        k = m + 1
        torus = np.exp(2j * np.pi / k * np.indices((k,) * d).reshape(d, -1).T)
        vals = np.concatenate(
            [family.float_dets(torus[i : i + _CHUNK]) for i in range(0, len(torus), _CHUNK)]
        )
        coeffs = np.fft.fftn(vals.reshape((k,) * d)) / k**d
        terms = {tuple(a): complex(coeffs[tuple(a)]) for a in expo}
        poly = MultiPoly(d, terms, FLOAT).pruned()
    _validate_interpolation(family, poly)
    return poly


def _validate_interpolation(family, poly: MultiPoly) -> None:
    """Held-out consistency: the polynomial must reproduce determinants at
    points that were not interpolation nodes."""
    d = family.d
    if family.kind == EXACT:
        probe = tuple(family.degree + 1 + j for j in range(d))
        want = GaussianRational(*family.det_scaled_at(probe))
        if poly.evaluate(probe) * family.den_power != want:
            raise InterpolationError("exact interpolation failed held-out check")
        return
    rng = np.random.default_rng(20240917)
    half_width = family.degree / 4.0
    for _ in range(4):
        pt = rng.uniform(-0.8 * half_width, 0.8 * half_width, size=d)
        want = family.float_det_single(pt)
        got = poly.evaluate(pt)
        scale = max(1.0, abs(want), poly.evaluate_abs(pt))
        if abs(got - want) > HELD_OUT_RTOL * scale:
            raise InterpolationError(
                f"interpolated polynomial residual {abs(got - want):.3e} "
                f"exceeds {HELD_OUT_RTOL:.1e} * {scale:.3e} at held-out point"
            )


def _normalised(tuple_: HermitianTuple):
    """(tuple_ / s, s), s = max ||X_j||_2 for float tuples (so the pencil
    sampled on the unit torus has unit scale, whatever the input scale) and
    1 for exact ones and for the zero tuple."""
    if tuple_.kind == EXACT:
        return tuple_, 1
    s = max(operator_norm(x) for x in tuple_.matrices)
    if s == 0.0:
        return tuple_, 1
    return HermitianTuple([x / s for x in tuple_.matrices]), s


def _rescaled(poly: MultiPoly, s, degree: int) -> MultiPoly:
    """The polynomial of the tuple s * X from that of X, each coefficient
    c_alpha times s^(degree - |alpha|)."""
    return MultiPoly(
        poly.nvars,
        {e: c * s ** (degree - sum(e)) for e, c in poly.terms.items()},
        poly.kind,
    )


# ---------------------------------------------------------------------------
# public polynomials


def _gamma_parts(tuple_: HermitianTuple, blocks) -> list:
    n = tuple_.n
    eye = exact_eye(n) if tuple_.kind == EXACT else np.eye(n, dtype=complex)
    if tuple_.kind == FLOAT:
        blocks = [to_float(b) for b in blocks]
    return [kron(eye, b) for b in blocks]


def char_poly(tuple_: HermitianTuple, rep: GammaRep | None = None) -> MultiPoly:
    """det(L_lambda) as a polynomial in lambda_1..lambda_d.

    Real coefficients (validated); exact tuples give exact coefficients.
    """
    if rep is None:
        rep = rep_for(tuple_.d)
    t, s = _normalised(tuple_)
    loc0 = build(t, rep)
    parts = _gamma_parts(t, list(rep.gammas))
    family = _AffineFamily(loc0.matrix, parts, t.kind)
    poly = _force_real_coeffs(_interpolate(family))
    return _rescaled(poly, s, family.degree)


def reduced_char_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det of the half-size localizer for d = 4 (complex coefficients)."""
    if tuple_.d != 4:
        raise ContractError("the reduced characteristic polynomial needs d = 4")
    t, s = _normalised(tuple_)
    red0 = build_reduced(t)
    blocks = list(standard_rep(4).off_diagonal_blocks)
    parts = _gamma_parts(t, blocks)
    family = _AffineFamily(red0.matrix, parts, t.kind)
    return _rescaled(_interpolate(family), s, family.degree)


def _force_real_coeffs(poly: MultiPoly) -> MultiPoly:
    if poly.kind == EXACT:
        for c in poly.terms.values():
            if c.im:
                raise InterpolationError(
                    "exact characteristic polynomial has a nonzero imaginary part"
                )
        return poly
    scale = poly.max_abs_coeff() or 1.0
    worst = max((abs(c.imag) for c in poly.terms.values()), default=0.0)
    if worst > REAL_COEFF_RTOL * scale:
        raise InterpolationError(
            f"characteristic polynomial imaginary part {worst:.3e} too large"
        )
    return poly.map_coefficients(lambda c: complex(c.real))


def laplace_det_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det(sum_j (X_j - lambda_j)^2) as a polynomial (total degree 2n)."""
    t, s = _normalised(tuple_)
    family = _LaplaceFamily(t)
    return _rescaled(_interpolate(family), s, family.degree)
