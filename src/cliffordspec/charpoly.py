"""Characteristic polynomials of Hermitian tuples.

det L(lambda) of an affine pencil L(lambda) = L0 - sum_j lambda_j P_j has
total degree at most the side of L, so it is reconstructed by Newton
interpolation from its values on the lower set {alpha : |alpha| <= side} of
a tensor node grid: C(side + d, d) determinants, a unisolvent set for that
space (Dyn & Floater, J. Approx. Theory 2014).

Exact tuples use integer nodes 0..side and the Gaussian-integer
determinants of den * L, den the lcm of the entry denominators: every
divided difference is an exact integer division, the falling-factorial
basis changes to monomials with integer (Stirling) coefficients, and
1/den^side applies to the final terms only.  Float tuples are first divided
by a power of two s >= max ||X_j||_2, which is exact in binary; their
determinants and transforms run in double-double arithmetic at the nodes
0, 1/2, -1/2, 1, -1, ..., so that the lower set sits around the origin, and
each coefficient c_alpha is finally multiplied by s^(side - |alpha|).  Each
coefficient is then correct to roughly double precision relative to its own
size at that scale (tested for scales 1e-2 to 1e2), comfortably inside the
1e-9 comparison tolerances.  A held-out determinant check validates every
reconstruction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import _ddet as dd
from .cliffordrep import GammaRep, rep_for, standard_rep
from .errors import ContractError, InterpolationError
from .linalg import _gaussian_int_bareiss, exact_determinant, operator_norm
from .localizer import build, build_reduced, laplace
from .matrices import EXACT, FLOAT, HermitianTuple, exact_eye, kron, to_float
from .multipoly import MultiPoly
from .parallel import ordered_chunk_map
from .scalars import GaussianRational

HELD_OUT_RTOL = 1e-9
REAL_COEFF_RTOL = 1e-9
_CHUNK = 4096


def _common_denominator(mats) -> int:
    den = 1
    for mat in mats:
        for e in mat.reshape(-1):
            den = math.lcm(den, e.re.denominator, e.im.denominator)
    return den


class _AffineFamily:
    """Matrix family base - sum_j lambda_j * parts[j], with fast exact and
    double-double float determinant evaluation."""

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
            self.parts_c = [np.ascontiguousarray(p) for p in parts]

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

    def _assemble_cdd(self, lam_chunk: np.ndarray):
        c = lam_chunk.shape[0]
        base = np.broadcast_to(self.base_c, (c, self.size, self.size))
        acc = dd.cdd_from_complex(base)
        for j, part in enumerate(self.parts_c):
            term = (-lam_chunk[:, j])[:, None, None] * part[None, :, :]
            acc = dd.cdd_add(acc, dd.cdd_from_complex(term))
        return acc

    def float_det_chunk(self, lam_chunk: np.ndarray):
        return dd.batched_cdd_det(self._assemble_cdd(lam_chunk))

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

    def det_scaled_at(self, node) -> tuple:
        """(re, im) integer determinant of q^2 times the Laplace operator:
        laplace(q X, q lambda) has Gaussian-integer entries."""
        v = exact_determinant(laplace(self.scaled, [self.q * x for x in node]))
        return int(v.re), int(v.im)

    def float_det_chunk(self, lam_chunk: np.ndarray):
        return dd.cdd_from_complex([self.float_det_single(pt) for pt in lam_chunk])

    def float_det_single(self, lam) -> complex:
        return complex(np.linalg.det(laplace(self.tuple_, lam)))


# ---------------------------------------------------------------------------
# lower-set Newton interpolation


def _lower_set(d: int, m: int) -> np.ndarray:
    """Exponents alpha with |alpha| <= m, one row each."""
    return np.array(
        [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) <= m]
    )


def _newton_to_monomial(v: tuple, expo: np.ndarray, nodes, divided, horner):
    """Turn values at the nodes nodes[alpha] (alpha a row of the lower set
    expo) into monomial coefficients, in place.  ``v`` is a tuple of arrays
    indexed like expo; ``divided(a, b, h)`` returns (a - b) / h and
    ``horner(a, b, x)`` returns a - x * b, both in the arithmetic of v.

    The tensor Newton basis N_alpha has leading monomial lambda^alpha, so
    the Newton coefficients with |alpha| > m vanish, and c_alpha needs only
    the values at nodes beta <= alpha, all inside the lower set.  Divided
    differences therefore run along every axis before any axis changes to
    the monomial basis; interleaving the two would read coefficients from
    outside the set."""
    n, d = expo.shape
    m = len(nodes) - 1
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
            h = nodes[col[sel]] - nodes[col[sel] - k]
            new = divided(dd.cdd_getitem(v, sel), dd.cdd_getitem(v, prev[sel]), h)
            dd.cdd_setitem(v, sel, new)
    for axis in range(d):
        col = expo[:, axis]
        succ = where[tuple((expo + unit[axis]).T)]
        for k in range(m - 1, -1, -1):
            sel = np.nonzero((col >= k) & (succ >= 0))[0]
            new = horner(dd.cdd_getitem(v, sel), dd.cdd_getitem(v, succ[sel]), nodes[k])
            dd.cdd_setitem(v, sel, new)


def _exact_divided(a, b, h):
    out = []
    for x, y in zip(a, b):
        diff = x - y
        quot = diff // h
        if np.any(diff - quot * h):
            raise InterpolationError(
                "divided difference is not a Gaussian integer: the determinant "
                "exceeds its degree bound"
            )
        out.append(quot)
    return out


def _exact_horner(a, b, x):
    return [p - x * q for p, q in zip(a, b)]


def _dd_divided(a, b, h):
    rh, rl, ih, il = dd.cdd_sub(a, b)
    return (*dd.dd_div_d(rh, rl, h), *dd.dd_div_d(ih, il, h))


def _dd_horner(a, b, x):
    return dd.cdd_sub(a, dd.cdd_mul_d(b, x))


def _interpolate(family, threads=None) -> MultiPoly:
    d = family.d
    m = family.degree
    expo = _lower_set(d, m)
    if family.kind == EXACT:
        nodes = np.arange(m + 1).astype(object)
        dets = [family.det_scaled_at(tuple(map(int, a))) for a in expo]
        v = tuple(np.array(c, dtype=object) for c in zip(*dets))
        _newton_to_monomial(v, expo, nodes, _exact_divided, _exact_horner)
        den = family.den_power
        terms = {
            tuple(a): GaussianRational(Fraction(re, den), Fraction(im, den))
            for a, re, im in zip(expo, *v)
        }
        poly = MultiPoly(d, terms, EXACT)
    else:
        nodes = np.array([(i + 1) // 2 * (0.5 if i % 2 else -0.5) for i in range(m + 1)])
        points = nodes[expo]
        chunks = [points[i : i + _CHUNK] for i in range(0, len(points), _CHUNK)]
        dets = ordered_chunk_map(family.float_det_chunk, chunks, threads)
        v = tuple(np.concatenate([blk[i] for blk in dets]) for i in range(4))
        _newton_to_monomial(v, expo, nodes, _dd_divided, _dd_horner)
        coeffs = dd.cdd_to_complex(v)
        terms = {tuple(a): complex(c) for a, c in zip(expo, coeffs)}
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
    """(tuple_ / s, s), s the least power of two >= max ||X_j||_2 for float
    tuples (the division is exact in binary) and 1 for exact ones."""
    if tuple_.kind == EXACT:
        return tuple_, 1
    norm = max(operator_norm(x) for x in tuple_.matrices)
    if norm == 0.0:
        return tuple_, 1
    s = 2.0 ** math.ceil(math.log2(norm))
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


def char_poly(
    tuple_: HermitianTuple, rep: GammaRep | None = None, *, threads=None
) -> MultiPoly:
    """det(L_lambda) as a polynomial in lambda_1..lambda_d.

    Real coefficients (validated); exact tuples give exact coefficients.
    """
    if rep is None:
        rep = rep_for(tuple_.d)
    t, s = _normalised(tuple_)
    loc0 = build(t, rep)
    parts = _gamma_parts(t, list(rep.gammas))
    family = _AffineFamily(loc0.matrix, parts, t.kind)
    poly = _force_real_coeffs(_interpolate(family, threads))
    return _rescaled(poly, s, family.degree)


def reduced_char_poly(tuple_: HermitianTuple, *, threads=None) -> MultiPoly:
    """det of the half-size localizer for d = 4 (complex coefficients)."""
    if tuple_.d != 4:
        raise ContractError("the reduced characteristic polynomial needs d = 4")
    t, s = _normalised(tuple_)
    red0 = build_reduced(t)
    blocks = list(standard_rep(4).off_diagonal_blocks)
    parts = _gamma_parts(t, blocks)
    family = _AffineFamily(red0.matrix, parts, t.kind)
    return _rescaled(_interpolate(family, threads), s, family.degree)


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
