"""Characteristic polynomials of Hermitian tuples.

det L(lambda) of an affine pencil L(lambda) = L0 - sum_j lambda_j P_j has
total degree at most the side of L.  It is ``localizer.Pencil``, of the
gammas (char_poly) or the d = 4 off-diagonal blocks (reduced_char_poly): its
Gaussian-integer stack for exact tuples, complex128 L0 and P_j for float ones.
The Laplace operator sum_j (X_j - lambda_j)^2 is the same kind of pencil,
S - sum_j c_j (2 X_j) - c_(d+1) (-I) with S = sum_j X_j^2, at the
coefficients c = (lambda, |lambda|^2); its determinant has total degree at
most 2n in lambda (laplace_det_poly).  One family type serves all three:
a pencil, the degree, the map from lambda to the pencil coefficients, and a
held-out reference determinant.

Exact tuples are interpolated by Newton divided differences on the lower
set {alpha : |alpha| <= side} of the integer node grid 0..side:
C(side + d, d) determinants, a unisolvent set for that space (Dyn &
Floater, J. Approx. Theory 2014).  The values are the Gaussian-integer
determinants of den * L, den the lcm of the entry denominators, so every
divided difference is an exact integer division, the falling-factorial
basis changes to monomials with integer (Stirling) coefficients, and
1/den^side applies to the final terms only.  The node determinants come
from batched eliminations in int64, one per prime p = 1 (mod 4) and chunk
of up to 4096 nodes, under both embeddings i -> +-sqrt(-1) of Z[i] into F_p, recombined
by CRT once the primes exceed twice a Hadamard bound (Abbott, Bronstein &
Mulders, ISSAC 1999).  The held-out check evaluates the coefficients at
the non-node (side + 1, side + 2, ...) and compares with a fraction-free
Bareiss determinant there, of the assembled localizer or, for the Laplace
polynomial, of ``localizer.laplace``.

Float tuples are first divided by s = max ||X_j||_2, so the pencil has unit
scale.  det L is then sampled on the unit torus along a rank-1 lattice,
lambda_j = w^(t g_j) for t = 0..M - 1 and w = exp(2 pi i / M), with
batched complex128 determinants.  There lambda^alpha = w^(t key_alpha),
key_alpha = alpha . g mod M, and every monomial of det L lies in the lower
set; when the keys are distinct on it, no two coefficients share a
frequency, and the 1-D FFT of the M values divided by M holds each c_alpha
alone at index key_alpha (Kammerer, SIAM J. Numer. Anal. 2013; the tensor
torus FFT of Hromcik & Sebek, ECC 1999, is the case g_j = (side + 1)^j).
The generator is g = (1, k, ..., k^(d - 1)) mod M, k the least integer
>= side + 1 with k = 1 (mod d - 1) and M = (k^d - 1) / (d - 1).  Its keys
are checked on every call, at O(|lower set| + M) cost; should two collide,
or M not be below (side + 1)^d, the tensor torus is sampled instead, whose
keys are the base-(side + 1) digits of alpha.  No collision occurs for
d = 2..5 and side <= 16 (tested).  The reduced torus_quadruple polynomials
for n = 3..6 (side 6 to 12) take 800, 3,333, 9,520 and 9,520 determinants
instead of 2,401 to 28,561, d = 3 tuples of side 10 and 12 take 665 and
1,098 instead of 1,331 and 2,197, and the full d = 4 localizer (side 16)
43,440 instead of 83,521.  The transform is unitary, so the coefficients
carry the rounding of the determinants, about 1e-12 relative to the
largest one (2-3 times the error of the denser tensor torus, in the median
over random conjugations of the d = 3 gallery tuples), well inside the
1e-9 comparison tolerances (tested for scales 1e-2 to 1e2 and for
off-centre tuples).  Each coefficient c_alpha is finally multiplied by
s^(side - |alpha|), and a held-out determinant check at random points
validates the reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cliffordrep import GammaRep, rep_for, standard_rep
from .errors import ContractError, InterpolationError
from .linalg import determinant, operator_norm
from .localizer import Pencil, laplace
from .matrices import EXACT, FLOAT, HermitianTuple
from .multipoly import MultiPoly
from .scalars import GaussianRational
from .tolerances import HELD_OUT_RTOL, REAL_COEFF_RTOL

_CHUNK = 4096


@dataclass(frozen=True)
class _Family:
    """det pencil.at(coeffs(lambda)), a polynomial of total degree at most
    ``degree`` in the d components of lambda.  ``coeffs`` maps rows of
    lambda to rows of pencil coefficients, and ``reference(lambda)`` is the
    determinant at one point by an independent route, for the held-out
    checks: exact (GaussianRational) or complex as the pencil is."""

    pencil: Pencil
    d: int
    degree: int
    coeffs: Callable
    reference: Callable

    def float_dets(self, lam: np.ndarray) -> np.ndarray:
        """det at each row of lam, complex points of shape (count, d)."""
        return np.linalg.det(self.pencil.at_rows(self.coeffs(lam)))


def _char_family(pencil: Pencil) -> _Family:
    """det of a localizer pencil, of degree its side; the held-out reference
    is a Bareiss or LU determinant of the assembled matrix."""
    return _Family(
        pencil, pencil.d, pencil.side, lambda lam: lam, lambda lam: determinant(pencil.at(lam))
    )


def _laplace_family(tuple_: HermitianTuple) -> _Family:
    """det(sum_j (X_j - lambda_j)^2), of total degree at most 2n, on the
    Laplace pencil in (lambda, |lambda|^2); the held-out reference is the
    operator assembled by ``localizer.laplace``."""
    return _Family(
        Pencil.laplace(tuple_),
        tuple_.d,
        2 * tuple_.n,
        lambda lam: np.column_stack([lam, (lam**2).sum(axis=1)]),
        lambda lam: determinant(laplace(tuple_, lam)),
    )


# ---------------------------------------------------------------------------
# multi-modular determinants


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61: deterministic for odd
    61 < n < 4,759,123,141 (Jaeschke 1993)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """(p, s) for the primes 2^30 < p < 2^31 with p = 1 (mod 4), descending,
    and s with s^2 = -1 (mod p): i maps to s and to -s in F_p.  For a
    quadratic non-residue c, s = c^((p - 1) / 4)."""
    for p in range(2**31 - 3, 2**30, -4):
        if _is_prime(p):
            c = 2
            while pow(c, (p - 1) // 2, p) != p - 1:
                c += 1
            yield p, pow(c, (p - 1) // 4, p)


def _hadamard_bits(pencil: tuple, coeffs: np.ndarray) -> float:
    """An upper bound on log2 |det| over the members of the stack
    pencil[0] - sum_k coeffs[:, k] pencil[k + 1]: by Hadamard's inequality
    and the triangle inequality on each row,
    |det| <= prod_i (|row_i of pencil[0]| + sum_k |c_k| |row_i of pencil[k + 1]|)."""
    re, im = pencil
    norms = np.array(
        [math.isqrt(int(x)) + 1 for x in (re * re + im * im).sum(axis=2).reshape(-1)],
        dtype=float,
    ).reshape(re.shape[:2])
    rows = norms[0] + np.abs(coeffs) @ norms[1:]
    return float(np.log2(rows).sum(axis=1).max())


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p elementwise: the inverse of x in F_p, and 0 for 0."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (B, n, n) int64 stack with entries in [0, p),
    p < 2^31 so that every product fits in int64; overwrites the stack.

    Step k multiplies the rows below the pivot by it instead of dividing, so
    prod_k pivot_k = det * prod_k pivot_k^(n - 1 - k), and that factor is
    the product over k < n - 1 of the running pivot products; one inverse
    per member removes it.  A member whose column is zero from row k down
    gets pivot 0 and determinant 0."""
    b, n = a.shape[0], a.shape[1]
    members = np.arange(b)
    run = np.ones(b, dtype=np.int64)
    factor = np.ones(b, dtype=np.int64)
    flip = np.zeros(b, dtype=bool)
    for k in range(n):
        row = k + np.argmax(a[:, k:, k] != 0, axis=1)
        swap = row != k
        if swap.any():
            a[members, row], a[:, k] = a[:, k].copy(), a[members, row]
            flip ^= swap
        pivot = a[:, k, k]
        run = run * pivot % p
        if k + 1 < n:
            factor = factor * run % p
            sub = a[:, k + 1 :, k + 1 :]
            sub *= pivot[:, None, None]
            sub -= a[:, k + 1 :, k, None] * a[:, k, None, k + 1 :]
            sub %= p
    det = run * _inverse_mod(factor, p) % p
    return np.where(flip, (p - det) % p, det)


def _modular_dets(pencil: tuple, coeffs: np.ndarray) -> tuple:
    """Gaussian-integer determinants of pencil[0] - sum_k coeffs[:, k]
    pencil[k + 1], one per row of the integer array coeffs, as (re, im)
    object arrays of Python ints.

    Each prime p = 1 (mod 4) has a square root s of -1, so Z[i] maps to F_p
    by i -> s and by i -> -s.  The stack is eliminated mod p under both, and
    d+ = re + s im, d- = re - s im give re and im mod p.  Primes are added
    until their product M exceeds four times the Hadamard bound (twice, and
    one bit for the rounding of its float logarithm), and the residues
    combine by CRT into the symmetric range (-M/2, M/2] (Abbott, Bronstein &
    Mulders, ISSAC 1999)."""
    bits = _hadamard_bits(pencil, coeffs)
    n = pencil[0].shape[1]
    count = len(coeffs)
    modulus = 1
    value = (np.zeros(count, dtype=object), np.zeros(count, dtype=object))
    for p, s in _primes():
        re, im = ((part % p).astype(np.int64) for part in pencil)
        c = coeffs % p
        stack = np.empty((2, count, n, n), dtype=np.int64)
        for members, root in zip(stack, (s, p - s)):
            m = (re + root * im) % p
            members[:] = m[0]
            for k in range(1, len(m)):
                members -= c[:, k - 1, None, None] * m[k]
                members %= p
        plus, minus = _det_mod(stack.reshape(2 * count, n, n), p).reshape(2, count)
        half = (p + 1) // 2
        residues = ((plus + minus) * half % p, (plus - minus) % p * pow(2 * s, -1, p) % p)
        inv = pow(modulus, -1, p)
        value = tuple(
            x + ((r - (x % p).astype(np.int64)) % p * inv % p).astype(object) * modulus
            for x, r in zip(value, residues)
        )
        modulus *= p
        if modulus.bit_length() > bits + 3:
            break
    return tuple(np.where(x > modulus // 2, x - modulus, x) for x in value)


# ---------------------------------------------------------------------------
# interpolation


def _lower_set(d: int, m: int) -> np.ndarray:
    """Exponents alpha with |alpha| <= m, one row each, in lexicographic
    order."""
    grid = np.indices((m + 1,) * d).reshape(d, -1).T
    return grid[grid.sum(axis=1) <= m]


def _lattice(expo: np.ndarray, m: int) -> tuple:
    """(g, modulus, keys) of the rank-1 lattice of the module docstring
    for the lower set expo of degree m, keys = expo @ g mod modulus: the
    rule's generator when its keys are distinct on expo and its modulus is
    below (m + 1)^d, else the tensor torus g_j = (m + 1)^j."""
    d = expo.shape[1]
    full = (m + 1) ** d
    if d > 1:
        k = m + 1 + (-m) % (d - 1)
        modulus = (k**d - 1) // (d - 1)
        if 0 < modulus < full:
            g = np.array([pow(k, j, modulus) for j in range(d)], dtype=np.int64)
            keys = expo @ g % modulus
            if np.bincount(keys).max() <= 1:
                return g, modulus, keys
    g = (m + 1) ** np.arange(d, dtype=np.int64)
    return g, full, expo @ g


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


def _interpolate(family: _Family) -> MultiPoly:
    d = family.d
    m = family.degree
    expo = _lower_set(d, m)
    pencil = family.pencil
    if pencil.kind == EXACT:
        coeffs = family.coeffs(expo)
        chunks = [
            _modular_dets((pencil.re, pencil.im), coeffs[i : i + _CHUNK])
            for i in range(0, len(expo), _CHUNK)
        ]
        v = tuple(np.concatenate(part) for part in zip(*chunks))
        _newton_to_monomial(v, expo, m)
        den = pencil.den**pencil.side
        _validate_exact(family, expo, v, den)
        terms = {
            tuple(a): GaussianRational(Fraction(re, den), Fraction(im, den))
            for a, re, im in zip(expo, *v)
        }
        return MultiPoly(d, terms, EXACT)
    g, modulus, keys = _lattice(expo, m)
    # the phase t g_j mod modulus is reduced exactly in int64 before exp
    phase = np.arange(modulus, dtype=np.int64)[:, None] * g % modulus
    points = np.exp(2j * np.pi / modulus * phase)
    vals = np.concatenate(
        [family.float_dets(points[i : i + _CHUNK]) for i in range(0, modulus, _CHUNK)]
    )
    coeffs = np.fft.fft(vals)[keys] / modulus
    terms = {tuple(a): complex(c) for a, c in zip(expo.tolist(), coeffs)}
    poly = MultiPoly(d, terms, FLOAT).pruned()
    _validate_interpolation(family, poly)
    return poly


def _validate_exact(family: _Family, expo: np.ndarray, v: tuple, den: int) -> None:
    """Held-out check: the integer numerators v of the coefficients, over
    den, must give the reference determinant at (degree + 1, degree + 2,
    ...), which is not an interpolation node."""
    probe = [family.degree + 1 + j for j in range(family.d)]
    mono = (np.array(probe, dtype=object) ** expo.astype(object)).prod(axis=1)
    got = GaussianRational(*(Fraction(int((part * mono).sum()), den) for part in v))
    if got != family.reference(probe):
        raise InterpolationError("exact interpolation failed held-out check")


def _validate_interpolation(family: _Family, poly: MultiPoly) -> None:
    """Held-out consistency: the float polynomial must reproduce
    determinants at points that were not interpolation nodes."""
    d = family.d
    rng = np.random.default_rng(20240917)
    half_width = family.degree / 4.0
    for _ in range(4):
        pt = rng.uniform(-0.8 * half_width, 0.8 * half_width, size=d)
        want = family.reference(pt)
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
    if s == 1:
        return poly
    return MultiPoly(
        poly.nvars,
        {e: c * s ** (degree - sum(e)) for e, c in poly.terms.items()},
        poly.kind,
    )


# ---------------------------------------------------------------------------
# public polynomials


def char_poly(tuple_: HermitianTuple, rep: GammaRep | None = None) -> MultiPoly:
    """det(L_lambda) as a polynomial in lambda_1..lambda_d.

    Real coefficients (validated); exact tuples give exact coefficients.
    """
    if rep is None:
        rep = rep_for(tuple_.d)
    t, s = _normalised(tuple_)
    family = _char_family(Pencil(t, rep.gammas))
    poly = _force_real_coeffs(_interpolate(family))
    return _rescaled(poly, s, family.degree)


def reduced_char_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det of the half-size localizer for d = 4 (complex coefficients)."""
    if tuple_.d != 4:
        raise ContractError("the reduced characteristic polynomial needs d = 4")
    t, s = _normalised(tuple_)
    family = _char_family(Pencil(t, standard_rep(4).off_diagonal_blocks))
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
    family = _laplace_family(t)
    return _rescaled(_interpolate(family), s, family.degree)
