"""Characteristic polynomials of Hermitian tuples.

det L(lambda) of an affine pencil L(lambda) = L0 - sum_j lambda_j P_j has
total degree at most the side of L.  It is ``localizer.Pencil``, of the
gammas of rep_for(d) (char_poly) or the d = 4 off-diagonal blocks
(reduced_char_poly): its Gaussian-integer stack for exact tuples,
complex128 L0 and P_j for float ones.
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
from batched eliminations in int64, one per prime p = 1 (mod 4) and block
of nodes (``parallel.blocks``, at 16 side^2 stack bytes per node), on an
(n, n, nodes) stack whose steps run along contiguous rows, under both
embeddings i -> +-sqrt(-1) of Z[i] into F_p, recombined by CRT once
the primes exceed twice a Hadamard bound (Abbott, Bronstein & Mulders,
ISSAC 1999).  The held-out check evaluates the coefficients at
the non-node (side + 1, side + 2, ...) and compares with a fraction-free
Bareiss determinant there, of the assembled localizer or, for the Laplace
polynomial, of ``localizer.laplace``.

Float tuples are first divided by s = max ||X_j||_2, so the pencil has unit
scale.  det L is then sampled on the unit torus along a rank-1 lattice,
lambda_j = w^(t g_j) for t = 0..M - 1 and w = exp(2 pi i / M), with
batched complex128 determinants, block by block.  There lambda^alpha =
w^(t key_alpha), key_alpha = alpha . g mod M, and every monomial of det L
lies in the lower set; when the keys are distinct on it, no two
coefficients share a frequency, and the 1-D FFT of the M values divided by
M holds each c_alpha alone at index key_alpha (Kammerer, SIAM J. Numer.
Anal. 2013; the tensor torus FFT of Hromcik & Sebek, ECC 1999, is the case
g_j = (side + 1)^j).  The generator is g = (1, a, ..., a^(d - 1)) mod M:
first the searched (M, a) of ``_KOROBOV`` (the sides of the benchmark's
float tuples, d = 3 and 4), then the rule a = k, M = (k^d - 1) / (d - 1),
k the least integer >= side + 1 with k = 1 (mod d - 1).  The keys are
checked on every call, at O(|lower set| + M) cost; should two collide
under both, or M not be below (side + 1)^d, the tensor torus is sampled,
whose keys are the base-(side + 1) digits of alpha.  Neither collides for d = 2..5 and
side <= 16 (tested).  The reduced torus_quadruple polynomials for n = 3..6
(side 6 to 12) take 667, 1,847, 4,009 and 7,811 determinants (the rule's
800, 3,333, 9,520 and 9,520; the tensor torus's 2,401 to 28,561), d = 3
tuples of side 10 and 12 take 628 and 1,055 (665 and 1,098; 1,331 and
2,197), and the full d = 4 localizer (side 16) the rule's 43,440 (83,521).
The transform is unitary, so the coefficients carry the rounding of the
determinants, about 1e-12 relative to the largest one, well inside the
1e-9 comparison tolerances (tested against the tensor torus for every
table entry, and for scales 1e-2 to 1e2 and off-centre tuples).  Pruning,
a held-out determinant check at random points, the real-part check and
the rescaling of each c_alpha by s^(side - |alpha|) run on the coefficient
array, and the polynomial is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ContractError, InterpolationError
from .linalg import determinant, operator_norm
from .localizer import Pencil, laplace
from .matrices import EXACT, FLOAT, HermitianTuple
from .multipoly import MultiPoly
from .parallel import blocks
from .scalars import GaussianRational
from .tolerances import HELD_OUT_RTOL, PRUNE_RTOL, REAL_COEFF_RTOL


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
    |det| <= prod_i (|row_i of pencil[0]| + sum_k |c_k| |row_i of pencil[k + 1]|).
    Where the row sums could pass the float range, the norms are taken over
    2^shift, rounded up, and the bound gains shift bits a row; elsewhere
    shift is 0 and the bits are the unscaled ones."""
    re, im = pencil
    norms = [math.isqrt(int(x)) + 1 for x in (re * re + im * im).sum(axis=2).reshape(-1)]
    reach = 1 + int(np.abs(coeffs).sum(axis=1).max(initial=0))
    shift = max(0, max(norms).bit_length() + reach.bit_length() - 1020)
    norms = np.array([-(-x >> shift) for x in norms], dtype=float).reshape(re.shape[:2])
    rows = norms[0] + np.abs(coeffs) @ norms[1:]
    return float(np.log2(rows).sum(axis=1).max()) + shift * re.shape[1]


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, as x - floor(x / p) p: numpy's int64 floor division
    by a scalar is about four times faster than its remainder."""
    q = x // p
    q *= p
    x -= q
    return x


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p elementwise: the inverse of x in F_p, and 0 for 0."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = _mod(out * x, p)
        x = _mod(x * x, p)
        e >>= 1
    return out


def _det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of an (n, n, B) int64 stack, member b at
    a[:, :, b], with entries in [0, p), p < 2^31 so that every product fits
    in int64; overwrites the stack.  The batch is the last axis, so each
    step runs over contiguous rows of B entries.

    Step k multiplies the rows below the pivot by it instead of dividing, so
    prod_k pivot_k = det * prod_k pivot_k^(n - 1 - k), and that factor is
    the product over k < n - 1 of the running pivot products; one inverse
    per member removes it.  A member whose column is zero from row k down
    gets pivot 0 and determinant 0."""
    n, b = a.shape[0], a.shape[2]
    run = np.ones(b, dtype=np.int64)
    factor = np.ones(b, dtype=np.int64)
    flip = np.zeros(b, dtype=bool)
    for k in range(n):
        row = k + np.argmax(a[k:, k] != 0, axis=0)
        swap = np.nonzero(row != k)[0]
        if len(swap):
            a[k, :, swap], a[row[swap], :, swap] = a[row[swap], :, swap], a[k, :, swap]
            flip[swap] ^= True
        pivot = a[k, k]
        run = _mod(run * pivot, p)
        if k + 1 < n:
            factor = _mod(factor * run, p)
            sub = a[k + 1 :, k + 1 :]
            sub *= pivot
            sub -= a[k + 1 :, k, None] * a[k, None, k + 1 :]
            _mod(sub, p)
    det = run * _inverse_mod(factor, p) % p
    return np.where(flip, (p - det) % p, det)


def _modular_dets(pencil: tuple, coeffs: np.ndarray) -> np.ndarray:
    """Gaussian-integer determinants of pencil[0] - sum_k coeffs[:, k]
    pencil[k + 1], one per row of the integer array coeffs, as a (2, nodes)
    object array of Python ints, real parts first.

    Each prime p = 1 (mod 4) has a square root s of -1, so Z[i] maps to F_p
    by i -> s and by i -> -s.  The stack is eliminated mod p under both,
    block by block of nodes, and d+ = re + s im, d- = re - s im give re and
    im mod p.  Primes are added until their product M exceeds four times
    the Hadamard bound of all the nodes (twice, and one bit for the
    rounding of its float logarithm), and the residues combine by CRT into
    the symmetric range (-M/2, M/2] (Abbott, Bronstein & Mulders, ISSAC
    1999)."""
    bits = _hadamard_bits(pencil, coeffs)
    n = pencil[0].shape[1]
    count = len(coeffs)
    modulus = 1
    value = np.zeros((2, count), dtype=object)
    # a node's stack is two n x n int64 matrices, one per embedding
    parts = blocks(count, 16 * n * n)
    for p, s in _primes():
        re, im = ((part % p).astype(np.int64) for part in pencil)
        # row (i, j, e) of the pencil matrices' entries (i, j) under i -> s
        # (e = 0) and i -> -s (e = 1), one column per matrix
        embedded = np.stack([(re + root * im) % p for root in (s, p - s)], axis=-1)
        embedded = embedded.reshape(len(re), -1).T
        # a member, pencil[0] - sum_k c_k pencil[k + 1], is one product and
        # one reduction, its sum bounded by p (1 + sum_k |c_k mod p|)
        w = np.column_stack([np.ones(count, dtype=np.int64), -(coeffs % p)]).T
        if p * int(np.abs(w).sum(axis=0).max(initial=1)) >= 2**63:
            raise ContractError("pencil coefficients too large for an int64 product mod p")
        plus, minus = np.empty((2, count), dtype=np.int64)
        for part in parts:
            stack = _mod(embedded @ w[:, part], p)
            plus[part], minus[part] = _det_mod(stack.reshape(n, n, -1), p).reshape(2, -1)
        half = (p + 1) // 2
        residues = np.stack([(plus + minus) * half, (plus - minus) % p * pow(2 * s, -1, p)]) % p
        step = (residues - (value % p).astype(np.int64)) % p * pow(modulus, -1, p) % p
        value += step.astype(object) * modulus
        modulus *= p
        if modulus.bit_length() > bits + 3:
            break
    return np.where(value > modulus // 2, value - modulus, value)


# ---------------------------------------------------------------------------
# interpolation


def _lower_set(d: int, m: int) -> np.ndarray:
    """Exponents alpha with |alpha| <= m, one row each, in lexicographic
    order."""
    grid = np.indices((m + 1,) * d).reshape(d, -1).T
    return grid[grid.sum(axis=1) <= m]


# (d, side) -> (M, a), the Korobov generator (1, a, ..., a^(d - 1)) mod M of
# the first M up from the size of the lower set and the least a >= 2 with
# distinct keys on it, for the sides of the float charpoly benchmark tasks
_KOROBOV = {
    (3, 10): (628, 169), (3, 12): (1055, 196),
    (4, 6): (667, 152), (4, 8): (1847, 843), (4, 10): (4009, 981), (4, 12): (7811, 317),
}


def _lattice(expo: np.ndarray, m: int) -> tuple:
    """(g, modulus, keys) of the rank-1 lattice of the module docstring
    for the lower set expo of degree m, keys = expo @ g mod modulus: the
    first of the table's generator and the rule's whose keys are distinct
    on expo and whose modulus is below (m + 1)^d, else the tensor torus
    g_j = (m + 1)^j."""
    d = expo.shape[1]
    full = (m + 1) ** d
    tried = [_KOROBOV[d, m]] if (d, m) in _KOROBOV else []
    if d > 1:
        k = m + 1 + (-m) % (d - 1)
        tried.append(((k**d - 1) // (d - 1), k))
    for modulus, a in tried:
        if 0 < modulus < full:
            g = np.array([pow(a, j, modulus) for j in range(d)], dtype=np.int64)
            keys = expo @ g % modulus
            if np.bincount(keys).max() <= 1:
                return g, modulus, keys
    g = (m + 1) ** np.arange(d, dtype=np.int64)
    return g, full, expo @ g


def _newton_to_monomial(v: np.ndarray, expo: np.ndarray, m: int) -> None:
    """Turn the values of a polynomial at the integer nodes alpha, the rows
    of the lower set expo, into its monomial coefficients, in place.  ``v``
    is a (2, nodes) Gaussian-integer object array, columns indexed like expo.

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
            diff = v[:, sel] - v[:, prev[sel]]
            quot = diff // k
            if np.any(diff - quot * k):
                raise InterpolationError(
                    "divided difference is not a Gaussian integer: the "
                    "determinant exceeds its degree bound"
                )
            v[:, sel] = quot
    for axis in range(d):
        col = expo[:, axis]
        succ = where[tuple((expo + unit[axis]).T)]
        for k in range(m - 1, -1, -1):
            sel = np.nonzero((col >= k) & (succ >= 0))[0]
            v[:, sel] -= k * v[:, succ[sel]]


def _interpolate(family: _Family, s=1, real: bool = False) -> MultiPoly:
    """The polynomial of the tuple s X from the family of X (s = 1 for exact
    tuples); real=True checks for real coefficients and keeps them real."""
    d = family.d
    m = family.degree
    expo = _lower_set(d, m)
    pencil = family.pencil
    if pencil.kind == EXACT:
        v = _modular_dets((pencil.re, pencil.im), family.coeffs(expo))
        _newton_to_monomial(v, expo, m)
        den = pencil.den**pencil.side
        _validate_exact(family, expo, v, den)
        if real and np.any(v[1]):
            raise InterpolationError("exact characteristic polynomial has a nonzero imaginary part")
        terms = {
            tuple(a): GaussianRational(Fraction(re, den), Fraction(im, den))
            for a, re, im in zip(expo.tolist(), *v)
            if re or im
        }
        return MultiPoly(d, terms, EXACT)
    g, modulus, keys = _lattice(expo, m)
    # the phase t g_j mod modulus is reduced exactly in int64 before exp
    phase = np.arange(modulus, dtype=np.int64)[:, None] * g % modulus
    points = np.exp(2j * np.pi / modulus * phase)
    # a node's stack is one complex128 matrix
    parts = blocks(modulus, 16 * pencil.side**2)
    vals = np.concatenate([family.float_dets(points[part]) for part in parts])
    coeffs = np.fft.fft(vals)[keys] / modulus
    # pruned as MultiPoly.pruned: below PRUNE_RTOL * max |coefficient|
    top = np.abs(coeffs).max(initial=0.0)
    keep = np.abs(coeffs) > PRUNE_RTOL * top
    expo, coeffs = expo[keep], coeffs[keep]
    _validate_interpolation(family, expo, coeffs)
    if real:
        worst = np.abs(coeffs.imag).max(initial=0.0)
        if worst > REAL_COEFF_RTOL * (top or 1.0):
            raise InterpolationError(
                f"characteristic polynomial imaginary part {worst:.3e} too large"
            )
        coeffs = coeffs.real + 0j
    # c_alpha s^(side - |alpha|): the polynomial of s X from that of X
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = coeffs * float(s) ** (m - expo.sum(axis=1))
    if not np.isfinite(coeffs).all():
        raise ContractError(f"scale {s:.3e} to the power {m} is beyond the float range")
    return MultiPoly(d, dict(zip(map(tuple, expo.tolist()), coeffs.tolist())), FLOAT)


def _validate_exact(family: _Family, expo: np.ndarray, v: np.ndarray, den: int) -> None:
    """Held-out check: the (2, nodes) integer numerators v of the
    coefficients, over den, must give the reference determinant at
    (degree + 1, degree + 2, ...), which is not an interpolation node."""
    probe = [family.degree + 1 + j for j in range(family.d)]
    mono = (np.array(probe, dtype=object) ** expo.astype(object)).prod(axis=1)
    if GaussianRational(*v @ mono) != den * family.reference(probe):
        raise InterpolationError("exact interpolation failed held-out check")


def _validate_interpolation(family: _Family, expo: np.ndarray, coeffs: np.ndarray) -> None:
    """Held-out consistency: the float coefficients of the rows of expo must
    reproduce determinants at points that were not interpolation nodes."""
    d = family.d
    rng = np.random.default_rng(20240917)
    half_width = family.degree / 4.0
    for _ in range(4):
        pt = rng.uniform(-0.8 * half_width, 0.8 * half_width, size=d)
        want = family.reference(pt)
        mono = np.prod(pt**expo, axis=1)
        got = coeffs @ mono
        scale = max(1.0, abs(want), np.abs(coeffs) @ np.abs(mono))
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


# ---------------------------------------------------------------------------
# public polynomials


def char_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det(L_lambda) as a polynomial in lambda_1..lambda_d, L_lambda in
    rep_for(d).

    Real coefficients (validated); exact tuples give exact coefficients.
    """
    t, s = _normalised(tuple_)
    return _interpolate(_char_family(Pencil.localizer(t)), s, real=True)


def reduced_char_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det of the half-size localizer for d = 4 (complex coefficients)."""
    if tuple_.d != 4:
        raise ContractError("the reduced characteristic polynomial needs d = 4")
    t, s = _normalised(tuple_)
    return _interpolate(_char_family(Pencil.reduced(t)), s)


def laplace_det_poly(tuple_: HermitianTuple) -> MultiPoly:
    """det(sum_j (X_j - lambda_j)^2) as a polynomial (total degree 2n)."""
    t, s = _normalised(tuple_)
    return _interpolate(_laplace_family(t), s)
