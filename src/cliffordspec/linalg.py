"""Dense matrix kernels: eigendecomposition, determinants, signature,
smallest eigenvalue magnitude, Pfaffians, operator norm.

The exact determinant uses fraction-free Bareiss elimination.  Entries are
first scaled to Gaussian integers (one lcm of all denominators), so the
elimination runs on plain Python integer pairs; Bareiss guarantees every
interior division is exact.  It serves single matrices: exact
characteristic polynomials take their node determinants from a batched
multi-modular kernel in ``charpoly`` and use Bareiss as the independent
held-out validator.  Pfaffians use Parlett-Reid skew tridiagonalization
(Wimmer, ACM TOMS 2012): the float one with partial pivoting, the exact one
in Gaussian-rational arithmetic, pivoting on the first nonzero entry below
the diagonal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ContractError, SingularAtTolerance
from .matrices import (
    EXACT,
    FLOAT,
    defect_exceeds,
    gaussian_form,
    kind_of,
    require_hermitian,
    to_float,
)
from .scalars import GaussianRational
from .tolerances import SINGULAR_RTOL, SKEW_RTOL


def _singular_tolerance(norm: float) -> float:
    """SINGULAR_RTOL * (1 + norm), for the operator norm of the matrix tested."""
    return SINGULAR_RTOL * (1.0 + norm)


def default_tolerance(m: np.ndarray) -> float:
    """Shared singularity tolerance: SINGULAR_RTOL * (1 + operator norm)."""
    return _singular_tolerance(operator_norm(m))


def hermitian_eigen(m: np.ndarray):
    """Eigenvalues (ascending, real) and unitary eigenvectors of a float
    Hermitian matrix."""
    if kind_of(m) != FLOAT:
        raise ContractError("hermitian_eigen needs a float-kind matrix")
    if m.shape[0] != m.shape[1]:
        raise ContractError("hermitian_eigen needs a square matrix")
    require_hermitian(m)
    return np.linalg.eigh(m)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    if kind_of(m) != FLOAT:
        raise ContractError("eigenvalues need a float-kind matrix")
    require_hermitian(m)
    return np.linalg.eigvalsh(m)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value.  Exact input is converted to float first."""
    mf = to_float(m)
    if mf.size == 0:
        return 0.0
    return float(np.linalg.norm(mf, 2))


def smallest_eigen_magnitude(m: np.ndarray) -> float:
    """min |eigenvalue| of a Hermitian matrix; 0 signals singularity."""
    return float(np.min(np.abs(hermitian_eigenvalues(m))))


def signature_gap(m: np.ndarray, tol: float | None = None) -> tuple:
    """(signature, gap): the number of eigenvalues above tol minus the number
    below -tol, and the smallest eigenvalue magnitude.  tol defaults to
    default_tolerance(m).

    Raises SingularAtTolerance if the gap is <= tol, since the signature
    (and hence the index) is undefined there.
    """
    return eigenvalue_signature_gap(hermitian_eigenvalues(m), tol)


def eigenvalue_signature_gap(eigs: np.ndarray, tol: float | None = None) -> tuple:
    """:func:`signature_gap` of a Hermitian matrix with eigenvalues eigs."""
    magnitudes = np.abs(eigs)
    if tol is None:
        # default_tolerance(m), with ||m||_2 = max |eigenvalue| for Hermitian m
        tol = _singular_tolerance(float(np.max(magnitudes)))
    gap = float(np.min(magnitudes))
    if gap <= tol:
        raise SingularAtTolerance(gap, tol)
    return int(np.sum(eigs > tol) - np.sum(eigs < -tol)), gap


def signature(m: np.ndarray, tol: float | None = None) -> int:
    """Number of eigenvalues above tol minus number below -tol
    (:func:`signature_gap`)."""
    return signature_gap(m, tol)[0]


# ---------------------------------------------------------------------------
# determinants


def _gaussian_int_bareiss(a_re, a_im, n):
    """Fraction-free elimination over Gaussian integers; returns det as an
    (re, im) integer pair.  Mutates its inputs."""
    sign = 1
    prev_re, prev_im, prev_norm = 1, 0, 1
    for k in range(n - 1):
        if a_re[k][k] == 0 and a_im[k][k] == 0:
            for r in range(k + 1, n):
                if a_re[r][k] != 0 or a_im[r][k] != 0:
                    a_re[k], a_re[r] = a_re[r], a_re[k]
                    a_im[k], a_im[r] = a_im[r], a_im[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        pr = a_re[k][k]
        pi = a_im[k][k]
        rk_re = a_re[k]
        rk_im = a_im[k]
        trivial_prev = prev_norm == 1 and prev_re == 1
        for i in range(k + 1, n):
            ri_re = a_re[i]
            ri_im = a_im[i]
            lr = ri_re[k]
            li = ri_im[k]
            for j in range(k + 1, n):
                xr = ri_re[j] * pr - ri_im[j] * pi - (lr * rk_re[j] - li * rk_im[j])
                xi = ri_re[j] * pi + ri_im[j] * pr - (lr * rk_im[j] + li * rk_re[j])
                if trivial_prev:
                    ri_re[j] = xr
                    ri_im[j] = xi
                else:
                    ri_re[j] = (xr * prev_re + xi * prev_im) // prev_norm
                    ri_im[j] = (xi * prev_re - xr * prev_im) // prev_norm
            ri_re[k] = 0
            ri_im[k] = 0
        prev_re, prev_im = pr, pi
        prev_norm = pr * pr + pi * pi
    return sign * a_re[n - 1][n - 1], sign * a_im[n - 1][n - 1]


def exact_determinant(m: np.ndarray) -> GaussianRational:
    if m.shape[0] != m.shape[1]:
        raise ContractError("determinant needs a square matrix")
    n = m.shape[0]
    if n == 0:
        return GaussianRational(1)
    den, re, im = gaussian_form((m,))
    dr, di = _gaussian_int_bareiss(re[0].tolist(), im[0].tolist(), n)
    scale = Fraction(1, den**n)
    return GaussianRational(dr * scale, di * scale)


def determinant(m: np.ndarray):
    """Determinant: Bareiss (exact kind) or pivoted LU (float kind)."""
    if m.shape[0] != m.shape[1]:
        raise ContractError("determinant needs a square matrix")
    if kind_of(m) == EXACT:
        return exact_determinant(m)
    return complex(np.linalg.det(m))


# ---------------------------------------------------------------------------
# Pfaffians


def _require_skew(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ContractError("pfaffian needs an even-sided square matrix")
    if defect_exceeds(m + m.T, m, SKEW_RTOL):
        raise ContractError("matrix is not skew-symmetric")


def _exact_pfaffian(m: np.ndarray) -> GaussianRational:
    """Pf of an exact skew matrix by Parlett-Reid elimination in exact
    arithmetic, pivoting on the first nonzero entry below the diagonal; a
    column with none makes the matrix singular."""
    a, n = m.copy(), m.shape[0]
    pf = GaussianRational(1)
    for k in range(0, n - 1, 2):
        below = np.flatnonzero(a[k + 1 :, k])
        if not below.size:
            return GaussianRational(0)
        p = k + 1 + below[0]
        if p != k + 1:
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        pf = pf * a[k, k + 1]
        tau = a[k + 2 :, k] / a[k + 1, k]
        col = a[k + 2 :, k + 1]
        a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def _pfaffian_parlett_reid(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a (B, n, n) complex skew stack by Parlett-Reid with partial
    pivoting, overwriting the stack.  The product is kept in real and imaginary
    parts: numpy's complex array multiply can differ in the last bit from the
    scalar one.  Members with a zero pivot get 0 and divide by 1 from then on."""
    b, n = a.shape[0], a.shape[1]
    members = np.arange(b)
    re, im = np.ones(b), np.zeros(b)
    singular = np.zeros(b, dtype=bool)
    for k in range(0, n - 1, 2):
        pivot_row = k + 1 + np.argmax(np.abs(a[:, k + 1 :, k]), axis=1)
        swap = pivot_row != k + 1
        if swap.any():
            a[members, pivot_row], a[:, k + 1] = a[:, k + 1].copy(), a[members, pivot_row]
            a[members, :, pivot_row], a[..., k + 1] = a[..., k + 1].copy(), a[members, :, pivot_row]
            np.negative(re, out=re, where=swap)
            np.negative(im, out=im, where=swap)
        pivot = a[:, k + 1, k]
        singular |= pivot == 0
        top_re, top_im = a[:, k, k + 1].real, a[:, k, k + 1].imag
        re, im = re * top_re - im * top_im, re * top_im + im * top_re
        if k + 2 < n:
            tau = a[:, k + 2 :, k] / np.where(singular, 1.0, pivot)[:, None]
            col = a[:, k + 2 :, k + 1].copy()
            update = tau[:, :, None] * col[:, None, :]
            update -= col[:, :, None] * tau[:, None, :]
            a[:, k + 2 :, k + 2 :] += update
    out = re.astype(complex)
    out.imag = im
    out[singular] = 0.0
    return out


def pfaffian(m: np.ndarray):
    """Pfaffian of a skew-symmetric even-sided matrix; Pf(M)^2 = det(M)."""
    _require_skew(m)
    if kind_of(m) == EXACT:
        return _exact_pfaffian(m)
    return complex(_pfaffian_parlett_reid(np.array(m, dtype=complex)[None])[0])
