"""Dense matrix kernels: eigendecomposition, determinants, signature,
smallest eigenvalue magnitude, Pfaffians, operator norm.

The exact kernels eliminate fraction-free on one (2, n, n) object array of
Python ints, real parts first: den times the matrix, den the lcm of its
entry denominators (``matrices.gaussian_form``).  The determinant is
Bareiss elimination (Math. Comp. 1968), the Pfaffian its analogue on pivot
pairs; in both, a new entry is the pivot times the old one less products of
entries in the pivot rows, divided exactly by the previous pivot, in one
shared Gaussian-integer step.  Bareiss serves single matrices: exact
characteristic polynomials take their node determinants from a batched
multi-modular kernel in ``charpoly`` and use Bareiss as the independent
held-out validator.  The float Pfaffian is Parlett-Reid skew
tridiagonalization with partial pivoting (Wimmer, ACM TOMS 2012).
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


def _eliminate(pivot, block, left, right, prev) -> tuple:
    """(pivot block - left @ right) / prev as an (re, im) pair, for Gaussian
    integers held as (2, ...) arrays, real parts first, and a division the
    caller knows to be exact: x / prev = (x conj(prev)) // |prev|^2."""
    (pr, pi), (b0, b1), (l0, l1), (r0, r1), (qr, qi) = pivot, block, left, right, prev
    x0 = pr * b0 - pi * b1 - l0 @ r0 + l1 @ r1
    x1 = pr * b1 + pi * b0 - l0 @ r1 - l1 @ r0
    norm = qr * qr + qi * qi
    return (x0 * qr + x1 * qi) // norm, (x1 * qr - x0 * qi) // norm


def _gaussian_int_bareiss(a: np.ndarray) -> tuple:
    """det(a[0] + i a[1]) as an (re, im) pair of ints, overwriting a: step k
    replaces the trailing block by (pivot block - column row) / previous
    pivot (Bareiss), and the last pivot is det."""
    n = a.shape[1]
    sign, prev = 1, np.array([1, 0], dtype=object)
    for k in range(n):
        if not (a[0, k, k] or a[1, k, k]):
            rows = np.flatnonzero((a[:, k:, k] != 0).any(axis=0))
            if not rows.size:
                return 0, 0
            a[:, [k, k + rows[0]]] = a[:, [k + rows[0], k]]
            sign = -sign
        pivot, column, row = a[:, k, k], a[:, k + 1 :, k, None], a[:, k, None, k + 1 :]
        a[:, k + 1 :, k + 1 :] = _eliminate(pivot, a[:, k + 1 :, k + 1 :], column, row, prev)
        prev = pivot
    return tuple(sign * prev)


def exact_determinant(m: np.ndarray) -> GaussianRational:
    if m.shape[0] != m.shape[1]:
        raise ContractError("determinant needs a square matrix")
    den, *parts = gaussian_form((m,))
    det = _gaussian_int_bareiss(np.concatenate(parts))
    return GaussianRational(*det) * Fraction(1, den ** len(m))


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


def _exact_pfaffian(den: int, a: np.ndarray) -> GaussianRational:
    """Pf((a[0] + i a[1]) / den) of a skew matrix, overwriting a.  A zero
    pivot a[k, k + 1] swaps index k + 1 with the first j where a[k, j] is
    nonzero, in rows and columns, and flips the sign; with none, Pf = 0.
    Step k sets a[i, j], i, j >= k + 2, to the Pfaffian of rows and columns
    {0..k + 1, i, j} of the input, (pivot a[i, j] - a[k, i] a[k + 1, j] +
    a[k, j] a[k + 1, i]) / previous pivot by the Pfaffian form of Sylvester's
    identity (Knuth, Electron. J. Combin. 1996); the last pivot is den^(n/2) Pf."""
    n = a.shape[1]
    sign, prev = 1, np.array([1, 0], dtype=object)
    for k in range(0, n, 2):
        if not (a[0, k, k + 1] or a[1, k, k + 1]):
            cols = np.flatnonzero((a[:, k, k + 1 :] != 0).any(axis=0))
            if not cols.size:
                return GaussianRational(0)
            j = k + 1 + cols[0]
            a[:, [k + 1, j]] = a[:, [j, k + 1]]
            a[:, :, [k + 1, j]] = a[:, :, [j, k + 1]]
            sign = -sign
        pivot, u, w = a[:, k, k + 1], a[:, k, k + 2 :], a[:, k + 1, k + 2 :]
        # u_i w_j - w_i u_j as (u_i, w_i) @ (w_j, -u_j)
        left, right = np.stack([u, w], axis=-1), np.stack([w, -u], axis=1)
        a[:, k + 2 :, k + 2 :] = _eliminate(pivot, a[:, k + 2 :, k + 2 :], left, right, prev)
        prev = pivot
    return GaussianRational(*prev) * Fraction(sign, den ** (n // 2))


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
        den, *parts = gaussian_form((m,))
        return _exact_pfaffian(den, np.concatenate(parts))
    return complex(_pfaffian_parlett_reid(np.array(m, dtype=complex)[None])[0])
