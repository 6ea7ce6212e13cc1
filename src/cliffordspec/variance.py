"""Near-kernel vectors of the localizer and variance certificates.

A unit vector z with ||L_lambda z|| = eps, L_lambda in rep_for(d), yields,
by taking the largest of its g blocks (g = 2^floor(d/2), the localizer's
side over n), a unit vector w whose per-matrix variances and expectation
offsets are bounded by eps plus g times the sum of commutator norms.  The
certificate records both sides of that inequality.

A certificate takes one factorisation at lambda, of a pencil the tuple
holds, and one product of w with its held matrix stack for every (E, Var).
For d = 4, L_lambda = [[0, R], [R*, 0]] in rep_for(4), R = R_lambda of half
the side: one SVD, R v = sigma u, gives eps = sigma_min and L z = sigma z for
z = (u; v) / sqrt(2); w, E and Var do not depend on the sign or phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .linalg import hermitian_eigen, operator_norm
from .localizer import Localizer, Pencil, _coerce_lambda
from .matrices import HermitianTuple, commutator, read_only, to_float
from .tolerances import UNIT_TOL, VARIANCE_RTOL


@dataclass(frozen=True, eq=False)
class VarianceCertificate:
    lam: tuple
    epsilon: float
    w: np.ndarray
    expectations: tuple
    variances: tuple
    lhs: float
    rhs: float
    holds: bool


def _moments(stack: np.ndarray, v: np.ndarray) -> tuple:
    """(E, Var) arrays of each Hermitian X of a (k, n, n) stack in the unit state
    v.  ||Xv||^2 >= <v, Xv>^2 for any X (Cauchy-Schwarz), so a negative Var is
    rounding, clamped at 0, and one below -VARIANCE_RTOL * max(1, ||Xv||^2) a fault."""
    xv = stack @ v
    e = (xv @ v.conj()).real
    squares = (xv.conj() * xv).real.sum(axis=1)
    var = squares - e * e
    low = var < -VARIANCE_RTOL * np.maximum(1.0, squares)
    if low.any():
        raise ArithmeticError(f"negative variance {var[low][0]:.3e} beyond rounding")
    return e, np.maximum(var, 0.0)


def expectation_variance(x: np.ndarray, v: np.ndarray):
    """(E, Var) of a Hermitian matrix in the state v (a unit vector)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if x.shape != (len(v), len(v)):
        raise ContractError(f"state vector length {len(v)} does not fit matrix shape {x.shape}")
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
        raise ContractError("state vector must have unit norm")
    e, var = _moments(to_float(x)[None], v)
    return float(e[0]), float(var[0])


def _least_eigenpair(eigs: np.ndarray, vecs: np.ndarray) -> tuple:
    k = int(np.argmin(np.abs(eigs)))
    return vecs[:, k].copy(), float(abs(eigs[k]))


def near_kernel(loc: Localizer):
    """Unit eigenvector of L for its smallest-magnitude eigenvalue, and
    that magnitude (the distance epsilon into the pseudospectrum)."""
    return _least_eigenpair(*hermitian_eigen(to_float(loc.matrix)))


def _largest_block(z: np.ndarray, g: int, n: int) -> np.ndarray:
    blocks = z.reshape(g, n)
    norms = np.linalg.norm(blocks, axis=1)
    r = int(np.argmax(norms))
    if norms[r] < 1.0 / np.sqrt(g) - UNIT_TOL:
        raise ArithmeticError("selected block norm below 1/sqrt(g)")
    return blocks[r] / norms[r]


def extract_w(z: np.ndarray, g: int, n: int) -> np.ndarray:
    """Largest of the g consecutive length-n blocks of z, normalized.

    The selected block always has norm >= 1/sqrt(g) (pigeonhole); ties go
    to the lowest block index.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if g < 1 or n < 1 or z.size != g * n:
        raise ContractError(f"vector length {z.size} is not g*n for g = {g}, n = {n} at least 1")
    if not abs(np.linalg.norm(z) - 1.0) <= UNIT_TOL:
        raise ContractError("near-kernel vector must have unit norm")
    return _largest_block(z, g, n)


def commutator_norm_sum(tuple_: HermitianTuple) -> float:
    """sum_{j<k} ||[X_j, X_k]|| in float; certificate reads the held one."""
    x = tuple_.as_float().matrices
    return sum((operator_norm(commutator(a, b)) for j, a in enumerate(x) for b in x[j + 1 :]), 0.0)


def _matrix_stack(tuple_: HermitianTuple) -> np.ndarray:
    return read_only(tuple_.matrices)[0]


def certificate(tuple_: HermitianTuple, lam=None) -> VarianceCertificate:
    """Variance certificate at lambda, of the localizer in rep_for(d).

    lhs = sum_j Var(X_j)_w + |E(X_j)_w - lambda_j|^2 is compared against
    rhs = eps + g * sum_{j<k} ||[X_j, X_k]||.  Near the spectrum (eps
    small) the inequality is guaranteed; the certificate reports whichever
    way it lands.
    """
    ft = tuple_.as_float()
    lam = _coerce_lambda(ft, [0] * ft.d if lam is None else lam)
    # L_lambda is Hermitian at real lam: the tuple's matrices were checked on entry
    if ft.d == 4:
        u, s, vh = np.linalg.svd(Pencil.reduced(ft).at(lam))
        z, eps = np.concatenate([u[:, -1], vh[-1].conj()]) / np.sqrt(2), float(s[-1])
    else:
        z, eps = _least_eigenpair(*np.linalg.eigh(Pencil.localizer(ft).at(lam)))
    g = len(z) // ft.n
    w = _largest_block(z, g, ft.n)
    e, var = _moments(ft._held(_matrix_stack), w)
    lhs = float(np.sum(var + (e - lam) ** 2))
    rhs = eps + g * ft._held(commutator_norm_sum)
    return VarianceCertificate(
        lam=tuple(lam),
        epsilon=eps,
        w=w,
        expectations=tuple(e.tolist()),
        variances=tuple(var.tolist()),
        lhs=lhs,
        rhs=float(rhs),
        holds=bool(lhs <= rhs),
    )
