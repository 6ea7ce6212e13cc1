"""Near-kernel vectors of the localizer and variance certificates.

A unit vector z with ||L_lambda z|| = eps yields, by taking the largest of
its g blocks, a unit vector w whose per-matrix variances and expectation
offsets are bounded by eps plus g times the sum of commutator norms.  The
certificate records both sides of that inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffordrep import GammaRep, rep_for
from .errors import ContractError
from .linalg import hermitian_eigen, operator_norm
from .localizer import Localizer, build
from .matrices import HermitianTuple, commutator, to_float
from .tolerances import UNIT_TOL


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


def expectation_variance(x: np.ndarray, v: np.ndarray):
    """(E, Var) of a Hermitian matrix in the state v (a unit vector)."""
    xf = to_float(x)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ContractError("state vector must have unit norm")
    xv = xf @ v
    e = float(np.real(np.vdot(v, xv)))
    var = float(np.real(np.vdot(xv, xv))) - e * e
    if var < -UNIT_TOL:
        raise ContractError(f"negative variance {var:.3e}: input not Hermitian?")
    return e, max(var, 0.0)


def near_kernel(loc: Localizer):
    """Unit eigenvector of L for its smallest-magnitude eigenvalue, and
    that magnitude (the distance epsilon into the pseudospectrum)."""
    eigs, vecs = hermitian_eigen(to_float(loc.matrix))
    k = int(np.argmin(np.abs(eigs)))
    return vecs[:, k].copy(), float(abs(eigs[k]))


def extract_w(z: np.ndarray, g: int, n: int) -> np.ndarray:
    """Largest of the g consecutive length-n blocks of z, normalized.

    The selected block always has norm >= 1/sqrt(g) (pigeonhole); ties go
    to the lowest block index.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.size != g * n:
        raise ContractError(f"vector length {z.size} is not g*n = {g * n}")
    if abs(np.linalg.norm(z) - 1.0) > UNIT_TOL:
        raise ContractError("near-kernel vector must have unit norm")
    blocks = z.reshape(g, n)
    norms = np.linalg.norm(blocks, axis=1)
    r = int(np.argmax(norms))
    if norms[r] < 1.0 / np.sqrt(g) - UNIT_TOL:
        raise ArithmeticError("selected block norm below 1/sqrt(g)")
    return blocks[r] / norms[r]


def commutator_norm_sum(tuple_: HermitianTuple) -> float:
    ft = tuple_.as_float()
    total = 0.0
    for j in range(ft.d):
        for k in range(j + 1, ft.d):
            total += operator_norm(commutator(ft.matrices[j], ft.matrices[k]))
    return total


def certificate(
    tuple_: HermitianTuple, rep: GammaRep | None = None, lam=None
) -> VarianceCertificate:
    """Variance certificate at lambda.

    lhs = sum_j Var(X_j)_w + |E(X_j)_w - lambda_j|^2 is compared against
    rhs = eps + g * sum_{j<k} ||[X_j, X_k]||.  Near the spectrum (eps
    small) the inequality is guaranteed; the certificate reports whichever
    way it lands.
    """
    ft = tuple_.as_float()
    if rep is None:
        rep = rep_for(ft.d)
    loc = build(ft, rep, lam)
    lam = loc.lam
    z, eps = near_kernel(loc)
    w = extract_w(z, rep.g, ft.n)
    expectations = []
    variances = []
    lhs = 0.0
    for j, x in enumerate(ft.matrices):
        e, var = expectation_variance(x, w)
        expectations.append(e)
        variances.append(var)
        lhs += var + (e - lam[j]) ** 2
    rhs = eps + rep.g * commutator_norm_sum(ft)
    return VarianceCertificate(
        lam=lam,
        epsilon=eps,
        w=w,
        expectations=tuple(expectations),
        variances=tuple(variances),
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(lhs <= rhs),
    )
