"""Gamma-matrix representations of the Clifford relations.

A rank-d representation is d Hermitian g-by-g matrices, g = 2^floor(d/2),
with gamma_j^2 = I and gamma_j gamma_k = -gamma_k gamma_j for j != k.
``generated_rep`` covers every d via the usual tensor-product ladder;
``standard_rep`` returns fixed choices for d <= 4, the ladder's for d <= 3
and for d = 4 a block off-diagonal one, which enables the reduced localizer.
``rep_for`` picks one of the two for each d: the only representation any
computation of the package reads.  All representations are exact-kind and
read-only, so the relations can be checked with no tolerance at all; a
float localizer casts their Gaussian-integer form to float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .matrices import (
    dagger,
    defect_exceeds,
    exact_eye,
    exact_matrix,
    eye,
    kind_of,
    kron,
    matmul,
    max_abs,
    read_only,
    to_float,
)
from .scalars import GaussianRational
from .tolerances import REP_RELATION_TOL


# Pauli matrices, exact kind; read-only, like every matrix of a representation.
SIGMA_X, SIGMA_Y, SIGMA_Z, EYE_2 = read_only(
    exact_matrix([[0, 1], [1, 0]]),
    exact_matrix([[(0, 0), (0, -1)], [(0, 1), (0, 0)]]),
    exact_matrix([[1, 0], [0, -1]]),
    exact_eye(2),
)


@dataclass(frozen=True, eq=False)
class GammaRep:
    """d anticommuting Hermitian involutions, optionally with the
    upper-right blocks when every gamma is block off-diagonal."""

    gammas: tuple
    off_diagonal_blocks: tuple | None = None

    @property
    def d(self) -> int:
        return len(self.gammas)

    @property
    def g(self) -> int:
        return self.gammas[0].shape[0]

    def as_float(self) -> tuple:
        """Read-only complex128 images of the gammas, formed on each call; an
        exact entry past the float range raises ContractError naming its gamma."""
        images = []
        for k, m in enumerate(self.gammas):
            try:
                images.append(to_float(m))
            except OverflowError:
                raise ContractError(f"gamma {k} has an entry beyond the float range") from None
        return read_only(*images)


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class RelationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_violation(self) -> float:
        return max((v.magnitude for v in self.violations), default=0.0)


def _embed_off_diagonal(block: np.ndarray) -> np.ndarray:
    """[[0, B], [B*, 0]], of B's kind."""
    zero = 0 * block
    return np.block([[zero, block], [dagger(block), zero]])


def generated_rep(d: int) -> GammaRep:
    """Tensor-product construction valid for every d >= 1, read-only."""
    if d < 1:
        raise ContractError("need d >= 1")
    k = d // 2
    gammas = []
    for j in range(1, k + 1):
        prefix = None
        for _ in range(j - 1):
            prefix = SIGMA_Z if prefix is None else kron(prefix, SIGMA_Z)

        def pad(core, prefix=prefix, tail=k - j):
            m = core if prefix is None else kron(prefix, core)
            for _ in range(tail):
                m = kron(m, EYE_2)
            return m

        gammas.append(pad(SIGMA_X))
        gammas.append(pad(SIGMA_Y))
    if d % 2:
        if k == 0:
            gammas.append(exact_matrix([[1]]))
        else:
            tail = SIGMA_Z
            for _ in range(k - 1):
                tail = kron(tail, SIGMA_Z)
            gammas.append(tail)
    return GammaRep(read_only(*gammas))


# upper-right blocks of the conventional block off-diagonal d = 4 choice;
# the second block carries a minus sign (the published 4x4 matrices are
# authoritative, and their reduced determinants match the tabulated torus
# polynomials only with this orientation)
_I = GaussianRational(0, 1)
_BLOCKS_4 = read_only(_I * SIGMA_X, -_I * SIGMA_Y, _I * SIGMA_Z, exact_eye(2))

# the fixed conventional representations for d = 1..4, built once and shared
# by each call of standard_rep: the ladder's for d <= 3, and for d = 4 the
# block off-diagonal choice
STANDARD_REPS = {
    **{d: generated_rep(d) for d in (1, 2, 3)},
    4: GammaRep(
        read_only(*(_embed_off_diagonal(b) for b in _BLOCKS_4)),
        off_diagonal_blocks=_BLOCKS_4,
    ),
}


def standard_rep(d: int) -> GammaRep:
    """The fixed conventional representation for d in 1..4."""
    if d in STANDARD_REPS:
        return STANDARD_REPS[d]
    raise ContractError("standard_rep covers d in 1..4; use generated_rep")


def rep_for(d: int) -> GammaRep:
    """Standard choice when available, generated otherwise."""
    return standard_rep(d) if d <= 4 else generated_rep(d)


def validate(rep: GammaRep) -> RelationReport:
    """Check Hermiticity, involution, pairwise anticommutation and the
    off-diagonal split by ``matrices.defect_exceeds``: exactly, or with
    REP_RELATION_TOL of roundoff (against max |I| = 1) for float gammas."""
    unit = eye(rep.g, kind_of(rep.gammas[0]))
    defects = []
    for j, gm in enumerate(rep.gammas):
        defects.append(("hermitian", (j,), gm - dagger(gm)))
        defects.append(("involution", (j,), matmul(gm, gm) - unit))
    for j in range(rep.d):
        for k in range(j + 1, rep.d):
            a = matmul(rep.gammas[j], rep.gammas[k]) + matmul(rep.gammas[k], rep.gammas[j])
            defects.append(("anticommutation", (j, k), a))
    if rep.off_diagonal_blocks is not None:
        for j, (gm, blk) in enumerate(zip(rep.gammas, rep.off_diagonal_blocks)):
            defects.append(("off_diagonal_split", (j,), gm - _embed_off_diagonal(blk)))
    bad = [(r, ix, x) for r, ix, x in defects if defect_exceeds(x, unit, REP_RELATION_TOL)]
    return RelationReport(tuple(RelationViolation(r, ix, max_abs(x)) for r, ix, x in bad))
