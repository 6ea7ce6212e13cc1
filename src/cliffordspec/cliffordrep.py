"""Gamma-matrix representations of the Clifford relations.

A rank-d representation is d Hermitian g-by-g matrices, g = 2^floor(d/2),
with gamma_j^2 = I and gamma_j gamma_k = -gamma_k gamma_j for j != k.
``standard_rep`` returns the fixed conventional choices for d <= 4 (the
d = 4 choice is block off-diagonal, which enables the reduced localizer);
``generated_rep`` covers every d via the usual tensor-product ladder.
All representations are exact-kind, so the relations can be checked with
no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .matrices import (
    FLOAT,
    dagger,
    exact_eye,
    exact_matrix,
    exact_zeros,
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


# Pauli matrices, exact kind; read-only, like every matrix of STANDARD_REPS.
SIGMA_X, SIGMA_Y, SIGMA_Z, EYE_2 = read_only(
    exact_matrix([[0, 1], [1, 0]]),
    exact_matrix([[(0, 0), (0, -1)], [(0, 1), (0, 0)]]),
    exact_matrix([[1, 0], [0, -1]]),
    exact_eye(2),
)


def gamma_size(d: int) -> int:
    return 2 ** (d // 2)


@dataclass(frozen=True, eq=False)
class GammaRep:
    """d anticommuting Hermitian involutions, optionally with the
    upper-right blocks when every gamma is block off-diagonal.

    ``float_gammas`` and ``float_off_diagonal_blocks`` are read-only
    complex128 images of both, formed once with the representation, so that
    a float localizer reads them instead of converting."""

    gammas: tuple
    off_diagonal_blocks: tuple | None = None
    float_gammas: tuple = field(init=False, repr=False)
    float_off_diagonal_blocks: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        blocks = self.off_diagonal_blocks
        object.__setattr__(self, "float_gammas", read_only(*map(to_float, self.gammas)))
        object.__setattr__(
            self,
            "float_off_diagonal_blocks",
            None if blocks is None else read_only(*map(to_float, blocks)),
        )

    @property
    def d(self) -> int:
        return len(self.gammas)

    @property
    def g(self) -> int:
        return self.gammas[0].shape[0]

    def as_float(self) -> tuple:
        """The gammas as float matrices: the shared read-only images."""
        return self.float_gammas


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
    """[[0, B], [B*, 0]] as an exact matrix."""
    zero = exact_zeros(block.shape)
    return np.block([[zero, block], [dagger(block), zero]])


# upper-right blocks of the conventional block off-diagonal d = 4 choice;
# the second block carries a minus sign (the published 4x4 matrices are
# authoritative, and their reduced determinants match the tabulated torus
# polynomials only with this orientation)
_I = GaussianRational(0, 1)
_BLOCKS_4 = read_only(_I * SIGMA_X, -_I * SIGMA_Y, _I * SIGMA_Z, exact_eye(2))

# the fixed conventional representations for d = 1..4, built once; every
# matrix is read-only, since each call of standard_rep shares them
STANDARD_REPS = {
    1: GammaRep(read_only(exact_matrix([[1]]))),
    2: GammaRep((SIGMA_X, SIGMA_Y)),
    3: GammaRep((SIGMA_X, SIGMA_Y, SIGMA_Z)),
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


def generated_rep(d: int) -> GammaRep:
    """Tensor-product construction valid for every d >= 1."""
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
    return GammaRep(tuple(gammas))


def rep_for(d: int) -> GammaRep:
    """Standard choice when available, generated otherwise."""
    return standard_rep(d) if d <= 4 else generated_rep(d)


def validate(rep: GammaRep, float_tol: float = REP_RELATION_TOL) -> RelationReport:
    """Check Hermiticity, involution, and pairwise anticommutation.

    Exact representations must satisfy every relation with no tolerance;
    float ones are allowed `float_tol` of roundoff.
    """
    bad = []
    kind = kind_of(rep.gammas[0])
    cut = float_tol if kind == FLOAT else 0.0
    unit = eye(rep.g, kind)
    for j, gm in enumerate(rep.gammas):
        h = max_abs(gm - dagger(gm))
        if h > cut:
            bad.append(RelationViolation("hermitian", (j,), h))
        s = max_abs(matmul(gm, gm) - unit)
        if s > cut:
            bad.append(RelationViolation("involution", (j,), s))
    for j in range(rep.d):
        for k in range(j + 1, rep.d):
            a = matmul(rep.gammas[j], rep.gammas[k]) + matmul(rep.gammas[k], rep.gammas[j])
            m = max_abs(a)
            if m > cut:
                bad.append(RelationViolation("anticommutation", (j, k), m))
    if rep.off_diagonal_blocks is not None and kind != FLOAT:
        for j, (gm, blk) in enumerate(zip(rep.gammas, rep.off_diagonal_blocks)):
            m = max_abs(gm - _embed_off_diagonal(blk))
            if m:
                bad.append(RelationViolation("off_diagonal_split", (j,), m))
    return RelationReport(tuple(bad))
