"""Topological invariants read off the localizer.

* half-signature index for triples, defined off the joint spectrum;
* the quaternionic dual operation and the archetypal (Pfaffian) polynomial
  for self-dual Hermitian triples, whose sign is a Z_2 invariant where the
  ordinary index vanishes;
* a graded half-signature for 4-tuples split into even/odd matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffordrep import standard_rep
from .errors import ContractError, SingularAtTolerance, SymmetryError
from .linalg import (
    default_tolerance,
    hermitian_eigenvalues,
    pfaffian,
    smallest_eigen_magnitude,
)
from .localizer import build, build_reduced
from .matrices import (
    EXACT,
    FLOAT,
    HermitianTuple,
    dagger,
    exact_zeros,
    kind_of,
    kron,
    matmul,
    max_abs,
    to_float,
)
from .scalars import GaussianRational
from .tolerances import FLAG_RTOL, GRADED_HERMITIAN_RTOL, SKEW_CHECK_RTOL


@dataclass(frozen=True)
class IndexReport:
    lam: tuple
    kind: str  # "half-signature" | "archetypal-sign" | "graded-half-signature"
    value: int
    gap: float


@dataclass(frozen=True)
class FlagResult:
    matrix_index: int
    flag: str
    ok: bool
    violation: float


@dataclass(frozen=True)
class SymmetryReport:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if not r.ok]


@dataclass(frozen=True, eq=False)
class SymmetryProfile:
    """Per-matrix symmetry flags; each entry is a set drawn from
    {"symmetric", "anti-symmetric", "self-dual", "even", "odd"}."""

    flags: tuple
    grading: np.ndarray | None = None


def _gap_tolerance(loc_matrix: np.ndarray, tol: float | None) -> float:
    return default_tolerance(loc_matrix) if tol is None else tol


def index(tuple_: HermitianTuple, lam, tol: float | None = None) -> IndexReport:
    """Half the signature of L_lambda for a triple, off the spectrum."""
    if tuple_.d != 3:
        raise ContractError("the half-signature index is defined for d = 3")
    loc = build(tuple_.as_float(), standard_rep(3), lam)
    eigs = hermitian_eigenvalues(loc.matrix)
    gap = float(np.min(np.abs(eigs)))
    t = _gap_tolerance(loc.matrix, tol)
    if gap <= t:
        raise SingularAtTolerance(gap, t)
    sig = int(np.sum(eigs > t) - np.sum(eigs < -t))
    if sig % 2:
        raise ArithmeticError(f"odd localizer signature {sig}: numerical failure")
    return IndexReport(tuple(float(v) for v in lam), "half-signature", sig // 2, gap)


def index_along_path(
    tuple_: HermitianTuple, waypoints, samples_per_segment: int = 64, tol=None
) -> list:
    """Index at evenly spaced points along a polyline of lambda waypoints.

    Raises SingularAtTolerance if any sample point touches the spectrum,
    since index comparison across such a crossing is meaningless.
    """
    pts = [np.asarray(w, dtype=float) for w in waypoints]
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        for k in range(samples_per_segment + 1):
            lam = a + (b - a) * (k / samples_per_segment)
            out.append(index(tuple_, lam, tol))
    return out


def dual(m: np.ndarray) -> np.ndarray:
    """Block transpose [[A,B],[C,D]] -> [[D^T, -B^T],[-C^T, A^T]]."""
    side = m.shape[0]
    if m.shape[0] != m.shape[1] or side % 2:
        raise ContractError("the dual operation needs an even-sided matrix")
    n = side // 2
    a, b = m[:n, :n], m[:n, n:]
    c, d = m[n:, :n], m[n:, n:]
    if kind_of(m) == FLOAT:
        out = np.empty_like(m)
    else:
        out = np.empty(m.shape, dtype=object)
    out[:n, :n] = d.T
    out[:n, n:] = -b.T
    out[n:, :n] = -c.T
    out[n:, n:] = a.T
    return out


def _check_flag(m: np.ndarray, flag: str, grading) -> float:
    if flag == "symmetric":
        return max_abs(m - m.T)
    if flag == "anti-symmetric":
        return max_abs(m + m.T)
    if flag == "self-dual":
        return max_abs(m - dual(m))
    if flag in ("even", "odd"):
        if grading is None:
            raise ContractError("even/odd flags need a grading matrix")
        g = grading if kind_of(grading) == kind_of(m) else (
            to_float(grading) if kind_of(m) == FLOAT else grading
        )
        mg = matmul(m, g)
        gm = matmul(g, m)
        return max_abs(mg - gm) if flag == "even" else max_abs(mg + gm)
    raise ContractError(f"unknown symmetry flag {flag!r}")


def validate_symmetry(tuple_: HermitianTuple, profile: SymmetryProfile) -> SymmetryReport:
    """Check each asserted flag; exact matrices must satisfy them exactly."""
    if len(profile.flags) != tuple_.d:
        raise ContractError("profile must carry one flag set per matrix")
    results = []
    for k, (m, flags) in enumerate(zip(tuple_.matrices, profile.flags)):
        scale = max_abs(m) or 1.0
        for flag in sorted(flags):
            v = _check_flag(m, flag, profile.grading)
            ok = v == 0.0 if tuple_.kind == EXACT else v <= FLAG_RTOL * scale
            results.append(FlagResult(k, flag, ok, v))
    return SymmetryReport(tuple(results))


def require_self_dual_triple(tuple_: HermitianTuple) -> None:
    if tuple_.d != 3:
        raise SymmetryError("self-dual machinery needs a triple")
    profile = SymmetryProfile((frozenset({"self-dual"}),) * 3)
    report = validate_symmetry(tuple_, profile)
    if not report.ok:
        bad = report.failures()[0]
        raise SymmetryError(
            f"matrix {bad.matrix_index} violates self-duality by {bad.violation:.3e}"
        )


def _conjugation_unitary(n2: int, kind: str) -> np.ndarray:
    """Q = [[I, -iZ], [iZ, I]] with Z = [[0, I], [-I, 0]] of side n2."""
    if n2 % 2:
        raise ContractError("self-dual matrices must have even side")
    half = n2 // 2
    if kind == EXACT:
        q = exact_zeros((2 * n2, 2 * n2))
        one = GaussianRational(1)
        i = GaussianRational(0, 1)
        for k in range(n2):
            q[k, k] = one
            q[n2 + k, n2 + k] = one
        for k in range(half):
            # -i Z block (rows 0..n2-1, cols n2..2n2-1)
            q[k, n2 + half + k] = -i
            q[half + k, n2 + k] = i
            # +i Z block (rows n2.., cols 0..)
            q[n2 + k, half + k] = i
            q[n2 + half + k, k] = -i
        return q
    q = np.zeros((2 * n2, 2 * n2), dtype=complex)
    eye = np.eye(half)
    z = np.block([[np.zeros((half, half)), eye], [-eye, np.zeros((half, half))]])
    q[:n2, :n2] = np.eye(n2)
    q[n2:, n2:] = np.eye(n2)
    q[:n2, n2:] = -1j * z
    q[n2:, :n2] = 1j * z
    return q


def archetypal(tuple_: HermitianTuple, lam):
    """Pf((1/2) Q* L_lambda Q): a real square root of det(L_lambda) on
    self-dual Hermitian triples."""
    require_self_dual_triple(tuple_)
    loc = build(tuple_, standard_rep(3), lam)
    n2 = tuple_.n
    q = _conjugation_unitary(n2, tuple_.kind)
    conj = matmul(dagger(q), matmul(loc.matrix, q))
    if tuple_.kind == EXACT:
        half = GaussianRational(1, 0) / 2
        skew = half * conj
        value = pfaffian(skew)  # raises if not exactly skew
        if value.im:
            raise ArithmeticError("archetypal value has nonzero imaginary part")
        return value
    skew = 0.5 * conj
    scale = float(np.max(np.abs(skew))) or 1.0
    if float(np.max(np.abs(skew + skew.T))) > SKEW_CHECK_RTOL * scale:
        raise SymmetryError("conjugated localizer is not skew-symmetric")
    value = pfaffian(skew)
    if abs(value.imag) > SKEW_CHECK_RTOL * max(1.0, abs(value)):
        raise ArithmeticError("archetypal value has a large imaginary part")
    return float(value.real)


def archetypal_sign(tuple_: HermitianTuple, lam, tol: float | None = None) -> IndexReport:
    """Z_2 invariant: the sign of the archetypal value, off the spectrum."""
    ft = tuple_.as_float()
    loc = build(ft, standard_rep(3), lam)
    gap = smallest_eigen_magnitude(loc.matrix)
    t = _gap_tolerance(loc.matrix, tol)
    if gap <= t:
        raise SingularAtTolerance(gap, t)
    value = archetypal(ft, [float(v) for v in lam])
    return IndexReport(
        tuple(float(v) for v in lam),
        "archetypal-sign",
        1 if value > 0 else -1,
        gap,
    )


def _grading_default(n: int, kind: str):
    from .gallery import even_odd_grading

    g = even_odd_grading(n)
    return g if kind == EXACT else to_float(g)


def graded_index(
    tuple_: HermitianTuple,
    lam,
    grading: np.ndarray | None = None,
    tol: float | None = None,
) -> IndexReport:
    """Half signature of i * L_reduced * (grading (x) I_2) for 4-tuples with
    X1..X3 even and X4 odd; defined only on the lambda_4 = 0 hyperplane."""
    if tuple_.d != 4:
        raise ContractError("the graded index needs a 4-tuple")
    if len(lam) != 4:
        raise ContractError("lambda must have length 4")
    if float(lam[3]) != 0.0:
        raise SymmetryError("the graded index is defined only at lambda_4 = 0")
    grading = _grading_default(tuple_.n, tuple_.kind) if grading is None else grading
    profile = SymmetryProfile(
        (
            frozenset({"even"}),
            frozenset({"even"}),
            frozenset({"even"}),
            frozenset({"odd"}),
        ),
        grading=grading,
    )
    report = validate_symmetry(tuple_, profile)
    if not report.ok:
        bad = report.failures()[0]
        raise SymmetryError(
            f"matrix {bad.matrix_index} violates the {bad.flag} grading "
            f"by {bad.violation:.3e}"
        )
    ft = tuple_.as_float()
    red = build_reduced(ft, [float(v) for v in lam])
    eye2 = np.eye(2, dtype=complex)
    gamma_block = kron(to_float(grading) if kind_of(grading) == EXACT else grading, eye2)
    # adjoint (lower-left) block orientation: the published index values
    # are normalized against this block, the tabulated polynomials against
    # the other; the two give opposite half-signatures
    herm = 1j * (red.matrix.conj().T @ gamma_block)
    scale = float(np.max(np.abs(herm))) or 1.0
    if float(np.max(np.abs(herm - herm.conj().T))) > GRADED_HERMITIAN_RTOL * scale:
        raise SymmetryError("graded localizer is not Hermitian; grading invalid")
    herm = 0.5 * (herm + herm.conj().T)
    t = _gap_tolerance(herm, tol)
    eigs = np.linalg.eigvalsh(herm)
    gap = float(np.min(np.abs(eigs)))
    if gap <= t:
        raise SingularAtTolerance(gap, t)
    sig = int(np.sum(eigs > t) - np.sum(eigs < -t))
    if sig % 2:
        raise ArithmeticError(f"odd graded signature {sig}: numerical failure")
    return IndexReport(
        tuple(float(v) for v in lam), "graded-half-signature", sig // 2, gap
    )
