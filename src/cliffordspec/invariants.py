"""Topological invariants read off the localizer.

* half-signature index for triples, defined off the joint spectrum;
* the quaternionic dual operation and the archetypal (Pfaffian) polynomial
  for self-dual Hermitian triples, whose sign is a Z_2 invariant where the
  ordinary index vanishes;
* a graded half-signature for 4-tuples split into even/odd matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cliffordrep import standard_rep
from .errors import ContractError, SymmetryError
from .linalg import pfaffian, signature_gap
from .localizer import Pencil, _coerce_lambda, build, build_reduced
from .matrices import (
    EXACT,
    FLOAT,
    HermitianTuple,
    dagger,
    defect_exceeds,
    eye,
    from_gaussian_integers,
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


def index(tuple_: HermitianTuple, lam, tol: float | None = None) -> IndexReport:
    """Half the signature of L_lambda for a triple, off the spectrum."""
    if tuple_.d != 3:
        raise ContractError("the half-signature index is defined for d = 3")
    loc = build(tuple_.as_float(), standard_rep(3), lam)
    sig, gap = signature_gap(loc.matrix, tol)
    if sig % 2:
        raise ArithmeticError(f"odd localizer signature {sig}: numerical failure")
    return IndexReport(loc.lam, "half-signature", sig // 2, gap)


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
    out = np.empty_like(m)
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
        g = to_float(grading) if kind_of(m) == FLOAT else grading
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
    q = np.zeros((2 * n2, 2 * n2), dtype=complex)
    eye = np.eye(half)
    z = np.block([[np.zeros((half, half)), eye], [-eye, np.zeros((half, half))]])
    q[:n2, :n2] = np.eye(n2)
    q[n2:, n2:] = np.eye(n2)
    q[:n2, n2:] = -1j * z
    q[n2:, :n2] = 1j * z
    if kind == EXACT:
        return from_gaussian_integers(1, *(p.astype(int).astype(object) for p in (q.real, q.imag)))
    return q


def _skew_pencil(pencil: Pencil) -> Pencil:
    """The pencil (1/2) Q* L(lambda) Q = A0 - sum_j lambda_j B_j of a
    self-dual triple's localizer pencil; raises SymmetryError unless every
    member is skew, which makes every member of the family skew.  Exact
    members are checked as integer identities, float ones against their scale."""
    q = _conjugation_unitary(pencil.side // 2, pencil.kind)
    qh = dagger(q)
    if pencil.kind == EXACT:
        half = GaussianRational(Fraction(1, 2))
        members = [from_gaussian_integers(pencil.den, *part) for part in zip(pencil.re, pencil.im)]
    else:
        half = 0.5
        members = [pencil.l0, *pencil.parts]
    skew = Pencil.from_members([half * (qh @ m @ q) for m in members])
    if skew.kind == EXACT:
        bad = any(np.any(p + p.transpose(0, 2, 1)) for p in (skew.re, skew.im))
    else:
        bad = any(defect_exceeds(m + m.T, m, SKEW_CHECK_RTOL) for m in (skew.l0, *skew.blocks))
    if bad:
        raise SymmetryError(
            "conjugated localizer is not skew-symmetric; "
            "the Pfaffian needs the standard triple representation"
        )
    return skew


def _archetypal(pencil: Pencil, lam: list):
    """Pf((1/2) Q* L(lam) Q) of a self-dual triple's localizer pencil, at
    coerced lam."""
    skew = _skew_pencil(pencil).at(lam)
    if pencil.kind == EXACT:
        value = pfaffian(skew)  # raises if not exactly skew
        if value.im:
            raise ArithmeticError("archetypal value has nonzero imaginary part")
        return value
    if defect_exceeds(skew + skew.T, skew, SKEW_CHECK_RTOL):
        raise SymmetryError("conjugated localizer is not skew-symmetric")
    value = pfaffian(skew)
    if abs(value.imag) > SKEW_CHECK_RTOL * max(1.0, abs(value)):
        raise ArithmeticError("archetypal value has a large imaginary part")
    return float(value.real)


def archetypal(tuple_: HermitianTuple, lam):
    """Pf((1/2) Q* L_lambda Q): a real square root of det(L_lambda) on
    self-dual Hermitian triples."""
    require_self_dual_triple(tuple_)
    pencil = Pencil.localizer(tuple_, standard_rep(3))
    return _archetypal(pencil, _coerce_lambda(tuple_, lam))


def archetypal_sign(tuple_: HermitianTuple, lam, tol: float | None = None) -> IndexReport:
    """Z_2 invariant: the sign of the archetypal value, off the spectrum."""
    ft = tuple_.as_float()
    pencil = Pencil.localizer(ft, standard_rep(3))
    lam = _coerce_lambda(ft, lam)
    _, gap = signature_gap(pencil.at(lam), tol)  # raises on the spectrum
    require_self_dual_triple(ft)
    value = _archetypal(pencil, lam)
    return IndexReport(tuple(lam), "archetypal-sign", 1 if value > 0 else -1, gap)


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
    ft = tuple_.as_float()
    lam = _coerce_lambda(ft, lam)
    if lam[3] != 0.0:
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
    red = build_reduced(ft, lam)
    gamma_block = kron(to_float(grading), eye(2, FLOAT))
    # adjoint (lower-left) block orientation: the published index values
    # are normalized against this block, the tabulated polynomials against
    # the other; the two give opposite half-signatures
    herm = 1j * (red.matrix.conj().T @ gamma_block)
    if defect_exceeds(herm - herm.conj().T, herm, GRADED_HERMITIAN_RTOL):
        raise SymmetryError("graded localizer is not Hermitian; grading invalid")
    sig, gap = signature_gap(0.5 * (herm + herm.conj().T), tol)
    if sig % 2:
        raise ArithmeticError(f"odd graded signature {sig}: numerical failure")
    return IndexReport(tuple(lam), "graded-half-signature", sig // 2, gap)
