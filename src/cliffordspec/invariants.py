"""Topological invariants read off the localizer.

* half-signature index for triples, defined off the joint spectrum;
* the quaternionic dual operation and the archetypal (Pfaffian) polynomial
  for self-dual Hermitian triples, whose sign is a Z_2 invariant where the
  ordinary index vanishes;
* a graded half-signature for 4-tuples split into even/odd matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ContractError, SymmetryError
from .linalg import _exact_pfaffian, _pfaffian_parlett_reid, eigenvalue_signature_gap
from .localizer import Pencil, _coerce_lambda, build
from .matrices import (
    EXACT,
    FLOAT,
    HermitianTuple,
    defect_exceeds,
    exact_matrix,
    eye,
    kron,
    magnitude_text,
    matmul,
    max_abs,
    to_float,
)
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
    loc = build(tuple_.as_float(), lam=lam)
    # L_lambda is Hermitian at real lam: the tuple's matrices were checked on entry
    sig, gap = eigenvalue_signature_gap(np.linalg.eigvalsh(loc.matrix), tol)
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
    count = samples_per_segment
    if isinstance(count, bool) or not isinstance(count, Integral) or count < 1:
        raise ContractError(f"samples_per_segment must be an integer >= 1, got {count!r}")
    pts = [np.asarray(w, dtype=float) for w in waypoints]
    if len(pts) < 2:
        raise ContractError(f"a path needs at least two waypoints, got {len(pts)}")
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        for k in range(count + 1):
            lam = a + (b - a) * (k / count)
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


def _check_flag(m: np.ndarray, flag: str, grading) -> np.ndarray:
    """The defect of flag on m, zero where it holds, with the grading in m's kind."""
    if flag == "symmetric":
        return m - m.T
    if flag == "anti-symmetric":
        return m + m.T
    if flag == "self-dual":
        return m - dual(m)
    if flag in ("even", "odd"):
        if grading is None:
            raise ContractError("even/odd flags need a grading matrix")
        g = grading.astype(m.dtype, copy=False)
        mg = matmul(m, g)
        gm = matmul(g, m)
        return mg - gm if flag == "even" else mg + gm
    raise ContractError(f"unknown symmetry flag {flag!r}")


def validate_symmetry(tuple_: HermitianTuple, profile: SymmetryProfile) -> SymmetryReport:
    """Check each asserted flag by ``matrices.defect_exceeds`` against FLAG_RTOL;
    a violation is max |defect| as a float, inf past the float range."""
    if len(profile.flags) != tuple_.d:
        raise ContractError("profile must carry one flag set per matrix")
    results = []
    for k, (m, flags) in enumerate(zip(tuple_.matrices, profile.flags)):
        for flag in sorted(flags):
            defect = _check_flag(m, flag, profile.grading)
            ok = not defect_exceeds(defect, m, FLAG_RTOL)
            results.append(FlagResult(k, flag, ok, max_abs(defect)))
    return SymmetryReport(tuple(results))


def require_self_dual_triple(tuple_: HermitianTuple) -> None:
    if tuple_.d != 3:
        raise SymmetryError("self-dual machinery needs a triple")
    _require_flags(tuple_, SymmetryProfile((frozenset({"self-dual"}),) * 3), "self-duality")


def _require_flags(tuple_: HermitianTuple, profile: SymmetryProfile, what: str) -> None:
    """validate_symmetry, raising SymmetryError at the first failed flag with
    the size of its defect; what names the symmetry, its {} the flag."""
    report = validate_symmetry(tuple_, profile)
    if not report.ok:
        bad = report.failures()[0]
        defect = _check_flag(tuple_.matrices[bad.matrix_index], bad.flag, profile.grading)
        raise SymmetryError(
            f"matrix {bad.matrix_index} violates {what.format(bad.flag)} "
            f"by {magnitude_text(defect)}"
        )


def _skew_pencil(pencil: Pencil) -> Pencil:
    """The pencil (1/2) Q* L(lambda) Q = A0 - sum_j lambda_j B_j of a
    self-dual triple's localizer pencil; raises SymmetryError unless every
    member is skew (``matrices.defect_exceeds`` on its real and imaginary
    parts, against SKEW_CHECK_RTOL), which makes every member of the family skew.
    Q = I + iS, S sending quarter block k to block 3 - k with signs (-, +, +, -),
    so each member M is moved: A = M - i S M, then (1/2) Q* M Q = (A + i A S) / 2,
    on the real and imaginary parts of M over den, and (1/2) doubles den."""
    side = pencil.side
    perm = np.arange(side).reshape(4, -1)[::-1].ravel()
    sign = np.repeat([-1, 1, 1, -1], side // 4)
    den, re, im = pencil.gaussian_form
    re, im = re + sign[:, None] * im[:, perm], im - sign[:, None] * re[:, perm]
    re, im = re - sign * im[..., perm], im + sign * re[..., perm]
    parts = np.stack((re, im), axis=1)  # each member's real and imaginary parts
    if any(defect_exceeds(p + p.swapaxes(1, 2), p, SKEW_CHECK_RTOL) for p in parts):
        raise SymmetryError(
            "conjugated localizer is not skew-symmetric; "
            "the Pfaffian needs the standard triple representation"
        )
    return Pencil.from_gaussian_form(2 * den, re, im)


def _self_dual_skew_pencil(tuple_: HermitianTuple) -> Pencil:
    """require_self_dual_triple, then the skew pencil of the localizer pencil."""
    require_self_dual_triple(tuple_)
    return _skew_pencil(Pencil.localizer(tuple_))


def _archetypal(skew_pencil: Pencil, lam: list, shift: int = 0):
    """Pf((1/2) Q* L(lam) Q) at coerced lam, off a self-dual triple's skew
    pencil.  A float matrix is first scaled by 2^-shift, which is exact and
    scales the Pfaffian by 2^(-shift side / 2), keeping its sign."""
    skew = skew_pencil.at(lam)
    if skew_pencil.kind == EXACT:
        # exactly skew: an integer combination of exactly skew members
        value = _exact_pfaffian(skew)
        if value.im:
            raise ArithmeticError("archetypal value has nonzero imaginary part")
        return value
    if defect_exceeds(skew + skew.T, skew, SKEW_CHECK_RTOL):
        raise SymmetryError("conjugated localizer is not skew-symmetric")
    value = _pfaffian_parlett_reid((skew * 2.0**-shift)[None])[0]
    # 1 at the scale of value, capped at the largest power of two a float holds
    unit = math.ldexp(1.0, min(-shift * (len(skew) // 2), 1023))
    if abs(value.imag) > SKEW_CHECK_RTOL * max(unit, abs(value)):
        raise ArithmeticError("archetypal value has a large imaginary part")
    return float(value.real)


def _scale_exponent(eigs: np.ndarray) -> int:
    """k, the rounded mean of log2 |eig| over the nonzero eigenvalues eigs of
    L_lambda.  |Pf| = prod |eig|^(1/2) over the side eigenvalues, so scaled by
    2^-k the Pfaffian lies within 2^(+-side/4), or below when one is 0."""
    magnitudes = np.abs(eigs[eigs != 0])
    return int(np.rint(np.mean(np.log2(magnitudes)))) if magnitudes.size else 0


def archetypal(tuple_: HermitianTuple, lam):
    """Pf((1/2) Q* L_lambda Q): a real square root of det(L_lambda) on
    self-dual Hermitian triples.  A float value is computed at the scale
    2^-k of archetypal_sign and scaled back exactly; one beyond the float
    range raises ContractError."""
    skew = tuple_._held(_self_dual_skew_pencil)
    lam = _coerce_lambda(tuple_, lam)
    if tuple_.kind == EXACT:
        return _archetypal(skew, lam)
    shift = _scale_exponent(np.linalg.eigvalsh(Pencil.localizer(tuple_).at(lam)))
    try:
        return math.ldexp(_archetypal(skew, lam, shift), shift * (skew.side // 2))
    except OverflowError:
        raise ContractError(f"archetypal value at lambda {lam} is beyond the float range") from None


def archetypal_sign(tuple_: HermitianTuple, lam, tol: float | None = None) -> IndexReport:
    """Z_2 invariant: the sign of the archetypal value, off the spectrum."""
    if tuple_.d != 3:
        raise ContractError("the archetypal sign is defined for d = 3")
    ft = tuple_.as_float()
    lam = _coerce_lambda(ft, lam)
    eigs = np.linalg.eigvalsh(Pencil.localizer(ft).at(lam))
    _, gap = eigenvalue_signature_gap(eigs, tol)  # raises on the spectrum
    value = _archetypal(ft._held(_self_dual_skew_pencil), lam, _scale_exponent(eigs))
    return IndexReport(tuple(lam), "archetypal-sign", 1 if value > 0 else -1, gap)


def even_odd_grading(n: int = 4) -> np.ndarray:
    """diag(1, .., 1, -1, .., -1): the grading used by the even/odd family."""
    return exact_matrix(
        [[(1 if i < n // 2 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    )


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
    grading = even_odd_grading(tuple_.n) if grading is None else grading
    profile = SymmetryProfile((frozenset({"even"}),) * 3 + (frozenset({"odd"}),), grading)
    _require_flags(tuple_, profile, "the {} grading")
    red = Pencil.reduced(ft).at(lam)
    gamma_block = kron(to_float(grading), eye(2, FLOAT))
    # adjoint (lower-left) block orientation: the published index values
    # are normalized against this block, the tabulated polynomials against
    # the other; the two give opposite half-signatures
    herm = 1j * (red.conj().T @ gamma_block)
    if defect_exceeds(herm - herm.conj().T, herm, GRADED_HERMITIAN_RTOL):
        raise SymmetryError("graded localizer is not Hermitian; grading invalid")
    sig, gap = eigenvalue_signature_gap(np.linalg.eigvalsh(0.5 * (herm + herm.conj().T)), tol)
    if sig % 2:
        raise ArithmeticError(f"odd graded signature {sig}: numerical failure")
    return IndexReport(tuple(lam), "graded-half-signature", sig // 2, gap)
