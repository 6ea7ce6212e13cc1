"""The one exact-or-float rule of every symmetry check,
``matrices.defect_exceeds``: exact defects fail on any nonzero entry, at any
magnitude, and float ones keep the former verdicts and violations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec import errors
from cliffordspec.cliffordrep import GammaRep, rep_for, validate
from cliffordspec.errors import ContractError, SymmetryError
from cliffordspec.gallery import self_dual_path
from cliffordspec.invariants import (
    SymmetryProfile,
    archetypal,
    dual,
    even_odd_grading,
    require_self_dual_triple,
    validate_symmetry,
)
from cliffordspec.linalg import pfaffian
from cliffordspec.matrices import (
    FLOAT,
    HermitianTuple,
    defect_exceeds,
    exact_matrix,
    float_matrix,
    kind_of,
    matmul,
    max_abs,
    to_float,
)
from cliffordspec.scalars import GaussianRational
from cliffordspec.tolerances import FLAG_RTOL

LIBRARY_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)
FLAGS = ("symmetric", "anti-symmetric", "self-dual", "even", "odd")


def _former_check_flag(m: np.ndarray, flag: str, grading) -> float:
    """The former float violation of a flag, kept as the reference."""
    if flag == "symmetric":
        return max_abs(m - m.T)
    if flag == "anti-symmetric":
        return max_abs(m + m.T)
    if flag == "self-dual":
        return max_abs(m - dual(m))
    g = to_float(grading) if kind_of(m) == FLOAT else grading
    mg = matmul(m, g)
    gm = matmul(g, m)
    return max_abs(mg - gm) if flag == "even" else max_abs(mg + gm)


def _with_flag(h: np.ndarray, flag: str) -> np.ndarray:
    """A Hermitian matrix of h's kind on which flag holds, from Hermitian h."""
    n = len(h)
    half = np.arange(n) < n // 2
    if flag == "symmetric":
        return (h + h.T) / 2
    if flag == "anti-symmetric":
        return (h - h.T) / 2
    if flag == "self-dual":
        return (h + dual(h)) / 2
    # even: the diagonal blocks of the grading diag(1, .., 1, -1, .., -1), odd: the others
    same = half[:, None] == half[None, :]
    return np.where(same if flag == "even" else ~same, h, 0 * h)


def _breaking(n: int, flag: str, delta):
    """(entries, values): a Hermitian perturbation by delta of one entry (and
    its mirror) that breaks flag on any matrix where it holds."""
    if flag == "symmetric":
        return [(0, 1), (1, 0)], [delta * GaussianRational(0, 1), -delta * GaussianRational(0, 1)]
    if flag == "even":
        return [(0, n - 1), (n - 1, 0)], [delta, delta]
    return [(0, 0)], [delta]


def _exact_hermitian(entries, n):
    it = iter(entries)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(next(it))
        for j in range(i + 1, n):
            re, im = next(it), next(it)
            rows[i][j], rows[j][i] = (re, im), (re, -im)
    return exact_matrix(rows)


def _report(tuple_, flag):
    grading = even_odd_grading(tuple_.n)
    return validate_symmetry(tuple_, SymmetryProfile((frozenset({flag}),) * tuple_.d, grading))


@settings(max_examples=120)
@given(
    st.sampled_from(FLAGS),
    st.integers(1, 2).map(lambda h: 2 * h),
    st.lists(st.integers(-5, 5), min_size=30, max_size=30),
    st.integers(-400, 400),
    st.sampled_from([1, -1]),
    st.integers(0, 2),
)
def test_exact_flags_fail_on_any_one_entry_defect(flag, n, entries, k, sign, which):
    mats = [_with_flag(_exact_hermitian(entries[j:], n), flag) for j in range(3)]
    assert _report(HermitianTuple(mats), flag).ok
    delta = sign * Fraction(10) ** k
    for (i, j), v in zip(*_breaking(n, flag, delta)):
        mats[which][i, j] = mats[which][i, j] + v
    try:
        report = _report(HermitianTuple(mats), flag)
    except LIBRARY_ERRORS:
        return
    assert not report.ok
    (bad,) = report.failures()
    assert bad.matrix_index == which
    assert bad.violation > 0 if abs(k) < 300 else bad.violation >= 0
    if k > 310:
        assert bad.violation == math.inf
    if flag == "self-dual":
        with pytest.raises(SymmetryError, match="violates self-duality"):
            require_self_dual_triple(HermitianTuple(mats))


@settings(max_examples=150)
@given(
    st.sampled_from(FLAGS),
    st.integers(1, 3).map(lambda h: 2 * h),
    st.integers(0, 2**32 - 1),
    st.floats(-3, 3),
    st.integers(-16, 2),
)
def test_float_flags_keep_the_former_verdicts_and_violations(flag, n, seed, log_scale, log_eps):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = _with_flag((a + a.conj().T) / 2, flag) * 10.0**log_scale
        # a Hermitian nudge of relative size around FLAG_RTOL breaks the flag or not
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mats.append(float_matrix(m + (e + e.conj().T) * 10.0 ** (log_scale + log_eps) / 2))
    t = HermitianTuple(mats)
    grading = even_odd_grading(n)
    report = _report(t, flag)
    for r, m in zip(report.results, t.matrices):
        v = _former_check_flag(m, flag, grading)
        assert r.violation == v
        assert r.ok == (v <= FLAG_RTOL * (max_abs(m) or 1.0))


def test_a_nan_defect_fails():
    nan = float_matrix([[math.nan, 0], [0, 0]])
    assert defect_exceeds(nan, float_matrix([[1, 0], [0, 1]]), 1e-12)
    assert defect_exceeds(nan, nan, 1e-12)
    with pytest.raises(ContractError, match="not skew-symmetric"):
        pfaffian(float_matrix([[0, math.nan], [-1, 0]]))


@pytest.mark.parametrize("k", [-400, 400])
def test_exact_defects_beyond_the_float_range(k):
    delta = Fraction(10) ** k
    # a gamma relation: the involution of a representation's first gamma,
    # bumped by 10^-400, or by 10^200 so that its defect holds 10^400
    gammas = list(rep_for(3).gammas)
    bumped = gammas[0].copy()
    bumped[0, 0] = bumped[0, 0] + min(delta, Fraction(10) ** (k // 2))
    report = validate(GammaRep((bumped, *gammas[1:])))
    assert not report.ok
    if k > 0:
        assert report.max_violation == math.inf
    # a Pfaffian's input
    skew = exact_matrix([[0, 1], [-1, delta]])
    with pytest.raises(ContractError, match="not skew-symmetric"):
        pfaffian(skew)
    # a self-dual triple, whose skew pencil the Pfaffian would need
    mats = [m.copy() for m in self_dual_path().matrices]
    mats[0][0, 0] = mats[0][0, 0] + delta
    t = HermitianTuple(mats)
    (bad,) = _report(t, "self-dual").failures()
    assert bad.violation == (math.inf if k > 0 else 0.0)
    for query in (require_self_dual_triple, lambda t: archetypal(t, [0, 0, 0])):
        with pytest.raises(SymmetryError, match="violates self-duality"):
            query(t)


def test_float_gamma_relations_are_checked_against_one():
    for d in range(1, 6):
        rep = rep_for(d)
        blocks = rep.off_diagonal_blocks
        blocks = None if blocks is None else tuple(to_float(b) for b in blocks)
        floats = GammaRep(rep.as_float(), blocks)
        assert validate(floats).ok
        bumped = [g.copy() for g in floats.gammas]
        bumped[0][0, 0] += 2e-12
        report = validate(GammaRep(tuple(bumped)))
        assert [v.relation for v in report.violations][:1] == ["involution"]
        bumped[0][0, 0] = floats.gammas[0][0, 0] + 0.25e-12
        assert validate(GammaRep(tuple(bumped))).ok
    # the off-diagonal split of a float representation with blocks
    rep = rep_for(4)
    blocks = [to_float(b) for b in rep.off_diagonal_blocks]
    blocks[0] = blocks[0] * -1
    report = validate(GammaRep(rep.as_float(), tuple(blocks)))
    assert [v.relation for v in report.violations] == ["off_diagonal_split"]
