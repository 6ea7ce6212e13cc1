from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from cliffordspec.errors import ContractError, SingularAtTolerance
from cliffordspec.gallery import pauli
from cliffordspec.linalg import (
    determinant,
    exact_determinant,
    hermitian_eigen,
    operator_norm,
    pfaffian,
    signature,
    smallest_eigen_magnitude,
)
from cliffordspec.localizer import build
from cliffordspec.matrices import exact_matrix, float_matrix, to_float
from cliffordspec.scalars import GaussianRational
from conftest import random_hermitian


def test_eigen_diagonal():
    w, v = hermitian_eigen(float_matrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(w, [1, 2, 3])


def test_eigen_pauli_x():
    w, _ = hermitian_eigen(float_matrix([[0, 1], [1, 0]]))
    assert np.allclose(w, [-1, 1])


def test_eigen_localizer_at_origin():
    # brute-force oracle for the Pauli localizer spectrum
    loc = build(pauli().as_float())
    w, v = hermitian_eigen(loc.matrix)
    assert np.allclose(w, [-3, 1, 1, 1])
    resid = np.linalg.norm(loc.matrix @ v - v @ np.diag(w))
    assert resid <= 1e-10 * operator_norm(loc.matrix)


def test_eigen_reconstruction_residual(rng):
    for n in (8, 32, 64):
        m = float_matrix(random_hermitian(rng, n))
        w, v = hermitian_eigen(m)
        assert np.linalg.norm(m @ v - v @ np.diag(w)) <= 1e-10 * operator_norm(m)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ContractError):
        hermitian_eigen(float_matrix([[0, 1], [0, 0]]))


def test_determinant_exact():
    assert determinant(exact_matrix(np.eye(4, dtype=int).tolist())) == GaussianRational(1)
    loc = build(pauli())
    assert determinant(loc.matrix) == GaussianRational(-3)
    assert determinant(float_matrix([[0, 2], [0, 0]])) == 0


def test_determinant_exact_vs_float(rng):
    for n in (2, 3, 5, 8):
        num = rng.integers(-9, 10, size=(n, n, 2))
        den = rng.integers(1, 5, size=(n, n, 2))
        m = exact_matrix(
            [
                [
                    (Fraction(int(num[i, j, 0]), int(den[i, j, 0])),
                     Fraction(int(num[i, j, 1]), int(den[i, j, 1])))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        want = np.linalg.det(to_float(m))
        got = exact_determinant(m).to_complex()
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_determinant_exact_hermitian_is_real(rng):
    for _ in range(5):
        num = rng.integers(-5, 6, size=(4, 4, 2))
        m = [[None] * 4 for _ in range(4)]
        for i in range(4):
            m[i][i] = (Fraction(int(num[i, i, 0])), Fraction(0))
            for j in range(i + 1, 4):
                re, im = Fraction(int(num[i, j, 0]), 3), Fraction(int(num[i, j, 1]), 2)
                m[i][j] = (re, im)
                m[j][i] = (re, -im)
        d = exact_determinant(exact_matrix(m))
        assert d.im == 0


def test_determinant_rejects_non_square():
    with pytest.raises(ContractError):
        determinant(float_matrix([[1, 2, 3], [4, 5, 6]]))


def test_signature():
    assert signature(float_matrix(np.diag([1.0, -1.0])), 1e-8) == 0
    loc = build(pauli().as_float())
    assert signature(loc.matrix, 1e-8) == 2
    with pytest.raises(SingularAtTolerance):
        signature(float_matrix(np.diag([1.0, 1e-12])), 1e-8)


def test_signature_counts_match_side(rng):
    m = float_matrix(random_hermitian(rng, 6))
    eigs = np.linalg.eigvalsh(m)
    tol = 1e-8
    if np.min(np.abs(eigs)) > tol:
        sig = signature(m, tol)
        neg = int(np.sum(eigs < -tol))
        assert sig + 2 * neg == 6


def test_smallest_eigen_magnitude():
    assert smallest_eigen_magnitude(float_matrix(np.diag([2.0, -5.0]))) == 2
    loc = build(pauli().as_float())
    assert abs(smallest_eigen_magnitude(loc.matrix) - 1) < 1e-12
    on_sphere = build(pauli().as_float(), lam=[1.0, 0.0, 0.0])
    assert smallest_eigen_magnitude(on_sphere.matrix) <= 1e-10


def test_operator_norm():
    assert operator_norm(float_matrix(np.diag([1.0, -3.0]))) == 3
    sx = float_matrix([[0, 1], [1, 0]])
    sy = float_matrix([[0, -1j], [1j, 0]])
    from cliffordspec.matrices import commutator

    assert abs(operator_norm(commutator(sx, sy)) - 2) < 1e-12
    assert operator_norm(float_matrix(np.zeros((3, 3)))) == 0


def test_pfaffian_small_formulas():
    a = Fraction(7, 3)
    m = exact_matrix([[0, a], [-a, 0]])
    assert pfaffian(m) == GaussianRational(a)
    vals = [Fraction(k) for k in (2, 3, 5, 7, 11, 13)]  # a..f upper entries
    a_, b_, c_, d_, e_, f_ = vals
    m4 = [[0, a_, b_, c_], [-a_, 0, d_, e_], [-b_, -d_, 0, f_], [-c_, -e_, -f_, 0]]
    assert pfaffian(exact_matrix(m4)) == GaussianRational(a_ * f_ - b_ * e_ + c_ * d_)


def test_pfaffian_squared_is_det_float(rng):
    for n in (4, 6, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        skew = a - a.T
        pf = pfaffian(float_matrix(skew))
        det = np.linalg.det(skew)
        assert abs(pf**2 - det) <= 1e-9 * max(1.0, abs(det))


def test_pfaffian_squared_is_det_exact(rng):
    n = 6
    num = rng.integers(-4, 5, size=(n, n, 2))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = (0, 0)
        for j in range(i + 1, n):
            e = (Fraction(int(num[i, j, 0]), 2), Fraction(int(num[i, j, 1]), 3))
            m[i][j] = e
            m[j][i] = (-e[0], -e[1])
    mm = exact_matrix(m)
    pf = pfaffian(mm)
    assert pf * pf == exact_determinant(mm)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ContractError):
        pfaffian(float_matrix(np.zeros((3, 3))))  # odd side
    with pytest.raises(ContractError):
        pfaffian(float_matrix([[0, 1], [1, 0]]))  # not skew


def _pfaffian_expand(m, rows):
    """The former exact Pfaffian, kept as the reference: cofactor expansion
    along the first row."""
    if not rows:
        return GaussianRational(1)
    total = GaussianRational(0)
    first, rest = rows[0], rows[1:]
    for pos, other in enumerate(rest):
        entry = m[first, other]
        if entry:
            term = entry * _pfaffian_expand(m, rest[:pos] + rest[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
    return total


_PART = st.fractions(-4, 4, max_denominator=5)


@st.composite
def _exact_skew(draw):
    """An exact skew matrix of side 2..10; in some draws most entries are 0."""
    n = 2 * draw(st.integers(1, 5))
    keep = draw(st.sampled_from([1.0, 0.5, 0.2]))
    m = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0, 1)) < keep:
                re, im = draw(_PART), draw(_PART)
                m[i][j], m[j][i] = (re, im), (-re, -im)
    return exact_matrix(m)


@settings(max_examples=80)
@given(_exact_skew())
# a zero first subdiagonal entry: the elimination swaps in a later row
@example(exact_matrix([[0, 1, 2, 3], [-1, 0, 0, 5], [-2, 0, 0, 7], [-3, -5, -7, 0]]))
# a column with no nonzero entry below the diagonal: Pf = 0
@example(exact_matrix([[0, 0, 0, 0], [0, 0, 1, 2], [0, -1, 0, 3], [0, -2, -3, 0]]))
def test_exact_pfaffian_equals_cofactor_expansion(m):
    assert pfaffian(m) == _pfaffian_expand(m, list(range(m.shape[0])))


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_exact_pfaffian_squared_is_det_beyond_side_12(n):
    num = np.random.default_rng(n).integers(-5, 6, size=(n, n, 2))
    m = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = (Fraction(int(num[i, j, 0]), 3), Fraction(int(num[i, j, 1]), 2))
            m[i][j], m[j][i] = e, (-e[0], -e[1])
    mm = exact_matrix(m)
    pf = pfaffian(mm)
    assert pf and pf * pf == exact_determinant(mm)


def _sympy_determinant(m):
    """det of an exact matrix by sympy over Q(i), as a GaussianRational."""
    rows = [[sympy.Rational(e.re) + sympy.I * sympy.Rational(e.im) for e in row] for row in m]
    dm = DomainMatrix.from_Matrix(sympy.Matrix(rows))
    re, im = dm.domain.to_sympy(dm.det()).as_real_imag()
    return GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


@st.composite
def _exact_square(draw):
    """An exact matrix of side 1..8, in some draws mostly zero, whose first
    column is zero down to a random row: the elimination swaps rows, or
    finds no pivot."""
    n = draw(st.integers(1, 8))
    keep = draw(st.sampled_from([1.0, 0.5, 0.2]))
    rows = [
        [(draw(_PART), draw(_PART)) if draw(st.floats(0, 1)) < keep else (0, 0) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(draw(st.integers(1, n))):
        rows[i][0] = (0, 0)
    return exact_matrix(rows)


@settings(max_examples=80)
@given(_exact_square())
def test_exact_determinant_equals_sympy(m):
    assert exact_determinant(m) == _sympy_determinant(m)


def test_exact_kernels_past_int64():
    # Gaussian-integer entries past 2^63 over a den near 2^64: every product
    # in both eliminations is a multi-word Python int
    rng = np.random.default_rng(63)
    n = 6
    num = [[(int(x) << 40) + 1 for x in row] for row in rng.integers(-(2**30), 2**30, size=(n, n))]
    m = [[(Fraction(num[i][j], 2**64 - 59), num[j][i]) for j in range(n)] for i in range(n)]
    skew = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j], skew[j][i] = m[i][j], (-m[i][j][0], -m[i][j][1])
    mm, skew = exact_matrix(m), exact_matrix(skew)
    assert exact_determinant(mm) == _sympy_determinant(mm)
    pf = pfaffian(skew)
    assert pf == _pfaffian_expand(skew, list(range(n)))
    assert pf * pf == _sympy_determinant(skew)
