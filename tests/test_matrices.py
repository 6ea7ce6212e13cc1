import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec.cliffordrep import _embed_off_diagonal
from cliffordspec.errors import ContractError, KindMismatchError
from cliffordspec.matrices import (
    HermitianTuple,
    commutator,
    dagger,
    exact_matrix,
    float_matrix,
    is_hermitian,
    kron,
    magnitude_text,
    to_float,
)
from cliffordspec.invariants import dual, graded_index, index
from cliffordspec.linalg import hermitian_eigen
from cliffordspec.sampler import GridSpec, sample
from cliffordspec.scalars import GaussianRational
from cliffordspec.tolerances import HERMITIAN_RTOL
from cliffordspec.variance import certificate


def test_kron_blocks_indexed_by_second_factor():
    a = float_matrix([[1, 2], [3, 4]])
    b = float_matrix([[0, 5], [6, 7]])
    k = kron(a, b)
    # block (0, 1) must be 5 * a
    assert np.allclose(k[:2, 2:], 5 * a)
    assert np.allclose(k[2:, :2], 6 * a)
    assert np.allclose(k[:2, :2], 0)
    # opposite of numpy's convention
    assert np.allclose(k, np.kron(b, a))


def test_kron_exact_matches_float():
    a = exact_matrix([[1, Fraction(1, 2)], [Fraction(1, 2), 0]])
    b = exact_matrix([[(0, 1), 0], [0, (0, -1)]])
    k = kron(a, b)
    assert np.allclose(to_float(k), kron(to_float(a), to_float(b)))


def test_commutator_pauli():
    sx = float_matrix([[0, 1], [1, 0]])
    sy = float_matrix([[0, -1j], [1j, 0]])
    sz = float_matrix([[1, 0], [0, -1]])
    assert np.allclose(commutator(sx, sy), 2j * sz)
    assert np.allclose(commutator(sx, sx), 0)


def test_commutator_shape_check():
    with pytest.raises(ContractError):
        commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_hermitian_checks():
    assert is_hermitian(float_matrix([[1, 1j], [-1j, 2]]))
    assert not is_hermitian(float_matrix([[1, 1j], [1j, 2]]))
    assert is_hermitian(exact_matrix([[1, (0, 1)], [(0, -1), 2]]))
    assert not is_hermitian(exact_matrix([[1, (0, 1)], [(0, 1), 2]]))


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_hermitian_check_is_the_one_symmetry_rule(scale):
    """max |M - M*| against HERMITIAN_RTOL * max |M|, as defect_exceeds
    decides: the 3x3 M has ||M||_F = 3 max |M|, and entries of 1e200 form no
    square.  A NaN fails."""
    for factor, hermitian in ((0.9, True), (1.1, False)):
        bump = factor * HERMITIAN_RTOL * scale
        m = np.ones((3, 3), dtype=complex) * scale
        m[0, 1] += 1j * bump  # M - M* holds i bump at (0, 1) and (1, 0)
        assert is_hermitian(m) is hermitian
    for bad in (np.nan, complex(0, np.nan)):
        m = np.ones((2, 2), dtype=complex) * scale
        m[1, 1] = bad
        assert not is_hermitian(m)


def test_exact_pair_parts_must_be_rational():
    for pair in ((0.1, 0), (0, 0.5), (Fraction(1, 2), 1.0), (1j, 0), (GaussianRational(1), 0)):
        with pytest.raises(KindMismatchError, match="not rational"):
            exact_matrix([[pair]])
    m = exact_matrix([[(Fraction(1, 2), np.int64(-3))]])
    assert m[0, 0] == GaussianRational(Fraction(1, 2), -3)


def test_tuple_validation():
    with pytest.raises(ContractError):
        HermitianTuple([])
    with pytest.raises(ContractError):
        HermitianTuple([float_matrix([[0, 1], [0, 0]])])  # not Hermitian
    with pytest.raises(KindMismatchError):
        HermitianTuple([float_matrix([[1]]), exact_matrix([[1]])])
    t = HermitianTuple([exact_matrix([[0, 1], [1, 0]])])
    assert t.d == 1 and t.n == 2 and t.kind == "exact"


def test_tuple_rejects_empty_and_non_2d_matrices():
    for empty in (float_matrix(np.zeros((0, 0))), exact_matrix([])):
        with pytest.raises(ContractError, match="side at least 1"):
            HermitianTuple([empty] * 3)
    with pytest.raises(ContractError, match="matrix 0 is a 1-D array"):
        HermitianTuple([np.zeros(3, dtype=complex)] * 3)
    with pytest.raises(ContractError, match="matrix 0 is a 0-D array"):
        HermitianTuple([np.complex128(1)])
    with pytest.raises(ContractError, match="matrix 1 is not 2x2"):
        HermitianTuple([float_matrix(np.eye(2)), np.zeros(2, dtype=complex)])


def test_float_entries_beyond_the_bound_are_refused_without_overflow():
    # ||M||_F of entries near 1e300 overflows; the anti-Hermitian m once
    # passed the Hermitian check against an infinite scale
    m = float_matrix([[0, 1e300], [-1e300, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="matrix 0 has an entry beyond the bound 1e\\+150"):
            HermitianTuple([m, m, m])
        with pytest.raises(ContractError, match="not Hermitian"):
            hermitian_eigen(m)
        big = float_matrix([[1e200, 1e200j], [-1e200j, 1e200]])
        assert is_hermitian(big) and not is_hermitian(big * 1j)
        with pytest.raises(ContractError, match="matrix 1 has an entry beyond the bound"):
            HermitianTuple([float_matrix(np.eye(2)), big])
        # the bound itself is taken
        edge = float_matrix([[1e150, 0], [0, -1e150]])
        assert index(HermitianTuple([edge, edge * 0, edge * 0]), [0.0, 0.0, 0.0]).value == 0


def test_exact_entries_beyond_the_float_range_are_refused_by_name():
    """An exact tuple takes entries of any size; its float image, which the
    float point queries and grids read, refuses them like a float tuple."""
    big = exact_matrix([[10**400, 0], [0, 1]])
    pauli_big = HermitianTuple([exact_matrix([[0, 1], [1, 0]]), exact_matrix([[1, 0], [0, -1]]), big])
    even = exact_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    quad = HermitianTuple([even, even, even * 10**400, exact_matrix([[0] * 4] * 4)])
    queries = [
        lambda: pauli_big.as_float(),
        lambda: index(pauli_big, [0, 0, 0]),
        lambda: certificate(pauli_big, [0, 0, 0]),
        lambda: sample(pauli_big, GridSpec.cube(3, -1, 1, 3), "det-sign"),
        lambda: graded_index(quad, [0, 0, 0, 0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in queries:
            with pytest.raises(ContractError, match="matrix 2 has an entry beyond the bound 1e\\+150"):
                query()


def test_shift_and_direct_sum():
    t = HermitianTuple([exact_matrix([[2, 0], [0, 3]])])
    shifted = t.shifted([Fraction(1, 2)])
    assert shifted.matrices[0][0, 0] == GaussianRational(Fraction(3, 2))
    both = t.direct_sum(t)
    assert both.n == 4
    assert both.matrices[0][2, 2] == GaussianRational(2)


def test_dagger_exact():
    m = exact_matrix([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
    d = dagger(m)
    assert d[0, 1] == GaussianRational(5, -6)


# ---------------------------------------------------------------------------
# the helpers that act on both kinds through numpy's object dtype, against
# their float images and against the per-entry loops they replaced

_FRACTION = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def _exact_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    entries = st.tuples(_FRACTION, _FRACTION)
    return exact_matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _exact_hermitian(draw):
    n = draw(st.integers(1, 4))
    m = draw(_exact_matrices(n, n))
    for i in range(n):
        m[i, i] = GaussianRational(m[i, i].re)
        for j in range(i):
            m[i, j] = m[j, i].conjugate()
    return m


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes, up to the sign of zero, which an exact zero
    does not carry: -0.0 + 0.0 is 0.0, and every other value is unchanged."""
    return a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def _former_is_hermitian(m: np.ndarray) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return all(
        m[i, j] == m[j, i].conjugate() for i in range(m.shape[0]) for j in range(i, m.shape[1])
    )


def _former_embed_off_diagonal(block: np.ndarray) -> np.ndarray:
    m = block.shape[0]
    out = np.empty((2 * m, 2 * m), dtype=object)
    zero = GaussianRational(0)
    bh = dagger(block)
    for i in range(m):
        for j in range(m):
            out[i, j] = zero
            out[m + i, m + j] = zero
            out[i, m + j] = block[i, j]
            out[m + i, j] = bh[i, j]
    return out


@settings(max_examples=60, deadline=None)
@given(_exact_matrices())
def test_exact_dagger_matches_float_dagger(m):
    got = dagger(m)
    assert got.dtype == object and got.shape == m.shape[::-1]
    assert _same_bytes(to_float(got), dagger(to_float(m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _exact_matrices(2 * n, 2 * n)))
def test_exact_dual_matches_float_dual(m):
    got = dual(m)
    assert got.dtype == object
    assert _same_bytes(to_float(got), dual(to_float(m)))


@settings(max_examples=60, deadline=None)
@given(_exact_hermitian(), st.data())
def test_exact_is_hermitian_matches_former_loop(m, data):
    assert is_hermitian(m) and _former_is_hermitian(m)
    n = m.shape[0]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bumped = m.copy()
    bumped[i, j] = bumped[i, j] + GaussianRational(0, Fraction(1, 7))
    assert is_hermitian(bumped) == _former_is_hermitian(bumped) is False
    rect = data.draw(_exact_matrices(n, n + 1))
    assert is_hermitian(rect) == _former_is_hermitian(rect) is False


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _exact_matrices(n, n)))
def test_embed_off_diagonal_matches_former_loop(block):
    got, want = _embed_off_diagonal(block), _former_embed_off_diagonal(block)
    assert got.dtype == object and got.shape == want.shape
    assert all(type(a) is GaussianRational for a in got.reshape(-1))
    assert all(a == b for a, b in zip(got.reshape(-1), want.reshape(-1)))


def test_magnitude_text_of_exact_matrices_past_the_float_range():
    """%.3e of the largest |entry| where a float shows it, and otherwise its
    power of ten, floor(log10 |z|), from Fraction arithmetic."""
    tiny = Fraction(1, 10**400)
    cases = [
        (exact_matrix([[0, 0]]), "0.000e+00"),
        (exact_matrix([[Fraction(3, 2), -2]]), "2.000e+00"),
        (float_matrix([[0.0, 1e-300j]]), "1.000e-300"),
        (exact_matrix([[tiny, 0]]), "at least 1e-400"),
        (exact_matrix([[tiny * (1 - tiny), 0]]), "at least 1e-401"),
        (exact_matrix([[(3 * tiny / 10, 4 * tiny / 10)]]), "at least 1e-401"),  # |3 + 4i| = 5
        (exact_matrix([[(0, -tiny * 10)], [tiny]]), "at least 1e-399"),
        (exact_matrix([[10**400 - 1, 1]]), "at least 1e399"),
        (exact_matrix([[-(10**4000)]]), "at least 1e4000"),
    ]
    for m, want in cases:
        assert magnitude_text(m) == want
