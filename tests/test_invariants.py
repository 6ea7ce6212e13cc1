from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec.cliffordrep import standard_rep
from cliffordspec.errors import ContractError, SingularAtTolerance, SymmetryError
from cliffordspec.gallery import (
    direct_sum_sphere,
    even_odd,
    lemniscate,
    pauli,
    self_dual_path,
    torus_quadruple,
)
from cliffordspec.invariants import (
    SymmetryProfile,
    _conjugation_unitary,
    _skew_pencil,
    archetypal,
    archetypal_sign,
    dual,
    graded_index,
    index,
    index_along_path,
    validate_symmetry,
)
from cliffordspec.linalg import determinant, operator_norm
from cliffordspec.localizer import Pencil, build
from cliffordspec.matrices import HermitianTuple, exact_zeros, float_matrix, to_float
from cliffordspec.scalars import GaussianRational
from cliffordspec.tolerances import SKEW_CHECK_RTOL
from cliffordspec.variance import certificate


def test_index_values():
    assert index(pauli(), [0, 0, 0]).value == 1
    assert index(lemniscate(), [0, 0.7, 0]).value == 1
    assert index(lemniscate(), [0, -0.7, 0]).value == 1
    assert index(pauli(), [0, 0, 5]).value == 0
    assert index(direct_sum_sphere(0), [0, 0, 0]).value == 0


def test_index_raises_on_spectrum():
    with pytest.raises(SingularAtTolerance):
        index(pauli(), [1.0, 0.0, 0.0])


def test_index_needs_triples():
    with pytest.raises(ContractError):
        index(even_odd(0), [0, 0, 0, 0])


def test_index_vanishes_beyond_norm():
    t = pauli()
    norm0 = operator_norm(build(t.as_float()).matrix)
    for direction in np.array([[1, 0, 0], [0, 1, 0], [0.6, -0.8, 0.4]]):
        lam = 2 * norm0 * direction / np.linalg.norm(direction)
        assert index(t, lam).value == 0


def test_index_constant_along_path_inside_lobe():
    reports = index_along_path(
        lemniscate(), [(0, 0.5, 0), (0, 0.9, 0), (0.05, 0.7, 0.05)], samples_per_segment=16
    )
    assert {r.value for r in reports} == {1}


def test_dual_examples():
    eye = float_matrix(np.eye(4))
    assert np.allclose(dual(eye), eye)
    m = float_matrix([[0, 1], [0, 0]])
    assert np.allclose(dual(m), [[0, -1], [0, 0]])
    for m in direct_sum_sphere(0).matrices:
        assert np.allclose(to_float(dual(m)), to_float(m))
    with pytest.raises(ContractError):
        dual(float_matrix(np.eye(3)))


def test_validate_symmetry_clock_shift():
    prof = SymmetryProfile(
        (
            frozenset({"symmetric"}),
            frozenset({"anti-symmetric"}),
            frozenset({"symmetric"}),
            frozenset({"symmetric"}),
        )
    )
    assert validate_symmetry(torus_quadruple(5), prof).ok


def test_validate_symmetry_self_dual_examples():
    prof = SymmetryProfile((frozenset({"self-dual"}),) * 3)
    assert validate_symmetry(direct_sum_sphere(0), prof).ok
    for s in (0, Fraction(1, 4), Fraction(1, 2)):
        assert validate_symmetry(self_dual_path(s), prof).ok
    # the 2x2 triple is not self-dual: flags fail (dual flips sigma_x)
    report = validate_symmetry(pauli(), prof)
    assert not report.ok


def test_validate_symmetry_grading():
    from cliffordspec.gallery import even_odd_grading

    prof = SymmetryProfile(
        (
            frozenset({"even"}),
            frozenset({"even"}),
            frozenset({"even"}),
            frozenset({"odd"}),
        ),
        grading=even_odd_grading(4),
    )
    assert validate_symmetry(even_odd(0), prof).ok
    assert validate_symmetry(even_odd(Fraction(3, 2)), prof).ok


def test_archetypal_values():
    t = self_dual_path(0)
    a0 = archetypal(t, [0, 0, 0])
    assert a0 * a0 == 9  # |char(0)| = 9
    assert archetypal(t.as_float(), [0.0, 0.0, 0.0]) == pytest.approx(-3.0)


def test_archetypal_square_matches_det(rng):
    for s in (0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)):
        t = self_dual_path(s).as_float()
        for _ in range(6):
            lam = rng.uniform(-2, 2, 3)
            a = archetypal(t, lam)
            d = np.linalg.det(build(t, lam=lam).matrix).real
            assert abs(a * a - d) <= 1e-9 * max(1.0, abs(d))


def test_archetypal_sign_far_field():
    t = self_dual_path(0)
    norm0 = operator_norm(build(t.as_float()).matrix)
    r = archetypal_sign(t, [10 * norm0, 0, 0])
    assert r.value == 1
    inside = archetypal_sign(t, [0, 0, 0])
    assert inside.value == -1


def test_archetypal_requires_self_dual():
    with pytest.raises(SymmetryError):
        archetypal(pauli().as_float(), [0.0, 0.0, 0.0])


def test_exact_skew_pencil_takes_no_tolerance():
    # a self-duality defect far below SKEW_CHECK_RTOL passes the float
    # pencil's scaled check, but not the exact pencil's integer identity
    eps = Fraction(1, 10**20)
    assert eps < 1e-6 * SKEW_CHECK_RTOL
    mats = [m.copy() for m in self_dual_path(0).matrices]
    mats[0][0, 0] = mats[0][0, 0] + GaussianRational(eps)
    t = HermitianTuple(mats)
    _skew_pencil(Pencil.localizer(t.as_float(), standard_rep(3)))
    with pytest.raises(SymmetryError, match="skew"):
        _skew_pencil(Pencil.localizer(t, standard_rep(3)))


def test_graded_index_values():
    assert graded_index(even_odd(0), [0, 0, 0, 0]).value == -1
    assert graded_index(even_odd(0), [5, 0, 0, 0]).value == 0
    assert graded_index(even_odd(Fraction(3, 2)), [0, 0, 0, 0]).value == -1


def test_graded_index_preconditions():
    with pytest.raises(SymmetryError):
        graded_index(even_odd(0), [0, 0, 0, 0.3])
    with pytest.raises(SymmetryError):
        # torus quadruple does not satisfy the even/odd grading
        graded_index(torus_quadruple(4), [0, 0, 0, 0])
    with pytest.raises(ContractError):
        graded_index(pauli(), [0, 0, 0])
    from cliffordspec.gallery import even_odd_grading

    # i G keeps the even/odd relations, but the graded localizer is then
    # anti-Hermitian
    with pytest.raises(SymmetryError, match="not Hermitian"):
        graded_index(even_odd(0), [0, 0, 0, 0], even_odd_grading(4) * GaussianRational(0, 1))


def test_index_report_fields():
    r = index(pauli(), [0, 0, 0])
    assert r.kind == "half-signature"
    assert r.gap == pytest.approx(1.0)
    assert r.lam == (0.0, 0.0, 0.0)


def test_two_holed_torus_probe_index():
    from cliffordspec.gallery import named_example, sykora_two_torus

    ex = named_example("sykora_two_torus", r=1)
    probe = ex.expected["probe_point"]
    r = index(sykora_two_torus(1), list(probe))
    assert r.value == ex.expected["probe_index"] == -1


@settings(max_examples=30)
@given(
    st.fractions(0, Fraction(1, 2), max_denominator=12),
    st.lists(st.fractions(-3, 3, max_denominator=9), min_size=3, max_size=3),
)
def test_archetypal_exact_float_agreement(s, lam):
    t = self_dual_path(s)
    exact_val = archetypal(t, lam)
    float_val = archetypal(t.as_float(), [float(v) for v in lam])
    assert abs(exact_val.to_complex().real - float_val) <= 1e-9 * max(
        1.0, abs(float_val)
    )
    # Q* Q = 2 I, so det((1/2) Q* L Q) = det L, exactly
    assert exact_val * exact_val == determinant(build(t, lam=lam).matrix)


def _former_exact_conjugation_unitary(n2):
    """The former entry loop of the exact Q = [[I, -iZ], [iZ, I]]."""
    half = n2 // 2
    q = exact_zeros((2 * n2, 2 * n2))
    one = GaussianRational(1)
    i = GaussianRational(0, 1)
    for k in range(n2):
        q[k, k] = one
        q[n2 + k, n2 + k] = one
    for k in range(half):
        q[k, n2 + half + k] = -i
        q[half + k, n2 + k] = i
        q[n2 + k, half + k] = i
        q[n2 + half + k, k] = -i
    return q


@pytest.mark.parametrize("n2", [2, 4, 6, 8])
def test_exact_conjugation_unitary_matches_former_loop(n2):
    got = _conjugation_unitary(n2, "exact")
    want = _former_exact_conjugation_unitary(n2)
    assert got.shape == want.shape
    assert all(a == b for a, b in zip(got.reshape(-1), want.reshape(-1)))
    assert np.array_equal(to_float(got), _conjugation_unitary(n2, "float"))


# each point query with its tuple and lambda length
_POINT_QUERIES = {
    "index": (index, pauli, 3),
    "certificate": (lambda t, lam: certificate(t, lam=lam), pauli, 3),
    "archetypal_sign": (archetypal_sign, lambda: self_dual_path(0), 3),
    "graded_index": (graded_index, lambda: even_odd(0), 4),
}


@pytest.mark.parametrize("make", [int, Fraction, GaussianRational])
@pytest.mark.parametrize("query", sorted(_POINT_QUERIES))
def test_point_queries_take_exact_lambda(query, make):
    fn, example, d = _POINT_QUERIES[query]
    t = example()
    want = fn(t, [0.0] * d)
    got = fn(t, [make(0)] * d)
    assert got.lam == want.lam == (0.0,) * d
    assert all(type(v) is float for v in got.lam)
    if query == "certificate":
        assert (got.epsilon, got.lhs, got.rhs) == (want.epsilon, want.lhs, want.rhs)
    else:
        assert (got.value, got.gap) == (want.value, want.gap)
    for imaginary in (1j, GaussianRational(0, 1)):
        with pytest.raises(ContractError, match="must be real"):
            fn(t, [imaginary] + [make(0)] * (d - 1))


def _quaternionic(rng, half):
    """[[A, B], [B*, A^T]] with A Hermitian and B antisymmetric, small
    Gaussian rationals: a self-dual Hermitian matrix of side 2 * half."""

    def entry():
        re, im = rng.integers(-3, 4, size=2)
        return GaussianRational(Fraction(int(re), 2), Fraction(int(im), 3))

    a = exact_zeros((half, half))
    b = exact_zeros((half, half))
    for i in range(half):
        a[i, i] = GaussianRational(entry().re)
        for j in range(i + 1, half):
            a[i, j] = entry()
            a[j, i] = a[i, j].conjugate()
            b[i, j] = entry()
            b[j, i] = -b[i, j]
    return np.block([[a, b], [b.conj().T, a.T]])


def test_exact_archetypal_beyond_side_12():
    # n = 8: the skew pencil has side 16, past the former expansion's limit
    rng = np.random.default_rng(8)
    t = HermitianTuple([_quaternionic(rng, 4) for _ in range(3)])
    lam = [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 5)]
    exact_val = archetypal(t, lam)
    float_val = archetypal(t.as_float(), [float(v) for v in lam])
    assert exact_val and exact_val.im == 0
    assert abs(complex(exact_val).real - float_val) <= 1e-9 * max(1.0, abs(float_val))
    assert exact_val * exact_val == determinant(build(t, lam=lam).matrix)
