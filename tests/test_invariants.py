import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import former_exact_conjugation_unitary

from cliffordspec.charpoly import char_poly
from cliffordspec.errors import (
    ContractError,
    KindMismatchError,
    SingularAtTolerance,
    SymmetryError,
)
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
    _archetypal,
    _skew_pencil,
    archetypal,
    archetypal_sign,
    dual,
    graded_index,
    index,
    index_along_path,
    require_self_dual_triple,
    validate_symmetry,
)
from cliffordspec.linalg import determinant, operator_norm
from cliffordspec.localizer import Pencil, build
from cliffordspec.matrices import (
    HermitianTuple,
    dagger,
    exact_matrix,
    exact_zeros,
    float_matrix,
    from_gaussian_integers,
    to_float,
)
from cliffordspec.sampler import PFAFFIAN_SIGN, AxisSpec, GridSpec, sample
from cliffordspec.scalars import GaussianRational
from cliffordspec.tolerances import LAMBDA_BOUND, SKEW_CHECK_RTOL
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


@pytest.mark.parametrize("samples", [0, -1])
def test_index_along_path_needs_a_sample_per_segment(samples):
    with pytest.raises(ContractError, match="samples_per_segment"):
        index_along_path(lemniscate(), [(0, 0.5, 0), (0, 0.9, 0)], samples_per_segment=samples)


@pytest.mark.parametrize("samples", [2.5, "3", True])
def test_index_along_path_needs_an_integer_sample_count(samples):
    with pytest.raises(ContractError, match="samples_per_segment must be an integer >= 1"):
        index_along_path(lemniscate(), [(0, 0.5, 0), (0, 0.9, 0)], samples_per_segment=samples)


@pytest.mark.parametrize("waypoints", [[], [(0, 0.5, 0)]])
def test_index_along_path_needs_two_waypoints(waypoints):
    with pytest.raises(ContractError, match=f"at least two waypoints, got {len(waypoints)}"):
        index_along_path(lemniscate(), waypoints)


def test_index_along_path_names_a_waypoint_of_the_wrong_shape():
    with pytest.raises(ContractError, match=re.escape("waypoint 1 has shape (2,), not (3,)")):
        index_along_path(pauli(), [[0, 0, 0], [1, 1]])


def test_archetypal_sign_needs_a_triple():
    with pytest.raises(ContractError, match="d = 3"):
        archetypal_sign(even_odd(), [0.5, 0.0, 0.0, 0.0])


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


@settings(max_examples=60)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)]),
)
def test_archetypal_sign_is_the_sign_of_the_unscaled_value(lam, s):
    t = self_dual_path(s).as_float()
    try:
        report = archetypal_sign(t, lam)
    except SingularAtTolerance:
        return
    assert report.value == (1 if archetypal(t, lam) > 0 else -1)


def test_archetypal_sign_of_a_large_triple_with_one_large_entry():
    # [[A, B], [B*, A^T]], A Hermitian and B antisymmetric, of side 200, with
    # one entry 2^12 on the diagonal of X1 and the other eigenvalues of L_lambda
    # of order 1: scaled by its largest entry, the skew matrix has a Pfaffian
    # near 2^(-13 * 200), below the float range; unscaled it is within range
    rng = np.random.default_rng(0)
    h = 100
    mats = []
    for j in range(3):
        g = (rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))) / np.sqrt(8 * h)
        a = g + g.conj().T
        b = (rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))) / np.sqrt(8 * h)
        b = b - b.T
        if j == 0:
            a[0, 0] = 2.0**12
        mats.append(np.block([[a, b], [b.conj().T, a.T]]))
    t = HermitianTuple(mats)
    signs = []
    for lam in ([0.0, 0.0, 0.0], [0.1, 0.4, -0.3], [-0.2, 0.1, 0.2]):
        unscaled = archetypal(t, lam)
        assert 1e-300 < abs(unscaled) < 1e300
        signs.append(1 if unscaled > 0 else -1)
        assert archetypal_sign(t, lam).value == signs[-1]
    assert sorted(signs) == [-1, 1, 1]


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
    _skew_pencil(Pencil.localizer(t.as_float()))
    with pytest.raises(SymmetryError, match="skew"):
        _skew_pencil(Pencil.localizer(t))


@pytest.mark.parametrize(
    "eps, size",
    [
        (Fraction(1, 10**400), "at least 1e-400"),
        (Fraction(21, 10**401), "at least 1e-400"),
        (Fraction(10**400), "at least 1e400"),
        (Fraction(3, 1000), "3.000e-03"),
    ],
)
def test_symmetry_errors_name_the_size_of_an_exact_defect(eps, size):
    """An exact defect beyond the float range in either direction reads 0.0
    or inf as a float violation; the message names its power of ten."""
    mats = [m.copy() for m in self_dual_path(0).matrices]
    mats[0][0, 0] = mats[0][0, 0] + GaussianRational(eps)
    with pytest.raises(SymmetryError, match=f"^matrix 0 violates self-duality by {re.escape(size)}$"):
        require_self_dual_triple(HermitianTuple(mats))


def test_grading_errors_name_the_size_of_an_exact_defect():
    mats = [m.copy() for m in even_odd(0).matrices]
    for i, j in ((0, 2), (2, 0)):  # across the grading's blocks: a defect of 2e-500
        mats[1][i, j] = mats[1][i, j] + GaussianRational(Fraction(1, 10**500))
    with pytest.raises(SymmetryError, match="^matrix 1 violates the even grading by at least 1e-500$"):
        graded_index(HermitianTuple(mats), [0, 0, 0, 0])


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


def test_graded_index_names_a_grading_of_the_wrong_shape():
    with pytest.raises(ContractError, match=re.escape("grading has shape (1, 1), not 4 x 4")):
        graded_index(even_odd(), [0, 0, 0, 0], grading=exact_matrix([[1]]))


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


def _random_self_dual_float_triple(rng, n):
    mats = []
    for _ in range(3):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m + m.conj().T
        mats.append(float_matrix(m + dual(m)))
    return HermitianTuple(mats)


def _conjugated_members(pencil):
    """(1/2) Q* M Q for each member M of a localizer pencil, Q from the former loop."""
    q = former_exact_conjugation_unitary(pencil.side // 2)
    if pencil.kind == "exact":
        members = from_gaussian_integers(pencil.den, pencil.re, pencil.im)
        return [GaussianRational(Fraction(1, 2)) * (dagger(q) @ m @ q) for m in members]
    q = to_float(q)
    return [0.5 * (dagger(q) @ m @ q) for m in pencil.members]


@settings(max_examples=40)
@given(st.sampled_from([2, 4, 6, 8, 10, 12]), st.integers(0, 2**32 - 1))
def test_float_skew_pencil_members_are_the_conjugated_members(n, seed):
    t = _random_self_dual_float_triple(np.random.default_rng(seed), n)
    pencil = Pencil.localizer(t)
    skew = _skew_pencil(pencil)
    got = skew.members
    want = _conjugated_members(pencil)
    assert len(got) == len(want) == 4
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("half, seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)])
def test_exact_skew_pencil_members_are_the_conjugated_members(half, seed):
    rng = np.random.default_rng(seed)
    t = HermitianTuple([_quaternionic(rng, half) for _ in range(3)])
    pencil = Pencil.localizer(t)
    skew = _skew_pencil(pencil)
    got = from_gaussian_integers(skew.den, skew.re, skew.im)
    want = _conjugated_members(pencil)
    assert got.shape == (len(want), 4 * half, 4 * half)
    assert all(a == b for g, w in zip(got, want) for a, b in zip(g.flat, w.flat))
    # the integer form of the GaussianRational products, in lowest terms
    ref = Pencil.from_members(want)
    assert skew.den == ref.den
    assert np.array_equal(skew.re, ref.re) and np.array_equal(skew.im, ref.im)


def test_archetypal_reads_the_pfaffian_grid_value():
    # X3 + 1e4 I + 5e-11 diag(1, 0, 0, -1) is self-dual to 5e-15 relative;
    # at lambda_3 = 1e4 its skew matrix passes SKEW_CHECK_RTOL, the pencil's
    # check, but not the stricter check pfaffian() gives outside input
    mats = [m.copy() for m in self_dual_path(0).as_float().matrices]
    mats[2] = mats[2] + 1e4 * np.eye(4) + 5e-11 * np.diag([1, 0, 0, -1])
    t = HermitianTuple(mats)
    spec = GridSpec((AxisSpec(0, 0.5, 3.0, 2), AxisSpec(1, -1.0, 0.0, 2)), ((2, 1e4),))
    values = sample(t, spec, PFAFFIAN_SIGN).values
    for lam, value in (([0.5, 0.0, 1e4], values[0, 1]), ([3.0, 0.0, 1e4], values[1, 1])):
        assert archetypal(t, lam) == value
        assert archetypal_sign(t, lam).value == (1 if value > 0 else -1)
    assert values[0, 1] < 0 < values[1, 1]


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


# each point query's far-field report: its value, or whether the variance
# inequality holds (it cannot once |lambda|^2 outgrows |lambda|)
_FAR_FIELD = {"index": 0, "certificate": False, "archetypal_sign": 1, "graded_index": 0}


@pytest.mark.parametrize("query", sorted(_POINT_QUERIES))
def test_point_queries_take_lambda_up_to_the_bound(query):
    fn, example, d = _POINT_QUERIES[query]
    t = example()
    beyond = np.nextafter(LAMBDA_BOUND, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in range(min(d, 3)):
            for sign in (1.0, -1.0):
                lam = [0.0] * d
                lam[j] = sign * LAMBDA_BOUND
                got = fn(t, lam)
                assert (got.holds if query == "certificate" else got.value) == _FAR_FIELD[query]
                assert np.isfinite(got.lhs if query == "certificate" else got.gap)
                lam[j] = sign * beyond
                with pytest.raises(ContractError, match=f"lambda component {j} .* beyond the bound"):
                    fn(t, lam)
        # an exact component beyond the bound is refused the same way
        with pytest.raises(ContractError, match="lambda component 0 .* beyond the bound"):
            fn(t, [Fraction(10**151)] + [0] * (d - 1))


def test_archetypal_beyond_the_float_range_names_lambda():
    t = self_dual_path(0).as_float()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in range(3):
            for sign in (1.0, -1.0):
                lam = [0.0] * 3
                lam[j] = sign * LAMBDA_BOUND
                # |Pf| is about |lambda|^4 = 1e600
                with pytest.raises(ContractError, match=r"at lambda \[.*e\+150.*float range"):
                    archetypal(t, lam)
        # at 1e77 the value, about 1e308, is still a float
        assert 1e307 < archetypal(t, [1e77, 0.0, 0.0]) < 1.8e308


def test_archetypal_on_the_spectrum_takes_no_log_of_zero():
    # X1 = diag(1, 2, 1, 2) is self-dual; at lambda = (1, 0, 0) four
    # eigenvalues of L_lambda are exactly 0
    zero = float_matrix(np.zeros((4, 4)))
    t = HermitianTuple([float_matrix(np.diag([1.0, 2.0, 1.0, 2.0])), zero, zero])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert archetypal(t, [1.0, 0.0, 0.0]) == 0.0


def test_archetypal_matches_the_unscaled_pfaffian_bit_for_bit():
    # the value at the 2^-k scale, scaled back, is the Pfaffian of the
    # unscaled skew matrix, as archetypal computed it before the scaling
    rng = np.random.default_rng(200)
    tuples = [self_dual_path(s).as_float() for s in (0, Fraction(1, 4), Fraction(1, 2))]
    tuples += [_random_self_dual_float_triple(rng, n) for n in (2, 4, 6)]
    for k in range(200):
        t = tuples[k % len(tuples)]
        lam = list(rng.normal(scale=2.0, size=3))
        unscaled = _archetypal(_skew_pencil(Pencil.localizer(t)), lam)
        assert archetypal(t, lam).hex() == unscaled.hex()


_EXACT_LAMBDA_QUERIES = {"build": lambda t, lam: build(t, lam=lam), "archetypal": archetypal}


@pytest.mark.parametrize("bad", [0.5, "x", math.inf])
@pytest.mark.parametrize("query", sorted(_EXACT_LAMBDA_QUERIES))
def test_exact_tuples_name_a_lambda_component_that_is_not_exact(query, bad):
    message = f"lambda component 1 is {bad!r}, not an exact number"
    with pytest.raises(KindMismatchError, match=re.escape(message)):
        _EXACT_LAMBDA_QUERIES[query](self_dual_path(0), [0, bad, 0])


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


@settings(max_examples=30)
@given(
    st.sampled_from([2, 4]),
    st.integers(0, 2**32 - 1),
    st.lists(st.fractions(-3, 3, max_denominator=6), min_size=3, max_size=3),
)
def test_exact_archetypal_squared_is_char_poly(n, seed, lam):
    # the fraction-free Pfaffian against the modular determinants of
    # char_poly: Pf((1/2) Q* L Q)^2 = det L
    rng = np.random.default_rng(seed)
    t = HermitianTuple([_quaternionic(rng, n // 2) for _ in range(3)])
    value = archetypal(t, lam)
    assert value * value == char_poly(t).evaluate(lam)
