import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec.errors import ContractError
from cliffordspec.gallery import fuzzy_sphere_5, pauli
from cliffordspec.linalg import operator_norm, smallest_eigen_magnitude
from cliffordspec.localizer import build, build_reduced
from cliffordspec.matrices import HermitianTuple, float_matrix
from cliffordspec.variance import (
    certificate,
    commutator_norm_sum,
    expectation_variance,
    extract_w,
    near_kernel,
)
from conftest import random_hermitian, random_tuple


def test_expectation_variance_eigenvector():
    x = float_matrix(np.diag([1.0, -1.0]))
    e, var = expectation_variance(x, np.array([1.0, 0.0]))
    assert e == pytest.approx(1.0) and var == pytest.approx(0.0)


def test_expectation_variance_pauli_x():
    sx = float_matrix([[0, 1], [1, 0]])
    e, var = expectation_variance(sx, np.array([1.0, 0.0]))
    assert e == pytest.approx(0.0) and var == pytest.approx(1.0)


def test_expectation_variance_shift_rule(rng):
    x = float_matrix(random_hermitian(rng, 5))
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    mu = 0.7
    e1, var1 = expectation_variance(x, v)
    e2, var2 = expectation_variance(x - mu * np.eye(5), v)
    assert var2 == pytest.approx(var1, abs=1e-10)
    assert e2 == pytest.approx(e1 - mu, abs=1e-12)


def test_expectation_variance_rejects_non_unit():
    with pytest.raises(ContractError):
        expectation_variance(float_matrix(np.eye(2)), np.array([1.0, 1.0]))


def test_near_kernel_values():
    t = HermitianTuple(
        [float_matrix(np.diag([1.0, 2.0])), float_matrix(np.diag([3.0, 4.0]))]
    )
    _, eps = near_kernel(build(t, lam=[1.0, 3.0]))
    assert eps <= 1e-12
    _, eps = near_kernel(build(pauli().as_float(), lam=[1.0, 0.0, 0.0]))
    assert eps <= 1e-10
    _, eps = near_kernel(build(pauli().as_float()))
    assert eps == pytest.approx(1.0)


def test_near_kernel_matches_sigma_min(rng):
    t = random_tuple(rng, 3, 4)
    lam = rng.uniform(-1, 1, 3)
    loc = build(t, lam=lam)
    _, eps = near_kernel(loc)
    assert abs(eps - smallest_eigen_magnitude(loc.matrix)) <= 1e-12


def test_extract_w_blocks():
    w = extract_w(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2)
    assert np.allclose(w, [1, 0])
    z = np.array([0.0, 0.0, 0.6, 0.8])
    w = extract_w(z / np.linalg.norm(z), 2, 2)
    assert np.allclose(w, [0.6, 0.8])
    with pytest.raises(ContractError):
        extract_w(np.array([1.0, 0.0, 0.0]), 2, 2)


def test_extract_w_pigeonhole(rng):
    for _ in range(20):
        g, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        z = rng.normal(size=g * n) + 1j * rng.normal(size=g * n)
        z /= np.linalg.norm(z)
        blocks = z.reshape(g, n)
        r = int(np.argmax(np.linalg.norm(blocks, axis=1)))
        assert np.linalg.norm(blocks[r]) >= 1 / np.sqrt(g) - 1e-12
        extract_w(z, g, n)  # must not raise


def test_certificate_pauli_on_sphere():
    c = certificate(pauli(), lam=[1.0, 0.0, 0.0])
    assert c.rhs == pytest.approx(12.0, abs=1e-9)  # g = 2, three commutators of norm 2
    assert c.epsilon <= 1e-10
    assert c.holds and c.lhs <= 12.0


def test_certificate_commuting_joint_eigenvalue():
    t = HermitianTuple(
        [float_matrix(np.diag([1.0, 2.0])), float_matrix(np.diag([3.0, 4.0]))]
    )
    c = certificate(t, lam=[1.0, 3.0])
    assert c.lhs == pytest.approx(0.0, abs=1e-12)
    assert c.rhs == pytest.approx(0.0, abs=1e-12)
    assert c.holds


def test_certificate_near_spectrum_random(rng):
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        t = random_tuple(rng, d, n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = [float(np.real(np.vdot(v, m @ v))) for m in t.matrices]
        c = certificate(t, lam=lam)
        assert c.holds, (d, n, c.lhs, c.rhs)
        assert all(var >= 0 for var in c.variances)
        assert abs(np.linalg.norm(c.w) - 1) <= 1e-12


def test_certificate_shift_covariance(rng):
    t = random_tuple(rng, 3, 3)
    mu = rng.uniform(-1, 1, 3)
    lam = rng.uniform(-0.5, 0.5, 3)
    c1 = certificate(t, lam=lam)
    c2 = certificate(t.shifted(mu), lam=lam - mu)
    assert np.allclose(c1.variances, c2.variances, atol=1e-9)
    offsets1 = np.array(c1.expectations) - np.array(c1.lam)
    offsets2 = np.array(c2.expectations) - np.array(c2.lam)
    assert np.allclose(offsets1, offsets2, atol=1e-9)


def test_certificate_fuzzy_sphere_near_spectrum():
    t = fuzzy_sphere_5(1)
    # coarse search for a near-spectrum point along the x axis
    xs = np.linspace(0.5, 2.5, 41)
    sig = [
        smallest_eigen_magnitude(build(t.as_float(), lam=[x, 0, 0]).matrix) for x in xs
    ]
    lam = [float(xs[int(np.argmin(sig))]), 0.0, 0.0]
    c = certificate(t, lam=lam)
    assert c.holds


# a commuting Hermitian triple with joint eigenvalues (1000, 2000, 1000) and
# (-2000, 1000, -1000); ||Xw||^2 - <w, Xw>^2 rounds below -1e-10 on it
_COMMUTING = HermitianTuple(
    [
        float_matrix([[-500, 1500], [1500, -500]]),
        float_matrix([[1500, 500], [500, 1500]]),
        float_matrix([[0, 1000], [1000, 0]]),
    ]
)


def test_commuting_triple_has_no_false_negative_variance():
    c = certificate(_COMMUTING, lam=[-499.9, 1500.1, 0.1])
    assert min(c.variances) >= 0.0
    c = certificate(_COMMUTING, lam=[1000, 2000, 1000])
    assert c.holds and min(c.variances) >= 0.0
    assert np.allclose(c.expectations, [1000, 2000, 1000], rtol=1e-12)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=80)
@given(st.integers(2, 4), st.integers(1, 4), st.floats(0.0, 6.0), st.integers(0, 2**32 - 1))
def test_commuting_tuples_certify_without_negative_variance(d, n, log_scale, seed):
    # commuting matrices conjugated by one random unitary; at a joint
    # eigenvalue and near one, every variance is a rounded square, never refused
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    u = _random_unitary(rng, n)
    spectra = rng.uniform(-1, 1, (d, n)) * scale
    mats = [u @ np.diag(s) @ u.conj().T for s in spectra]
    t = HermitianTuple([float_matrix((m + m.conj().T) / 2) for m in mats])
    k = int(rng.integers(n))
    for lam in (spectra[:, k], spectra[:, k] + rng.uniform(-0.1, 0.1, d) * scale):
        c = certificate(t, lam=lam)
        assert all(0.0 <= var <= scale**2 for var in c.variances)


def _well_separated(t, lam, floor=0.0) -> bool:
    """Whether the least singular value of R_lambda (d = 4) or the least
    |eigenvalue| of L_lambda is apart from the next by more than 1e-8, and
    above floor: then the near-kernel vector, and so w, is well conditioned."""
    if t.d == 4:
        s = np.linalg.svd(build_reduced(t, lam=lam).matrix, compute_uv=False)[::-1]
    else:
        s = np.sort(np.abs(np.linalg.eigvalsh(build(t, lam=lam).matrix)))
    return s[1] - s[0] > 1e-8 and s[0] > floor


def _full_localizer_certificate(t, lam):
    """(epsilon, lhs, holds) from eigh of the full L_lambda, block by block."""
    loc = build(t, lam=lam)
    g = len(loc.matrix) // t.n
    z, eps = near_kernel(loc)
    w = extract_w(z, g, t.n)
    lhs = 0.0
    for x, l in zip(t.matrices, loc.lam):
        e, var = expectation_variance(x, w)
        lhs += var + (e - l) ** 2
    return eps, lhs, lhs <= eps + g * commutator_norm_sum(t)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_four_tuple_certificate_on_reduced_localizer_matches_full(n, seed):
    rng = np.random.default_rng(seed)
    t = random_tuple(rng, 4, n)
    lam = rng.uniform(-2, 2, 4)
    got = certificate(t, lam=lam)
    eps, lhs, holds = _full_localizer_certificate(t, lam)
    assert abs(got.epsilon - eps) <= 1e-12 * (1 + operator_norm(build(t, lam=lam).matrix))
    # the eigenvalues +-sigma_min of L_lambda are apart, so eigh does not mix them
    if _well_separated(t, lam, floor=1e-8):
        assert abs(got.lhs - lhs) <= 1e-12 * lhs
    assert got.holds == holds


@settings(max_examples=60)
@given(st.sampled_from([3, 4]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_certificate_is_unitarily_invariant(d, n, seed):
    # L_lambda of U X_j U* is (U (x) I) L_lambda (U (x) I)*: the same eps, and
    # w goes to U w, which keeps every expectation and variance
    rng = np.random.default_rng(seed)
    t = random_tuple(rng, d, n)
    u = _random_unitary(rng, n)
    moved = HermitianTuple([float_matrix(u @ x @ u.conj().T) for x in t.matrices])
    lam = rng.uniform(-2, 2, d)
    a, b = certificate(t, lam=lam), certificate(moved, lam=lam)
    assert abs(a.epsilon - b.epsilon) <= 1e-12 * (1 + operator_norm(build(t, lam=lam).matrix))
    if _well_separated(t, lam):
        assert abs(a.lhs - b.lhs) <= 1e-12 * a.lhs
        assert a.holds == b.holds
