import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffordspec.cliffordrep import generated_rep, standard_rep
from cliffordspec.errors import ContractError, KindMismatchError
from cliffordspec.gallery import gamma_tuple, pauli, torus_quadruple
from cliffordspec.linalg import operator_norm, smallest_eigen_magnitude
from cliffordspec.localizer import (
    Pencil,
    build,
    build_reduced,
    laplace,
    square_identity_residual,
)
from cliffordspec.matrices import (
    FLOAT,
    HermitianTuple,
    exact_eye,
    exact_matrix,
    float_matrix,
    kron,
    to_float,
)
from cliffordspec.scalars import GaussianRational
from conftest import random_tuple


def test_block_form_for_triples(rng):
    t = random_tuple(rng, 3, 3)
    a, b, c = t.matrices
    x, y, z = 0.3, -0.7, 0.2
    loc = build(t, standard_rep(3), [x, y, z]).matrix
    eye = np.eye(3)
    assert np.allclose(loc[:3, :3], c - z * eye)
    assert np.allclose(loc[3:, 3:], -(c - z * eye))
    assert np.allclose(loc[:3, 3:], (a - x * eye) - 1j * (b - y * eye))
    assert np.allclose(loc[3:, :3], (a - x * eye) + 1j * (b - y * eye))


def test_single_matrix_localizer():
    x = float_matrix(np.diag([1.0, 2.0]))
    t = HermitianTuple([x])
    loc = build(t, lam=[0.5])
    assert np.allclose(loc.matrix, x - 0.5 * np.eye(2))


def test_commuting_tuple_singular_at_joint_eigenvalue():
    t = HermitianTuple([float_matrix(np.diag([1.0, 2.0])), float_matrix(np.diag([3.0, 4.0]))])
    loc = build(t, lam=[1.0, 3.0])
    assert smallest_eigen_magnitude(loc.matrix) <= 1e-12


def test_hermitian_for_every_real_lambda(rng):
    t = random_tuple(rng, 4, 3)
    lam = rng.uniform(-2, 2, 4)
    loc = build(t, lam=lam)
    assert np.allclose(loc.matrix, loc.matrix.conj().T)


def test_shift_covariance(rng):
    t = random_tuple(rng, 3, 2)
    mu = rng.uniform(-1, 1, 3)
    lam = rng.uniform(-1, 1, 3)
    direct = build(t, lam=lam).matrix
    shifted = build(t.shifted(mu), lam=lam - mu).matrix
    assert np.allclose(direct, shifted)


def test_exact_tuple_requires_exact_lambda():
    with pytest.raises(KindMismatchError):
        build(pauli(), lam=[0.5, 0, 0])
    loc = build(pauli(), lam=[Fraction(1, 2), 0, 0])
    # upper-right block is (sigma_x - 1/2) - i sigma_y, so entry (0, 2) = -1/2
    assert loc.matrix[0, 2].re == Fraction(-1, 2)


def test_float_tuple_takes_real_gaussian_lambda():
    t = pauli().as_float()
    loc = build(t, lam=[GaussianRational(Fraction(1, 2)), 0, 0])
    assert loc.lam == (0.5, 0.0, 0.0)
    assert np.array_equal(loc.matrix, build(t, lam=[0.5, 0, 0]).matrix)
    for bad in (GaussianRational(0, 1), 1j):
        with pytest.raises(ContractError, match="must be real"):
            build(t, lam=[bad, 0, 0])
    with pytest.raises(ContractError, match="must be real"):
        build_reduced(gamma_tuple().as_float(), [0, GaussianRational(1, 1), 0, 0])


def test_reduced_embedding_matches_full():
    t = torus_quadruple(4)
    lam = [0.2, -0.4, 0.1, 0.6]
    full = build(t, standard_rep(4), lam).matrix
    red = build_reduced(t, lam).matrix
    n = t.n
    assert np.allclose(full[: 2 * n, 2 * n :], red)
    assert np.allclose(full[2 * n :, : 2 * n], red.conj().T)
    assert np.allclose(full[: 2 * n, : 2 * n], 0)


def test_reduced_det_relation(rng):
    for _ in range(5):
        t = random_tuple(rng, 4, 3)
        lam = rng.uniform(-1.5, 1.5, 4)
        dfull = np.linalg.det(build(t, lam=lam).matrix)
        dred = np.linalg.det(build_reduced(t, lam).matrix)
        assert abs(abs(dfull) - abs(dred) ** 2) <= 1e-9 * max(1.0, abs(dfull))


def test_reduced_identity_only_block():
    n = 3
    zero = float_matrix(np.zeros((n, n)))
    t = HermitianTuple([zero, zero, zero, float_matrix(np.eye(n))])
    red = build_reduced(t, [0.0] * 4)
    assert np.allclose(red.matrix, np.eye(2 * n))


def test_reduced_needs_d4(rng):
    with pytest.raises(ContractError):
        build_reduced(random_tuple(rng, 3, 2), [0, 0, 0])


def test_gamma_tuple_reduced_singular_at_origin():
    red = build_reduced(gamma_tuple().as_float(), [0.0] * 4)
    assert abs(np.linalg.det(red.matrix)) <= 1e-10


def test_reduced_invertible_far_out():
    t = torus_quadruple(5)
    norm0 = operator_norm(build(t).matrix)
    red = build_reduced(t, [2 * norm0, 0.0, 0.0, 0.0])
    assert abs(np.linalg.det(red.matrix)) > 1e-6


def test_square_identity_exact_zero():
    assert square_identity_residual(pauli()) == 0.0
    assert square_identity_residual(gamma_tuple()) == 0.0


def test_square_identity_float(rng):
    t = random_tuple(rng, 3, 5)
    lam = rng.uniform(-1, 1, 3)
    loc = build(t, lam=lam)
    res = square_identity_residual(t, lam=lam)
    assert res <= 1e-12 * operator_norm(loc.matrix) ** 2


def test_square_identity_commuting_exact():
    t = HermitianTuple(
        [exact_matrix([[1, 0], [0, 2]]), exact_matrix([[3, 0], [0, 4]])]
    )
    assert square_identity_residual(t) == 0.0


def test_laplace_closed_form():
    t = pauli()
    m = laplace(t, [Fraction(0), Fraction(0), Fraction(0)])
    f = to_float(m)
    assert np.allclose(f, 3 * np.eye(2))
    # two-matrix example: det of the Laplace operator = 4 + r^4 + 2 r^2 s^2 + s^4
    two = HermitianTuple([t.matrices[0], t.matrices[1]])
    for r, s in [(0, 0), (1, 2), (-2, 1)]:
        m = laplace(two, [Fraction(r), Fraction(s)])
        from cliffordspec.linalg import exact_determinant

        want = 4 + r**4 + 2 * r**2 * s**2 + s**4
        assert exact_determinant(m).to_complex() == want


def test_laplace_zero_tuple():
    zero = float_matrix(np.zeros((2, 2)))
    t = HermitianTuple([zero, zero])
    assert np.allclose(laplace(t, [0.0, 0.0]), 0)


def test_two_matrix_det_equals_squared_modulus(rng):
    # even-sized pairs: det L = |det((X + iY) - z)|^2
    t = random_tuple(rng, 2, 4)
    x, y = t.matrices
    for _ in range(5):
        r, s = rng.uniform(-2, 2, 2)
        d = np.linalg.det(build(t, lam=[r, s]).matrix).real
        m = np.linalg.det((x + 1j * y) - (r + 1j * s) * np.eye(4))
        assert abs(d - abs(m) ** 2) <= 1e-8 * max(1.0, abs(d))


def test_d5_generated_rep_localizer(rng):
    # d = 5 runs through the generated representation (g = 4)
    t = random_tuple(rng, 5, 2)
    lam = rng.uniform(-1, 1, 5)
    loc = build(t, lam=lam)
    assert loc.matrix.shape == (8, 8)
    assert np.allclose(loc.matrix, loc.matrix.conj().T)
    res = square_identity_residual(t, lam=lam)
    assert res <= 1e-12 * operator_norm(loc.matrix) ** 2
    norm0 = operator_norm(build(t).matrix)
    far = build(t, lam=[2 * norm0, 0, 0, 0, 0])
    assert smallest_eigen_magnitude(far.matrix) > 0


# ---------------------------------------------------------------------------
# the pencil against the former assembly, kept here as a test-only reference


def _loop_kron(a, b):
    """kron(a, b), blocks indexed by b, as the four-deep loop the exact
    branch of matrices.kron used to be."""
    (p, q), (r, s) = a.shape, b.shape
    out = np.empty((r * p, s * q), dtype=object)
    for k in range(r):
        for l in range(s):
            for i in range(p):
                for j in range(q):
                    out[k * p + i, l * q + j] = b[k, l] * a[i, j]
    return out


def _reference_localizer(tuple_, blocks, lam):
    """sum_j kron(X_j - lambda_j I, B_j), summed left to right."""
    if tuple_.kind == FLOAT:
        blocks, product = [to_float(b) for b in blocks], kron
    else:
        product = _loop_kron
    shifted = tuple_.shifted(lam).matrices
    total = product(shifted[0], blocks[0])
    for x, b in zip(shifted[1:], blocks[1:]):
        total = total + product(x, b)
    return total


def _reference_integer_stack(tuple_, blocks):
    """(den, re, im) of L0 and the P_j by the former route: GaussianRational
    products, then scaling by the lcm of the entry denominators."""
    mats = [
        _reference_localizer(tuple_, blocks, [0] * tuple_.d),
        *(_loop_kron(exact_eye(tuple_.n), b) for b in blocks),
    ]
    flat = [e for m in mats for e in m.reshape(-1)]
    den = math.lcm(*(e.re.denominator for e in flat), *(e.im.denominator for e in flat))
    shape = (len(mats), *mats[0].shape)
    re, im = (
        np.array([int(getattr(e, part) * den) for e in flat], dtype=object).reshape(shape)
        for part in ("re", "im")
    )
    return den, re, im


def _reps(d):
    return [standard_rep(d), generated_rep(d)] if d <= 4 else [generated_rep(d)]


_SCALES = st.floats(-3, 3).map(lambda e: 10.0**e)


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(1, 6), _SCALES, st.integers(0, 2**32 - 1))
def test_float_pencil_equals_former_assembly(d, n, scale, seed):
    rng = np.random.default_rng(seed)
    t = HermitianTuple([x * scale for x in random_tuple(rng, d, n).matrices])
    lam = [float(v) for v in rng.uniform(-2, 2, d) * scale]
    for rep in _reps(d):
        got = build(t, rep, lam).matrix
        assert np.array_equal(got, _reference_localizer(t, rep.gammas, lam))
    if d == 4:
        blocks = standard_rep(4).off_diagonal_blocks
        got = build_reduced(t, lam).matrix
        assert np.array_equal(got, _reference_localizer(t, blocks, lam))


_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _exact_tuples(draw):
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    mats = []
    for _ in range(d):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = (draw(_ENTRY), 0)
            for j in range(i + 1, n):
                re, im = draw(_ENTRY), draw(_ENTRY)
                rows[i][j], rows[j][i] = (re, im), (re, -im)
        mats.append(exact_matrix(rows))
    lam = draw(st.lists(_ENTRY, min_size=d, max_size=d))
    return HermitianTuple(mats), lam


# sigma_x / 2 and sigma_y / 2: L0 = X1 (x) sigma_x + X2 (x) sigma_y has
# integer entries, so the common denominator of the stack is 1, not 2
_HALVES = HermitianTuple(
    [
        exact_matrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]),
        exact_matrix([[0, (0, Fraction(-1, 2))], [(0, Fraction(1, 2)), 0]]),
        exact_matrix([[0, 0], [0, 0]]),
    ]
)


@settings(max_examples=60)
@given(_exact_tuples())
@example((_HALVES, [Fraction(1, 3), 0, Fraction(-2, 5)]))
def test_exact_pencil_equals_former_assembly(case):
    t, lam = case
    cases = [(rep, rep.gammas) for rep in _reps(t.d)]
    if t.d == 4:
        cases.append((None, standard_rep(4).off_diagonal_blocks))
    for rep, blocks in cases:
        got = build(t, rep, lam).matrix if rep else build_reduced(t, lam).matrix
        want = _reference_localizer(t, blocks, lam)
        assert got.shape == want.shape
        assert all(a == b for a, b in zip(got.reshape(-1), want.reshape(-1)))
        pencil = Pencil(t, blocks)
        den, re, im = _reference_integer_stack(t, blocks)
        assert pencil.den == den
        assert np.array_equal(pencil.re, re) and np.array_equal(pencil.im, im)


@settings(max_examples=150)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    _SCALES,
    st.floats(-4, 1).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
)
def test_sigma_min_is_one_lipschitz_in_lambda(d, n, scale, step, seed):
    # L(lam) - L(mu) = I (x) sum_j (mu_j - lam_j) gamma_j, whose square is
    # |lam - mu|^2 I, so sigma_min moves by at most |lam - mu|
    rng = np.random.default_rng(seed)
    t = HermitianTuple([x * scale for x in random_tuple(rng, d, n).matrices])
    lam = rng.uniform(-2, 2, d) * scale
    mu = lam + rng.normal(size=d) * step * scale
    a, b = build(t, lam=lam).matrix, build(t, lam=mu).matrix
    slack = 1e-12 * (operator_norm(a) + operator_norm(b))
    gap = abs(smallest_eigen_magnitude(a) - smallest_eigen_magnitude(b))
    assert gap <= np.linalg.norm(lam - mu) + slack


_FLOAT_PAULI = pauli().as_float()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: build(_FLOAT_PAULI, lam=[math.nan, 0, 0]), "lambda component 0"),
        (lambda: build(_FLOAT_PAULI, lam=[0, math.inf, 0]), "lambda component 1"),
        (lambda: build(_FLOAT_PAULI, lam=[0, 0, -math.inf]), "lambda component 2"),
        (lambda: build(_FLOAT_PAULI, lam=[0, complex(0, math.nan), 0]), "lambda component 1"),
        (lambda: build(_FLOAT_PAULI, lam=["x", 0, 0]), "lambda component 0"),
        (lambda: build(_FLOAT_PAULI, lam=[0, "1", 0]), "lambda component 1"),
        (lambda: build(_FLOAT_PAULI, lam=[0, 0, 10**400]), "lambda component 2"),
        (lambda: HermitianTuple([float_matrix([[math.nan, 0], [0, 1]])]), "matrix 0 has a non-finite"),
        (
            lambda: HermitianTuple([np.eye(2), float_matrix([[1, math.inf], [math.inf, 1]])]),
            "matrix 1 has a non-finite",
        ),
    ],
    ids=[
        "nan",
        "inf",
        "-inf",
        "complex-nan",
        "string",
        "numeric-string",
        "huge-int",
        "nan-entry",
        "inf-entry",
    ],
)
def test_bad_input_raises_contract_error_naming_it(make, message):
    with pytest.raises(ContractError, match=message):
        make()
