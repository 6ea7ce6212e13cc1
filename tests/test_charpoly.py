import dataclasses
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from cliffordspec.charpoly import (
    _KOROBOV,
    _char_family,
    _det_mod,
    _Family,
    _interpolate,
    _is_prime,
    _laplace_family,
    _lattice,
    _lower_set,
    _modular_dets,
    _normalised,
    _primes,
    char_poly,
    laplace_det_poly,
    reduced_char_poly,
)
from cliffordspec.cliffordrep import rep_for
from cliffordspec.errors import ContractError, InterpolationError
from cliffordspec.gallery import (
    direct_sum_char_reference,
    direct_sum_sphere,
    even_odd,
    even_odd_reduced_reference,
    fuzzy_sphere_5,
    gamma_reduced_reference,
    gamma_tuple,
    lemniscate,
    lemniscate_char_reference,
    pauli,
    scaled_gamma_reduced_reference,
    scaled_pauli,
    sphere_char_reference,
    sykora_two_torus,
    torus_quadruple,
)
from cliffordspec.linalg import _gaussian_int_bareiss, exact_determinant
from cliffordspec.localizer import Pencil, _affine_pencil, build
from cliffordspec.matrices import HermitianTuple, exact_matrix, to_float
from cliffordspec.multipoly import MultiPoly, poly_equal, variables
from cliffordspec.scalars import GaussianRational
from conftest import random_tuple


def test_pauli_char_poly_exact():
    p = char_poly(pauli())
    eq, disc = poly_equal(p, sphere_char_reference())
    assert eq, disc


def test_lemniscate_char_poly_exact():
    eq, _ = poly_equal(char_poly(lemniscate()), lemniscate_char_reference())
    assert eq


def test_single_matrix_char_poly():
    t = HermitianTuple([exact_matrix([[1, 0], [0, 2]])])
    p = char_poly(t)
    (lam,) = variables("l")
    eq, _ = poly_equal(p, (1 - lam) * (2 - lam))
    assert eq


def test_float_matches_exact_dual_path():
    p_exact = char_poly(pauli()).as_float()
    p_float = char_poly(pauli().as_float())
    eq, disc = poly_equal(p_exact, p_float, tol=1e-9)
    assert eq, disc


def test_reduced_float_matches_exact_dual_path():
    t_exact = torus_quadruple(4, exact=True)
    t_float = torus_quadruple(4)
    eq, disc = poly_equal(
        reduced_char_poly(t_exact), reduced_char_poly(t_float), tol=1e-9
    )
    assert eq, disc


def test_reduced_char_gamma_families():
    eq, _ = poly_equal(reduced_char_poly(gamma_tuple()), gamma_reduced_reference())
    assert eq
    eq, _ = poly_equal(
        reduced_char_poly(gamma_tuple(2, 1, 1, 1)), scaled_gamma_reduced_reference()
    )
    assert eq
    eq, _ = poly_equal(reduced_char_poly(even_odd(0)), even_odd_reduced_reference())
    assert eq


def test_reduced_needs_four_matrices():
    with pytest.raises(ContractError):
        reduced_char_poly(pauli())


def test_lambda2_flip_symmetry_exact():
    # X1, X3, X4 symmetric and X2 anti-symmetric force x -> -x invariance
    p = reduced_char_poly(torus_quadruple(4, exact=True))
    for expo in p.terms:
        assert expo[1] % 2 == 0


def test_char_poly_real_coefficients(rng):
    p = char_poly(random_tuple(rng, 3, 2))
    assert all(c.imag == 0 for c in p.terms.values())


def test_char_matches_det_at_random_points(rng):
    t = random_tuple(rng, 3, 3)
    p = char_poly(t)
    for _ in range(5):
        lam = rng.uniform(-1.4, 1.4, 3)
        want = np.linalg.det(build(t, lam=lam).matrix).real
        got = p.evaluate(lam).real
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_reduced_modulus_squared_property(rng):
    t = random_tuple(rng, 4, 2)
    pr = reduced_char_poly(t)
    pf = char_poly(t)
    for _ in range(5):
        lam = rng.uniform(-1.2, 1.2, 4)
        a = abs(pf.evaluate(lam))
        b = abs(pr.evaluate(lam)) ** 2
        assert abs(a - b) <= 1e-8 * max(1.0, a)


def test_laplace_det_poly_two_matrix_example():
    t = pauli()
    two = HermitianTuple([t.matrices[0], t.matrices[1]])
    p = laplace_det_poly(two)
    r, s = variables("r s")
    eq, _ = poly_equal(p, r**4 + 2 * r**2 * s**2 + s**4 + 4)
    assert eq


def test_held_out_validation_runs_clean(rng):
    # any successful reconstruction implies the held-out check passed
    char_poly(random_tuple(rng, 2, 4))


def test_total_degree_bound(rng):
    t = random_tuple(rng, 3, 2)
    p = char_poly(t)
    assert p.total_degree <= 2 * t.n


def test_torus_n4_imag_part_exact_closed_form():
    # the n = 4 clock/shift quadruple is Gaussian-rational, so the
    # tabulated imaginary-part factorization can be checked exactly
    p = reduced_char_poly(torus_quadruple(4, exact=True))
    w, x, y, z = variables("w x y z")
    locus = w**2 + x**2 - y**2 - z**2
    ref = locus * (4 * (w**2 + x**2 + y**2 + z**2) + 8)
    eq, disc = poly_equal(p.imag_part(), ref)
    assert eq, disc


def test_single_float_matrix_matches_numpy_poly(rng):
    from cliffordspec.matrices import float_matrix
    from conftest import random_hermitian

    x = random_hermitian(rng, 5)
    t = HermitianTuple([float_matrix(x)])
    p = char_poly(t)
    # numpy oracle: det(X - l) = (-1)^n * charpoly_numpy(l)
    np_coeffs = np.poly(x)  # leading-first coefficients of det(l - X)
    for lam in rng.uniform(-2, 2, 5):
        want = ((-1) ** 5) * np.polyval(np_coeffs, lam)
        got = p.evaluate([lam]).real
        assert abs(got - want.real) <= 1e-9 * max(1.0, abs(want))


def test_laplace_det_poly_float_matches_exact():
    t = pauli()
    two = HermitianTuple([t.matrices[0], t.matrices[1]])
    eq, disc = poly_equal(laplace_det_poly(two.as_float()), laplace_det_poly(two), tol=1e-9)
    assert eq, disc


@pytest.mark.parametrize(
    "tuple_, poly_fn",
    [
        (torus_quadruple(4, exact=True), reduced_char_poly),
        (fuzzy_sphere_5(), char_poly),
        (sykora_two_torus(), char_poly),
    ],
    ids=["torus_quadruple4", "fuzzy_sphere_5", "sykora_two_torus"],
)
def test_float_matches_exact_across_scales(tuple_, poly_fn):
    # the polynomial of c * X has coefficients c^(side - |alpha|) times
    # those of X; pulled back by that factor, every coefficient is compared
    # at its own scale, not only against the largest one.  The shifted
    # tuples X_j + shift * I sit off the origin, where the unit-scale
    # pencil is far from centred
    for shift in (0, 3, 30):
        moved = tuple_.shifted([-shift] * tuple_.d)
        exact = poly_fn(moved)
        side = exact.total_degree
        for c in (0.01, 0.1, 1.0, 10.0, 100.0):
            got = poly_fn(HermitianTuple([to_float(x) * c for x in moved.matrices]))
            back = MultiPoly(
                got.nvars,
                {e: v / c ** (side - sum(e)) for e, v in got.terms.items()},
                got.kind,
            )
            eq, disc = poly_equal(back, exact, tol=1e-9)
            assert eq, (shift, c, disc)


_PAULI = (
    sympy.Matrix([[0, 1], [1, 0]]),
    sympy.Matrix([[0, -sympy.I], [sympy.I, 0]]),
    sympy.Matrix([[1, 0], [0, -1]]),
)
_ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# large numerators and denominators: the common denominator and the
# determinants need many primes, and signs come from the symmetric CRT range
_LARGE_ENTRY = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=997)


@st.composite
def _gaussian_rational_triples(draw, entry=_ENTRY, max_n=2):
    n = draw(st.integers(1, max_n))
    mats = []
    for _ in range(3):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = (draw(entry), 0)
            for j in range(i + 1, n):
                re, im = draw(entry), draw(entry)
                rows[i][j] = (re, im)
                rows[j][i] = (re, -im)
        mats.append(exact_matrix(rows))
    return HermitianTuple(mats)


def _sympy_matrix(m):
    n = m.shape[0]
    return sympy.Matrix(
        n, n, lambda i, j: sympy.Rational(m[i, j].re) + sympy.I * sympy.Rational(m[i, j].im)
    )


def _sympy_det_poly(matrix, lams):
    dm = DomainMatrix.from_Matrix(matrix)  # entries in QQ_I[l0, l1, l2]
    oracle = sympy.Poly(dm.domain.to_sympy(dm.det()), *lams)
    terms = {}
    for expo, coeff in oracle.terms():
        re, im = coeff.as_real_imag()
        terms[expo] = GaussianRational(Fraction(str(re)), Fraction(str(im)))
    return MultiPoly(len(lams), terms)


def _sympy_char_poly(t):
    lams = sympy.symbols("l0:3")
    eye = sympy.eye(t.n)
    loc = sympy.zeros(2 * t.n)
    for g, x, lam in zip(_PAULI, t.matrices, lams):
        loc += sympy.kronecker_product(g, _sympy_matrix(x) - lam * eye)
    return _sympy_det_poly(loc, lams)


@settings(max_examples=25, deadline=None)
@given(_gaussian_rational_triples())
def test_exact_char_poly_matches_sympy_determinant(t):
    oracle_poly = _sympy_char_poly(t)
    eq, disc = poly_equal(char_poly(t), oracle_poly)
    assert eq, disc
    eq, disc = poly_equal(char_poly(t.as_float()), oracle_poly, tol=1e-9)
    assert eq, disc


@settings(max_examples=25, deadline=None)
@given(_gaussian_rational_triples(_LARGE_ENTRY))
def test_exact_char_and_laplace_polys_match_sympy_at_large_entries(t):
    eq, disc = poly_equal(char_poly(t), _sympy_char_poly(t))
    assert eq, disc
    lams = sympy.symbols("l0:3")
    eye = sympy.eye(t.n)
    ops = sympy.zeros(t.n)
    for x, lam in zip(t.matrices, lams):
        shifted = _sympy_matrix(x) - lam * eye
        ops += shifted * shifted
    eq, disc = poly_equal(laplace_det_poly(t), _sympy_det_poly(ops, lams))
    assert eq, disc


_PHASES = tuple(GaussianRational(*u) for u in ((1, 0), (0, 1), (-1, 0), (0, -1)))


@settings(max_examples=25)
@given(_gaussian_rational_triples(max_n=3), st.data())
def test_char_poly_invariant_under_unitary_conjugation(t, data):
    # U = D P, a permutation P with phases D in {+-1, +-i}, keeps the tuple
    # exact, so the exact polynomials must agree exactly
    n = t.n
    perm = data.draw(st.permutations(range(n)))
    ph = [_PHASES[k] for k in data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    conj = HermitianTuple(
        [
            exact_matrix(
                [[ph[a] * x[perm[a], perm[b]] * ph[b].conjugate() for b in range(n)] for a in range(n)]
            )
            for x in t.matrices
        ]
    )
    want = char_poly(t)
    eq, disc = poly_equal(char_poly(conj), want)
    assert eq, disc
    # a dense unitary leaves the float polynomial within its 1e-9 contract
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense = HermitianTuple([q.conj().T @ to_float(x) @ q for x in t.matrices])
    eq, disc = poly_equal(char_poly(dense), want, tol=1e-9)
    assert eq, disc


@settings(max_examples=25)
@given(_gaussian_rational_triples(), _gaussian_rational_triples())
def test_direct_sum_multiplicativity_exact(x, y):
    eq, disc = poly_equal(char_poly(x.direct_sum(y)), char_poly(x) * char_poly(y))
    assert eq, disc


def test_direct_sum_sphere_matches_worked_reference():
    # the worked 4x4 example equals the squared sphere polynomial
    eq, _ = poly_equal(char_poly(direct_sum_sphere(0)), direct_sum_char_reference())
    assert eq


def test_full_gamma4_char_poly_is_reduced_modulus_squared():
    t = gamma_tuple()
    red = reduced_char_poly(t)
    eq, disc = poly_equal(char_poly(t), red * red.map_coefficients(lambda c: c.conjugate()))
    assert eq, disc


def test_primes_are_one_mod_four_with_a_root_of_minus_one():
    for p, s in itertools.islice(_primes(), 30):
        assert sympy.isprime(p) and p % 4 == 1 and p < 2**31
        assert s * s % p == p - 1
    # the small range holds strong pseudoprimes to base 2 (2047, 3277, ...)
    for n in itertools.chain(range(63, 20001, 2), range(2**31 - 6001, 2**31, 2)):
        assert _is_prime(n) == sympy.isprime(n)


def _member(pencil, c, part):
    """pencil[0] - sum_k c[k] pencil[k + 1] for one part (re or im), as rows
    of Python ints."""
    mats = pencil[part]
    n = len(mats[0])
    return [
        [mats[0][i][j] - sum(ck * m[i][j] for ck, m in zip(c, mats[1:])) for j in range(n)]
        for i in range(n)
    ]


def _bareiss_dets(pencil, coeffs):
    return [
        _gaussian_int_bareiss(np.array([_member(pencil, c, 0), _member(pencil, c, 1)], dtype=object))
        for c in coeffs
    ]


def _object_pencil(pencil):
    return tuple(np.array(part, dtype=object) for part in pencil)


@st.composite
def _integer_pencils(draw):
    """A Gaussian-integer pencil of k + 1 matrices n x n, as (re, im) nested
    lists, and rows of node coefficients.  The first row is zero, so the
    first member is pencil[0], which may repeat a row (singular) or have a
    zero leading entry (a row swap)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 2))
    bound = draw(st.sampled_from((2, 10**9)))
    entries = st.lists(st.integers(-bound, bound), min_size=n * n, max_size=n * n)
    pencil = tuple(
        [[flat[i * n : (i + 1) * n] for i in range(n)] for flat in (draw(entries) for _ in range(k + 1))]
        for _ in range(2)
    )
    if n > 1 and draw(st.booleans()):
        for part in pencil:
            part[0][1] = list(part[0][0])
    if draw(st.booleans()):
        for part in pencil:
            part[0][0][0] = 0
    rows = draw(st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k), max_size=3))
    return pencil, [[0] * k, *rows]


@settings(max_examples=60)
@given(_integer_pencils())
def test_modular_dets_match_bareiss(case):
    pencil, coeffs = case
    k = len(pencil[0]) - 1
    got = _modular_dets(_object_pencil(pencil), np.array(coeffs, dtype=np.int64).reshape(len(coeffs), k))
    assert list(zip(*got)) == _bareiss_dets(pencil, coeffs)


def test_modular_dets_beyond_two_primes():
    # 12 x 12 entries near 1e9: |det| far above 2^62 > p1 * p2, so the
    # Hadamard bound must call for a third prime and more
    rng = np.random.default_rng(5)
    pencil = tuple(
        rng.integers(-(10**9), 10**9, size=(2, 12, 12)).tolist() for _ in range(2)
    )
    coeffs = [[0], [1], [7], [12]]
    want = _bareiss_dets(pencil, coeffs)
    assert min(max(abs(re), abs(im)) for re, im in want) > 2**62
    assert any(re < 0 for re, _ in want) and any(im < 0 for _, im in want)
    got = _modular_dets(_object_pencil(pencil), np.array(coeffs, dtype=np.int64))
    assert list(zip(*got)) == want


@settings(max_examples=80)
@given(st.integers(1, 8), st.integers(1, 40), st.sampled_from((3, None)), st.integers(0, 2**32 - 1))
def test_batch_last_det_mod_matches_exact_determinant(n, b, bound, seed):
    """Member j of the (n, n, B) stack is a[:, :, j].  Members 0 mod 3 get
    zeros at the top of column 0, down to a random row, which forces a row
    swap, or makes the column zero; members 1 mod 3 repeat a row
    (singular).  Entries below 3 put zeros in later pivots too."""
    p, _ = next(_primes())
    rng = np.random.default_rng(seed)
    a = rng.integers(0, bound or p, size=(n, n, b))
    for j in range(0, b, 3):
        a[: rng.integers(1, n + 1), 0, j] = 0
    if n > 1:
        a[-1, :, 1::3] = a[0, :, 1::3]
    want = [int(exact_determinant(exact_matrix(a[:, :, j].tolist())).re) % p for j in range(b)]
    assert _det_mod(a.copy(), p).tolist() == want


def test_modular_dets_refuse_coefficients_past_the_one_product_bound():
    # c_k = -1 is p - 1 mod p, so three of them give p (1 + 3 (p - 1)) >
    # 2^63, and one int64 product of the pencil and the coefficients could
    # overflow; interpolation nodes, in 0..side and their squares, stay far
    # below that
    rng = np.random.default_rng(9)
    pencil = tuple(rng.integers(-50, 50, size=(4, 5, 5)).tolist() for _ in range(2))
    coeffs = [[0, 0, 0], [-1, -1, -1]]
    with pytest.raises(ContractError, match="too large for an int64 product"):
        _modular_dets(_object_pencil(pencil), np.array(coeffs, dtype=np.int64))


def test_exact_interpolation_checks_raise(monkeypatch):
    t = pauli()
    rep = rep_for(3)

    def family():
        return _char_family(_affine_pencil(t, rep.gammas))

    # a degree bound one short still gives integer divided differences, so
    # only the held-out determinant can tell
    short = family()
    short = dataclasses.replace(short, degree=short.degree - 1)
    with pytest.raises(InterpolationError, match="held-out"):
        _interpolate(short)
    # the reduced d = 4 polynomial has complex coefficients
    with pytest.raises(InterpolationError, match="nonzero imaginary part"):
        _interpolate(_char_family(Pencil.reduced(torus_quadruple(4, exact=True))), real=True)
    real = _modular_dets

    def off_by_one(pencil, coeffs):
        v = real(pencil, coeffs)
        v[0, 1] += 1
        return v

    monkeypatch.setattr("cliffordspec.charpoly._modular_dets", off_by_one)
    with pytest.raises(InterpolationError, match="divided difference"):
        _interpolate(family())


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_lower_set_matches_itertools_order(d):
    for m in range(13):
        want = [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) <= m]
        got = _lower_set(d, m)
        assert got.shape == (len(want), d)
        assert got.tolist() == [list(a) for a in want]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rank_one_lattice_keys_are_distinct(d):
    # the rule itself, not the fallback: k = 1 (mod d - 1), k >= side + 1,
    # modulus (k^d - 1) / (d - 1), g = (1, k, ..., k^(d - 1)) mod modulus
    assert _lattice(_lower_set(d, 0), 0)[1] == 1
    for side in range(1, 17):
        expo = _lower_set(d, side)
        k = side + 1
        while (k - 1) % (d - 1):
            k += 1
        modulus = (k**d - 1) // (d - 1)
        g = np.array([k**j % modulus for j in range(d)])
        keys = expo @ g % modulus
        assert len(set(keys.tolist())) == len(expo), (d, side)
        got_g, got_modulus, got_keys = _lattice(expo, side)
        if (d, side) in _KOROBOV:
            # a searched generator, tested below, comes before the rule
            assert got_modulus == _KOROBOV[d, side][0] < modulus
        elif modulus < (side + 1) ** d:
            assert got_modulus == modulus
            assert got_g.tolist() == g.tolist() and got_keys.tolist() == keys.tolist()
        else:
            # the Kronecker lattice of the tensor torus
            assert got_modulus == (side + 1) ** d
            assert len(set(got_keys.tolist())) == len(expo)


@pytest.mark.parametrize("d, side", sorted(_KOROBOV))
def test_korobov_table_entries_have_distinct_keys_below_the_rule(d, side):
    modulus, a = _KOROBOV[d, side]
    expo = _lower_set(d, side)
    g = np.array([a**j % modulus for j in range(d)])
    keys = expo @ g % modulus
    assert len(set(keys.tolist())) == len(expo) <= modulus
    # below the rule's modulus and the tensor torus, whichever is sampled
    k = side + 1 + (-side) % (d - 1)
    assert modulus < min((k**d - 1) // (d - 1), (side + 1) ** d)
    got_g, got_modulus, got_keys = _lattice(expo, side)
    assert got_modulus == modulus
    assert got_g.tolist() == g.tolist() and got_keys.tolist() == keys.tolist()


def test_lattice_falls_back_to_the_tensor_torus_on_a_key_collision():
    # side 12, d = 3: the table has g = (1, 196, 196^2) mod 1,055 and the
    # rule g = (1, 13, 169) mod 1,098; add to the lower set one row of the
    # box {0..12}^3 whose key is already taken under each
    expo = _lower_set(3, 12)
    assert _KOROBOV[3, 12] == (1055, 196)
    box = np.indices((13,) * 3).reshape(3, -1).T
    extra = []
    for g, modulus in (([1, 196, 196**2 % 1055], 1055), ([1, 13, 169], 1098)):
        taken = set((expo @ g % modulus).tolist())
        extra.append(next(a for a in box if a.sum() > 12 and int(a @ g % modulus) in taken))
    assert extra[0].tolist() != extra[1].tolist()
    g, modulus, keys = _lattice(np.vstack([expo, *extra]), 12)
    assert modulus == 13**3 and g.tolist() == [1, 13, 169]
    assert len(set(keys.tolist())) == len(expo) + 2


def test_float_determinant_count_on_the_lattice(monkeypatch):
    requested = []
    real = _Family.float_dets

    def counting(self, lam):
        requested.append(len(lam))
        return real(self, lam)

    monkeypatch.setattr(_Family, "float_dets", counting)
    # side 12, d = 4: the table's 7,811 points, not the rule's
    # (13^4 - 1) / 3 = 9,520 or 13^4 = 28,561
    reduced_char_poly(torus_quadruple(6))
    assert sum(requested) == 7811
    requested.clear()
    # side 12, d = 3: 1,055, not (13^3 - 1) / 2 = 1,098 or 2,197
    char_poly(sykora_two_torus().as_float())
    assert sum(requested) == 1055


def _tensor_torus_coeffs(family) -> dict:
    """The former float path: det on the full (side + 1)^d torus grid and a
    d-dimensional FFT."""
    m, d = family.degree, family.d
    k = m + 1
    torus = np.exp(2j * np.pi / k * np.indices((k,) * d).reshape(d, -1).T)
    # 4,096 nodes at a time: the d = 4, side 12 torus has 28,561
    dets = np.concatenate([family.float_dets(torus[i : i + 4096]) for i in range(0, len(torus), 4096)])
    coeffs = np.fft.fftn(dets.reshape((k,) * d)) / k**d
    return {tuple(a): coeffs[tuple(a)] for a in _lower_set(d, m).tolist()}


_FLOAT_ENTRY = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def _float_tuples(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    mats = []
    for _ in range(d):
        m = np.zeros((n, n), dtype=complex)
        for i in range(n):
            m[i, i] = draw(_FLOAT_ENTRY)
            for j in range(i + 1, n):
                m[i, j] = complex(draw(_FLOAT_ENTRY), draw(_FLOAT_ENTRY))
                m[j, i] = m[i, j].conjugate()
        mats.append(m)
    return HermitianTuple(mats)


@settings(max_examples=40)
@given(_float_tuples())
def test_lattice_matches_tensor_torus(t):
    t, _ = _normalised(t)
    families = {
        "char": _char_family(Pencil.localizer(t)),
        "laplace": _laplace_family(t),
    }
    if t.d == 4:
        families["reduced"] = _char_family(Pencil.reduced(t))
    for name, family in families.items():
        want = _tensor_torus_coeffs(family)
        got = _interpolate(family).terms
        scale = max(abs(c) for c in want.values())
        assert set(got) <= set(want)
        worst = max(abs(got.get(e, 0) - c) for e, c in want.items())
        assert worst <= 1e-12 * scale, (name, worst / scale)


@pytest.mark.parametrize("d, side", sorted(_KOROBOV))
def test_korobov_lattices_match_tensor_torus(d, side):
    # every table entry on a random tuple of its side: the full localizer
    # (side 2n) for d = 2 and 3, the reduced one (side 2n) for d = 4
    rng = np.random.default_rng(100 * d + side)
    t, _ = _normalised(random_tuple(rng, d, side // 2))
    family = _char_family(Pencil.reduced(t) if d == 4 else Pencil.localizer(t))
    assert family.degree == side
    want = _tensor_torus_coeffs(family)
    got = _interpolate(family).terms
    scale = max(abs(c) for c in want.values())
    assert set(got) <= set(want)
    worst = max(abs(got.get(e, 0) - c) for e, c in want.items())
    assert worst <= 1e-12 * scale, worst / scale


def _former_laplace_dets(t, lam):
    """The former float Laplace assembly: det of sum_j X_j^2 - 2 lambda_j X_j
    + lambda_j^2 at each row of lam."""
    mats = np.array(t.matrices)
    square_sum = sum(x @ x for x in mats)
    ops = (
        square_sum
        - 2 * np.tensordot(lam, mats, axes=1)
        + (lam**2).sum(axis=1)[:, None, None] * np.eye(t.n)
    )
    return np.linalg.det(ops), ops


@settings(max_examples=60)
@given(_float_tuples(), st.integers(0, 2**32 - 1))
def test_laplace_pencil_matches_former_float_assembly(t, seed):
    # torus points, as the float path samples, and arbitrary complex points
    rng = np.random.default_rng(seed)
    torus = np.exp(2j * np.pi * rng.uniform(size=(16, t.d)))
    wide = rng.normal(size=(16, t.d)) * 3 + 3j * rng.normal(size=(16, t.d))
    lam = np.vstack([torus, wide])
    want, ops = _former_laplace_dets(t, lam)
    got = _laplace_family(t).float_dets(lam)
    # Hadamard's bound on |det|: the rounding of any entry moves det by
    # at most about that times the unit roundoff
    scale = np.prod(np.linalg.norm(ops, axis=2), axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_float_polynomials_beyond_the_float_range_raise_contract_error():
    # s^side of the rescaling overflows where the unit-scale polynomial does not
    big = HermitianTuple([m * 1e40 for m in sykora_two_torus().as_float().matrices])
    four = HermitianTuple([m * 1e40 for m in torus_quadruple(5).matrices])
    cases = [(char_poly, big), (laplace_det_poly, big), (reduced_char_poly, four)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, t in cases:
            with pytest.raises(ContractError, match="to the power 1[02] is beyond the float range"):
                fn(t)


@pytest.mark.parametrize("s", [1, 1e-3, 1e3])
def test_float_polynomials_with_complex_coefficients_fail_the_real_check(s):
    # the reduced d = 4 determinant of a random tuple of unit scale has
    # complex coefficients: they pass the held-out check, and a real
    # polynomial of the tuple times s is refused
    t, _ = _normalised(random_tuple(np.random.default_rng(7), 4, 2))
    family = _char_family(Pencil.reduced(t))
    coeffs = np.array(list(_interpolate(family).terms.values()))
    assert np.abs(coeffs.imag).max() > 1e-3 * np.abs(coeffs).max()
    with pytest.raises(InterpolationError, match="imaginary part .* too large"):
        _interpolate(family, s, real=True)


def test_exact_char_poly_beyond_the_float_range_scales_exactly():
    """The polynomial of c X has coefficients c^(side - |alpha|) c_alpha(X):
    exactly, with no float, for c = 10^400, whose entries no float holds."""
    c = 10**400
    base = char_poly(pauli())
    scaled = char_poly(scaled_pauli(c, c, c))
    side = 4
    assert scaled.terms == {a: v * c ** (side - sum(a)) for a, v in base.terms.items()}
