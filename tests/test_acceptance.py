"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Expensive polynomial reconstructions are shared via module-scoped
fixtures; the stated runtime budgets are asserted where given.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cliffordspec.charpoly import char_poly, laplace_det_poly, reduced_char_poly
from cliffordspec.cliffordrep import generated_rep, standard_rep, validate
from cliffordspec.gallery import (
    direct_sum_char_reference,
    direct_sum_sphere,
    even_odd,
    even_odd_reduced_reference,
    gamma_reduced_reference,
    gamma_tuple,
    lemniscate,
    lemniscate_char_reference,
    list_example_names,
    named_example,
    pauli,
    scaled_gamma_reduced_reference,
    self_dual_path,
    sphere_char_reference,
    torus_quadruple,
    torus_quadruple_imag_reference,
    TORUS_POLAR_CONSTANTS,
)
from cliffordspec.invariants import archetypal, archetypal_sign, graded_index, index
from cliffordspec.linalg import operator_norm, smallest_eigen_magnitude
from cliffordspec.localizer import build, build_reduced, square_identity_residual
from cliffordspec.matrices import HermitianTuple, float_matrix
from cliffordspec.multipoly import poly_equal, polar_radial_coefficients
from cliffordspec.sampler import (
    DET_SIGN,
    GridSpec,
    PFAFFIAN_SIGN,
    SIGMA_MIN,
    extract_isosurface,
    radial_section,
    sample,
    torus_radius_profile,
)
from cliffordspec.variance import certificate
from conftest import random_hermitian, random_tuple


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def torus_polys():
    t0 = time.time()
    polys = {n: reduced_char_poly(torus_quadruple(n)) for n in (3, 4, 5, 6)}
    return polys, time.time() - t0


def test_criterion_1_exact_polynomials():
    t0 = time.time()
    checks = [
        (char_poly(pauli()), sphere_char_reference()),
        (char_poly(lemniscate()), lemniscate_char_reference()),
        (reduced_char_poly(gamma_tuple()), gamma_reduced_reference()),
        (reduced_char_poly(gamma_tuple(2, 1, 1, 1)), scaled_gamma_reduced_reference()),
        (reduced_char_poly(even_odd(0)), even_odd_reduced_reference()),
        (char_poly(direct_sum_sphere(0)), direct_sum_char_reference()),
    ]
    for got, want in checks:
        eq, disc = poly_equal(got, want)
        assert eq, f"coefficient discrepancy {disc}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"
    report(1, f"six closed forms reproduced exactly in {elapsed:.1f}s")


def test_criterion_2_laplace_failure():
    t = pauli()
    two = HermitianTuple([t.matrices[0], t.matrices[1]])
    p = laplace_det_poly(two)
    from cliffordspec.multipoly import variables

    r, s = variables("r s")
    eq, _ = poly_equal(p, 4 + r**4 + 2 * r**2 * s**2 + s**4)
    assert eq
    grid = np.linspace(-3, 3, 61)
    lowest = min(
        p.evaluate([Fraction(0), Fraction(0)]).to_complex().real,
        min(p.evaluate([a, b]).real for a in grid for b in grid),
    )
    assert lowest > 3.0
    report(2, f"Laplace determinant exact; grid minimum {lowest:.3f} > 3 (empty zero set)")


def test_criterion_3_two_matrix_equivalence():
    rng = np.random.default_rng(31)
    worst_on = 0.0
    worst_off = np.inf
    off_checked = 0
    for _ in range(20):
        x = random_hermitian(rng, 4)
        y = random_hermitian(rng, 4)
        t = HermitianTuple([float_matrix(x), float_matrix(y)])
        eigs = np.linalg.eigvals(x + 1j * y)
        for e in eigs:
            s = smallest_eigen_magnitude(build(t, [e.real, e.imag]).matrix)
            worst_on = max(worst_on, s)
        while True:
            z = rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4)
            if min(abs(z - e) for e in eigs) > 0.5:
                break
        s = smallest_eigen_magnitude(build(t, [z.real, z.imag]).matrix)
        worst_off = min(worst_off, s)
        off_checked += 1
    assert worst_on <= 1e-8
    assert off_checked == 20 and worst_off > 1e-4
    report(
        3,
        f"eigenvalues of X+iY are spectrum points (max sigma_min {worst_on:.1e}); "
        f"off-spectrum sigma_min >= {worst_off:.2e}",
    )


def test_criterion_4_index_values():
    tol = 1e-8
    assert index(pauli(), [0, 0, 0], tol).value == 1
    assert index(lemniscate(), [0, 0.7, 0], tol).value == 1
    assert index(lemniscate(), [0, -0.7, 0], tol).value == 1
    for t in (pauli(), lemniscate()):
        norm0 = operator_norm(build(t.as_float()).matrix)
        for u in ([1, 0, 0], [0, 0, 1], [-0.6, 0.8, 0.0], [0.5, 0.5, 0.7]):
            lam = 2 * norm0 * np.asarray(u) / np.linalg.norm(u)
            assert index(t, lam, tol).value == 0
    assert index(direct_sum_sphere(0), [0, 0, 0], tol).value == 0
    assert graded_index(even_odd(0), [0, 0, 0, 0], tol=tol).value == -1
    report(4, "half-signature and graded indices match the published values")


def test_criterion_5_torus_theorem(torus_polys):
    torus_polys, build_time = torus_polys
    t0 = time.time()
    rng = np.random.default_rng(51)
    # (a) imaginary part vanishes on the equal-radius locus
    for n, p in torus_polys.items():
        worst = 0.0
        for _ in range(200):
            r = rng.uniform(0, 1.5)
            th, ps = rng.uniform(0, 2 * np.pi, 2)
            pt = [r * np.cos(th), r * np.sin(th), r * np.cos(ps), r * np.sin(ps)]
            scale = max(1.0, p.evaluate_abs(pt))
            worst = max(worst, abs(p.evaluate(pt).imag) / scale)
        assert worst <= 1e-9, f"n={n}: {worst:.2e}"
    # (b) imaginary parts match the tabulated closed forms (n = 3, 4)
    for n in (3, 4):
        imp = torus_polys[n].imag_part()
        ref = torus_quadruple_imag_reference(n)
        for _ in range(50):
            pt = rng.uniform(-1.3, 1.3, 4)
            want = ref.evaluate(pt).real
            got = imp.evaluate(pt).real
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    # (c) polar constants at r = 0
    for n, const in TORUS_POLAR_CONSTANTS.items():
        c = polar_radial_coefficients(torus_polys[n], 0.37, 1.91)
        assert abs(c[0].real - const) <= 1e-9
        assert abs(c[0].imag) <= 1e-9
    # (d) radial derivative positive on (0, 2] (n = 3, 4)
    angles = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    radii = np.linspace(0.02, 2.0, 64)
    for n in (3, 4):
        low = np.inf
        for th in angles:
            for ph in angles:
                _, deriv = radial_section(torus_polys[n], th, ph)
                vals = np.polyval(deriv[::-1], radii)
                low = min(low, float(np.min(vals)))
        assert low > 0.0, f"n={n}: derivative minimum {low}"
    # (e) unique radius for every angle pair, residual <= 1e-10
    for n, p in torus_polys.items():
        for th in angles:
            for ph in angles:
                r = torus_radius_profile(p, th, ph)
                coeffs, _ = radial_section(p, th, ph)
                resid = abs(sum(c * r**k for k, c in enumerate(coeffs)))
                assert resid <= 1e-10
    elapsed = (time.time() - t0) + build_time
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"
    report(5, f"torus checks (a)-(e) hold for n = 3, 4, 5, 6 in {elapsed:.1f}s")


def test_criterion_6_null_plot_reproduction():
    spec = GridSpec.cube(3, -1.5, 1.5, 41)
    bad = direct_sum_sphere(0)
    null_mesh = extract_isosurface(sample(bad, spec, DET_SIGN), 0.0)
    assert len(null_mesh.triangles) == 0
    fix_mesh = extract_isosurface(sample(bad, spec, SIGMA_MIN))
    assert len(fix_mesh.triangles) > 0
    assert fix_mesh.is_closed
    radii = np.linalg.norm(fix_mesh.vertices, axis=1)
    assert radii.min() >= 0.93 and radii.max() <= 1.07
    pf_mesh = extract_isosurface(sample(self_dual_path(0), spec, PFAFFIAN_SIGN), 0.0)
    assert len(pf_mesh.triangles) > 0
    pf_radii = np.linalg.norm(pf_mesh.vertices, axis=1)
    assert np.max(np.abs(pf_radii - 1.0)) <= 0.07
    report(
        6,
        f"det-sign null plot (0 triangles); sigma-min sphere radii in "
        f"[{radii.min():.3f}, {radii.max():.3f}]; pfaffian-sign sphere restored",
    )


def test_criterion_7_archetypal():
    rng = np.random.default_rng(71)
    for s in (0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)):
        t = self_dual_path(s).as_float()
        for _ in range(50):
            lam = rng.uniform(-2, 2, 3)
            a = archetypal(t, lam)
            d = np.linalg.det(build(t, lam=lam).matrix).real
            assert abs(a * a - d) <= 1e-9 * max(1.0, abs(d))
    t = self_dual_path(0)
    norm0 = operator_norm(build(t.as_float()).matrix)
    assert archetypal_sign(t, [10 * norm0, 0, 0]).value == 1
    report(7, "arch^2 = det at 200 random points; far-field sign +1")


def test_criterion_8_variance_suite():
    rng = np.random.default_rng(81)
    # 200 randomized tuples, at near-spectrum points (the bound's domain)
    for _ in range(200):
        d = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(2, 9))
        t = random_tuple(rng, d, n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = [float(np.real(np.vdot(v, m @ v))) for m in t.matrices]
        cert = certificate(t, lam=lam)
        assert cert.holds, (d, n, cert.lhs, cert.rhs)
    # every gallery example at 10 sampled near-spectrum points
    for name in list_example_names():
        t = named_example(name).tuple.as_float()
        pool = rng.uniform(-2.2, 2.2, size=(60, t.d))
        gaps = [
            smallest_eigen_magnitude(build(t, lam=lam).matrix) for lam in pool
        ]
        order = np.argsort(gaps)[:10]
        for k in order:
            cert = certificate(t, lam=pool[k])
            assert cert.holds, (name, pool[k], cert.lhs, cert.rhs)
    report(8, "variance certificates hold for 200 random tuples and all gallery examples")


def test_criterion_9_structural_suites():
    # gamma relations, exact, d = 1..6
    for d in range(1, 7):
        assert validate(generated_rep(d)).ok
    for d in (1, 2, 3, 4):
        assert validate(standard_rep(d)).ok
    # squared-localizer identity
    assert square_identity_residual(pauli()) == 0.0
    assert square_identity_residual(gamma_tuple()) == 0.0
    rng = np.random.default_rng(91)
    t = random_tuple(rng, 3, 5)
    lam = rng.uniform(-1, 1, 3)
    norm = operator_norm(build(t, lam=lam).matrix)
    assert square_identity_residual(t, lam=lam) <= 1e-12 * norm**2
    # |char| = |reduced|^2 at random points
    tq = torus_quadruple(5)
    for _ in range(10):
        lam = rng.uniform(-1.2, 1.2, 4)
        dfull = np.linalg.det(build(tq, lam=lam).matrix)
        dred = np.linalg.det(build_reduced(tq, lam).matrix)
        assert abs(abs(dfull) - abs(dred) ** 2) <= 1e-9 * max(1.0, abs(dfull))
    # lambda_2 flip symmetry, exact symmetric/anti-symmetric tuple
    p = reduced_char_poly(torus_quadruple(4, exact=True))
    assert all(expo[1] % 2 == 0 for expo in p.terms)
    # direct-sum multiplicativity, exact
    factor = char_poly(pauli())
    whole = char_poly(direct_sum_sphere(0))
    flipped = char_poly(
        HermitianTuple(
            [
                pauli().matrices[0],
                -1 * pauli().matrices[1],
                pauli().matrices[2],
            ]
        )
    )
    eq, _ = poly_equal(whole, factor * flipped)
    assert eq
    report(9, "gamma relations, square identity, reduction, flip symmetry, direct sums")


def test_criterion_10_commuting_finiteness():
    cases = [
        HermitianTuple(
            [float_matrix(np.diag([-1.0, 2.0])), float_matrix(np.diag([1.0, -2.0]))]
        ),
        HermitianTuple(
            [
                float_matrix(np.diag([-1.0, 0.0, 1.0])),
                float_matrix(np.diag([1.0, 0.0, -1.0])),
                float_matrix(np.diag([0.0, 1.0, -1.0])),
            ]
        ),
    ]
    for t in cases:
        spec = GridSpec.cube(t.d, -2, 2, 17)  # nodes at multiples of 1/4
        g = sample(t, spec, SIGMA_MIN)
        nodes = np.linspace(-2, 2, 17)
        hits = {
            tuple(float(nodes[i]) for i in h)
            for h in np.argwhere(g.values <= 1e-8)
        }
        joint = {
            tuple(float(m[k, k].real) for m in t.matrices) for k in range(t.n)
        }
        assert hits == joint
        assert 1 <= len(hits) <= t.n
    report(10, "sampled zero sets of commuting tuples are exactly the joint eigenvalues")
