from fractions import Fraction

import numpy as np
import pytest

from cliffordspec.errors import ContractError, KindMismatchError
from cliffordspec.multipoly import (
    MultiPoly,
    poly_equal,
    polar_radial_coefficients,
    substitute_polar,
    to_text,
    variables,
)
from cliffordspec.scalars import GaussianRational, as_gaussian, is_exact_scalar


def test_expand_sphere_product():
    x, y, z = variables("x y z")
    p = (x**2 + y**2 + z**2 - 1) * (x**2 + y**2 + z**2 + 3)
    assert len(p.terms) == 10
    assert p.terms[(0, 0, 0)] == GaussianRational(-3)
    assert p.terms[(4, 0, 0)] == GaussianRational(1)
    assert p.terms[(2, 2, 0)] == GaussianRational(2)
    assert p.terms[(2, 0, 0)] == GaussianRational(2)


def test_kind_must_be_exact_or_float():
    for kind in ("Exact", "complex", None):
        with pytest.raises(ContractError, match="kind must be"):
            MultiPoly(2, {(1, 0): 1}, kind)
        with pytest.raises(ContractError, match="kind must be"):
            variables("x y", kind=kind)
    assert variables("x y", kind="float")[0].kind == "float"


def test_trivial_expansions():
    w, x, y, z = variables("w x y z")
    p = (w**2 + x**2 - y**2 - z**2) * 1
    assert len(p.terms) == 4
    zero = w - w
    assert zero.is_zero() and zero.terms == {}


def test_rational_constants():
    (x,) = variables("x")
    p = Fraction(1, 2) * x + 1
    assert p.terms[(1,)] == GaussianRational(Fraction(1, 2))
    with pytest.raises(KindMismatchError):
        0.5 * x + x  # float constant into an exact polynomial


def test_poly_equal():
    x, y = variables("x y")
    eq, disc = poly_equal(x + y, x + y)
    assert eq and disc == 0
    eq, disc = poly_equal(x + y, x - y)
    assert not eq and disc == 2.0
    # float vs exact at tolerance
    p = (x + y).as_float()
    q = p + MultiPoly(2, {(1, 0): 1e-12}, "float")
    eq, _ = poly_equal(p, q, tol=1e-9)
    assert eq


def test_poly_equal_nvars_mismatch():
    with pytest.raises(ContractError):
        poly_equal(variables("x")[0], variables("x y")[0])


def test_evaluate_exact_and_float():
    x, y = variables("x y")
    p = x**2 - 2 * y
    v = p.evaluate([Fraction(1, 2), Fraction(1, 3)])
    assert v == GaussianRational(Fraction(1, 4) - Fraction(2, 3))
    assert abs(p.evaluate([0.5, 1.0 / 3.0]) - complex(v.to_complex())) < 1e-15


def test_serialization_golden():
    x, y = variables("x y")
    p = x**2 - 2 * y + Fraction(1, 3)
    assert to_text(p) == "1/3 0 0 0\n-2 0 0 1\n1 0 2 0\n"
    empty = MultiPoly(2)
    assert to_text(empty) == ""


def test_serialization_graded_lex_order():
    w, x, y, z = variables("w x y z")
    p = w * z + x * y + w**3
    lines = to_text(p).strip().split("\n")
    exponents = [tuple(map(int, ln.split()[2:])) for ln in lines]
    assert exponents == sorted(exponents, key=lambda e: (sum(e), e))


def test_float_serialization_roundtrips_bits():
    p = MultiPoly(1, {(0,): 0.1 + 0.2j}, "float")
    line = to_text(p).strip()
    re_s, im_s = line.split()[:2]
    assert float(re_s) == 0.1 and float(im_s) == 0.2


def test_pruning():
    p = MultiPoly(1, {(0,): 1.0, (1,): 1e-15}, "float")
    assert (1,) not in p.pruned().terms


def test_polar_substitution_vanishes_on_locus():
    w, x, y, z = variables("w x y z", kind="float")
    p = w**2 + x**2 - y**2 - z**2
    f = substitute_polar(p)
    for r, t, s in [(0.5, 0.3, 1.2), (1.7, 2.0, -0.4)]:
        assert abs(f(r, t, s)) < 1e-12


def test_polar_radial_coefficients():
    w, x, y, z = variables("w x y z", kind="float")
    p = (w**2 + x**2 + y**2 + z**2) ** 2 + 2 * w - 5.0
    c = polar_radial_coefficients(p, 0.7, -0.2)
    assert np.isclose(c[4].real, 4.0)  # (r^2 + r^2)^2 = 4 r^4
    assert np.isclose(c[1].real, 2 * np.cos(0.7))
    assert np.isclose(c[0].real, -5.0)


def test_power_and_negation():
    (x,) = variables("x")
    assert ((x + 1) ** 2).terms == ((x + 1) * (x + 1)).terms
    with pytest.raises(ContractError):
        x ** (-1)


def _former_evaluate(p, point):
    """MultiPoly.evaluate as it was: an exact loop and a float loop."""
    if p.kind == "exact" and all(is_exact_scalar(v) for v in point):
        pt = [as_gaussian(v) for v in point]
        total = GaussianRational(0)
        for expo, c in p.terms.items():
            term = c
            for v, e in zip(pt, expo):
                if e:
                    term = term * v**e
            total = total + term
        return total
    pt = [complex(v) for v in point]
    total = 0j
    for expo, c in p.terms.items():
        term = complex(c)
        for v, e in zip(pt, expo):
            if e:
                term *= v**e
        total += term
    return total


def _former_substitute_polar(p, r, theta, phi):
    """substitute_polar's value as it was: a Horner loop over the radial coefficients."""
    acc = 0j
    for a in polar_radial_coefficients(p, theta, phi)[::-1]:
        acc = acc * r + a
    return acc


def _random_poly(rng, kind):
    terms = {}
    for _ in range(12):
        expo = tuple(int(e) for e in rng.integers(0, 4, size=4))
        re, im = (int(v) for v in rng.integers(-9, 10, size=2))
        if kind == "exact":
            terms[expo] = GaussianRational(Fraction(re, 7), Fraction(im, 5))
        else:
            terms[expo] = complex(re / 7, im / 5) * rng.uniform(0.5, 2.0)
    return MultiPoly(4, terms, kind)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_and_polar_substitution_match_the_former_loops(seed):
    rng = np.random.default_rng(seed)
    points = [
        [Fraction(int(v), 3) for v in rng.integers(-6, 7, size=4)],
        [float(v) for v in rng.uniform(-2, 2, size=4)],
        [complex(a, b) for a, b in rng.uniform(-2, 2, size=(4, 2))],
    ]
    for kind in ("exact", "float"):
        p = _random_poly(rng, kind)
        for point in points:
            got, want = p.evaluate(point), _former_evaluate(p, point)
            assert type(got) is type(want)
            assert got == want if isinstance(want, GaussianRational) else _bits(got) == _bits(want)
        f = substitute_polar(p)
        for r, theta, phi in rng.uniform(-3, 3, size=(5, 3)):
            got, want = f(r, theta, phi), _former_substitute_polar(p, r, theta, phi)
            assert type(got) is type(want) and _bits(got) == _bits(want)


def test_evaluation_beyond_the_float_range_raises_contract_error():
    # the characteristic polynomial of the Pauli triple, exact and float;
    # the first two cases raised a bare OverflowError ("complex
    # exponentiation", "int too large to convert to float")
    x, y, z = variables("x y z")
    p = (x**2 + y**2 + z**2 - 1) ** 2
    cases = [(p.evaluate, 1e200), (p.evaluate_abs, 10**400), (p.evaluate_abs, 1e200)]
    cases += [(p.as_float().evaluate, v) for v in (1e200, 10**400)]
    for fn, v in cases:
        with pytest.raises(ContractError, match="beyond the float range"):
            fn([v, 0, 0])
    # an exact point keeps an exact polynomial exact, at any size
    assert p.evaluate([10**400, 0, 0]) == GaussianRational((10**800 - 1) ** 2)
