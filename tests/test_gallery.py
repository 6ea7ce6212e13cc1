import inspect
from fractions import Fraction

import numpy as np
import pytest

from cliffordspec.charpoly import char_poly, reduced_char_poly
from cliffordspec.errors import ContractError
from cliffordspec.gallery import (
    EXAMPLES,
    clock_shift,
    direct_sum_sphere,
    even_odd,
    even_odd_grading,
    fuzzy_sphere_5,
    gamma_tuple,
    lemniscate,
    list_example_names,
    named_example,
    pauli,
    scaled_pauli,
    self_dual_path,
    sykora_two_torus,
    torus_quadruple,
    torus_triple,
)
from cliffordspec.invariants import SymmetryProfile, graded_index, index, validate_symmetry
from cliffordspec.linalg import operator_norm
from cliffordspec.matrices import commutator, to_float
from cliffordspec.multipoly import poly_equal
from cliffordspec.scalars import GaussianRational


def test_every_example_is_hermitian():
    for name in list_example_names():
        ex = named_example(name)
        assert ex.tuple.d >= 1  # construction itself validates Hermiticity


def test_scaled_pauli_identity():
    a = pauli()
    b = scaled_pauli(1, 1, 1)
    for m1, m2 in zip(a.matrices, b.matrices):
        assert all(x == y for x, y in zip(m1.reshape(-1), m2.reshape(-1)))


def test_fuzzy_sphere_entries():
    t = fuzzy_sphere_5(1)
    a, b, c = t.matrices
    assert [a[i, i] for i in range(5)] == [
        GaussianRational(2),
        GaussianRational(1),
        GaussianRational(0),
        GaussianRational(-1),
        GaussianRational(-2),
    ]
    assert b[0, 1] == GaussianRational(Fraction(1, 4))
    assert c[1, 0] == GaussianRational(0, Fraction(1, 4))  # row 2, col 1, one-based
    t2 = fuzzy_sphere_5(Fraction(1, 2))
    assert t2.matrices[0][0, 0] == GaussianRational(1)


def test_clock_shift_entries():
    u, v = clock_shift(3)
    assert u[0, 2] == 1 and u[1, 0] == 1 and u[2, 1] == 1
    assert np.allclose(np.diag(clock_shift(4)[1]), [1j, -1, -1j, 1])
    assert np.allclose(u @ u.conj().T, np.eye(3))


def test_clock_shift_exact_n4():
    u, v = clock_shift(4, exact=True)
    assert v[0, 0] == GaussianRational(0, 1)
    assert v[3, 3] == GaussianRational(1)
    with pytest.raises(ContractError):
        clock_shift(3, exact=True)


def test_torus_quadruple_symmetries():
    t = torus_quadruple(5)
    x1, x2, x3, x4 = t.matrices
    # functions of the same unitary commute
    assert operator_norm(commutator(x1, x2)) <= 1e-12
    assert operator_norm(commutator(x3, x4)) <= 1e-12
    assert np.allclose(x1, x1.T)
    assert np.allclose(x2, -x2.T)


def test_torus_triple_is_float_and_hermitian():
    t = torus_triple(5, 0.9, 0.4)
    assert t.kind == "float" and t.n == 5


def test_sykora_entries():
    t = sykora_two_torus(1)
    x, y, z = t.matrices
    assert x[2, 3] == GaussianRational(Fraction(1, 2))  # r/2 at r=1
    assert y[1, 0] == GaussianRational(0, Fraction(1, 2))
    want = [0, Fraction(13, 10), Fraction(13, 10), Fraction(13, 5), Fraction(13, 5), Fraction(39, 10)]
    assert [z[i, i] for i in range(6)] == [GaussianRational(v) for v in want]
    t2 = sykora_two_torus(Fraction(1, 2))
    assert t2.matrices[0][2, 3] == GaussianRational(Fraction(1, 4))


def test_self_dual_path_range():
    with pytest.raises(ContractError):
        self_dual_path(Fraction(3, 4))
    with pytest.raises(ContractError):
        self_dual_path(-1)
    t = self_dual_path(0)
    base = direct_sum_sphere(0)
    for m1, m2 in zip(t.matrices, base.matrices):
        assert all(x == y for x, y in zip(m1.reshape(-1), m2.reshape(-1)))


def test_even_odd_entries():
    t = even_odd(0)
    x, _, _, h = t.matrices
    assert x[0, 1] == GaussianRational(2)
    assert x[0, 0] == GaussianRational(0)
    hf = to_float(h)
    assert np.allclose(hf, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    t2 = even_odd(Fraction(3, 2))
    assert t2.matrices[0][0, 0] == GaussianRational(Fraction(3, 2))


def test_gamma_tuple_matches_rep():
    from cliffordspec.cliffordrep import standard_rep

    t = gamma_tuple()
    for m, g in zip(t.matrices, standard_rep(4).gammas):
        assert all(x == y for x, y in zip(m.reshape(-1), g.reshape(-1)))


def test_named_example_metadata():
    ex = named_example("pauli")
    assert ex.expected["index_at_origin"] == 1
    ex = named_example("bad_plot", r=Fraction(1, 6))
    assert ex.params["r"] == Fraction(1, 6)
    with pytest.raises(ContractError):
        named_example("nonexistent")


def test_registry_names_stable():
    assert set(list_example_names()) == {
        "pauli",
        "lemniscate",
        "scaled_pauli",
        "fuzzy_sphere_5",
        "torus_triple",
        "torus_quadruple",
        "sykora_two_torus",
        "bad_plot",
        "self_dual_path",
        "gamma4",
        "even_odd",
    }


_EVEN_ODD_PARITIES = (frozenset({"even"}),) * 3 + (frozenset({"odd"}),)

# every (example, parameter values) of the table that carries facts
_FACT_CASES = [(name, key) for name in sorted(EXAMPLES) for key in EXAMPLES[name][1]]


@pytest.mark.parametrize("name, key", _FACT_CASES, ids=[f"{n}-{k}" for n, k in _FACT_CASES])
def test_gallery_facts_hold_at_their_parameters(name, key):
    build, facts = EXAMPLES[name]
    # None keys facts that hold at every value; check them at the defaults
    params = {} if key is None else dict(zip(inspect.signature(build).parameters, key))
    ex = named_example(name, **params)
    held = facts[key]
    assert held.items() <= ex.expected.items()
    t = ex.tuple
    checks = {
        "char_poly": lambda ref: poly_equal(char_poly(t), ref())[0],
        "reduced_char_poly": lambda ref: poly_equal(reduced_char_poly(t), ref())[0],
        "index_at_origin": lambda v: index(t, [0] * 3).value == v,
        "graded_index_at_origin": lambda v: graded_index(t, [0] * 4).value == v,
        "grading": lambda g: validate_symmetry(t, SymmetryProfile(_EVEN_ODD_PARITIES, grading=g())).ok,
        "probe_point": lambda p: index(t, p).value == held["probe_index"],
        "probe_index": lambda v: "probe_point" in held,
        # the lobe names no point to check at, so this fact stays unchecked
        "index_inside_lobe": lambda v: True,
    }
    assert set(held) <= set(checks)
    for fact, value in held.items():
        assert checks[fact](value), fact


def test_bad_plot_facts_only_at_r_zero():
    assert "char_poly" in named_example("bad_plot").expected
    assert "char_poly" not in named_example("bad_plot", r=Fraction(1, 2)).expected
    assert named_example("bad_plot", r=1).expected == {}


def test_even_odd_graded_fact_only_where_it_holds():
    for deform in (4, 5, 10, -4):
        ex = named_example("even_odd", deform=deform)
        assert "graded_index_at_origin" not in ex.expected
        assert graded_index(ex.tuple, [0] * 4).value == 0
        assert ex.expected["grading"] is even_odd_grading


@pytest.mark.parametrize("name", ["torus_quadruple", "torus_triple"])
def test_torus_n_must_be_an_integer(name):
    for n in (2.5, Fraction(7, 2), "3"):
        with pytest.raises(ContractError, match="'n' must be an integer"):
            named_example(name, n=n)
    whole = named_example(name, n=3.0).tuple
    assert all(np.array_equal(a, b) for a, b in zip(whole.matrices, named_example(name, n=3).tuple.matrices))


@pytest.mark.parametrize("name", list_example_names())
def test_unknown_example_parameter_is_an_error(name):
    with pytest.raises(ContractError, match="bogus"):
        named_example(name, bogus=3)
