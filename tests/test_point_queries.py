"""Point queries on held float images: an exact tuple converts once, the
gamma representations hold their float images, and every report equals the
one computed from a freshly converted float tuple."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec.cliffordrep import STANDARD_REPS, GammaRep, generated_rep, standard_rep
from cliffordspec.errors import SingularAtTolerance
from cliffordspec.gallery import even_odd, pauli, self_dual_path, sykora_two_torus
from cliffordspec.invariants import archetypal_sign, graded_index, index
from cliffordspec.linalg import default_tolerance, signature_gap
from cliffordspec.localizer import Pencil
from cliffordspec.matrices import EXACT, HermitianTuple, float_matrix, to_float
from cliffordspec.scalars import GaussianRational
from cliffordspec.variance import certificate

from conftest import random_hermitian

# held across examples, as a caller holds a tuple across queries
_HELD = {
    "index": sykora_two_torus(),
    "archetypal_sign": self_dual_path(),
    "certificate": sykora_two_torus(),
    "graded_index": even_odd(),
}


def _fresh_float(t: HermitianTuple) -> HermitianTuple:
    """The float tuple as every query once built it: a new conversion."""
    return HermitianTuple([to_float(m) for m in t.matrices])


def _report(fn: str, t: HermitianTuple, lam: list) -> tuple:
    try:
        if fn == "index":
            r = index(t, lam)
        elif fn == "archetypal_sign":
            r = archetypal_sign(t, lam)
        elif fn == "graded_index":
            r = graded_index(t, lam)
        else:
            c = certificate(t, lam=lam)
            fields = (c.lam, c.epsilon, c.expectations, c.variances, c.lhs, c.rhs, c.holds)
            return (*fields, c.w.dtype, c.w.shape, c.w.tobytes())
    except SingularAtTolerance as exc:
        return ("singular", exc.gap, exc.tol)
    return (r.lam, r.kind, r.value, r.gap)


def _count_conversions(monkeypatch) -> list:
    calls = [0]
    original = GaussianRational.to_complex

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(GaussianRational, "to_complex", counted)
    return calls


def test_exact_tuple_converts_once_over_many_queries(monkeypatch):
    t = sykora_two_torus()
    calls = _count_conversions(monkeypatch)
    rng = np.random.default_rng(17)
    for k in range(400):
        lam = [float(v) for v in rng.uniform(-2, 2, 3)]
        try:
            index(t, lam) if k % 2 else certificate(t, lam=lam)
        except SingularAtTolerance:
            pass
    # one conversion of the tuple's d * n^2 entries, none per query
    assert 0 < calls[0] <= t.d * t.n**2


def test_float_pencils_convert_no_gamma(monkeypatch):
    t = _fresh_float(sykora_two_torus())
    four = _fresh_float(even_odd())
    calls = _count_conversions(monkeypatch)
    for _ in range(20):
        Pencil.localizer(t, standard_rep(3))
        Pencil.reduced(four)
        certificate(four, lam=[0.1, 0.2, 0.3, 0.4])
    assert calls[0] == 0


@settings(max_examples=25)
@given(st.sampled_from(sorted(_HELD)), st.integers(0, 2**32 - 1))
def test_held_image_reports_equal_fresh_conversion(fn, seed):
    t = _HELD[fn]
    lam = [float(v) for v in np.random.default_rng(seed).uniform(-2, 2, t.d)]
    if fn == "graded_index":
        lam[3] = 0.0
    assert _report(fn, t, lam) == _report(fn, _fresh_float(t), lam)


@pytest.mark.parametrize("make", [pauli, sykora_two_torus, self_dual_path, even_odd])
def test_as_float_is_one_read_only_image(make):
    t = make()
    image = t.as_float()
    assert t.kind == EXACT
    assert t.as_float() is image and image.as_float() is image
    for m, f in zip(t.matrices, image.matrices):
        want = to_float(m)
        assert f.dtype == want.dtype and f.tobytes() == want.tobytes()
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 7.0


def test_tuple_matrices_are_read_only_views_of_writable_input(rng):
    inputs = [float_matrix(random_hermitian(rng, 3)) for _ in range(3)]
    t = HermitianTuple(inputs)
    for x, m in zip(inputs, t.matrices):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        assert x.flags.writeable
        x[0, 0] += 1.0  # the caller's array stays the caller's
    exact = pauli()
    with pytest.raises(ValueError):
        exact.matrices[0][0, 0] = GaussianRational(7)
    with pytest.raises(ValueError):
        exact.as_float().matrices[0][0, 0] = 7.0


@pytest.mark.parametrize("rep", [*STANDARD_REPS.values(), generated_rep(5)])
def test_gamma_reps_hold_read_only_float_images(rep):
    assert rep.as_float() is rep.float_gammas
    pairs = list(zip(rep.gammas, rep.float_gammas))
    if rep.off_diagonal_blocks is None:
        assert rep.float_off_diagonal_blocks is None
    else:
        pairs += list(zip(rep.off_diagonal_blocks, rep.float_off_diagonal_blocks))
    for exact, image in pairs:
        want = to_float(exact)
        assert image.dtype == want.dtype and image.tobytes() == want.tobytes()
        assert not image.flags.writeable


def test_standard_reps_are_formed_once():
    for d in range(1, 5):
        assert standard_rep(d).float_gammas is STANDARD_REPS[d].float_gammas
    t = _fresh_float(pauli())
    assert all(a is b for a, b in zip(Pencil.localizer(t, standard_rep(3)).blocks, standard_rep(3).float_gammas))


def test_float_rep_images_leave_caller_arrays_writable():
    gammas = tuple(to_float(g) for g in standard_rep(2).gammas)
    rep = GammaRep(gammas)
    assert all(g.flags.writeable for g in gammas)
    assert all(not g.flags.writeable for g in rep.float_gammas)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_signature_tolerance_is_default_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, n)
    eigs, vecs = np.linalg.eigh(m)
    eigs[0] = 0.0  # singular, so signature_gap reports its tolerance
    m = (vecs * eigs) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    with pytest.raises(SingularAtTolerance) as caught:
        signature_gap(m)
    assert caught.value.tol == pytest.approx(default_tolerance(m), rel=1e-12)
