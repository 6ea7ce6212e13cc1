"""Point queries on held facts: an exact tuple converts once, a tuple forms
its localizer pencils, commutator norm sum and skew pencil once, the gamma
representations are read-only and form float images on request, and every
report equals the one computed from a freshly converted float tuple."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec import invariants, localizer, variance
from cliffordspec.cliffordrep import STANDARD_REPS, GammaRep, generated_rep, standard_rep
from cliffordspec.errors import SingularAtTolerance, SymmetryError
from cliffordspec.gallery import even_odd, pauli, self_dual_path, sykora_two_torus
from cliffordspec.invariants import archetypal, archetypal_sign, graded_index, index
from cliffordspec.linalg import default_tolerance, signature_gap
from cliffordspec.localizer import Pencil, build, square_identity_residual
from cliffordspec.matrices import EXACT, HermitianTuple, float_matrix, kron, to_float
from cliffordspec.sampler import PFAFFIAN_SIGN, SIGMA_MIN, GridSpec, sample
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


def _count_calls(monkeypatch, owner, name) -> list:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_conversions(monkeypatch) -> list:
    return _count_calls(monkeypatch, GaussianRational, "to_complex")


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
        Pencil.localizer(t)
        Pencil.reduced(four)
        certificate(four, lam=[0.1, 0.2, 0.3, 0.4])
    assert calls[0] == 0


def _count_facts(monkeypatch) -> dict:
    """Call counters of the pencil assembly and of each held fact's make."""
    return {
        "pencil": _count_calls(monkeypatch, localizer, "_affine_pencil"),
        "commutator_norm_sum": _count_calls(monkeypatch, variance, "commutator_norm_sum"),
        "require_self_dual_triple": _count_calls(
            monkeypatch, invariants, "require_self_dual_triple"
        ),
        "skew_pencil": _count_calls(monkeypatch, invariants, "_skew_pencil"),
    }


def test_each_fact_is_formed_once_over_many_queries(monkeypatch):
    t = self_dual_path()
    ft = t.as_float()
    counts = _count_facts(monkeypatch)
    rng = np.random.default_rng(23)
    for _ in range(300):
        lam = [float(v) for v in rng.uniform(-2, 2, 3)]
        for query in (index, archetypal_sign, lambda t, lam: certificate(t, lam=lam)):
            try:
                query(t, lam)
            except SingularAtTolerance:
                pass
        archetypal(ft, lam)
    for _ in range(3):
        sample(ft, GridSpec.cube(3, -1.5, 1.5, 5), PFAFFIAN_SIGN).values
    # every query read the float image's localizer and skew pencils and
    # commutator norm sum, each formed on the first query
    assert {k: c[0] for k, c in counts.items()} == dict.fromkeys(counts, 1)
    four = even_odd().as_float()
    for k in range(300):
        lam = [float(v) for v in rng.uniform(-2, 2, 4)]
        certificate(four, lam=lam)
        if k % 30 == 0:
            graded_index(four, lam[:3] + [0.0])
    # the 4-tuple's reduced pencil: its certificates, like its graded index,
    # read R_lambda and never form the full localizer pencil
    assert counts["pencil"][0] == 2 and counts["commutator_norm_sum"][0] == 2


def test_one_localizer_pencil_per_tuple(monkeypatch):
    """Every localizer query reads the one pencil its tuple holds: an exact
    tuple's own for build and square_identity_residual, and its float
    image's for the float queries."""
    calls = _count_calls(monkeypatch, localizer, "_localizer_pencil")
    rng = np.random.default_rng(29)
    for t, formed in ((_fresh_float(sykora_two_torus()), 1), (sykora_two_torus(), 2)):
        calls[0] = 0
        for _ in range(5):
            lam = [float(v) for v in rng.uniform(-2, 2, 3)]
            build(t)
            square_identity_residual(t)
            try:
                index(t, lam)
            except SingularAtTolerance:
                pass
            certificate(t, lam=lam)
            sample(t, GridSpec.cube(3, -1.5, 1.5, 5), SIGMA_MIN).values
        assert calls[0] == formed


def test_held_arrays_refuse_writes():
    t = self_dual_path()
    ft = t.as_float()
    archetypal_sign(t, [0.1, 0.2, 0.3])
    held = [Pencil.localizer(ft), ft._held(invariants._self_dual_skew_pencil)]
    held.append(Pencil.reduced(even_odd().as_float()))
    arrays = [p.members for p in held]
    exact = Pencil.localizer(t)
    arrays += [exact.re, exact.im, *t.matrices, *ft.matrices]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 7


def test_failed_verdicts_are_never_held(monkeypatch):
    t = pauli()  # not self-dual
    calls = _count_calls(monkeypatch, invariants, "require_self_dual_triple")
    for _ in range(2):
        with pytest.raises(SymmetryError):
            archetypal_sign(t, [0.1, 0.2, 0.3])
        with pytest.raises(SymmetryError):
            archetypal(t, [0, 0, 0])
        with pytest.raises(SymmetryError):
            sample(t, GridSpec.cube(3, -1.5, 1.5, 5), PFAFFIAN_SIGN)
    assert calls[0] == 6
    # on the spectrum, the spectrum is reported before the symmetry
    for _ in range(2):
        with pytest.raises(SingularAtTolerance):
            archetypal_sign(t, [1, 0, 0])


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


def test_tuple_matrices_are_read_only_copies_of_writable_input(rng):
    inputs = [float_matrix(random_hermitian(rng, 3)) for _ in range(3)]
    t = HermitianTuple(inputs)
    before = [m.tobytes() for m in t.matrices]
    lam = [0.1, -0.2, 0.3]
    report = index(t, lam)
    for x, m in zip(inputs, t.matrices):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        assert x.flags.writeable
        x[0, 0] += 1.0  # the caller's array stays the caller's
    # and the tuple's matrices, and what it holds, stay the tuple's
    assert [m.tobytes() for m in t.matrices] == before
    assert index(t, lam) == report
    assert index(HermitianTuple(t.matrices), lam) == report
    exact = pauli()
    with pytest.raises(ValueError):
        exact.matrices[0][0, 0] = GaussianRational(7)
    with pytest.raises(ValueError):
        exact.as_float().matrices[0][0, 0] = 7.0


@pytest.mark.parametrize("rep", [*STANDARD_REPS.values(), generated_rep(5)])
def test_gamma_reps_hold_read_only_float_images(rep):
    """The representation holds read-only gammas, and as_float forms their
    read-only images on each call."""
    images = rep.as_float()
    assert images is not rep.as_float()
    for exact, image in zip(rep.gammas, images, strict=True):
        want = to_float(exact)
        assert image.dtype == want.dtype and image.tobytes() == want.tobytes()
        assert not image.flags.writeable and not exact.flags.writeable


def test_standard_reps_are_formed_once():
    for d in range(1, 5):
        assert standard_rep(d) is STANDARD_REPS[d]
    for d in range(1, 4):  # the ladder's gammas, one definition for both
        ladder = generated_rep(d).gammas
        assert [g.tolist() for g in standard_rep(d).gammas] == [g.tolist() for g in ladder]
    t = _fresh_float(pauli())
    parts = Pencil.localizer(t).members[1:]
    lifted = [kron(np.eye(t.n, dtype=complex), g) for g in standard_rep(3).as_float()]
    assert [p.tobytes() for p in parts] == [g.tobytes() for g in lifted]


def test_float_rep_images_leave_caller_arrays_writable():
    gammas = tuple(to_float(g) for g in standard_rep(2).gammas)
    rep = GammaRep(gammas)
    assert all(g.flags.writeable for g in gammas)
    assert all(not g.flags.writeable for g in rep.as_float())


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
