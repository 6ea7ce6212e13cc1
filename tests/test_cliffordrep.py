import numpy as np
import pytest

from cliffordspec.cliffordrep import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GammaRep,
    generated_rep,
    rep_for,
    standard_rep,
    validate,
)
from cliffordspec.errors import ContractError
from cliffordspec.localizer import _affine_pencil, build
from cliffordspec.matrices import dagger, exact_eye, exact_matrix, float_matrix, to_float
from cliffordspec.scalars import GaussianRational


def test_standard_rep_entries():
    r1 = standard_rep(1)
    assert r1.g == 1 and r1.gammas[0][0, 0] == GaussianRational(1)

    r3 = standard_rep(3)
    sx, sy, sz = (to_float(g) for g in r3.gammas)
    assert np.allclose(sx, [[0, 1], [1, 0]])
    assert np.allclose(sy, [[0, -1j], [1j, 0]])
    assert np.allclose(sz, [[1, 0], [0, -1]])


def test_standard_rep_4_displayed_matrices():
    g1, g2, g3, g4 = (to_float(g) for g in standard_rep(4).gammas)
    assert np.allclose(
        g1, [[0, 0, 0, 1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [-1j, 0, 0, 0]]
    )
    assert np.allclose(
        g2, [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    )
    assert np.allclose(
        g3, [[0, 0, 1j, 0], [0, 0, 0, -1j], [-1j, 0, 0, 0], [0, 1j, 0, 0]]
    )
    assert np.allclose(g4, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_standard_rep_4_off_diagonal_split():
    rep = standard_rep(4)
    assert rep.off_diagonal_blocks is not None
    for gamma, block in zip(rep.gammas, rep.off_diagonal_blocks):
        gf, bf = to_float(gamma), to_float(block)
        assert np.allclose(gf[:2, 2:], bf)
        assert np.allclose(gf[2:, :2], bf.conj().T)
        assert np.allclose(gf[:2, :2], 0)
    # the fourth block is the identity
    assert np.allclose(to_float(rep.off_diagonal_blocks[3]), np.eye(2))


def _standard_rep_reference(d):
    """The per-call construction that standard_rep replaced."""
    if d == 1:
        return GammaRep((exact_matrix([[1]]),))
    if d == 2:
        return GammaRep((SIGMA_X, SIGMA_Y))
    if d == 3:
        return GammaRep((SIGMA_X, SIGMA_Y, SIGMA_Z))
    i = GaussianRational(0, 1)
    blocks = (i * SIGMA_X, -i * SIGMA_Y, i * SIGMA_Z, exact_eye(2))
    gammas = []
    for b in blocks:
        m = b.shape[0]
        out = np.empty((2 * m, 2 * m), dtype=object)
        bh = dagger(b)
        for r in range(m):
            for c in range(m):
                out[r, c] = out[m + r, m + c] = GaussianRational(0)
                out[r, m + c] = b[r, c]
                out[m + r, c] = bh[r, c]
        gammas.append(out)
    return GammaRep(tuple(gammas), off_diagonal_blocks=blocks)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_standard_rep_is_built_once_and_matches_per_call_construction(d):
    rep, ref = standard_rep(d), _standard_rep_reference(d)
    assert standard_rep(d) is rep
    assert len(rep.gammas) == len(ref.gammas) == d
    pairs = list(zip(rep.gammas, ref.gammas))
    if d == 4:
        pairs += list(zip(rep.off_diagonal_blocks, ref.off_diagonal_blocks))
    else:
        assert rep.off_diagonal_blocks is None
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype == object
        assert all(isinstance(x, GaussianRational) for x in got.flat)
        assert got.tolist() == want.tolist()
        # shared by every caller, so no caller may write into it
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = GaussianRational(7)


def test_standard_rep_out_of_range():
    with pytest.raises(ContractError):
        standard_rep(5)


def test_generated_reps_satisfy_relations_exactly():
    for d in range(1, 7):
        rep = generated_rep(d)
        assert rep.g == 2 ** (d // 2)
        report = validate(rep)
        assert report.ok, report.violations


def test_standard_reps_validate():
    for d in (1, 2, 3, 4):
        assert validate(standard_rep(d)).ok


def test_validate_catches_failures():
    sx = standard_rep(3).gammas[0]
    report = validate(GammaRep((sx, sx)))
    assert not report.ok
    kinds = {v.relation for v in report.violations}
    assert "anticommutation" in kinds
    assert report.max_violation > 0


def test_rep_for_dispatch():
    assert rep_for(4).off_diagonal_blocks is not None
    assert rep_for(5).g == 4
    assert rep_for(6).g == 8


def test_localizer_det_invariant_under_rep_equivalence(rng):
    # conjugating every gamma by one unitary leaves det(L_lambda) unchanged
    from conftest import random_tuple

    t = random_tuple(rng, 3, 3)
    rep = standard_rep(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    conj = GammaRep(tuple(float_matrix(q.conj().T @ to_float(g) @ q) for g in rep.gammas))
    assert validate(conj).ok
    for _ in range(5):
        lam = rng.uniform(-1, 1, 3)
        d1 = np.linalg.det(build(t, lam).matrix)
        d2 = np.linalg.det(_affine_pencil(t, conj.gammas).at(lam))
        assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1))


def test_float_images_past_the_float_range_are_refused_by_name():
    """A representation converts nothing when it is made; its float images
    refuse an exact entry past the float range by name, as a tuple's float
    image does."""
    huge = exact_matrix([[10**400]])
    rep = GammaRep((exact_eye(1), huge))
    with pytest.raises(ContractError, match="^gamma 1 has an entry beyond the float range$"):
        rep.as_float()
