"""Block-wise passes: every output is the same for any block size and
worker count, and a mesh's peak memory follows the arrays the field holds."""

import tracemalloc

import pytest

from cliffordspec import parallel
from cliffordspec.charpoly import char_poly, laplace_det_poly, reduced_char_poly
from cliffordspec.gallery import direct_sum_sphere, pauli, self_dual_path, sykora_two_torus, torus_quadruple
from cliffordspec.localizer import Pencil
from cliffordspec.multipoly import to_text
from cliffordspec.sampler import (
    DET_SIGN,
    PFAFFIAN_SIGN,
    SIGMA_MIN,
    GridSpec,
    export_grid_csv,
    export_mesh_obj,
    extract_isosurface,
    sample,
)

# (tuple, indicator, cube grid): every indicator, on localizer sides 4, 8 and 12
_FIELDS = [
    pytest.param(pauli, SIGMA_MIN, (-1.5, 1.5, 13), id="pauli-sigma-min"),
    pytest.param(pauli, DET_SIGN, (-1.5, 1.5, 13), id="pauli-det-sign"),
    pytest.param(direct_sum_sphere, SIGMA_MIN, (-1.5, 1.5, 11), id="bad_plot-sigma-min"),
    pytest.param(self_dual_path, PFAFFIAN_SIGN, (-1.5, 1.5, 11), id="self_dual_path-pfaffian-sign"),
    pytest.param(sykora_two_torus, DET_SIGN, (-2.5, 2.5, 9), id="sykora-det-sign"),
]


def _budgets(side: int) -> dict:
    """One node per block, seven per block of side x side complex matrices
    (an odd count), and the default."""
    return {"one node": 1, "odd": 7 * 16 * side**2, "default": parallel.BLOCK_BYTES}


def _field_outputs(tuple_, indicator, spec, threads, path):
    """OBJ bytes, then min_value and values of a fresh field, then its CSV."""
    mesh = extract_isosurface(sample(tuple_, spec, indicator, threads))
    export_mesh_obj(mesh, path)
    obj = path.read_bytes()
    grid = sample(tuple_, spec, indicator, threads)
    extract_isosurface(grid)
    low = grid.min_value
    values = grid.values.tobytes()
    export_grid_csv(grid, path)
    return obj, low.hex(), grid.min_value.hex(), values, path.read_bytes()


@pytest.mark.parametrize("make, indicator, cube", _FIELDS)
def test_fields_do_not_depend_on_the_block_size(make, indicator, cube, tmp_path, monkeypatch):
    tuple_ = make()
    spec = GridSpec.cube(3, *cube)
    side = Pencil.localizer(tuple_.as_float()).side
    want = _field_outputs(tuple_, indicator, spec, 1, tmp_path / "out")
    for label, budget in _budgets(side).items():
        monkeypatch.setattr(parallel, "BLOCK_BYTES", budget)
        for threads in (1, 2):
            got = _field_outputs(tuple_, indicator, spec, threads, tmp_path / "out")
            assert got == want, (label, threads)


def _exact_texts():
    polys = [char_poly(pauli()), char_poly(self_dual_path()), laplace_det_poly(pauli())]
    return [to_text(p) for p in polys]


def _float_bits():
    polys = [reduced_char_poly(torus_quadruple(3)), char_poly(sykora_two_torus().as_float())]
    return [{e: (c.real.hex(), c.imag.hex()) for e, c in p.terms.items()} for p in polys]


def test_polynomials_do_not_depend_on_the_block_size(monkeypatch):
    want = (_exact_texts(), _float_bits())
    for label, budget in _budgets(8).items():
        monkeypatch.setattr(parallel, "BLOCK_BYTES", budget)
        assert (_exact_texts(), _float_bits()) == want, label


def test_mesh_peak_memory_follows_the_held_arrays():
    """sample + extract_isosurface at 81^3 peak under four times the arrays
    the field holds (sigma, values and solved: 17 bytes a node).  Whole-grid
    passes peaked at eleven times them (98 MiB for 8.6 MiB)."""
    spec = GridSpec.cube(3, -1.5, 1.5, 81)
    held = 17 * 81**3
    tuple_ = direct_sum_sphere()
    tuple_.as_float()  # the tuple's held facts are not the field's
    tracemalloc.start()
    try:
        mesh = extract_isosurface(sample(tuple_, spec, SIGMA_MIN, threads=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mesh.triangles) > 100_000
    assert peak < 4 * held, peak / held
