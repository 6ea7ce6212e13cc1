import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import former_exact_conjugation_unitary, random_tuple

from cliffordspec import parallel
from cliffordspec.charpoly import reduced_char_poly
from cliffordspec.errors import ContractError
from cliffordspec.gallery import (
    direct_sum_sphere,
    gamma_tuple,
    even_odd,
    pauli,
    self_dual_path,
    sykora_two_torus,
    torus_quadruple,
    torus_triple,
)
from cliffordspec.linalg import (
    _pfaffian_parlett_reid,
    operator_norm,
    pfaffian,
    smallest_eigen_magnitude,
)
from cliffordspec.matrices import HermitianTuple
from cliffordspec.tolerances import (
    ENTRY_BOUND,
    SIGMA_MIN_PRUNE_RTOL,
    STEP_BOUND,
    TORUS_RESIDUAL_TOL,
)
from cliffordspec.localizer import Pencil, build
from cliffordspec.sampler import (
    DET_SIGN,
    GridSpec,
    PFAFFIAN_SIGN,
    SIGMA_MIN,
    AxisSpec,
    SpectrumGrid,
    _lambda_grid,
    default_level,
    export_grid_csv,
    export_mesh_obj,
    extract_isosurface,
    radial_section,
    sample,
    slice_4d,
    torus_radius_profile,
    SpectrumMesh,
    mesh_topology,
)


def test_grid_spec_validation():
    with pytest.raises(ContractError):
        AxisSpec(0, 0.0, 1.0, 1)  # too few samples
    with pytest.raises(ContractError):
        AxisSpec(0, 1.0, -1.0, 5)  # inverted range
    spec = GridSpec.cube(3, -1, 1, 5)
    spec.validate_for(3)
    with pytest.raises(ContractError):
        spec.validate_for(4)  # missing a coordinate


@pytest.mark.parametrize(
    "lo, hi, cause",
    [(np.nan, 1.0, "lo"), (0.0, np.nan, "hi"), (-np.inf, 1.0, "lo"), (0.0, np.inf, "hi"), (-1e308, 1e308, "hi - lo")],
)
def test_axis_bounds_must_be_finite(lo, hi, cause):
    with pytest.raises(ContractError, match=f"finite {cause},"):
        AxisSpec(0, lo, hi, 5)


def test_grid_coordinates_are_bounded_like_lambda():
    AxisSpec(0, -1e150, 1e150, 5)
    GridSpec.cube(4, -1, 1, 5, fixed={3: -1e150})
    for lo, hi in ((-2e150, 0.0), (0.0, 2e150)):
        with pytest.raises(ContractError, match="axis 0 reaches beyond the lambda bound 1e"):
            AxisSpec(0, lo, hi, 5)
    with pytest.raises(ContractError, match="fixed lambda 3 is beyond the lambda bound 1e"):
        GridSpec.cube(4, -1, 1, 5, fixed={3: 2e150})


@pytest.mark.parametrize("count", [5.5, 5.0, "5", None])
def test_axis_count_must_be_an_integer(count):
    with pytest.raises(ContractError, match="axis 2 needs an integer count"):
        AxisSpec(2, -1.0, 1.0, count)


def test_axis_count_takes_numpy_integers():
    spec = GridSpec((AxisSpec(0, -1, 1, np.int64(3)), AxisSpec(1, -1, 1, np.int32(4))), ((2, 0.0),))
    assert sample(pauli(), spec, SIGMA_MIN).values.shape == (3, 4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fixed_coordinate_and_level_must_be_finite(value):
    with pytest.raises(ContractError, match="fixed lambda 3 must be finite"):
        GridSpec.cube(4, -1, 1, 5, fixed={3: value})
    grid = sample(pauli(), GridSpec.cube(3, -1, 1, 5), DET_SIGN)
    with pytest.raises(ContractError, match="level must be finite"):
        extract_isosurface(grid, value)


def test_sample_fields_basic():
    spec = GridSpec.cube(3, -2, 2, 9)
    g = sample(pauli(), spec, SIGMA_MIN)
    assert g.values.shape == (9, 9, 9)
    assert np.all(g.values >= 0)
    assert g.reference_norm == pytest.approx(3.0)
    gd = sample(pauli(), spec, DET_SIGN)
    # center node has det = -3, corner nodes are far outside (positive)
    assert gd.values[4, 4, 4] == pytest.approx(-3.0, rel=1e-9)


def test_sigma_min_zeros_near_unit_sphere():
    spec = GridSpec.cube(3, -2, 2, 41)
    g = sample(pauli(), spec, SIGMA_MIN)
    nodes = np.linspace(-2, 2, 41)
    close = g.values <= 1e-2
    idx = np.argwhere(close)
    radii = np.linalg.norm(nodes[idx], axis=1)
    cell = 4.0 / 40
    assert np.all(np.abs(radii - 1.0) <= 3 * cell)


def test_pauli_mesh_radii():
    spec = GridSpec.cube(3, -1.5, 1.5, 41)
    mesh = extract_isosurface(sample(pauli(), spec, DET_SIGN), 0.0)
    assert len(mesh.triangles) > 0
    assert mesh.is_closed
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 0.05


def test_null_plot_and_sigma_min_fix():
    spec = GridSpec.cube(3, -1.5, 1.5, 41)
    bad = direct_sum_sphere(0)
    assert len(extract_isosurface(sample(bad, spec, DET_SIGN), 0.0).triangles) == 0
    mesh = extract_isosurface(sample(bad, spec, SIGMA_MIN))
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert len(mesh.triangles) > 0
    assert radii.min() >= 0.93 and radii.max() <= 1.07


def test_pfaffian_indicator_restores_sphere():
    spec = GridSpec.cube(3, -1.5, 1.5, 21)
    g = sample(self_dual_path(0), spec, PFAFFIAN_SIGN)
    mesh = extract_isosurface(g, 0.0)
    assert len(mesh.triangles) > 0
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 0.1


def test_pfaffian_indicator_requires_self_dual():
    spec = GridSpec.cube(3, -1, 1, 3)
    from cliffordspec.errors import SymmetryError

    with pytest.raises(SymmetryError):
        sample(pauli(), spec, PFAFFIAN_SIGN)


def test_pfaffian_squared_matches_det(rng):
    spec = GridSpec.cube(3, -1.2, 1.2, 5)
    t = self_dual_path(0)
    gp = sample(t, spec, PFAFFIAN_SIGN)
    gd = sample(t, spec, DET_SIGN)
    scale = np.maximum(1.0, np.abs(gd.values))
    assert np.max(np.abs(gp.values**2 - gd.values) / scale) <= 1e-9


def test_far_sphere_is_spectrum_free():
    t = pauli()
    norm0 = operator_norm(build(t.as_float()).matrix)
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        lam = 1.5 * norm0 * u
        assert smallest_eigen_magnitude(build(t.as_float(), lam=lam).matrix) > 0


def test_slice_4d_even_odd():
    t = even_odd(Fraction(3, 2))
    spec = GridSpec.cube(4, -2.5, 2.5, 15, fixed={3: 0.0})
    g = slice_4d(t, spec, SIGMA_MIN)
    assert g.values.shape == (15, 15, 15)
    assert g.values.min() <= 0.05  # the z = 0 slice meets the spectrum


def test_slice_4d_gamma_point():
    spec = GridSpec.cube(4, -1.0, 1.0, 9, fixed={0: 0.0})
    g = slice_4d(gamma_tuple(), spec, SIGMA_MIN)
    nodes = np.linspace(-1, 1, 9)
    hits = np.argwhere(g.values <= 1e-8)
    assert len(hits) == 1
    assert np.allclose(nodes[hits[0]], 0)


def test_slice_needs_three_axes():
    with pytest.raises(ContractError):
        slice_4d(gamma_tuple(), GridSpec.cube(4, -1, 1, 5), SIGMA_MIN)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_four_tuple_sigma_min_on_reduced_localizer_matches_full(n, fixed, seed):
    # sigma_min of a 4-tuple comes from R_lambda; the eigenvalues of the full
    # L_lambda = [[0, R], [R*, 0]] are +-sigma_i(R), so their least magnitude agrees
    rng = np.random.default_rng(seed)
    t = random_tuple(rng, 4, n)
    spec = GridSpec.cube(4, -2.0, 2.0, 4, fixed={fixed: float(rng.uniform(-1, 1))})
    got = sample(t, spec, SIGMA_MIN).values.reshape(-1)
    full = Pencil.localizer(t).at_rows(_lambda_grid(spec, 4))
    want = np.min(np.abs(np.linalg.eigvalsh(full)), axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("make", [lambda: torus_quadruple(3), even_odd, gamma_tuple])
def test_four_tuple_det_sign_is_nonnegative(make):
    # det L_lambda = |det R_lambda|^2 for a 4-tuple: the det-sign field is kept,
    # never changes sign, and its level-0 mesh is empty
    t = make().as_float()
    spec = GridSpec.cube(4, -1.5, 1.5, 21, fixed={3: 0.0})
    values = slice_4d(t, spec, DET_SIGN).values.reshape(-1)
    reduced = np.abs(np.linalg.det(Pencil.reduced(t).at_rows(_lambda_grid(spec, 4)))) ** 2
    assert np.min(values) >= 0.0
    assert np.max(np.abs(values - reduced)) <= 1e-12 * np.max(reduced)
    assert len(extract_isosurface(slice_4d(t, spec, DET_SIGN), 0.0).triangles) == 0


def test_mesh_channel_carries_fixed_coordinate():
    t = even_odd(0)
    spec = GridSpec.cube(4, -2.5, 2.5, 11, fixed={3: 0.0})
    mesh = extract_isosurface(slice_4d(t, spec, SIGMA_MIN))
    assert mesh.channel is not None
    assert np.all(mesh.channel == 0.0)
    assert mesh.axis_indices == (0, 1, 2)


def test_torus_radius_profile():
    p3 = reduced_char_poly(torus_quadruple(3))
    r = torus_radius_profile(p3, 0.0, 0.0)
    # independent univariate oracle: roots of 8r^6 + 12r^4 - 4r^3 + 3r^2 - 1
    roots = np.roots([8, 0, 12, -4, 3, 0, -1])
    real_roots = sorted(
        rt.real for rt in roots if abs(rt.imag) < 1e-9 and rt.real > 0
    )
    assert len(real_roots) == 1
    assert r == pytest.approx(real_roots[0], abs=1e-9)
    coeffs, _ = radial_section(p3, 0.0, 0.0)
    assert abs(sum(c * r**k for k, c in enumerate(coeffs))) <= 1e-10


@pytest.mark.parametrize(
    "theta, phi, r_max",
    [(0.3, 0.2, -2.0), (0.3, 0.2, 0.0), (0.3, 0.2, math.inf), (0.3, 0.2, math.nan),
     (math.nan, 0.2, 2.0), (0.3, math.inf, 2.0)],
)
def test_torus_radius_profile_needs_finite_angles_and_a_positive_bound(theta, phi, r_max):
    # r_max = -2 used to return a negative radius, inf a numpy warning and
    # NaN a "no sign change" ArithmeticError
    p = reduced_char_poly(torus_quadruple(4))
    with pytest.raises(ContractError, match="0 < r_max < inf"):
        torus_radius_profile(p, theta, phi, r_max)


def _former_torus_radius_profile(poly, theta, phi, r_max=2.0):
    """torus_radius_profile as it was, on a hand-written Horner loop."""

    def polyval(coeffs, r):
        acc = 0.0
        for c in coeffs[::-1]:
            acc = acc * r + c
        return float(acc)

    coeffs, _ = radial_section(poly, theta, phi)
    lo, hi = 0.0, float(r_max)
    if not (polyval(coeffs, lo) < 0.0 < polyval(coeffs, hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = polyval(coeffs, mid)
        if abs(f_mid) <= TORUS_RESIDUAL_TOL:
            return mid
        lo, hi = (mid, hi) if f_mid < 0.0 else (lo, mid)
    return None


def test_torus_radius_profile_matches_the_former_loop():
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        p = reduced_char_poly(torus_quadruple(n))
        for theta, phi in rng.uniform(0.0, 2 * np.pi, size=(12, 2)):
            want = _former_torus_radius_profile(p, theta, phi)
            assert want is not None
            assert torus_radius_profile(p, theta, phi).hex() == want.hex()


def test_torus_radius_profile_no_bracket():
    p = reduced_char_poly(torus_quadruple(3))
    with pytest.raises(ArithmeticError):
        torus_radius_profile(p, 0.0, 0.0, r_max=0.1)


def test_export_obj(tmp_path):
    empty = SpectrumMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    path = tmp_path / "empty.obj"
    export_mesh_obj(empty, path)
    assert path.read_text() == ""
    one = SpectrumMesh(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]])
    )
    path = tmp_path / "one.obj"
    export_mesh_obj(one, path)
    lines = path.read_text().strip().split("\n")
    assert len([l for l in lines if l.startswith("v ")]) == 3
    assert lines[-1] == "f 1 2 3"


def test_export_csv(tmp_path):
    spec = GridSpec.cube(3, -1, 1, 11)
    g = sample(pauli(), spec, SIGMA_MIN)
    path = tmp_path / "grid.csv"
    export_grid_csv(g, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "l1,l2,l3,value"
    assert len(lines) == 1 + 11**3


def _fmt_reference(x):
    return f"{float(x):.17g}"


def _obj_reference(mesh):
    """The per-vertex OBJ writer that the block writer replaced."""
    out = []
    for i, v in enumerate(mesh.vertices):
        parts = ["v", _fmt_reference(v[0]), _fmt_reference(v[1]), _fmt_reference(v[2])]
        if mesh.channel is not None:
            parts.append(_fmt_reference(mesh.channel[i]))
        out.append(" ".join(parts) + "\n")
    for t in mesh.triangles:
        out.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
    return "".join(out).encode()


def _csv_reference(grid):
    """The per-node CSV writer that the block writer replaced."""
    d = len(grid.spec.axes) + len(grid.spec.fixed)
    out = [",".join([f"l{i + 1}" for i in range(d)] + ["value"]) + "\n"]
    for row, value in zip(_lambda_grid(grid.spec, d), grid.values.reshape(-1)):
        out.append(",".join([_fmt_reference(v) for v in row] + [_fmt_reference(value)]) + "\n")
    return "".join(out).encode()


_SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, np.inf, -np.inf, np.nan, 0.1, -1 / 3]
)


def test_export_csv_of_several_blocks(tmp_path):
    """A 27^3 grid is three blocks of CSV rows at the default budget; the
    block-wise rows are the per-node writer's bytes."""
    grid = sample(pauli(), GridSpec.cube(3, -1, 1, 27), DET_SIGN)
    assert len(parallel.blocks(27**3, 64 * 4)) == 3
    path = tmp_path / "grid.csv"
    export_grid_csv(grid, path)
    assert path.read_bytes() == _csv_reference(grid)


def _at_entry_bound(tuple_):
    """The tuple scaled to entries of modulus up to ENTRY_BOUND."""
    ft = tuple_.as_float()
    scale = ENTRY_BOUND / max(np.max(np.abs(m)) for m in ft.matrices)
    return HermitianTuple([m * scale for m in ft.matrices])


@pytest.mark.parametrize("make, indicator", [(pauli, DET_SIGN), (self_dual_path, PFAFFIAN_SIGN)])
def test_sign_fields_at_the_entry_bound_keep_their_signs(make, indicator):
    """det L and Pf pass the float range at entries of 1e150; the field is
    scaled by one power of two instead of overflowing.  On [-1, 1]^3, lambda
    is negligible against the entries, so every node has the sign of the
    unscaled tuple's value at lambda = 0."""
    spec = GridSpec.cube(3, -1.0, 1.0, 5)
    grid = sample(_at_entry_bound(make()), spec, indicator)
    at_zero = sample(make(), GridSpec.cube(3, -1.0, 1.0, 3), indicator).values[1, 1, 1]
    assert at_zero != 0.0
    assert np.all(np.isfinite(grid.values))
    assert np.all(np.sign(grid.values) == np.sign(at_zero))
    assert len(extract_isosurface(grid).triangles) == 0


def test_mesh_of_a_grid_near_the_lambda_bound_has_finite_areas():
    """Edges 2.5e149 long would square past the float range in lambda
    units; the area filter takes them in grid cells.  Tier-1 turns an
    overflow warning into an error."""
    grid = sample(pauli(), GridSpec.cube(3, -1e150, 1e150, 9), SIGMA_MIN)
    mesh = extract_isosurface(grid, 1e149)
    assert len(mesh.triangles) and mesh_topology(mesh) == (2, 1)


def _scaled_pauli_mesh(s, count, indicator=DET_SIGN):
    """pauli times s on [-1.5 s, 1.5 s]^3, its on-demand grid and that grid's mesh."""
    t = HermitianTuple([m * s for m in pauli().as_float().matrices])
    grid = sample(t, GridSpec.cube(3, -1.5 * s, 1.5 * s, count), indicator)
    return grid, extract_isosurface(grid)


@pytest.mark.parametrize("s", [1e-3, 1e-5, 1e5])
def test_meshes_do_not_depend_on_the_tuple_scale(s):
    """The spectrum of sX is s times that of X.  The degenerate-triangle cut
    is taken in grid cells, so at 41^3 every scale keeps the 19,944
    triangles of the unit sphere; a cut in lambda units dropped 276 of them
    at s = 1e-3 and all of them from s = 1e-5."""
    _, unit = _scaled_pauli_mesh(1.0, 41)
    _, mesh = _scaled_pauli_mesh(s, 41)
    assert mesh.is_closed and mesh_topology(mesh) == (2, 1)
    assert np.array_equal(mesh.triangles, unit.triangles)


def test_det_sign_fields_of_tiny_tuples_are_scaled_up():
    """det L of pauli times 1e-100 is about 1e-400, below the float range,
    at every node unless the field is scaled up by a power of two.  Scaled
    up to the top of the range, sykora_two_torus times 2^-330 (side 12)
    keeps the precision of its values near the spectrum, so its mesh is the
    unscaled one; scaled only to the bottom, one node read 0 and the mesh
    had 5 components."""
    grid, mesh = _scaled_pauli_mesh(1e-100, 21)
    assert mesh.is_closed and mesh_topology(mesh) == (2, 1)
    assert np.all(grid.values != 0.0)
    want = extract_isosurface(SpectrumGrid(grid.spec, DET_SIGN, grid.values, grid.reference_norm))
    _assert_same_mesh(mesh, want.vertices, want.triangles)
    meshes = []
    for s in (1.0, 2.0**-330):
        t = HermitianTuple([m * s for m in sykora_two_torus().as_float().matrices])
        meshes.append(extract_isosurface(sample(t, GridSpec.cube(3, -1.5 * s, 1.5 * s, 31), DET_SIGN)))
    assert mesh_topology(meshes[1]) == mesh_topology(meshes[0]) == (-1, 1)
    assert np.array_equal(meshes[1].triangles, meshes[0].triangles)


def test_grid_steps_are_bounded_below():
    """A step below STEP_BOUND would underflow the squared node distances of
    the on-demand field's bounds (pauli times 1e-200 on 21^3), so such an
    axis is refused by name; at the least admitted steps the on-demand mesh
    is the full field's."""
    AxisSpec(0, 0.0, 2 * STEP_BOUND, 3)
    with pytest.raises(ContractError, match="axis 1 has a step below the bound 1e-150"):
        AxisSpec(1, -1.5e-200, 1.5e-200, 21)
    with pytest.raises(ContractError, match="axis 0 has a step below the bound"):
        _scaled_pauli_mesh(1e-200, 21, SIGMA_MIN)
    for indicator in (SIGMA_MIN, DET_SIGN):
        grid, mesh = _scaled_pauli_mesh(1e-148, 21, indicator)
        assert len(mesh.triangles) > 0 and not grid._values._solved.all()
        full = SpectrumGrid(grid.spec, indicator, grid.values, grid.reference_norm)
        want = extract_isosurface(full, default_level(grid))
        _assert_same_mesh(mesh, want.vertices, want.triangles)


def test_exports_match_per_row_writer(tmp_path, monkeypatch):
    path = tmp_path / "out"
    # a sampled mesh with a channel, of several blocks of rows, and its
    # special-value twin
    mesh = extract_isosurface(slice_4d(even_odd(0), GridSpec.cube(4, -2.5, 2.5, 31, fixed={3: 0.3}), SIGMA_MIN))
    # 97 rows of four numbers per block of the writer
    monkeypatch.setattr(parallel, "BLOCK_BYTES", 97 * 4 * 64)
    assert len(mesh.vertices) > 4 * 97 and mesh.channel is not None
    rng = np.random.default_rng(11)
    channel = rng.normal(size=len(mesh.vertices)) * 10.0 ** rng.integers(-300, 300, size=len(mesh.vertices))
    channel[: len(_SPECIAL)] = _SPECIAL
    vertices = mesh.vertices.copy()
    vertices[: len(_SPECIAL), 1] = _SPECIAL
    meshes = [
        mesh,
        SpectrumMesh(vertices, mesh.triangles, channel),
        SpectrumMesh(mesh.vertices, mesh.triangles),
        SpectrumMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
        SpectrumMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int), np.zeros(0)),
    ]
    for m in meshes:
        export_mesh_obj(m, path)
        assert path.read_bytes() == _obj_reference(m)
    grids = [
        sample(pauli(), GridSpec.cube(3, -1, 1, 17), DET_SIGN),
        sample(pauli(), GridSpec.cube(3, -1.5, 1.5, 9), SIGMA_MIN),
        slice_4d(even_odd(0), GridSpec.cube(4, -2.5, 2.5, 7, fixed={2: -0.7}), SIGMA_MIN),
    ]
    for g in grids:
        export_grid_csv(g, path)
        assert path.read_bytes() == _csv_reference(g)


@settings(max_examples=50)
@given(arrays(np.float64, (7, 3)), arrays(np.float64, 7))
def test_obj_export_matches_per_row_writer_on_any_floats(tmp_path_factory, vertices, channel):
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    mesh = SpectrumMesh(vertices, np.array([[0, 1, 2], [4, 5, 6]]), channel)
    export_mesh_obj(mesh, path)
    assert path.read_bytes() == _obj_reference(mesh)


def test_exports_deterministic_across_threads(tmp_path):
    spec = GridSpec.cube(3, -1, 1, 9)
    out = []
    for threads in (1, 4):
        g = sample(pauli(), spec, SIGMA_MIN, threads=threads)
        path = tmp_path / f"grid_{threads}.csv"
        export_grid_csv(g, path)
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_torus_slice_vertices_on_reduced_zero_set():
    t = torus_quadruple(4)
    p = reduced_char_poly(t)
    spec = GridSpec.cube(4, -1.2, 1.2, 25, fixed={3: 0.0})
    mesh = extract_isosurface(slice_4d(t, spec, SIGMA_MIN))
    assert len(mesh.triangles) > 0
    # extracted vertices sit near the zero set of the reduced polynomial
    worst = max(
        abs(p.evaluate([v[0], v[1], v[2], 0.0]))
        / max(1.0, p.evaluate_abs([v[0], v[1], v[2], 0.0]))
        for v in mesh.vertices
    )
    assert worst <= 0.15


def test_polar_real_part_matches_tabulated_profile():
    p = reduced_char_poly(torus_quadruple(4))
    from cliffordspec.multipoly import substitute_polar

    f = substitute_polar(p)
    rng = np.random.default_rng(6)
    for _ in range(25):
        r = rng.uniform(0, 1.6)
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        want = (
            r**4 * (-2 * np.cos(4 * ph) - 2 * np.cos(4 * th) + 20)
            + 16 * r**8
            + 32 * r**6
            - 4
        )
        got = f(r, th, ph)
        assert abs(got.real - want) <= 1e-9 * max(1.0, abs(want))
        assert abs(got.imag) <= 1e-9 * max(1.0, abs(want))


def test_vertex_sigma_min_within_lipschitz_bound():
    spec = GridSpec.cube(3, -1.5, 1.5, 21)
    g = sample(pauli(), spec, SIGMA_MIN)
    mesh = extract_isosurface(g)
    level = 1e-2 * g.reference_norm
    t = pauli().as_float()
    cell = 3.0 / 20
    bound = level + 2 * cell * np.sqrt(3) * np.sqrt(3)  # level + 2 diam ||grad||
    for v in mesh.vertices[::7]:
        s = smallest_eigen_magnitude(build(t, lam=v).matrix)
        assert s <= bound


def test_mesh_obj_deterministic_across_threads(tmp_path):
    spec = GridSpec.cube(3, -1.4, 1.4, 15)
    blobs = []
    for threads in (1, 3):
        g = sample(pauli(), spec, DET_SIGN, threads=threads)
        mesh = extract_isosurface(g, 0.0)
        path = tmp_path / f"m{threads}.obj"
        export_mesh_obj(mesh, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_torus_triple_has_nonempty_spectrum():
    t = torus_triple(5, 0.9, 0.4)
    spec = GridSpec.cube(3, -2.0, 2.0, 15)
    g = sample(t, spec, SIGMA_MIN)
    assert g.values.min() <= 0.2


def test_direct_sum_det_field_never_negative():
    spec = GridSpec.cube(3, -1.5, 1.5, 21)
    g = sample(direct_sum_sphere(0), spec, DET_SIGN)
    scale = float(np.max(np.abs(g.values)))
    assert g.values.min() >= -1e-9 * scale  # a perfect square up to roundoff


def test_mesh_topology_sphere_and_genus_two():
    from cliffordspec.gallery import sykora_two_torus
    from cliffordspec.sampler import mesh_topology

    sphere = extract_isosurface(
        sample(pauli(), GridSpec.cube(3, -1.5, 1.5, 41), DET_SIGN), 0.0
    )
    assert mesh_topology(sphere) == (2, 1)

    spec = GridSpec(
        (AxisSpec(0, -1.0, 3.0, 51), AxisSpec(1, -1.3, 1.3, 33), AxisSpec(2, -0.6, 4.6, 61))
    )
    two_holed = extract_isosurface(sample(sykora_two_torus(1), spec, DET_SIGN), 0.0)
    assert two_holed.is_closed
    chi, comps = mesh_topology(two_holed)
    assert (chi, comps) == (-2, 1)  # genus 2: the two-holed torus

    pf_sphere = extract_isosurface(
        sample(self_dual_path(0), GridSpec.cube(3, -1.5, 1.5, 41), PFAFFIAN_SIGN), 0.0
    )
    assert mesh_topology(pf_sphere) == (2, 1)


# ---------------------------------------------------------------------------
# reference implementations: the per-cube and per-matrix loops that the
# array code replaced; the array code must reproduce them bit for bit

_CORNERS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_TETS = ((0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6), (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6))


def _extract_loop(grid, level):
    vals = grid.values
    nx, ny, nz = vals.shape
    axes_nodes = [a.nodes() for a in grid.spec.axes]
    f = vals - level
    stack = np.stack(
        [f[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz] for dx, dy, dz in _CORNERS]
    )
    cand = np.argwhere((stack.min(axis=0) <= 0.0) & (stack.max(axis=0) > 0.0))
    verts, grid_verts, vert_ids, tris = [], [], {}, []

    def edge_vertex(ca, cb, fa, fb):
        key_a = (ca[0] * ny + ca[1]) * nz + ca[2]
        key_b = (cb[0] * ny + cb[1]) * nz + cb[2]
        if key_a > key_b:
            key_a, key_b, ca, cb, fa, fb = key_b, key_a, cb, ca, fb, fa
        if (key_a, key_b) not in vert_ids:
            t = fa / (fa - fb)
            verts.append(
                tuple(
                    axes_nodes[m][ca[m]] + t * (axes_nodes[m][cb[m]] - axes_nodes[m][ca[m]])
                    for m in range(3)
                )
            )
            grid_verts.append(tuple(ca[m] + t * (cb[m] - ca[m]) for m in range(3)))
            vert_ids[(key_a, key_b)] = len(verts) - 1
        return vert_ids[(key_a, key_b)]

    for ci, cj, ck in cand:
        cells = [(ci + dx, cj + dy, ck + dz) for dx, dy, dz in _CORNERS]
        fvals = [f[c] for c in cells]
        for tet in _TETS:
            ins = [c for c in tet if fvals[c] > 0.0]
            outs = [c for c in tet if not fvals[c] > 0.0]

            def ev(a, b):
                return edge_vertex(cells[a], cells[b], fvals[a], fvals[b])

            if len(ins) in (1, 3):
                lone, others = (ins[0], outs) if len(ins) == 1 else (outs[0], ins)
                tris.append(tuple(ev(lone, o) for o in others))
            elif len(ins) == 2:
                (a, b), (c, d) = ins, outs
                v_ac, v_ad, v_bc, v_bd = ev(a, c), ev(a, d), ev(b, c), ev(b, d)
                tris += [(v_ac, v_ad, v_bd), (v_ac, v_bd, v_bc)]
    vertices = np.array(verts) if verts else np.zeros((0, 3))
    kept = []
    for tri in tris:
        # the area in grid-index units, where a cell has sides 1
        p0, p1, p2 = (np.array(grid_verts[v], dtype=float) for v in tri)
        if len(set(tri)) == 3 and 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0)) > 1e-12:
            kept.append(tri)
    return vertices, np.array(kept, dtype=int).reshape(-1, 3)


def _pfaffian_loop(m):
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    value = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot_row = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if pivot_row != k + 1:
            a[[k + 1, pivot_row], :] = a[[pivot_row, k + 1], :]
            a[:, [k + 1, pivot_row]] = a[:, [pivot_row, k + 1]]
            value = -value
        if a[k + 1, k] == 0:
            return 0.0j
        value *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k + 2 :, k] / a[k + 1, k]
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return complex(value)


def _assert_same_mesh(mesh, vertices, triangles):
    assert mesh.vertices.shape == vertices.shape
    assert mesh.vertices.tobytes() == vertices.tobytes()  # signed zeros too
    assert np.array_equal(mesh.triangles, triangles)


# values with exact ties at both levels, signed zeros and arbitrary floats
_FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _grids(draw):
    shape = tuple(draw(st.integers(2, 5)) for _ in range(3))
    values = draw(arrays(np.float64, shape, elements=_FIELD_VALUES))
    fixed = draw(st.sampled_from([None, 0, 3]))
    indices = [i for i in range(4) if i != fixed] if fixed is not None else [0, 1, 2]
    axes = []
    for index, count in zip(indices, shape):
        lo = draw(st.floats(-3.0, 1.0))
        # micro-sized axes: the DEGENERATE_AREA cut is taken in grid cells, so
        # it must drop the same triangles as on axes of unit size
        span = draw(st.one_of(st.floats(0.25, 4.0), st.sampled_from([2e-6, 5e-6])))
        axes.append(AxisSpec(index, lo, lo + span, count))
    fixed_coords = () if fixed is None else ((fixed, draw(st.floats(-1.0, 1.0))),)
    return SpectrumGrid(GridSpec(tuple(axes), fixed_coords), DET_SIGN, values, 1.0)


@settings(max_examples=150)
@given(_grids(), st.sampled_from([0.0, 0.5, -0.0]))
def test_extract_isosurface_matches_per_cube_loop(grid, level):
    mesh = extract_isosurface(grid, level)
    _assert_same_mesh(mesh, *_extract_loop(grid, level))
    assert mesh.axis_indices == tuple(a.index for a in grid.spec.axes)
    if grid.spec.fixed:
        assert np.array_equal(mesh.channel, np.full(len(mesh.vertices), grid.spec.fixed[0][1]))
    else:
        assert mesh.channel is None


@pytest.mark.parametrize("indicator", [DET_SIGN, SIGMA_MIN])
def test_extract_isosurface_matches_per_cube_loop_on_sampled_fields(indicator):
    spec = GridSpec(
        (AxisSpec(0, -1.4, 1.4, 15), AxisSpec(1, -1.3, 1.3, 12), AxisSpec(2, -1.5, 1.2, 17))
    )
    grid = sample(pauli(), spec, indicator)
    mesh = extract_isosurface(grid)
    assert len(mesh.triangles) > 0
    _assert_same_mesh(mesh, *_extract_loop(grid, default_level(grid)))


def _random_skew_stack(rng, b, n):
    a = rng.normal(size=(b, n, n)) + 1j * rng.normal(size=(b, n, n))
    a = a - np.swapaxes(a, 1, 2)
    a[::5] = np.round(a[::5])  # integer entries tie in the pivot search
    a[1::7, :, 0] = 0.0  # singular: a zero first column and row
    a[1::7, 0, :] = 0.0
    a[2::9] = 0.0
    return a


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_stacked_pfaffian_matches_per_matrix_results(rng, n):
    stack = _random_skew_stack(rng, 40, n)
    got = _pfaffian_parlett_reid(stack.copy())
    want = np.array([_pfaffian_loop(m) for m in stack])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, [pfaffian(m) for m in stack])
    singular = np.all(stack[:, :, 0] == 0, axis=1)
    assert singular.any() and np.all(got[singular] == 0)
    det = np.linalg.det(stack)
    assert np.all(np.abs(got**2 - det) <= 1e-9 * np.maximum(1.0, np.abs(det)))


def _pfaffian_field_loop(tuple_, spec):
    """The per-point pfaffian-sign sampler: assemble each skew matrix by
    subtracting lambda_j B_j only where lambda_j is nonzero."""
    from cliffordspec.cliffordrep import rep_for
    from cliffordspec.matrices import kron, to_float
    from cliffordspec.sampler import _lambda_grid

    ft = tuple_.as_float()
    rep = rep_for(3)
    l0 = build(ft, [0.0] * 3).matrix
    q = to_float(former_exact_conjugation_unitary(ft.n))
    a0 = 0.5 * (q.conj().T @ l0 @ q)
    bj = [0.5 * (q.conj().T @ kron(np.eye(ft.n, dtype=complex), g) @ q) for g in rep.as_float()]
    out = []
    for point in _lambda_grid(spec, 3):
        skew = a0.copy()
        for j in range(3):
            if point[j]:
                skew = skew - point[j] * bj[j]
        out.append(_pfaffian_loop(skew).real)
    return np.array(out).reshape(tuple(a.count for a in spec.axes))


@settings(max_examples=20)
@given(
    arrays(np.int64, (3, 4, 4), elements=st.integers(-2, 2)),
    arrays(np.int64, (3, 4, 4), elements=st.integers(-2, 2)),
    st.integers(2, 6),
)
def test_pfaffian_sampling_matches_per_point_loop(re, im, count):
    from cliffordspec.invariants import dual
    from cliffordspec.matrices import HermitianTuple, float_matrix

    mats = []
    for k in range(3):
        m = re[k] + 1j * im[k]
        m = m + m.conj().T
        mats.append(float_matrix(m + dual(m)))
    t = HermitianTuple(mats)
    spec = GridSpec.cube(3, -2.0, 2.0, count)  # odd counts put nodes on lambda_j = 0
    got = sample(t, spec, PFAFFIAN_SIGN).values
    assert got.tobytes() == _pfaffian_field_loop(t, spec).tobytes()


def test_pfaffian_sampling_identical_across_threads():
    spec = GridSpec.cube(3, -1.5, 1.5, 17)  # 4,913 nodes: two chunks
    grids = [sample(self_dual_path(0), spec, PFAFFIAN_SIGN, threads=k) for k in (1, 2)]
    assert grids[0].values.tobytes() == grids[1].values.tobytes()


# ---------------------------------------------------------------------------
# topology of hand-built meshes

_OCTAHEDRON_VERTICES = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
)
_OCTAHEDRON_TRIANGLES = np.array(
    [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
)


def test_topology_of_two_disjoint_octahedra():
    mesh = SpectrumMesh(
        np.vstack([_OCTAHEDRON_VERTICES, _OCTAHEDRON_VERTICES + 3.0]),
        np.vstack([_OCTAHEDRON_TRIANGLES, _OCTAHEDRON_TRIANGLES + 6]),
    )
    assert mesh.is_closed
    assert mesh_topology(mesh) == (4, 2)


def test_topology_counts_an_unused_vertex_as_a_component():
    mesh = SpectrumMesh(np.vstack([_OCTAHEDRON_VERTICES, [[5.0, 5, 5]]]), _OCTAHEDRON_TRIANGLES)
    assert mesh.is_closed
    assert mesh_topology(mesh) == (3, 2)


def test_single_triangle_is_open():
    mesh = SpectrumMesh(np.eye(3), np.array([[0, 1, 2]]))
    assert not mesh.is_closed
    assert mesh_topology(mesh) == (1, 1)


def test_empty_mesh_topology():
    mesh = SpectrumMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert mesh.is_closed
    assert mesh_topology(mesh) == (0, 0)


# ---------------------------------------------------------------------------
# sigma-min fields solved on demand


def _eager_sigma_min(tuple_, spec):
    """The field as sample used to return it: every node solved, in order,
    in chunks of 4,096 (the reference for every on-demand read).  A 4-tuple's
    sigma_min is the least singular value of its half-size R_lambda."""
    ft = tuple_.as_float()
    lam = _lambda_grid(spec, ft.d)
    if ft.d == 4:
        pencil = Pencil.reduced(ft)

        def run(rows):
            return np.linalg.svd(pencil.at_rows(rows), compute_uv=False)[:, -1]

    else:
        pencil = Pencil.localizer(ft)

        def run(rows):
            return np.min(np.abs(np.linalg.eigvalsh(pencil.at_rows(rows))), axis=1)

    pieces = [run(lam[i : i + 4096]) for i in range(0, len(lam), 4096)]
    return np.concatenate(pieces).reshape([a.count for a in spec.axes])


def _longest_tet_edge(spec):
    return np.sqrt(sum(np.max(np.diff(a.nodes())) ** 2 for a in spec.axes))


def _obj_bytes(mesh, path):
    export_mesh_obj(mesh, path)
    return path.read_bytes()


@st.composite
def _sigma_min_cases(draw):
    """A random float tuple, d = 3 on a 3-D grid or d = 4 on a slice, and a level."""
    d = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_tuple(rng, d, draw(st.integers(1, 3)))
    fixed = {draw(st.integers(0, 3)): draw(st.floats(-1.0, 1.0))} if d == 4 else {}
    indices = [i for i in range(d) if i not in fixed]
    axes = []
    for index in indices:
        lo = draw(st.floats(-3.0, 0.0))
        axes.append(AxisSpec(index, lo, lo + draw(st.floats(1.0, 4.0)), draw(st.integers(2, 12))))
    spec = GridSpec(tuple(axes), tuple(fixed.items()))
    return t, spec, draw(st.floats(0.0, 1.0))


@settings(max_examples=40)
@given(_sigma_min_cases())
def test_pruned_sigma_min_nodes_lie_above_level_plus_edge(case):
    t, spec, level = case
    grid = sample(t, spec, SIGMA_MIN)
    field = grid._values
    # at_level returns the field's own array, which grid.values completes
    held = field.at_level(level).copy()
    pruned = ~field._solved.reshape(held.shape)
    full = grid.values
    e = _longest_tet_edge(spec)
    assert np.all(full[pruned] > level + e)
    # a pruned node holds a lower bound on its value, up to the margin
    assert np.all(held[pruned] <= full[pruned] + field._margin)
    assert np.array_equal(held[~pruned], full[~pruned])
    assert full.tobytes() == _eager_sigma_min(t, spec).tobytes()


@settings(max_examples=25)
@given(_sigma_min_cases(), st.sampled_from([1, 2]))
def test_pruned_sigma_min_mesh_matches_eager_grid(tmp_path_factory, case, threads):
    t, spec, level = case
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    grid = sample(t, spec, SIGMA_MIN, threads=threads)
    eager = SpectrumGrid(spec, SIGMA_MIN, _eager_sigma_min(t, spec), grid.reference_norm)
    for lvl in (level, None):
        got = _obj_bytes(extract_isosurface(grid, lvl), path)
        assert got == _obj_bytes(extract_isosurface(eager, lvl), path)


def test_sigma_min_values_before_and_after_extraction_match_eager_loop():
    t, spec = direct_sum_sphere(0), GridSpec.cube(3, -1.5, 1.5, 21)
    want = _eager_sigma_min(t, spec)
    before = sample(t, spec, SIGMA_MIN)
    assert before.values.tobytes() == want.tobytes()
    after = sample(t, spec, SIGMA_MIN)
    mesh = extract_isosurface(after)
    assert 0 < after._values._solved.sum() < want.size  # pruned, not complete
    assert after.min_value == float(np.min(want))  # read off the solved nodes
    assert after.values.tobytes() == want.tobytes()
    assert after.values is after.values  # completed once, then held
    assert mesh.vertices.tobytes() == extract_isosurface(before).vertices.tobytes()


def test_bad_plot_mesh_solves_a_quarter_of_the_nodes(monkeypatch, tmp_path):
    rows = []
    at_rows = Pencil.at_rows

    def counting(self, lam):
        rows.append(len(lam))
        return at_rows(self, lam)

    monkeypatch.setattr(Pencil, "at_rows", counting)
    spec = GridSpec.cube(3, -1.5, 1.5, 41)
    grid = sample(direct_sum_sphere(0), spec, SIGMA_MIN, threads=2)
    mesh = extract_isosurface(grid)
    assert 0 < sum(rows) <= 0.25 * 41**3
    monkeypatch.setattr(Pencil, "at_rows", at_rows)
    eager = SpectrumGrid(spec, SIGMA_MIN, _eager_sigma_min(direct_sum_sphere(0), spec), grid.reference_norm)
    want = _obj_bytes(extract_isosurface(eager), tmp_path / "want.obj")
    assert len(mesh.triangles) > 0 and _obj_bytes(mesh, tmp_path / "got.obj") == want


def test_sigma_min_grid_shared_between_threads():
    # meshes at several levels and full reads race on one grid; every
    # result must match the eager field's
    t, spec = pauli(), GridSpec.cube(3, -1.5, 1.5, 17)
    eager = SpectrumGrid(spec, SIGMA_MIN, _eager_sigma_min(t, spec), 1.0)
    levels = [0.02, 0.1, 0.3, 0.6]
    want = [extract_isosurface(eager, lvl).vertices.tobytes() for lvl in levels]
    grid = sample(t, spec, SIGMA_MIN, threads=2)
    got, errors = {}, []

    def work(k):
        try:
            got[k] = extract_isosurface(grid, levels[k % 4]).vertices.tobytes()
            got[-1 - k] = grid.values.tobytes()
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(w.is_alive() for w in workers)
    assert all(got[k] == want[k % 4] for k in range(8))
    assert all(got[-1 - k] == eager.values.tobytes() for k in range(8))


# ---------------------------------------------------------------------------
# det-sign and pfaffian-sign fields evaluated on demand


def _eager_sign_field(tuple_, spec, indicator):
    """A sign field as sample used to return it: every node evaluated by
    its kernel, in order, in chunks of 4,096."""
    from cliffordspec.invariants import _skew_pencil

    ft = tuple_.as_float()
    pencil = Pencil.localizer(ft)
    if indicator == PFAFFIAN_SIGN:
        skew = _skew_pencil(pencil)

        def run(rows):
            return _pfaffian_parlett_reid(skew.at_rows(rows)).real

    else:

        def run(rows):
            return np.linalg.det(pencil.at_rows(rows)).real

    lam = _lambda_grid(spec, ft.d)
    pieces = [run(lam[i : i + 4096]) for i in range(0, len(lam), 4096)]
    return np.concatenate(pieces).reshape([a.count for a in spec.axes])


def _random_axes(draw, indices):
    axes = []
    for index in indices:
        lo = draw(st.floats(-3.0, 0.0))
        axes.append(AxisSpec(index, lo, lo + draw(st.floats(1.0, 4.0)), draw(st.integers(2, 12))))
    return tuple(axes)


@settings(max_examples=150)
@given(st.data())
def test_margin_from_the_axis_bounds_is_the_full_grid_margin(data):
    # the margin sample takes from the axis bounds has the bits of the one
    # it took from the largest norm of the full (N, d) lambda grid
    d = data.draw(st.sampled_from([3, 4]))
    fixed = data.draw(st.sets(st.integers(0, d - 1), min_size=d - 3, max_size=1))
    axes = []
    for index in sorted(set(range(d)) - fixed):
        lo = data.draw(st.floats(-1e3, 1e3))
        hi = lo + data.draw(st.floats(1e-3, 1e3))
        axes.append(AxisSpec(index, lo, hi, data.draw(st.integers(2, 40))))
    value = st.one_of(st.floats(-1e3, 1e3), st.integers(-(10**12), 10**12))
    spec = GridSpec(tuple(axes), tuple((i, data.draw(value)) for i in sorted(fixed)))
    t = (pauli() if d == 3 else even_odd(0)).as_float()
    lam = _lambda_grid(spec, d)
    ref = operator_norm(Pencil.localizer(t).members[0])
    want = SIGMA_MIN_PRUNE_RTOL * (ref + math.sqrt(np.max(np.sum(lam * lam, axis=1))))
    assert sample(t, spec, SIGMA_MIN)._values._margin.hex() == want.hex()


@st.composite
def _self_dual_cases(draw):
    """A random self-dual float triple of side 2 or 4 on a 3-D grid."""
    from cliffordspec.invariants import dual
    from cliffordspec.matrices import HermitianTuple, float_matrix

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 4]))
    mats = []
    for _ in range(3):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m + m.conj().T
        mats.append(float_matrix(m + dual(m)))
    return HermitianTuple(mats), GridSpec(_random_axes(draw, range(3)))


@st.composite
def _sign_cases(draw):
    """A det-sign case as in _sigma_min_cases or a pfaffian-sign one."""
    if draw(st.booleans()):
        t, spec, _ = draw(_sigma_min_cases())
        return t, spec, DET_SIGN
    return (*draw(_self_dual_cases()), PFAFFIAN_SIGN)


def _assert_pruned_sign_nodes_proved(t, spec, indicator):
    grid = sample(t, spec, indicator)
    field = grid._values
    held = field.at_level(0.0)
    pruned = ~field._solved.reshape(held.shape)
    eager = _eager_sign_field(t, spec, indicator)
    sigma = _eager_sigma_min(t, spec)
    assert np.all(sigma[pruned] > _longest_tet_edge(spec))
    assert np.array_equal(np.sign(held[pruned]), np.sign(eager[pruned]))
    assert np.all(held[pruned] != 0.0)
    assert held[~pruned].tobytes() == eager[~pruned].tobytes()
    assert grid.values.tobytes() == eager.tobytes()


@settings(max_examples=40)
@given(_sigma_min_cases())
def test_pruned_det_sign_nodes_are_spectrum_free_and_keep_their_sign(case):
    t, spec, _ = case
    _assert_pruned_sign_nodes_proved(t, spec, DET_SIGN)


@settings(max_examples=30)
@given(_self_dual_cases())
def test_pruned_pfaffian_sign_nodes_are_spectrum_free_and_keep_their_sign(case):
    _assert_pruned_sign_nodes_proved(*case, PFAFFIAN_SIGN)


@settings(max_examples=30)
@given(_sign_cases(), st.floats(-1.0, 1.0).filter(bool), st.sampled_from([1, 2]))
def test_pruned_sign_mesh_matches_eager_grid(tmp_path_factory, case, level, threads):
    t, spec, indicator = case
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    eager = SpectrumGrid(spec, indicator, _eager_sign_field(t, spec, indicator), 1.0)
    for fresh in (True, False):
        grid = sample(t, spec, indicator, threads=threads)
        # level 0 on a pruned field, then a nonzero level that completes it;
        # a fresh grid meets the nonzero level first
        for lvl in (0.0, level) if fresh else (level, 0.0):
            got = _obj_bytes(extract_isosurface(grid, lvl), path)
            assert got == _obj_bytes(extract_isosurface(eager, lvl), path)


@pytest.mark.parametrize(
    "tuple_, indicator",
    [(direct_sum_sphere(0), DET_SIGN), (pauli(), DET_SIGN), (self_dual_path(0), PFAFFIAN_SIGN)],
)
def test_sign_values_before_and_after_extraction_match_eager_loop(tuple_, indicator):
    spec = GridSpec.cube(3, -1.5, 1.5, 21)
    want = _eager_sign_field(tuple_, spec, indicator)
    before = sample(tuple_, spec, indicator)
    assert before.values.tobytes() == want.tobytes()
    after = sample(tuple_, spec, indicator)
    mesh = extract_isosurface(after)
    assert 0 < after._values._solved.sum() < want.size  # pruned, not complete
    assert after.min_value == float(np.min(want))  # completes the field
    assert after._values.tobytes() == want.tobytes()
    assert after.values is after.values
    assert mesh.vertices.tobytes() == extract_isosurface(before).vertices.tobytes()
    assert mesh.triangles.tobytes() == extract_isosurface(before).triangles.tobytes()


def test_sykora_det_sign_mesh_evaluates_under_two_fifths_of_the_nodes(monkeypatch, tmp_path):
    rows = []
    at_rows = Pencil.at_rows

    def counting(self, lam):
        rows.append(len(lam))
        return at_rows(self, lam)

    monkeypatch.setattr(Pencil, "at_rows", counting)
    spec = GridSpec(
        (AxisSpec(0, -1.0, 3.0, 51), AxisSpec(1, -1.3, 1.3, 33), AxisSpec(2, -0.6, 4.6, 61))
    )
    t = sykora_two_torus()
    grid = sample(t, spec, DET_SIGN, threads=2)
    mesh = extract_isosurface(grid)
    assert 0 < sum(rows) <= 0.4 * 51 * 33 * 61
    monkeypatch.setattr(Pencil, "at_rows", at_rows)
    eager = SpectrumGrid(spec, DET_SIGN, _eager_sign_field(t, spec, DET_SIGN), grid.reference_norm)
    want = _obj_bytes(extract_isosurface(eager), tmp_path / "want.obj")
    assert len(mesh.triangles) > 0 and _obj_bytes(mesh, tmp_path / "got.obj") == want
    assert mesh_topology(mesh) == (-2, 1)
