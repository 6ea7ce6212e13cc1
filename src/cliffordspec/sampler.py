"""Locating the joint spectrum: indicator fields on grids, isosurface
extraction, 4D slicing, and file export.

Three indicator fields are supported:

* ``det-sign``   - det(L_lambda), real; its zero-level contour misses
  even-multiplicity crossings by design (that failure mode is preserved
  deliberately as a regression target);
* ``sigma-min``  - smallest |eigenvalue| of L_lambda, contoured at a small
  positive threshold, an outer approximation of the zero set;
* ``pfaffian-sign`` - the archetypal (Pfaffian) value on self-dual
  triples, which restores sign changes where the determinant is a square.
  It is the Pfaffian of (1/2) Q* L_lambda Q = A0 - sum_j lambda_j B_j,
  whose members are formed and checked skew once per grid and assembled
  per chunk of nodes by the ``invariants`` functions that ``archetypal``
  uses.

Isosurfaces use marching tetrahedra on the Kuhn 6-tetrahedron cube split:
the split tiles space consistently, has no ambiguous cases, and closed
level sets yield closed meshes.  Every stage runs on whole arrays: fields
per chunk of grid nodes (Pfaffians by a stacked Parlett-Reid), crossed
edges from a 6 x 16 case table, one vertex per grid edge numbered by first
encounter, and topology from unique-edge and component-label arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliffordrep import GammaRep, rep_for
from .errors import ContractError
from .invariants import _skew_pencil, _skew_rows, require_self_dual_triple
from .linalg import _pfaffian_parlett_reid, operator_norm
from .localizer import Pencil
from .matrices import HermitianTuple
from .multipoly import MultiPoly, polar_radial_coefficients
from .parallel import ordered_chunk_map
from .tolerances import DEGENERATE_AREA, TORUS_RESIDUAL_TOL

DET_SIGN = "det-sign"
SIGMA_MIN = "sigma-min"
PFAFFIAN_SIGN = "pfaffian-sign"
INDICATORS = (DET_SIGN, SIGMA_MIN, PFAFFIAN_SIGN)

SIGMA_MIN_LEVEL_FACTOR = 1e-2  # default isolevel: 1e-2 * ||L_0||
_CHUNK = 4096


@dataclass(frozen=True)
class AxisSpec:
    index: int
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ContractError("axis needs at least 2 samples")
        if not self.lo < self.hi:
            raise ContractError("axis needs lo < hi")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    fixed: tuple = ()  # ((lambda_index, value), ...)

    @staticmethod
    def cube(d: int, lo: float, hi: float, count: int, fixed: dict | None = None) -> "GridSpec":
        fixed = dict(fixed or {})
        axes = tuple(
            AxisSpec(i, lo, hi, count) for i in range(d) if i not in fixed
        )
        return GridSpec(axes, tuple(sorted(fixed.items())))

    def validate_for(self, d: int) -> None:
        indices = [a.index for a in self.axes] + [i for i, _ in self.fixed]
        if sorted(indices) != list(range(d)):
            raise ContractError(
                f"grid axes plus fixed coordinates must cover lambda 0..{d - 1}"
            )


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    spec: GridSpec
    indicator: str
    values: np.ndarray  # shape = axis counts, in spec.axes order
    reference_norm: float  # ||L_0|| of the sampled tuple


@dataclass(frozen=True, eq=False)
class SpectrumMesh:
    vertices: np.ndarray  # (V, 3)
    triangles: np.ndarray  # (T, 3), 0-based
    channel: np.ndarray | None = None  # optional per-vertex scalar
    axis_indices: tuple = (0, 1, 2)

    @property
    def is_closed(self) -> bool:
        """Every edge borders exactly two triangles."""
        _, counts = _edge_counts(self.triangles)
        return bool(np.all(counts == 2))


def _edge_counts(triangles: np.ndarray):
    """Unique undirected edges of a triangle list, as (lo, hi), and their triangle counts."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    a = tris[:, [0, 1, 0]].reshape(-1)
    b = tris[:, [1, 2, 2]].reshape(-1)
    base = int(tris.max()) + 1 if tris.size else 1
    keys, counts = np.unique(np.minimum(a, b) * base + np.maximum(a, b), return_counts=True)
    return np.divmod(keys, base), counts


def _lambda_grid(spec: GridSpec, d: int) -> np.ndarray:
    """All grid nodes as an (N, d) array, row-major in axis order."""
    out = np.zeros((math.prod(a.count for a in spec.axes), d))
    columns = np.meshgrid(*[a.nodes() for a in spec.axes], indexing="ij")
    for axis, column in zip(spec.axes, columns):
        out[:, axis.index] = column.reshape(-1)
    for i, v in spec.fixed:
        out[:, i] = v
    return out


def sample(
    tuple_: HermitianTuple,
    spec: GridSpec,
    indicator: str,
    rep: GammaRep | None = None,
    threads: int | None = None,
) -> SpectrumGrid:
    """Evaluate an indicator field over a grid of lambda values."""
    if indicator not in INDICATORS:
        raise ContractError(f"indicator must be one of {INDICATORS}")
    ft = tuple_.as_float()
    d = ft.d
    spec.validate_for(d)
    if rep is None:
        rep = rep_for(d)
    lam = _lambda_grid(spec, d)
    pencil = Pencil(ft, rep.gammas)
    ref = operator_norm(pencil.l0)

    if indicator == PFAFFIAN_SIGN:
        require_self_dual_triple(ft)
        if rep.d != 3:
            raise ContractError("the pfaffian indicator needs the d = 3 localizer")
        skew = _skew_pencil(pencil)

        def run(chunk):
            return _pfaffian_parlett_reid(_skew_rows(skew, chunk)).real

    elif indicator == DET_SIGN:

        def run(chunk):
            return np.linalg.det(pencil.at_rows(chunk)).real

    else:

        def run(chunk):
            return np.min(np.abs(np.linalg.eigvalsh(pencil.at_rows(chunk))), axis=1)

    chunks = [lam[i : i + _CHUNK] for i in range(0, lam.shape[0], _CHUNK)]
    pieces = ordered_chunk_map(run, chunks, threads)
    values = np.concatenate(pieces) if pieces else np.zeros(0)
    if not np.all(np.isfinite(values)):
        raise ArithmeticError("indicator field produced non-finite values")
    shape = tuple(a.count for a in spec.axes)
    return SpectrumGrid(spec, indicator, values.reshape(shape), ref)


def slice_4d(
    tuple_: HermitianTuple,
    spec: GridSpec,
    indicator: str,
    rep: GammaRep | None = None,
    threads: int | None = None,
) -> SpectrumGrid:
    """Sample a 3-axis slice of a 4-tuple's spectrum (one coordinate fixed)."""
    if tuple_.d != 4:
        raise ContractError("slicing needs a 4-tuple")
    if len(spec.axes) != 3 or len(spec.fixed) != 1:
        raise ContractError("a 4D slice needs exactly 3 sampled axes and 1 fixed")
    return sample(tuple_, spec, indicator, rep, threads)


# ---------------------------------------------------------------------------
# marching tetrahedra

# cube corners in (i, j, k) offsets; Kuhn split around the 0-6 diagonal
_CORNERS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ]
)
_TETS = ((0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6), (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6))


def _case_table() -> np.ndarray:
    """Per tet and 4-bit code (bit m set: tet corner m has f > 0), the
    crossed edges as cube-corner pairs in encounter order, padded to 4: the
    inside corners times the outside ones, the lone corner first when three
    are inside."""
    edges = np.zeros((len(_TETS), 16, 4, 2), dtype=np.int8)
    for t, tet in enumerate(_TETS):
        for code in range(1, 15):
            ins = [c for m, c in enumerate(tet) if code >> m & 1]
            outs = [c for c in tet if c not in ins]
            if len(ins) == 3:
                ins, outs = outs, ins
            pairs = [(a, c) for a in ins for c in outs]
            edges[t, code, : len(pairs)] = pairs
    return edges


_CASE_EDGES = _case_table()
_CASE_EDGE_COUNT = np.array([(0, 3, 4, 3, 0)[bin(code).count("1")] for code in range(16)])
# triangles as edge-list positions by list length less 3: (ac, ad, bd), (ac, bd, bc)
_CASE_TRIANGLES = np.array([[[0, 1, 2], [0, 0, 0]], [[0, 1, 3], [0, 3, 2]]])


def default_level(grid: SpectrumGrid) -> float:
    if grid.indicator == SIGMA_MIN:
        return SIGMA_MIN_LEVEL_FACTOR * grid.reference_norm
    return 0.0


def extract_isosurface(grid: SpectrumGrid, level: float | None = None) -> SpectrumMesh:
    """Triangulate {field = level}.  An empty mesh is a valid result (the
    null plot); for sigma-min fields the default level is a small positive
    threshold since the field itself is nonnegative.

    Vertices are numbered in the order in which a walk over the candidate
    cubes (row-major), their six tets and each case's edge list first meets
    them.  A vertex on the grid edge from node a to node b, a the one with
    the lower row-major index, lies at a + t (b - a), t = f(a) / (f(a) - f(b)).
    """
    if len(grid.spec.axes) != 3:
        raise ContractError("isosurface extraction needs 3 sampled axes")
    if level is None:
        level = default_level(grid)
    f = grid.values - level
    nx, ny, nz = f.shape
    flat_f = f.reshape(-1)

    # candidate cubes: those whose corner values straddle 0
    views = [f[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz] for dx, dy, dz in _CORNERS]
    cmin, cmax = views[0].copy(), views[0].copy()
    for view in views[1:]:
        np.minimum(cmin, view, out=cmin)
        np.maximum(cmax, view, out=cmax)
    cand = np.argwhere((cmin <= 0.0) & (cmax > 0.0))

    # row-major node index of each candidate cube's corners; each tet's code
    offsets = (_CORNERS[:, 0] * ny + _CORNERS[:, 1]) * nz + _CORNERS[:, 2]
    nodes = ((cand[:, 0] * ny + cand[:, 1]) * nz + cand[:, 2])[:, None] + offsets
    codes = (flat_f[nodes] > 0.0)[:, _TETS] @ (1 << np.arange(4))

    # crossed (cube, tet) pairs in walk order, and their edges as node pairs
    cube, tet = np.nonzero(_CASE_EDGE_COUNT[codes])
    code = codes[cube, tet]
    n_edges = _CASE_EDGE_COUNT[code]
    used = np.arange(4) < n_edges[:, None]
    corners = _CASE_EDGES[tet, code]
    ends = [nodes[cube[:, None], corners[:, :, e]][used] for e in (0, 1)]
    lo, hi = np.minimum(*ends), np.maximum(*ends)

    # one vertex per grid edge, numbered by first encounter
    _, first, inverse = np.unique(lo * f.size + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    slot_vertex = np.zeros(used.shape, dtype=np.int64)
    slot_vertex[used] = rank[inverse]

    va, vb = lo[first[order]], hi[first[order]]
    t = flat_f[va] / (flat_f[va] - flat_f[vb])
    ia, ib = np.unravel_index(va, f.shape), np.unravel_index(vb, f.shape)
    vertices = np.zeros((len(va), 3))
    for m, axis in enumerate(grid.spec.axes):
        x = axis.nodes()
        vertices[:, m] = x[ia[m]] + t * (x[ib[m]] - x[ia[m]])

    local = _CASE_TRIANGLES[n_edges - 3]
    tris = slot_vertex[np.arange(len(code))[:, None, None], local]
    tris = tris[np.arange(2) < (n_edges - 2)[:, None]]
    p0, p1, p2 = (vertices[tris[:, k]] for k in range(3))
    cross = np.cross(p1 - p0, p2 - p0)
    # row dot products round like np.linalg.norm of one vector; norm(axis=1) does not
    area = 0.5 * np.sqrt((cross[:, None, :] @ cross[:, :, None]).reshape(-1))
    triangles = tris[area > DEGENERATE_AREA]

    channel = None
    if grid.spec.fixed:
        # carry the fixed coordinate (4D slices) as a per-vertex scalar
        channel = np.full(len(vertices), float(grid.spec.fixed[0][1]))
    axis_indices = tuple(a.index for a in grid.spec.axes)
    return SpectrumMesh(vertices, triangles, channel, axis_indices)


def mesh_topology(mesh: SpectrumMesh):
    """(Euler characteristic, connected component count) of a mesh.

    For clean sign-indicator contours this identifies the surface: a sphere
    has characteristic 2, a genus-g surface 2 - 2g.  Thin sigma-min shells
    below grid resolution do not produce meaningful numbers.  A vertex that
    no triangle uses is a component of its own.
    """
    v_count = len(mesh.vertices)
    (a, b), counts = _edge_counts(mesh.triangles)
    # each vertex takes the least label at its edges, then its label's label,
    # until nothing changes: one root label per component
    label = np.arange(v_count)
    while True:
        step = label.copy()
        np.minimum.at(step, a, label[b])
        np.minimum.at(step, b, label[a])
        step = step[step]
        if np.array_equal(step, label):
            break
        label = step
    components = int(np.count_nonzero(label == np.arange(v_count)))
    chi = v_count - len(counts) + len(mesh.triangles)
    return chi, components


# ---------------------------------------------------------------------------
# torus radius profile


def radial_section(poly: MultiPoly, theta: float, phi: float):
    """Real radial polynomial r -> Re p(r cos t, r sin t, r cos f, r sin f)
    and its derivative, as coefficient arrays."""
    coeffs = polar_radial_coefficients(poly, theta, phi).real
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    return coeffs, deriv


def _polyval(coeffs: np.ndarray, r: float) -> float:
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * r + c
    return float(acc)


def torus_radius_profile(
    poly: MultiPoly,
    theta: float,
    phi: float,
    r_max: float = 2.0,
    residual_tol: float = TORUS_RESIDUAL_TOL,
) -> float:
    """Radius where the polar-substituted real part crosses zero.

    `poly` is a reduced characteristic polynomial whose real part, on the
    equal-radius locus, is negative at r = 0 and increasing; bisection
    finds the unique root.  Raises if the bracket shows no sign change.
    """
    coeffs, _ = radial_section(poly, theta, phi)
    lo, hi = 0.0, float(r_max)
    f_lo = _polyval(coeffs, lo)
    f_hi = _polyval(coeffs, hi)
    if not (f_lo < 0.0 < f_hi):
        raise ArithmeticError(
            f"no sign change on [0, {r_max}]: f(0) = {f_lo:.3e}, f(r_max) = {f_hi:.3e}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _polyval(coeffs, mid)
        if abs(f_mid) <= residual_tol:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the residual tolerance")


# ---------------------------------------------------------------------------
# export


# rows formatted per write: one block's Python floats and text stay small
_WRITE_ROWS = 1024


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write each row of the 2-D array rows through the %-format line, one
    block of rows per write; '%.17g' % x is f"{x:.17g}"."""
    for i in range(0, len(rows), _WRITE_ROWS):
        block = rows[i : i + _WRITE_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def export_mesh_obj(mesh: SpectrumMesh, path) -> None:
    """OBJ with 1-based faces; a per-vertex scalar channel, when present,
    is appended as a fourth value on each v line."""
    channel = [] if mesh.channel is None else [mesh.channel]
    vertices = np.column_stack([mesh.vertices, *channel])
    try:
        with open(path, "w") as fh:
            _write_rows(fh, "v" + " %.17g" * vertices.shape[1] + "\n", vertices)
            _write_rows(fh, "f %d %d %d\n", np.asarray(mesh.triangles) + 1)
    except OSError as exc:
        raise OSError(f"writing OBJ to {path}: {exc}") from exc


def export_grid_csv(grid: SpectrumGrid, path) -> None:
    """CSV of every node, row-major in axis order, 17 significant digits."""
    d = len(grid.spec.axes) + len(grid.spec.fixed)
    header = ",".join([f"l{i + 1}" for i in range(d)] + ["value"])
    rows = np.column_stack([_lambda_grid(grid.spec, d), grid.values.reshape(-1)])
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            _write_rows(fh, ",".join(["%.17g"] * (d + 1)) + "\n", rows)
    except OSError as exc:
        raise OSError(f"writing CSV to {path}: {exc}") from exc
