"""Locating the joint spectrum: indicator fields on grids, isosurface
extraction, 4D slicing, and file export.

Three indicator fields are supported:

* ``det-sign``   - det(L_lambda), real; its zero-level contour misses
  even-multiplicity crossings by design (that failure mode is preserved
  deliberately as a regression target); a 4-tuple's is |det R_lambda|^2 >= 0,
  kept, its level-0 mesh empty but for rounding (sigma-min or ``reduced_char_poly``
  show the spectrum);
* ``sigma-min``  - smallest |eigenvalue| of L_lambda, contoured at a small
  positive threshold, an outer approximation of the zero set; for a 4-tuple,
  whose L_lambda is [[0, R_lambda], [R_lambda*, 0]], R_lambda's least singular value;
* ``pfaffian-sign`` - the archetypal (Pfaffian) value on self-dual
  triples, which restores sign changes where the determinant is a square.
  It is the Pfaffian of (1/2) Q* L_lambda Q = A0 - sum_j lambda_j B_j, a
  ``Pencil`` formed by signed moves of the localizer's members and checked
  skew once per grid, and assembled per block of nodes by ``at_rows``.

Every grid from ``sample`` is one on-demand field: an indicator is a
reducer of matrix stacks (``eigvalsh``, singular values, batched ``det``
or the stacked Pfaffian) and the pencil whose matrices it reduces, the
localizer in ``rep_for(d)``, a 4-tuple's reduced localizer or the skew
pencil, and a node is evaluated when a mesh or a read first needs it.
sigma_min is 1-Lipschitz in lambda, since (sum_j a_j gamma_j)^2 = |a|^2, so
max_c(sigma(c) - |lambda - lambda_c|) over already solved nodes c bounds
sigma_min(L_lambda) from below, up to a rounding margin.  Let e be the
longest Kuhn-tet edge, the cube diagonal; every cube at a node lies in the
ball of radius e around it.

* sigma-min: a node whose value exceeds level + e ends no crossing edge
  and lies in no cube that a mesh at that level visits.
* det-sign and pfaffian-sign, at level 0: a node whose sigma_min exceeds e
  has a ball of radius e free of spectrum around it.  det L_lambda, and
  Pf((1/2) Q* L_lambda Q), whose matrix is L_lambda conjugated by the
  unitary Q / sqrt(2), is nonzero on that ball and keeps one sign there;
  the margin also covers the backward error of the factorisations.  So
  every cube at the node has corners of one sign and none is a candidate.
  At any other level the bound proves nothing, and the field is completed.

``extract_isosurface`` therefore solves every node of the stride-4 lattice
(every 4th index per axis, and the last), then the nodes of the stride-2
lattice and then the rest, each only where the bound from its neighbours
on the coarser lattice does not prove it above level + e.  The coarse
lattices get sigma_min, as the sigma-min field has it, and the value;
the full grid only the value.  A node left unsolved holds its bound,
signed like the value at the coarser node that attains it, so the mesh
reads the values, or the signs, it would read from the full field.  The
first read of ``SpectrumGrid.values`` evaluates every node left in the
same blocks; a node's value does not depend on the nodes that share its
block, so the full field is bit-identical to evaluating every node at
once.  A det-sign or pfaffian-sign field whose values could leave the
float range, above or below, reduces its pencil scaled by one power of two
(``_in_range``), which keeps every sign.  Grid steps are at least
STEP_BOUND, so no squared node distance of the bounds underflows.

Isosurfaces use marching tetrahedra on the Kuhn 6-tetrahedron cube split:
the split tiles space consistently, has no ambiguous cases, and closed
level sets yield closed meshes.  Every stage runs on arrays: fields per
block of grid nodes (Pfaffians by a stacked Parlett-Reid), the bounds and
the candidate cubes slab by slab of grid rows (``parallel.blocks``), crossed
edges from a 6 x 16 case table, one vertex per grid edge numbered by first
encounter, and topology from unique-edge and component-label arrays.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .invariants import _self_dual_skew_pencil
from .linalg import _pfaffian_parlett_reid, operator_norm
from .localizer import Pencil
from .matrices import HermitianTuple
from .multipoly import MultiPoly, polar_radial_coefficients
from .parallel import blocks, ordered_chunk_map
from .tolerances import (
    DEGENERATE_AREA,
    LAMBDA_BOUND,
    SIGMA_MIN_PRUNE_RTOL,
    STEP_BOUND,
    TORUS_RESIDUAL_TOL,
)

DET_SIGN = "det-sign"
SIGMA_MIN = "sigma-min"
PFAFFIAN_SIGN = "pfaffian-sign"
INDICATORS = (DET_SIGN, SIGMA_MIN, PFAFFIAN_SIGN)

SIGMA_MIN_LEVEL_FACTOR = 1e-2  # default isolevel: 1e-2 * ||L_0||
_LADDER = (4, 2, 1)  # on-demand lattice strides, coarse to fine
# a pass over a slab of grid nodes (lattice bounds, cube classification)
# holds about eight float64 or int64 arrays of the slab: its bytes per node
_GRID_NODE_BYTES = 64


@dataclass(frozen=True)
class AxisSpec:
    index: int
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        try:
            operator.index(self.count)
        except TypeError:
            what = f"axis {self.index} needs an integer count, got {self.count!r}"
            raise ContractError(what) from None
        if self.count < 2:
            raise ContractError("axis needs at least 2 samples")
        for name, value in (("lo", self.lo), ("hi", self.hi), ("hi - lo", self.hi - self.lo)):
            if not math.isfinite(value):
                raise ContractError(f"axis {self.index} needs a finite {name}, got {value}")
        if not self.lo < self.hi:
            raise ContractError("axis needs lo < hi")
        if max(-self.lo, self.hi) > LAMBDA_BOUND:
            raise ContractError(f"axis {self.index} reaches beyond the lambda bound {LAMBDA_BOUND:g}")
        if (self.hi - self.lo) / (self.count - 1) < STEP_BOUND:
            raise ContractError(f"axis {self.index} has a step below the bound {STEP_BOUND:g}")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    fixed: tuple = ()  # ((lambda_index, value), ...)

    def __post_init__(self):
        for i, v in self.fixed:
            if not math.isfinite(v):
                raise ContractError(f"fixed lambda {i} must be finite, got {v}")
            if abs(v) > LAMBDA_BOUND:
                raise ContractError(f"fixed lambda {i} is beyond the lambda bound {LAMBDA_BOUND:g}")

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


class SpectrumGrid:
    """An indicator field on a grid: ``values`` has the axis counts as its
    shape, in spec.axes order; ``reference_norm`` is ||L_0|| of the sampled
    tuple.

    ``sample`` hands every grid a ``_Field`` in place of the array.
    ``extract_isosurface`` then evaluates, coarse to fine, only the nodes
    that its level reads (for a det-sign or pfaffian-sign grid, only at
    level 0), and the first read of ``values`` evaluates every node left,
    over the placeholders of the others, and holds the full array from then
    on, bit-identical to evaluating every node at once.  A grid built on an
    array holds it from the start.
    """

    def __init__(self, spec: GridSpec, indicator: str, values, reference_norm: float):
        self.spec = spec
        self.indicator = indicator
        self.reference_norm = reference_norm
        self._values = values

    @property
    def values(self) -> np.ndarray:
        if isinstance(self._values, _Field):
            self._values = self._values.complete()
        return self._values

    @property
    def min_value(self) -> float:
        """min(values), taken from the solved nodes alone when they settle
        it, which only sigma-min nodes can."""
        if isinstance(self._values, _Field):
            settled = self._values.settled_min()
            if settled is not None:
                return settled
        return float(np.min(self.values))


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


def _lambda_grid(spec: GridSpec, d: int, flat: np.ndarray | None = None) -> np.ndarray:
    """Grid nodes as an (N, d) array: all of them, row-major in axis order,
    or those at the row-major indices flat."""
    shape = [a.count for a in spec.axes]
    if flat is None:
        flat = np.arange(math.prod(shape))
    out = np.zeros((len(flat), d))
    for axis, i in zip(spec.axes, np.unravel_index(flat, shape)):
        out[:, axis.index] = axis.nodes()[i]
    for i, v in spec.fixed:
        out[:, i] = v
    return out


def _sigma_min(m: np.ndarray) -> np.ndarray:
    """sigma_min of each Hermitian matrix of a stack: its least |eigenvalue|."""
    return np.min(np.abs(np.linalg.eigvalsh(m)), axis=1)


class _Field:
    """An indicator at a grid's nodes, each evaluated when first needed as
    reduce(source.at_rows(rows)).  It holds sigma_min, sigma(pencil.at_rows(rows))
    or a lower bound on it, on its two coarse lattices, and at
    every node the value or, where ``at_level`` proved it unread, a
    placeholder: the node's bound, signed like the value at the coarser node
    that attains it.  The bounds of a sigma-min field bound its values, so
    it prunes at every level and its unsolved values lie above ``_floor``."""

    def __init__(self, pencil: Pencil, sigma, source: Pencil, reduce, spec: GridSpec, margin, threads):
        self._pencil = pencil
        self._sigma_of = sigma
        self._source = source
        self._reduce = reduce
        self._bounds_values = source is pencil and reduce is sigma
        self._spec = spec
        self._coords = [a.nodes() for a in spec.axes]
        self._threads = threads
        self._node_bytes = 16 * max(pencil.side, source.side) ** 2  # one complex128 matrix a node
        self._margin = margin  # the rounding slack of every bound
        size = math.prod(len(x) for x in self._coords)
        self._sigma = np.full(size, np.nan)  # sigma_min or its bound, coarse lattices
        self._values = np.zeros(size)  # the value or its placeholder
        self._solved = np.zeros(size, dtype=bool)
        self._floor = -math.inf
        self._lock = threading.Lock()

    def _run(self, rows: np.ndarray) -> np.ndarray:
        return self._reduce(self._source.at_rows(rows))

    def _run_coarse(self, rows: np.ndarray) -> np.ndarray:
        """sigma_min and the value at rows, from one assembly when the
        field reduces the pencil that gives sigma_min."""
        m = self._pencil.at_rows(rows)
        sigma = self._sigma_of(m)
        if self._bounds_values:
            return np.stack([sigma, sigma])
        source = m if self._source is self._pencil else self._source.at_rows(rows)
        return np.stack([sigma, self._reduce(source)])

    def _solve(self, flat: np.ndarray, coarse: bool = False) -> None:
        """Evaluate the nodes of flat not yet solved, with sigma_min on a
        coarse lattice, one block of matrices per worker at a time."""
        flat = flat[~self._solved[flat]]
        parts = [flat[part] for part in blocks(len(flat), self._node_bytes)]
        ordered_chunk_map(lambda part: self._solve_block(part, coarse), parts, self._threads)
        self._solved[flat] = True

    def _solve_block(self, flat: np.ndarray, coarse: bool) -> None:
        lam = _lambda_grid(self._spec, self._pencil.d, flat)
        out = self._run_coarse(lam) if coarse else self._run(lam)
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("indicator field produced non-finite values")
        if coarse:
            self._sigma[flat], self._values[flat] = out
        else:
            self._values[flat] = out

    def complete(self) -> np.ndarray:
        with self._lock:
            self._solve(np.flatnonzero(~self._solved))
        return self._values.reshape([len(x) for x in self._coords])

    def settled_min(self) -> float | None:
        """The least solved value when no unsolved node can be below it."""
        with self._lock:
            if not self._solved.any():
                return None
            least = float(np.min(self._values[self._solved]))
            return least if self._solved.all() or least <= self._floor else None

    def at_level(self, level: float) -> np.ndarray:
        """The field's own array as a mesh at level reads it, e the longest
        cube diagonal: every node solved whose bound does not prove it above
        level + e + margin, every other node its placeholder.  Only sigma-min
        values are bounded; any other field is completed unless level is 0,
        where a placeholder has its value's sign (see the module docstring).
        Completion overwrites placeholders with values no mesh at level reads."""
        coords = self._coords
        shape = [len(x) for x in coords]
        e = math.sqrt(sum(float(np.max(np.diff(x))) ** 2 for x in coords))
        limit = level + e + self._margin
        with self._lock:
            values = self._values.reshape(shape)
            if (level != 0 and not self._bounds_values) or self._solved.all():
                self._solve(np.flatnonzero(~self._solved))
                return values
            coarse = None
            for stride in _LADDER:
                idx = [np.append(np.arange(0, n - 1, stride), n - 1) for n in shape]
                if coarse is None:
                    flat = np.ravel_multi_index(np.ix_(*idx), shape).reshape(-1)
                else:
                    flat = self._place(idx, coarse, limit, stride > 1)
                self._solve(flat, coarse=stride > 1)
                coarse = idx
            if self._bounds_values:
                self._floor = max(self._floor, level + e)
        return values

    def _place(self, idx, coarse, limit, hold_bounds) -> np.ndarray:
        """Bound every node of the lattice idx from the coarser lattice
        coarse; give each unsolved node whose bound exceeds limit its
        placeholder (and its bound as sigma, if hold_bounds) and return the
        row-major flat indices of the nodes left to solve.  It runs in slabs
        of lattice rows along the first axis, in grid order, each cut at a
        row of the coarser lattice, so a slab reads only coarse rows that
        no earlier slab has written."""
        shape = [len(x) for x in self._coords]
        values = self._values.reshape(shape)
        sigma = self._sigma.reshape(shape)
        # slabs of about one block of rows, each ending where a coarse row starts
        row_bytes = _GRID_NODE_BYTES * math.prod(len(i) for i in idx[1:])
        starts = np.append(np.flatnonzero(np.isin(idx[0], coarse[0])), len(idx[0]))
        ends = {int(starts[np.searchsorted(starts, p.stop)]) for p in blocks(len(idx[0]), row_bytes)}
        edges = [0, *sorted(ends)]
        need = []
        for a, b in zip(edges, edges[1:]):
            part = [idx[0][a:b], *idx[1:]]
            sub = np.ix_(*part)
            flat = np.ravel_multi_index(sub, shape)
            bound, placeholder = _coarse_bound(sigma, values, self._coords, part, coarse)
            read = bound <= limit
            keep = self._solved[flat] | read
            need.append(flat[read])
            values[sub] = np.where(keep, values[sub], placeholder)
            if hold_bounds:
                sigma[sub] = np.where(keep, sigma[sub], bound)
        return np.concatenate(need)


def _coarse_bound(sigma, values, coords, idx, coarse):
    """Per node of the lattice idx, the largest sigma(c) - |lambda - lambda_c|
    over its enclosing nodes c of the coarser lattice (one or two per axis),
    and that bound signed like values(c) at the c that attains it.  Nodes
    are gathered by row-major flat index."""
    steps = [math.prod(sigma.shape[k + 1 :]) for k in range(sigma.ndim)]
    sides = []
    for x, fine, c, step in zip(coords, idx, coarse, steps):
        below = c[np.searchsorted(c, fine, side="right") - 1]
        above = c[np.searchsorted(c, fine, side="left")]
        sides.append([(n * step, (x[fine] - x[n]) ** 2) for n in (below, above)])
    bound = sign = None
    for pick in itertools.product(*sides):
        at = sum(np.ix_(*[n for n, _ in pick]))
        value = sigma.take(at) - np.sqrt(sum(np.ix_(*[d2 for _, d2 in pick])))
        positive = values.take(at) > 0
        if bound is None:
            bound, sign = value, positive
            continue
        better = value > bound
        sign = (sign & ~better) | (positive & better)
        bound = np.maximum(bound, value)
    return bound, np.where(sign, bound, -bound)


def sample(
    tuple_: HermitianTuple,
    spec: GridSpec,
    indicator: str,
    threads: int | None = None,
) -> SpectrumGrid:
    """An indicator field over a grid of lambda values, evaluated on
    demand (see SpectrumGrid), of the localizer in rep_for(d)."""
    if indicator not in INDICATORS:
        raise ContractError(f"indicator must be one of {INDICATORS}")
    ft = tuple_.as_float()
    d = ft.d
    spec.validate_for(d)
    pencil, sigma = Pencil.localizer(ft), _sigma_min
    ref = operator_norm(pencil.members[0])
    if d == 4:  # sigma_min(L_lambda) is the least singular value of R_lambda
        pencil, sigma = Pencil.reduced(ft), lambda m: np.linalg.svd(m, compute_uv=False)[:, -1]
    # the largest |lambda| of the grid is at a corner: each coordinate's
    # largest square, summed in lambda order
    squares = {a.index: np.max(np.square(a.nodes())) for a in spec.axes}
    squares.update((i, float(v) * float(v)) for i, v in spec.fixed)
    # ||L_lambda|| <= ref + |lambda| <= reach on the grid
    reach = ref + math.sqrt(np.sum([squares[i] for i in range(d)]))
    margin = SIGMA_MIN_PRUNE_RTOL * reach  # the rounding slack of every bound
    # each indicator reduces stacks of the sigma_min pencil's matrices, of the
    # full localizer's for det-sign, or of the skew pencil's for pfaffian-sign
    source, reduce = pencil, sigma
    if indicator == DET_SIGN:
        source, reduce = Pencil.localizer(ft), lambda m: np.linalg.det(m).real
    elif indicator == PFAFFIAN_SIGN:
        source, reduce = ft._held(_self_dual_skew_pencil), lambda m: _pfaffian_parlett_reid(m).real
    if indicator != SIGMA_MIN:
        source = _in_range(source, reach)
    field = _Field(pencil, sigma, source, reduce, spec, margin, threads)
    return SpectrumGrid(spec, indicator, field, ref)


def _in_range(pencil: Pencil, reach: float) -> Pencil:
    """The float pencil itself when reach^side lies within [2^-1020, 2^1020],
    reach a bound on the norm of the pencil's matrices on the grid, and
    otherwise scaled by 2^-e for the whole field, e the least integer with
    (2^-e reach)^side <= 2^1020.  Their determinants and Pfaffians then do
    not overflow and keep their signs and zero set; scaled up to the top of
    the range rather than its bottom, they lose no precision near the
    spectrum, where a value far below the largest would be subnormal, or 0."""
    log_reach, room = math.log2(reach), 1020 / pencil.side
    if abs(log_reach) <= room:
        return pencil
    e = math.ceil(log_reach - room)
    _, re, im = pencil.gaussian_form
    return Pencil.from_gaussian_form(2.0**e, re, im)


def slice_4d(
    tuple_: HermitianTuple,
    spec: GridSpec,
    indicator: str,
    threads: int | None = None,
) -> SpectrumGrid:
    """Sample a 3-axis slice of a 4-tuple's spectrum (one coordinate fixed)."""
    if tuple_.d != 4:
        raise ContractError("slicing needs a 4-tuple")
    if len(spec.axes) != 3 or len(spec.fixed) != 1:
        raise ContractError("a 4D slice needs exactly 3 sampled axes and 1 fixed")
    return sample(tuple_, spec, indicator, threads)


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
_CASE_EDGE_COUNT = np.array([(0, 3, 4, 3, 0)[bin(code).count("1")] for code in range(16)], dtype=np.int8)
# triangles as edge-list positions by list length less 3: (ac, ad, bd), (ac, bd, bc)
_CASE_TRIANGLES = np.array([[[0, 1, 2], [0, 0, 0]], [[0, 1, 3], [0, 3, 2]]], dtype=np.int8)
# the distinct steps, as corner offsets, of the Kuhn tets' edges, lower end first
_EDGE_STEPS = np.array(
    sorted({tuple(abs(_CORNERS[a] - _CORNERS[b])) for t in _TETS for a, b in itertools.combinations(t, 2)})
)


def default_level(grid: SpectrumGrid) -> float:
    if grid.indicator == SIGMA_MIN:
        return SIGMA_MIN_LEVEL_FACTOR * grid.reference_norm
    return 0.0


def _crossings(values: np.ndarray, level: float, index) -> tuple:
    """The crossed (cube, tet) pairs of the field values at level, in walk
    order, as their case codes and (P, 4) masks of the case edge slots in
    use, and the grid edges of those slots, in the same order, as lower and
    upper row-major node indices of dtype index.  Candidate cubes, whose
    corner values straddle the level, are found slab by slab of cube rows."""
    nx, ny, nz = values.shape
    cands = []
    for part in blocks(nx - 1, _GRID_NODE_BYTES * ny * nz):
        f = values[part.start : part.stop + 1] - level
        views = [f[dx : len(f) - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz] for dx, dy, dz in _CORNERS]
        cmin, cmax = views[0].copy(), views[0].copy()
        for view in views[1:]:
            np.minimum(cmin, view, out=cmin)
            np.maximum(cmax, view, out=cmax)
        cand = np.argwhere((cmin <= 0.0) & (cmax > 0.0))
        cand[:, 0] += part.start
        cands.append(cand)

    # row-major node index of each candidate cube's corners; each tet's code
    base, offsets = (np.ravel_multi_index(x.T, values.shape) for x in (np.concatenate(cands), _CORNERS))
    nodes = base.astype(index)[:, None] + offsets.astype(index)
    codes = (values.reshape(-1)[nodes] - level > 0.0)[:, _TETS] @ (1 << np.arange(4, dtype=np.int8))

    # crossed (cube, tet) pairs in walk order, and their edges as node pairs
    cube, tet = (x.astype(index) for x in np.nonzero(_CASE_EDGE_COUNT[codes]))
    code = codes[cube, tet]
    used = np.arange(4) < _CASE_EDGE_COUNT[code][:, None]
    corners = _CASE_EDGES[tet, code]
    ends = [nodes[cube[:, None], corners[:, :, e]][used] for e in (0, 1)]
    return code, used, np.minimum(*ends), np.maximum(*ends)


def _triangles(values: np.ndarray, level: float, index) -> tuple:
    """The triangles of the field values at level as (T, 3) vertex numbers,
    and each vertex's grid edge as its lower and upper row-major nodes: one
    vertex per grid edge, numbered by first encounter.  An edge's key is its
    lower node and which of the Kuhn-tet edge steps leads to its upper one."""
    code, used, lo, hi = _crossings(values, level, index)
    steps = np.ravel_multi_index(_EDGE_STEPS.T, values.shape)
    keys = lo * index(len(steps)) + np.searchsorted(steps, hi - lo).astype(index)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot_vertex = np.zeros(used.shape, dtype=index)
    slot_vertex[used] = np.argsort(order).astype(index)[inverse]
    first = first[order]
    n_edges = _CASE_EDGE_COUNT[code]
    tris = slot_vertex[np.arange(len(code), dtype=index)[:, None, None], _CASE_TRIANGLES[n_edges - 3]]
    return tris[np.arange(2) < (n_edges - 2)[:, None]], (lo[first], hi[first])


def _areas(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Area of each triangle of the (T, 3) vertex index array tris."""
    p0, p1, p2 = (vertices[tris[:, k]] for k in range(3))
    cross = np.cross(p1 - p0, p2 - p0)
    # row dot products round like np.linalg.norm of one vector; norm(axis=1) does not
    return 0.5 * np.sqrt((cross[:, None, :] @ cross[:, :, None]).reshape(-1))


def extract_isosurface(grid: SpectrumGrid, level: float | None = None) -> SpectrumMesh:
    """Triangulate {field = level}.  An empty mesh is a valid result (the
    null plot); for sigma-min fields the default level is a small positive
    threshold since the field itself is nonnegative.

    Vertices are numbered in the order in which a walk over the candidate
    cubes (row-major), their six tets and each case's edge list first meets
    them.  A vertex on the grid edge from node a to node b, a the one with
    the lower row-major index, lies at a + t (b - a), t = f(a) / (f(a) - f(b)).
    A grid from ``sample`` evaluates only the nodes the level reads.
    """
    if len(grid.spec.axes) != 3:
        raise ContractError("isosurface extraction needs 3 sampled axes")
    if level is None:
        level = default_level(grid)
    if not math.isfinite(level):
        raise ContractError(f"isosurface level must be finite, got {level}")
    held = grid._values
    values = held.at_level(level) if isinstance(held, _Field) else grid.values
    # every surface-sized index array is int32 when the edge keys fit
    index = np.int32 if len(_EDGE_STEPS) * values.size < 2**31 else np.int64
    tris, (va, vb) = _triangles(values, level, index)
    flat = values.reshape(-1)
    fa, fb = flat[va] - level, flat[vb] - level
    t = fa / (fa - fb)
    ia, ib = np.unravel_index(va, values.shape), np.unravel_index(vb, values.shape)
    vertices = np.zeros((len(t), 3))
    cells = np.zeros((len(t), 3))  # the vertices in grid-index units
    for m, axis in enumerate(grid.spec.axes):
        x = axis.nodes()
        vertices[:, m] = x[ia[m]] + t * (x[ib[m]] - x[ia[m]])
        cells[:, m] = ia[m] + t * (ib[m] - ia[m])

    # a triangle is degenerate by its area in grid cells, whatever the scale
    # of lambda; it passes through about ten float64 rows of three
    keep = np.ones(len(tris), dtype=bool)
    for part in blocks(len(tris), 240):
        keep[part] = _areas(cells, tris[part]) > DEGENERATE_AREA
    triangles = tris[keep]

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


def torus_radius_profile(
    poly: MultiPoly,
    theta: float,
    phi: float,
    r_max: float = 2.0,
) -> float:
    """Radius where the polar-substituted real part crosses zero.

    `poly` is a reduced characteristic polynomial whose real part, on the
    equal-radius locus, is negative at r = 0 and increasing; bisection
    finds the unique root, to |f| <= TORUS_RESIDUAL_TOL.  Raises if the
    bracket shows no sign change; theta and phi must be finite and
    0 < r_max < inf.
    """
    if not (math.isfinite(theta) and math.isfinite(phi) and 0.0 < r_max < math.inf):
        raise ContractError(f"need finite angles and 0 < r_max < inf, got {theta}, {phi}, {r_max}")
    coeffs = radial_section(poly, theta, phi)[0][::-1]  # highest power first
    lo, hi = 0.0, float(r_max)
    f_lo = np.polyval(coeffs, lo)
    f_hi = np.polyval(coeffs, hi)
    if not (f_lo < 0.0 < f_hi):
        raise ArithmeticError(
            f"no sign change on [0, {r_max}]: f(0) = {f_lo:.3e}, f(r_max) = {f_hi:.3e}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = np.polyval(coeffs, mid)
        if abs(f_mid) <= TORUS_RESIDUAL_TOL:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the residual tolerance")


# ---------------------------------------------------------------------------
# export


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write each row of the 2-D array rows through the %-format line, one
    block of rows per write, a number counting as its Python float, its
    list slot and its text; '%.17g' % x is f"{x:.17g}"."""
    for part in blocks(len(rows), 64 * rows.shape[1]):
        block = rows[part]
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
    """CSV of every node, row-major in axis order, 17 significant digits,
    its lambda rows formed block by block."""
    d = len(grid.spec.axes) + len(grid.spec.fixed)
    header = ",".join([f"l{i + 1}" for i in range(d)] + ["value"])
    line = ",".join(["%.17g"] * (d + 1)) + "\n"
    values = grid.values.reshape(-1)
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for part in blocks(len(values), 64 * (d + 1)):
                lam = _lambda_grid(grid.spec, d, np.arange(part.start, part.stop))
                _write_rows(fh, line, np.column_stack([lam, values[part]]))
    except OSError as exc:
        raise OSError(f"writing CSV to {path}: {exc}") from exc
