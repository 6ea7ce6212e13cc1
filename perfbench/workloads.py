"""The benchmark's three workloads.

A workload object is built once per process (its construction is part of
the measured set-up), offers a small ``warm_up`` call, and hands out the
operations of one pass.  An operation is a timed call into the public API
of ``cliffordspec`` plus an untimed check of what it returned.  Checks
raise :class:`gate.GateError` on a mismatch and may return counters that
the traced run reports.

Inputs come from the seed only.  The charpoly workload conjugates each
gallery tuple by a seeded permutation-with-phases matrix P (entries in
{1, i, -1, -i}): the localizer becomes (P (x) I) L (P (x) I)*, so every
determinant, and hence every reference polynomial, is unchanged, while
the matrices the library sees differ from seed to seed.  Such a
conjugation is exact in floating point too.  Fixed-grid meshes are
compared against stored OBJ hashes, so the mesh inputs are fixed and the
seed only orders them.  Point queries draw lambda from the seed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from gate import (
    check_close,
    check_coeffs,
    check_equal,
    check_sha256,
    check_text,
    parse_poly_text,
)

REFS = Path(__file__).resolve().parent / "refs"
RTOL = 1e-9  # the library's float contract


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# helpers shared by the checks


def conjugate_tuple(cs, tuple_, rng):
    """P X_j P* for every matrix, P a random permutation with phases."""
    n = tuple_.n
    perm = rng.permutation(n)
    powers = rng.integers(0, 4, size=n)
    if tuple_.kind == "exact":
        units = [cs.GaussianRational(*u) for u in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        ph = [units[k] for k in powers]
        mats = []
        for x in tuple_.matrices:
            out = np.empty((n, n), dtype=object)
            for a in range(n):
                for b in range(n):
                    out[a, b] = ph[a] * x[perm[a], perm[b]] * ph[b].conjugate()
            mats.append(out)
    else:
        ph = np.array([1, 1j, -1, -1j])[powers]
        mats = [ph[:, None] * x[np.ix_(perm, perm)] * ph.conj()[None, :] for x in tuple_.matrices]
    return cs.HermitianTuple(mats)


def localizer_matrix(blocks, mats, lam) -> np.ndarray:
    """sum_j kron(block_j, X_j - lam_j I), assembled with numpy alone."""
    eye = np.eye(mats[0].shape[0])
    return sum(np.kron(b, x - l * eye) for b, x, l in zip(blocks, mats, lam))


def poly_value(terms: dict, lam) -> tuple:
    """(sum c lam^e, sum |c| |lam^e|) from a coefficient dict."""
    total, mag = 0j, 0.0
    for expo, c in terms.items():
        mono = 1.0
        for v, e in zip(lam, expo):
            mono *= v**e
        total += c * mono
        mag += abs(c) * abs(mono)
    return total, mag


def float_terms(poly) -> dict:
    return {e: complex(c) for e, c in poly.terms.items()}


def read_ref(name: str) -> str:
    return (REFS / "exact" / f"{name}.txt").read_text()


# ---------------------------------------------------------------------------
# charpoly: the exact task list, then the float one


class ExactCharpoly:
    """Exact characteristic polynomials: Gaussian-integer Bareiss on the
    node grid plus Fraction interpolation, no float kernel."""

    TASKS = (
        ("pauli", "char_poly"),
        ("lemniscate", "char_poly"),
        ("bad_plot", "char_poly"),
        ("fuzzy_sphere_5", "char_poly"),
        ("sykora_two_torus", "char_poly"),
        ("even_odd", "reduced_char_poly"),
    )

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        rng = np.random.default_rng(seed)
        self.tasks = []
        for name, fn in self.TASKS:
            ex = cs.named_example(name)
            closed = ex.expected.get(fn)
            self.tasks.append(
                (
                    f"{fn}:{name}",
                    fn,
                    conjugate_tuple(cs, ex.tuple, rng),
                    read_ref(f"{name}_{fn}"),
                    cs.to_text(closed()) if closed else None,
                )
            )
        self.order = [self.tasks[i] for i in rng.permutation(len(self.tasks))]

    def warm_up(self):
        cs = self.cs
        cs.to_text(cs.char_poly(cs.named_example("pauli").tuple))

    def ops(self, pass_index):
        return [self._op(*task) for task in self.order]

    def _op(self, label, fn, tuple_, ref_text, closed_text):
        cs = self.cs

        def call():
            poly = getattr(cs, fn)(tuple_)
            return poly, cs.to_text(poly)

        def check(result):
            poly, text = result
            check_text(text, ref_text, label)
            if closed_text is not None:
                check_text(text, closed_text, f"{label} closed form")
            return {"terms": len(poly.terms)}

        return Op(label, call, check)


class FloatCharpoly:
    """Float characteristic polynomials: the double-double batched
    determinant grid on the threaded chunk map, no exact arithmetic."""

    PROBES = 3  # independent determinant probes per polynomial

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        from cliffordspec import gallery

        rng = np.random.default_rng(seed)
        red_blocks = [cs.matrices.to_float(b) for b in cs.standard_rep(4).off_diagonal_blocks]
        gammas3 = cs.standard_rep(3).as_float()
        self.tasks = []
        for n in (3, 4, 5, 6):
            t = conjugate_tuple(cs, gallery.torus_quadruple(n), rng)
            facts = {"polar": gallery.TORUS_POLAR_CONSTANTS.get(n)}
            if n in (3, 4):
                facts["imag"] = gallery.torus_quadruple_imag_reference(n)
            if n == 4:
                facts["exact"] = parse_poly_text(read_ref("torus_quadruple4_reduced_char_poly"))
            self.tasks.append((f"reduced_char_poly:torus_quadruple{n}", "reduced_char_poly", t, red_blocks, facts))
        for name in ("fuzzy_sphere_5", "sykora_two_torus"):
            t = conjugate_tuple(cs, cs.named_example(name).tuple.as_float(), rng)
            facts = {"exact": parse_poly_text(read_ref(f"{name}_char_poly"))}
            self.tasks.append((f"char_poly:{name}", "char_poly", t, gammas3, facts))
        self.probes = {
            label: rng.uniform(-1.0, 1.0, size=(self.PROBES, t.d))
            for label, _, t, _, _ in self.tasks
        }
        self.imag_points = rng.uniform(-1.3, 1.3, size=(20, 4))
        self.order = [self.tasks[i] for i in rng.permutation(len(self.tasks))]

    def warm_up(self):
        cs = self.cs
        cs.to_text(cs.char_poly(cs.named_example("pauli").tuple.as_float()))

    def ops(self, pass_index):
        return [self._op(*task) for task in self.order]

    def _op(self, label, fn, tuple_, blocks, facts):
        cs = self.cs

        def call():
            poly = getattr(cs, fn)(tuple_)
            return poly, cs.to_text(poly)

        def check(result):
            poly, _ = result
            terms = float_terms(poly)
            for lam in self.probes[label]:
                want = np.linalg.det(localizer_matrix(blocks, tuple_.matrices, lam))
                got, mag = poly_value(terms, lam)
                check_close(got, want, RTOL, max(abs(want), mag), f"{label} at {lam}")
            counters = {}
            if "exact" in facts:
                counters["rel_err"] = check_coeffs(terms, facts["exact"], RTOL, label)
            if "imag" in facts:
                ref = facts["imag"]
                for lam in self.imag_points:
                    want = ref.evaluate(lam).real
                    got, _ = poly_value(terms, lam)
                    check_close(got.imag, want, RTOL, abs(want), f"{label} imaginary part")
            if facts.get("polar") is not None:
                c0 = cs.polar_radial_coefficients(poly, 0.37, 1.91)[0]
                check_close(c0, facts["polar"], RTOL, 1.0, f"{label} polar constant")
            return counters

        return Op(label, call, check)


class Charpoly:
    """A pass is the exact task list followed by the float one."""

    name = "charpoly"
    per_operation = False

    def __init__(self, cs, seed, workdir):
        self.parts = (ExactCharpoly(cs, seed, workdir), FloatCharpoly(cs, seed, workdir))

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def ops(self, pass_index):
        return [op for part in self.parts for op in part.ops(pass_index)]


# ---------------------------------------------------------------------------
# spectrum_mesh

_CUBE41 = ((0, -1.5, 1.5, 41), (1, -1.5, 1.5, 41), (2, -1.5, 1.5, 41))
_CUBE21 = ((0, -1.5, 1.5, 21), (1, -1.5, 1.5, 21), (2, -1.5, 1.5, 21))
_SYKORA = ((0, -1.0, 3.0, 51), (1, -1.3, 1.3, 33), (2, -0.6, 4.6, 61))

# name -> (example, axes, indicator, expected (euler characteristic,
# components) or None where a thin sigma-min shell makes it meaningless)
MESHES = {
    "bad_plot_det_sign": ("bad_plot", _CUBE41, "det-sign", (0, 0)),
    "bad_plot_sigma_min": ("bad_plot", _CUBE41, "sigma-min", None),
    "sykora_det_sign": ("sykora_two_torus", _SYKORA, "det-sign", (-2, 1)),
    "self_dual_pfaffian_sign": ("self_dual_path", _CUBE21, "pfaffian-sign", (2, 1)),
}


def grid_spec(cs, axes):
    return cs.GridSpec(tuple(cs.AxisSpec(*a) for a in axes))


def near_surface_frac(values: np.ndarray, level: float) -> float:
    """Share of grid cubes whose corner values straddle the level (the
    cubes marching tetrahedra visits)."""
    f = values - level
    nx, ny, nz = f.shape
    corners = [
        f[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz]
        for dx in (0, 1)
        for dy in (0, 1)
        for dz in (0, 1)
    ]
    lo = np.minimum.reduce(corners)
    hi = np.maximum.reduce(corners)
    return float(np.mean((lo <= 0.0) & (hi > 0.0)))


class SpectrumMesh:
    """sample -> extract_isosurface -> mesh_topology -> export_mesh_obj on
    fixed grids, one per indicator field; no polynomial code."""

    name = "spectrum_mesh"
    per_operation = False

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        self.workdir = Path(workdir)
        shas = json.loads((REFS / "obj_sha256.json").read_text())
        rng = np.random.default_rng(seed)
        self.meshes = [
            (name, cs.named_example(ex).tuple, grid_spec(cs, axes), ind, topo, shas[name])
            for name, (ex, axes, ind, topo) in MESHES.items()
        ]
        self.order = [self.meshes[i] for i in rng.permutation(len(self.meshes))]

    def warm_up(self):
        cs = self.cs
        spec = cs.GridSpec.cube(3, -1.5, 1.5, 5)
        for ex, ind in (("pauli", "det-sign"), ("pauli", "sigma-min"), ("self_dual_path", "pfaffian-sign")):
            mesh = cs.extract_isosurface(cs.sample(cs.named_example(ex).tuple, spec, ind))
            cs.mesh_topology(mesh)
            cs.export_mesh_obj(mesh, self.workdir / "warm_up.obj")

    def ops(self, pass_index):
        return [self._op(*m) for m in self.order]

    def _op(self, name, tuple_, spec, indicator, topology, sha):
        cs = self.cs
        path = self.workdir / f"{name}.obj"

        def call():
            grid = cs.sample(tuple_, spec, indicator)
            mesh = cs.extract_isosurface(grid)
            topo = cs.mesh_topology(mesh)
            cs.export_mesh_obj(mesh, path)
            return grid, mesh, topo

        def check(result):
            grid, mesh, topo = result
            data = path.read_bytes()
            check_sha256(data, sha, f"{name}.obj")
            if topology is not None:
                check_equal(tuple(int(v) for v in topo), topology, f"{name} topology")
            counters = {"triangles": len(mesh.triangles), "obj_bytes": len(data)}
            if indicator == "sigma-min":
                level = cs.sampler.default_level(grid)
                counters["near_surface_frac"] = near_surface_frac(grid.values, level)
            return counters

        return Op(name, call, check)

    def extras(self):
        """Pfaffian sampling at one worker and at the configured count,
        both untraced: the GIL serialises the per-point Python loop."""
        cs = self.cs
        name, tuple_, spec, ind, _, _ = next(m for m in self.meshes if m[3] == "pfaffian-sign")
        times = {}
        for label, threads in (("1t", 1), ("nt", None)):
            t0 = time.perf_counter()
            cs.sample(tuple_, spec, ind, threads=threads)
            times[label] = time.perf_counter() - t0
        return {
            "sampler.pfaffian_1t_s": times["1t"],
            "sampler.pfaffian_2t_over_1t": times["nt"] / times["1t"],
        }


# ---------------------------------------------------------------------------
# point_queries


class PointQueries:
    """One index, sign, graded index or certificate per lambda, drawn
    uniformly from [-2, 2]^d; a pass holds PER_KIND queries of each kind
    in seeded order."""

    name = "point_queries"
    per_operation = True
    PER_KIND = 150
    KINDS = (
        ("index:pauli", "index", "pauli"),
        ("index:sykora_two_torus", "index", "sykora_two_torus"),
        ("index:torus_triple", "index", "torus_triple"),
        ("archetypal_sign:self_dual_path", "archetypal_sign", "self_dual_path"),
        ("graded_index:even_odd", "graded_index", "even_odd"),
        ("certificate:torus_quadruple5", "certificate", "torus_quadruple"),
        ("certificate:sykora_two_torus", "certificate", "sykora_two_torus"),
    )

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        self.seed = seed
        self.kinds = []
        for label, fn, ex in self.KINDS:
            t = cs.named_example(ex, **({"n": 5} if ex == "torus_quadruple" else {})).tuple
            ft = t.as_float()
            gammas = cs.rep_for(t.d).as_float()
            comm = sum(
                np.linalg.norm(a @ b - b @ a, 2)
                for j, a in enumerate(ft.matrices)
                for b in ft.matrices[j + 1 :]
            )
            self.kinds.append((label, fn, t, ft.matrices, gammas, comm))

    def warm_up(self):
        for label, fn, t, *_ in self.kinds:
            lam = [0.25] * t.d
            if fn == "graded_index":
                lam[3] = 0.0
            self._query(fn, t, lam)

    def _query(self, fn, t, lam):
        query = getattr(self.cs, fn)
        try:
            # certificate takes the representation as its second argument
            return query(t, lam=lam) if fn == "certificate" else query(t, lam)
        except self.cs.SingularAtTolerance as exc:
            return exc

    def ops(self, pass_index):
        rng = np.random.default_rng([self.seed, pass_index])
        picks = np.repeat(np.arange(len(self.kinds)), self.PER_KIND)
        rng.shuffle(picks)
        out = []
        for k in picks:
            kind = self.kinds[k]
            lam = rng.uniform(-2.0, 2.0, size=kind[2].d)
            if kind[1] == "graded_index":
                lam[3] = 0.0
            out.append(self._op(kind, [float(v) for v in lam]))
        return out

    def _op(self, kind, lam):
        label, fn, t, mats, gammas, comm = kind
        cs = self.cs

        def call():
            return self._query(fn, t, lam)

        def check(result):
            if isinstance(result, cs.SingularAtTolerance):
                return {"singular": 1}
            if label == "index:pauli":
                r2 = sum(v * v for v in lam)
                if abs(r2 - 1.0) > 1e-6:
                    check_equal(result.value, 1 if r2 < 1.0 else 0, f"{label} at {lam}")
            elif fn == "index":
                eigs = np.linalg.eigvalsh(localizer_matrix(gammas, mats, lam))
                tol = 1e-8 * (1.0 + np.max(np.abs(eigs)))
                if np.min(np.abs(eigs)) > 10 * tol:
                    half_sig = (int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))) // 2
                    check_equal(result.value, half_sig, f"{label} at {lam}")
            elif fn == "archetypal_sign":
                # the pfaffian of the s = 0 self-dual triple is
                # (|lam|^2 - 1)(|lam|^2 + 3)
                r2 = sum(v * v for v in lam)
                if abs(r2 - 1.0) > 1e-6:
                    check_equal(result.value, 1 if r2 > 1.0 else -1, f"{label} at {lam}")
            elif fn == "graded_index":
                # the factor of the even_odd reduced polynomial that
                # vanishes on the lambda_4 = 0 spectrum bounds the -1 region
                w, x, y, z = lam
                r2 = x * x + y * y + z * z
                right = r2**2 + 2 * r2 * w**2 + 14 * r2 + w**4 + 2 * w**2 - 15
                if abs(right) > 1e-6:
                    check_equal(result.value, -1 if right < 0 else 0, f"{label} at {lam}")
            else:
                self._check_certificate(result, label, lam, mats, gammas, comm)
            return {"singular": 0}

        return Op(label, call, check)

    @staticmethod
    def _check_certificate(cert, label, lam, mats, gammas, comm):
        loc = localizer_matrix(gammas, mats, lam)
        eigs = np.linalg.eigvalsh(loc)
        scale = float(np.max(np.abs(eigs)))
        check_close(cert.epsilon, float(np.min(np.abs(eigs))), RTOL, scale, f"{label} epsilon")
        w = np.asarray(cert.w)
        check_close(np.linalg.norm(w), 1.0, RTOL, 1.0, f"{label} |w|")
        lhs = 0.0
        for x, l in zip(mats, lam):
            xw = x @ w
            e = float(np.real(np.vdot(w, xw)))
            lhs += max(float(np.real(np.vdot(xw, xw))) - e * e, 0.0) + (e - l) ** 2
        check_close(cert.lhs, lhs, RTOL, lhs, f"{label} lhs")
        rhs = cert.epsilon + gammas[0].shape[0] * comm
        check_close(cert.rhs, rhs, RTOL, rhs, f"{label} rhs")
        check_equal(cert.holds, cert.lhs <= cert.rhs, f"{label} holds")


WORKLOADS = {w.name: w for w in (Charpoly, SpectrumMesh, PointQueries)}
