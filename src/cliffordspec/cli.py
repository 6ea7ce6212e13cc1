"""Command-line front end.

Subcommands cover the package's capabilities with deterministic file
outputs.  The library checks its own inputs, and one table, _EXIT_CODES,
maps its errors to exit codes: 2 config/usage error, 3 numeric or other
failure inside a computation, 4 lambda on the spectrum, 5 symmetry
violation, 6 certified inequality violated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import traceback
from fractions import Fraction

import numpy as np

from .charpoly import char_poly, reduced_char_poly
from .errors import (
    ContractError,
    InterpolationError,
    SingularAtTolerance,
    SymmetryError,
    TheoremViolation,
)
from .gallery import list_example_names, named_example
from .invariants import archetypal_sign, graded_index, index
from .matrices import HermitianTuple, exact_matrix, float_matrix
from .multipoly import to_text
from .sampler import (
    INDICATORS,
    GridSpec,
    SIGMA_MIN,
    export_grid_csv,
    export_mesh_obj,
    extract_isosurface,
    sample,
)
from .scalars import GaussianRational
from .variance import certificate

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ON_SPECTRUM = 4
EXIT_SYMMETRY = 5
EXIT_THEOREM = 6

# each error's exit code, first match wins: a SymmetryError is a ContractError
# (as is a KindMismatchError), and SingularAtTolerance an ArithmeticError
_EXIT_CODES = (
    (SymmetryError, EXIT_SYMMETRY),
    ((ContractError, OSError), EXIT_CONFIG),
    (SingularAtTolerance, EXIT_ON_SPECTRUM),
    (TheoremViolation, EXIT_THEOREM),
    ((InterpolationError, ArithmeticError, np.linalg.LinAlgError), EXIT_NUMERIC),
)


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _config_errors(what: str):
    """Report a malformed or unknown input as a config error (exit 2);
    errors raised by the computations themselves are not caught here."""
    try:
        yield
    except ContractError:
        raise
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _CliError(EXIT_CONFIG, f"{what}: {exc}") from exc


def _parse_param(key: str, text: str):
    """An example parameter as int, Fraction or finite float."""
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return Fraction(text)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"parameter {key!r} must be finite, got {text!r}")
    return value


def _load_config_file(path: str) -> HermitianTuple:
    with open(path) as fh, _config_errors(path):
        doc = json.load(fh)
    with _config_errors(path):
        if not isinstance(doc, dict):
            raise TypeError("a config file holds one JSON object")
        if "example" not in doc:
            return _tuple_from_doc(doc)
        name, params = doc["example"], doc.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise TypeError("example must be a name and params an object")
        params = {k: _parse_param(k, str(v)) for k, v in params.items()}
    # as for --example, a fault inside the constructor exits 3
    return named_example(name, **params).tuple


def _tuple_from_doc(doc: dict) -> HermitianTuple:
    kind = doc.get("kind", "exact")
    if kind not in ("exact", "float"):
        raise ContractError(f'kind must be "exact" or "float", got {kind!r}')
    mats = doc["matrices"]
    if int(doc.get("d", len(mats))) != len(mats):
        raise ContractError("d does not match the number of matrices")
    out = []
    for mat in mats:
        n = len(mat)
        if int(doc.get("n", n)) != n:
            raise ContractError("n does not match matrix side")
        bad = [e for row in mat for e in row if len(e) != 2]
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not a [re, im] pair")
        if kind == "exact":
            rows = [
                [GaussianRational(Fraction(str(e[0])), Fraction(str(e[1]))) for e in row]
                for row in mat
            ]
            out.append(exact_matrix(rows))
        else:
            out.append(float_matrix([[float(e[0]) + 1j * float(e[1]) for e in row] for row in mat]))
    return HermitianTuple(out)


def _load_tuple(args) -> HermitianTuple:
    if args.example:
        params = {}
        for spec in args.param or []:
            key, _, value = spec.partition("=")
            if not value:
                raise _CliError(EXIT_CONFIG, f"malformed --param {spec!r}; use key=value")
            with _config_errors(f"--param {spec!r}"):
                params[key] = _parse_param(key, value)
        # unknown names and parameters raise ContractError (exit 2); any
        # other exception from a constructor is a fault (exit 3)
        return named_example(args.example, **params).tuple
    if args.config:
        return _load_config_file(args.config)
    raise _CliError(EXIT_CONFIG, "provide a JSON config path or --example NAME")


def _join(values, spec="g") -> str:
    return ",".join(format(v, spec) for v in values)


def _cmd_list_examples(args) -> int:
    for name in list_example_names():
        print(name)
    return 0


def _cmd_charpoly(args) -> int:
    tup = _load_tuple(args)
    text = to_text((reduced_char_poly if args.reduced else char_poly)(tup))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_QUERIES = {"half": index, "arch": archetypal_sign, "graded": graded_index}


def _cmd_index(args) -> int:
    tup = _load_tuple(args)
    on_spectrum = False
    for lam in args.at:
        try:
            rep = _QUERIES[args.kind](tup, lam, tol=args.tol)
        except SingularAtTolerance as exc:
            print(f"lambda={_join(lam)} gap={exc.gap:.6e} index=on-spectrum")
            on_spectrum = True
        else:
            print(f"lambda={_join(rep.lam)} gap={rep.gap:.6e} index={rep.value}")
    return EXIT_ON_SPECTRUM if on_spectrum else 0


def _sampled(args):
    """The grid of mesh, slice and grid; a mesh's 3 axes are checked before
    any node is evaluated."""
    tup = _load_tuple(args)
    fixed = {}
    for fix in args.fix or []:
        key, _, value = fix.partition("=")
        if not value:
            raise _CliError(EXIT_CONFIG, f"malformed --fix {fix!r}; use axis=value")
        with _config_errors(f"--fix {fix!r}"):
            fixed[int(key)] = float(value)
    spec = GridSpec.cube(tup.d, *args.range, args.res, fixed)
    if args.command == "slice" and not spec.fixed:
        raise _CliError(EXIT_CONFIG, "slicing needs --fix axis=value")
    if args.command != "grid" and len(spec.axes) != 3:
        raise _CliError(EXIT_CONFIG, "meshing needs exactly 3 sampled axes")
    return sample(tup, spec, args.indicator, threads=args.threads)


def _cmd_mesh(args) -> int:
    grid = _sampled(args)
    # the least value of a sign field completes it; read first, the mesh then
    # takes the full field and solves no coarse sigma_min.  A sigma-min field's
    # is settled by the nodes its mesh solves
    least = None if args.indicator == SIGMA_MIN else grid.min_value
    mesh = extract_isosurface(grid, args.level)
    if args.out:
        export_mesh_obj(mesh, args.out)
    least = grid.min_value if least is None else least
    print(
        f"vertices={len(mesh.vertices)} triangles={len(mesh.triangles)} "
        f"min_indicator={least:.6e}"
    )
    return 0


def _cmd_grid(args) -> int:
    grid = _sampled(args)
    if args.out:
        export_grid_csv(grid, args.out)
    print(
        f"nodes={grid.values.size} min_indicator={float(np.min(grid.values)):.6e}"
    )
    return 0


def _cmd_variance(args) -> int:
    tup = _load_tuple(args)
    for lam in args.at:
        cert = certificate(tup, lam=lam)
        lam_text = _join(cert.lam)
        verdict = "HOLDS" if cert.holds else "VIOLATED"
        print(
            f"lambda={lam_text} epsilon={cert.epsilon:.9g} "
            f"E={_join(cert.expectations, '.9g')} Var={_join(cert.variances, '.9g')} "
            f"lhs={cert.lhs:.9g} rhs={cert.rhs:.9g} {verdict}"
        )
        if not cert.holds:
            raise TheoremViolation(
                f"variance bound violated at lambda={lam_text}: "
                f"lhs={cert.lhs:.9g} > rhs={cert.rhs:.9g}"
            )
    return 0


def _tuple_command(subs, name, help_text, run, points=False):
    """A subcommand that runs run(args) on a tuple, and with points, on the
    lambda values of each --at."""
    sp = subs.add_parser(name, help=help_text)
    sp.set_defaults(run=run)
    sp.add_argument("config", nargs="?", help="JSON tuple description")
    sp.add_argument("--example", help="named example from list-examples")
    sp.add_argument(
        "--param", action="append", metavar="KEY=VALUE", help="example parameter"
    )
    if points:
        sp.add_argument(
            "--at", action="append", nargs="+", type=float, required=True, metavar="L"
        )
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffordspec",
        description="Joint (Clifford) spectra of Hermitian matrix tuples",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("list-examples", help="print gallery example names")
    sp.set_defaults(run=_cmd_list_examples)

    sp = _tuple_command(subs, "charpoly", "characteristic polynomial", _cmd_charpoly)
    sp.add_argument("--reduced", action="store_true", help="half-size d=4 polynomial")
    sp.add_argument("--out", help="output file (canonical polynomial text)")

    sp = _tuple_command(
        subs, "index", "topological index at points", _cmd_index, points=True
    )
    sp.add_argument("--kind", choices=tuple(_QUERIES), default="half")
    sp.add_argument("--tol", type=float, default=None)

    # slice runs _cmd_mesh, which tells it from mesh by args.command
    for name, help_text, run in (
        ("mesh", "isosurface mesh (OBJ)", _cmd_mesh),
        ("slice", "mesh of a 4D slice (OBJ with 4th-coordinate channel)", _cmd_mesh),
        ("grid", "raw indicator field (CSV)", _cmd_grid),
    ):
        mesh = run is _cmd_mesh
        sp = _tuple_command(subs, name, help_text, run)
        sp.add_argument("--threads", type=int, default=None, help="worker cap")
        sp.add_argument("--range", nargs=2, type=float, default=(-2.0, 2.0))
        sp.add_argument("--res", type=int, default=41 if mesh else 21)
        sp.add_argument("--indicator", choices=INDICATORS, default=SIGMA_MIN)
        if mesh:
            sp.add_argument("--level", type=float, default=None)
        sp.add_argument("--fix", action="append", metavar="AXIS=VALUE")
        sp.add_argument("--out", help=f"output {'OBJ' if mesh else 'CSV'} path")

    _tuple_command(
        subs, "variance", "variance certificate at points", _cmd_variance, points=True
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        if isinstance(exc, _CliError):
            code = exc.code
        else:
            code = next((c for types, c in _EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            # input errors were turned into _CliError where they were parsed, so
            # anything else is a failure inside a computation
            traceback.print_exc()
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
