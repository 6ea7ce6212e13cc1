"""Command-line front end.

Subcommands cover the package's capabilities with deterministic file
outputs.  Exit codes: 2 config/usage error, 3 numeric or other failure
inside a computation, 4 lambda on the spectrum, 5 symmetry violation, 6
certified inequality violated.
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
    KindMismatchError,
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
    if getattr(args, "example", None):
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
    if getattr(args, "config", None):
        return _load_config_file(args.config)
    raise _CliError(EXIT_CONFIG, "provide a JSON config path or --example NAME")


def _add_tuple_args(sub):
    sub.add_argument("config", nargs="?", help="JSON tuple description")
    sub.add_argument("--example", help="named example from list-examples")
    sub.add_argument(
        "--param", action="append", metavar="KEY=VALUE", help="example parameter"
    )


def _cmd_list_examples(args) -> int:
    for name in list_example_names():
        print(name)
    return 0


def _cmd_charpoly(args) -> int:
    tup = _load_tuple(args)
    if args.reduced:
        if tup.d != 4:
            raise _CliError(EXIT_CONFIG, "--reduced needs a 4-tuple")
        poly = reduced_char_poly(tup)
    else:
        poly = char_poly(tup)
    text = to_text(poly)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_index(args) -> int:
    tup = _load_tuple(args)
    on_spectrum = False
    for lam in args.at:
        if len(lam) != tup.d:
            raise _CliError(EXIT_CONFIG, f"--at needs {tup.d} components")
        try:
            if args.kind == "half":
                rep = index(tup, lam, args.tol)
            elif args.kind == "arch":
                rep = archetypal_sign(tup, lam, args.tol)
            else:
                rep = graded_index(tup, lam, tol=args.tol)
            lam_text = ",".join(f"{v:g}" for v in rep.lam)
            print(f"lambda={lam_text} gap={rep.gap:.6e} index={rep.value}")
        except SingularAtTolerance as exc:
            lam_text = ",".join(f"{float(v):g}" for v in lam)
            print(f"lambda={lam_text} gap={exc.gap:.6e} index=on-spectrum")
            on_spectrum = True
    return EXIT_ON_SPECTRUM if on_spectrum else 0


def _grid_spec_from_args(args, d: int) -> GridSpec:
    fixed = {}
    for spec in args.fix or []:
        key, _, value = spec.partition("=")
        if not value:
            raise _CliError(EXIT_CONFIG, f"malformed --fix {spec!r}; use axis=value")
        with _config_errors(f"--fix {spec!r}"):
            fixed[int(key)] = float(value)
    lo, hi = args.range
    return GridSpec.cube(d, lo, hi, args.res, fixed)


def _summarize_mesh(mesh, min_indicator: float) -> None:
    print(
        f"vertices={len(mesh.vertices)} triangles={len(mesh.triangles)} "
        f"min_indicator={min_indicator:.6e}"
    )


def _cmd_mesh(args, need_fixed: bool = False) -> int:
    tup = _load_tuple(args)
    spec = _grid_spec_from_args(args, tup.d)
    if need_fixed and not spec.fixed:
        raise _CliError(EXIT_CONFIG, "slicing needs --fix axis=value")
    if len(spec.axes) != 3:
        raise _CliError(EXIT_CONFIG, "meshing needs exactly 3 sampled axes")
    grid = sample(tup, spec, args.indicator, threads=args.threads)
    # the least value of a sign field completes it; read first, the mesh then
    # takes the full field and solves no coarse sigma_min.  A sigma-min field's
    # is settled by the nodes its mesh solves
    least = None if args.indicator == SIGMA_MIN else grid.min_value
    mesh = extract_isosurface(grid, args.level)
    if args.out:
        export_mesh_obj(mesh, args.out)
    _summarize_mesh(mesh, grid.min_value if least is None else least)
    return 0


def _cmd_grid(args) -> int:
    tup = _load_tuple(args)
    spec = _grid_spec_from_args(args, tup.d)
    grid = sample(tup, spec, args.indicator, threads=args.threads)
    if args.out:
        export_grid_csv(grid, args.out)
    print(
        f"nodes={grid.values.size} min_indicator={float(np.min(grid.values)):.6e}"
    )
    return 0


def _cmd_variance(args) -> int:
    tup = _load_tuple(args)
    for lam in args.at:
        if len(lam) != tup.d:
            raise _CliError(EXIT_CONFIG, f"--at needs {tup.d} components")
        cert = certificate(tup, lam=lam)
        lam_text = ",".join(f"{v:g}" for v in cert.lam)
        e_text = ",".join(f"{v:.9g}" for v in cert.expectations)
        var_text = ",".join(f"{v:.9g}" for v in cert.variances)
        verdict = "HOLDS" if cert.holds else "VIOLATED"
        print(
            f"lambda={lam_text} epsilon={cert.epsilon:.9g} E={e_text} "
            f"Var={var_text} lhs={cert.lhs:.9g} rhs={cert.rhs:.9g} {verdict}"
        )
        if not cert.holds:
            raise TheoremViolation(
                f"variance bound violated at lambda={lam_text}: "
                f"lhs={cert.lhs:.9g} > rhs={cert.rhs:.9g}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffordspec",
        description="Joint (Clifford) spectra of Hermitian matrix tuples",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("list-examples", help="print gallery example names")

    sp = subs.add_parser("charpoly", help="characteristic polynomial")
    _add_tuple_args(sp)
    sp.add_argument("--reduced", action="store_true", help="half-size d=4 polynomial")
    sp.add_argument("--out", help="output file (canonical polynomial text)")

    sp = subs.add_parser("index", help="topological index at points")
    _add_tuple_args(sp)
    sp.add_argument(
        "--at", action="append", nargs="+", type=float, required=True, metavar="L"
    )
    sp.add_argument("--kind", choices=("half", "arch", "graded"), default="half")
    sp.add_argument("--tol", type=float, default=None)

    for name, help_text in (
        ("mesh", "isosurface mesh (OBJ)"),
        ("slice", "mesh of a 4D slice (OBJ with 4th-coordinate channel)"),
    ):
        sp = subs.add_parser(name, help=help_text)
        _add_tuple_args(sp)
        sp.add_argument("--threads", type=int, default=None, help="worker cap")
        sp.add_argument("--range", nargs=2, type=float, default=(-2.0, 2.0))
        sp.add_argument("--res", type=int, default=41)
        sp.add_argument("--indicator", choices=INDICATORS, default=SIGMA_MIN)
        sp.add_argument("--level", type=float, default=None)
        sp.add_argument("--fix", action="append", metavar="AXIS=VALUE")
        sp.add_argument("--out", help="output OBJ path")

    sp = subs.add_parser("grid", help="raw indicator field (CSV)")
    _add_tuple_args(sp)
    sp.add_argument("--threads", type=int, default=None, help="worker cap")
    sp.add_argument("--range", nargs=2, type=float, default=(-2.0, 2.0))
    sp.add_argument("--res", type=int, default=21)
    sp.add_argument("--indicator", choices=INDICATORS, default=SIGMA_MIN)
    sp.add_argument("--fix", action="append", metavar="AXIS=VALUE")
    sp.add_argument("--out", help="output CSV path")

    sp = subs.add_parser("variance", help="variance certificate at points")
    _add_tuple_args(sp)
    sp.add_argument(
        "--at", action="append", nargs="+", type=float, required=True, metavar="L"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-examples": _cmd_list_examples,
        "charpoly": _cmd_charpoly,
        "index": _cmd_index,
        "mesh": lambda a: _cmd_mesh(a, need_fixed=False),
        "slice": lambda a: _cmd_mesh(a, need_fixed=True),
        "grid": _cmd_grid,
        "variance": _cmd_variance,
    }
    try:
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (KindMismatchError, SymmetryError) as exc:
        # symmetry problems get their own exit code; kind mixing is config
        code = EXIT_SYMMETRY if isinstance(exc, SymmetryError) else EXIT_CONFIG
        print(f"error: {exc}", file=sys.stderr)
        return code
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularAtTolerance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ON_SPECTRUM
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (InterpolationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # input errors were turned into _CliError where they were parsed, so
        # anything else is a failure inside a computation
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
