"""The CLI's one exit-code table: every library error raised inside a
subcommand exits with its code and one error line, and the library's own
input contracts give the CLI's config exit."""

import argparse

import numpy as np
import pytest

from cliffordspec import cli
from cliffordspec.cli import build_parser, main
from cliffordspec.errors import (
    ContractError,
    InterpolationError,
    KindMismatchError,
    SingularAtTolerance,
    SymmetryError,
    TheoremViolation,
)

# every library error with the exit code it must map to, first match wins:
# a SymmetryError is a ContractError and SingularAtTolerance an ArithmeticError
_LIBRARY_ERRORS = [
    (SymmetryError("boom"), 5),
    (ContractError("boom"), 2),
    (KindMismatchError("boom"), 2),
    (OSError("boom"), 2),
    (SingularAtTolerance(0.0, 1e-8), 4),
    (TheoremViolation("boom"), 6),
    (InterpolationError("boom"), 3),
    (ArithmeticError("boom"), 3),
    (np.linalg.LinAlgError("boom"), 3),
]


def _charpoly_raising(monkeypatch, capsys, exc):
    """Run `charpoly --example pauli` with char_poly raising exc: (code, stdout, stderr)."""

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "char_poly", raising)
    code = main(["charpoly", "--example", "pauli"])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_row_of_the_table_is_tested():
    tested = {type(exc) for exc, _ in _LIBRARY_ERRORS}
    for types, _ in cli._EXIT_CODES:
        assert set(types if isinstance(types, tuple) else (types,)) <= tested


@pytest.mark.parametrize("exc, code", _LIBRARY_ERRORS, ids=lambda x: type(x).__name__)
def test_an_error_inside_a_handler_exits_with_its_code(monkeypatch, capsys, exc, code):
    assert _charpoly_raising(monkeypatch, capsys, exc) == (code, "", f"error: {exc}\n")


def test_a_cli_error_keeps_its_own_code(monkeypatch, capsys):
    assert _charpoly_raising(monkeypatch, capsys, cli._CliError(7, "own")) == (7, "", "error: own\n")


def test_any_other_error_exits_3_with_its_traceback(monkeypatch, capsys):
    code, out, err = _charpoly_raising(monkeypatch, capsys, KeyError("fault"))
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and err.splitlines()[-1] == "error: KeyError: 'fault'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("index", "--example", "pauli", "--at", "0", "0"), "lambda must have length 3"),
        (("variance", "--example", "pauli", "--at", "0", "0"), "lambda must have length 3"),
        (("index", "--example", "even_odd", "--kind", "graded", "--at", "0", "0", "0"), "lambda must have length 4"),
        (("index", "--example", "even_odd", "--at", "0", "0", "0", "0"), "the half-signature index is defined for d = 3"),
        (("charpoly", "--example", "pauli", "--reduced"), "the reduced characteristic polynomial needs d = 4"),
        (("mesh", "--example", "even_odd", "--res", "5"), "meshing needs exactly 3 sampled axes"),
        (("slice", "--example", "even_odd", "--res", "5"), "slicing needs --fix axis=value"),
    ],
)
def test_input_contracts_exit_2_naming_the_cause(capsys, argv, message):
    assert main(list(argv)) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_every_subcommand_has_help(capsys):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = list(subparsers.choices)
    assert commands == ["list-examples", "charpoly", "index", "mesh", "slice", "grid", "variance"]
    for argv in ([], *([name] for name in commands)):
        with pytest.raises(SystemExit) as caught:
            main([*argv, "--help"])
        assert caught.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: cliffordspec"), argv
