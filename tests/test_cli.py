import json
import re

import pytest

from cliffordspec.cli import main
from cliffordspec.gallery import sykora_two_torus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_examples(capsys):
    code, out, _ = run(capsys, "list-examples")
    assert code == 0
    assert "pauli" in out.split()


def test_charpoly_stdout(capsys):
    code, out, _ = run(capsys, "charpoly", "--example", "pauli")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "-3 0 0 0 0"  # constant term of the sphere polynomial
    assert len(lines) == 10


def test_charpoly_reduced_gamma(capsys):
    code, out, _ = run(capsys, "charpoly", "--example", "gamma4", "--reduced")
    assert code == 0
    assert out.strip().split("\n")[0].startswith("8 0 ")


def test_charpoly_reduced_requires_d4(capsys):
    code, _, err = run(capsys, "charpoly", "--example", "pauli", "--reduced")
    assert code == 2


def test_charpoly_out_file(tmp_path, capsys):
    out_path = tmp_path / "poly.txt"
    code, _, _ = run(
        capsys, "charpoly", "--example", "lemniscate", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().startswith("2 0 0 0 2")


def test_config_file_exact(tmp_path, capsys):
    doc = {
        "d": 1,
        "n": 2,
        "kind": "exact",
        "matrices": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["2", "0"]]]],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "charpoly", str(path))
    assert code == 0
    assert out == "2 0 0\n-3 0 1\n1 0 2\n"  # (1 - l)(2 - l)


def test_malformed_fraction_exits_2(tmp_path, capsys):
    doc = {"kind": "exact", "matrices": [[[["1/0", "0"]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "charpoly", str(path))
    assert code == 2


def test_index_command(capsys):
    code, out, _ = run(capsys, "index", "--example", "pauli", "--at", "0", "0", "0")
    assert code == 0
    assert "index=1" in out


def test_index_on_spectrum_exit4(capsys):
    code, out, _ = run(capsys, "index", "--example", "pauli", "--at", "1", "0", "0")
    assert code == 4
    assert "on-spectrum" in out


def test_graded_index_command(capsys):
    code, out, _ = run(
        capsys,
        "index",
        "--example",
        "even_odd",
        "--kind",
        "graded",
        "--at",
        "0",
        "0",
        "0",
        "0",
    )
    assert code == 0
    assert "index=-1" in out


def test_graded_with_nonzero_last_coordinate_exit5(capsys):
    code, _, _ = run(
        capsys,
        "index",
        "--example",
        "even_odd",
        "--kind",
        "graded",
        "--at",
        "0",
        "0",
        "0",
        "0.5",
    )
    assert code == 5


def test_arch_requires_self_dual_exit5(capsys):
    code, _, _ = run(
        capsys, "index", "--example", "pauli", "--kind", "arch", "--at", "0", "0", "0"
    )
    assert code == 5


def test_variance_holds(capsys):
    code, out, _ = run(capsys, "variance", "--example", "pauli", "--at", "1", "0", "0")
    assert code == 0
    assert "HOLDS" in out
    assert "rhs=12" in out


def test_variance_commuting_triple_exits_0(tmp_path, capsys):
    # rounding takes a variance of this valid triple below zero at its joint
    # eigenvalue; that is not a config error
    mats = [[[-500, 1500], [1500, -500]], [[1500, 500], [500, 1500]], [[0, 1000], [1000, 0]]]
    doc = {"kind": "float", "matrices": [[[[e, 0] for e in row] for row in m] for m in mats]}
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "variance", str(path), "--at", "1000", "2000", "1000")
    assert code == 0
    assert "HOLDS" in out


def test_variance_violation_exit6(capsys):
    code, out, _ = run(capsys, "variance", "--example", "pauli", "--at", "0", "0", "5")
    assert code == 6
    assert "VIOLATED" in out


def test_mesh_null_plot(tmp_path, capsys):
    out_path = tmp_path / "m.obj"
    code, out, _ = run(
        capsys,
        "mesh",
        "--example",
        "bad_plot",
        "--indicator",
        "det-sign",
        "--range",
        "-1.5",
        "1.5",
        "--res",
        "15",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "triangles=0" in out
    assert out_path.read_text() == ""


def test_mesh_sigma_min(tmp_path, capsys):
    out_path = tmp_path / "m.obj"
    code, out, _ = run(
        capsys,
        "mesh",
        "--example",
        "bad_plot",
        "--indicator",
        "sigma-min",
        "--range",
        "-1.5",
        "1.5",
        "--res",
        "15",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "triangles=0" not in out
    assert out_path.read_text().startswith("v ")


def test_sign_mesh_reads_its_minimum_before_meshing(monkeypatch, capsys):
    # the minimum completes a sign field; read first, the mesh then takes the
    # full field and solves no coarse sigma_min
    import cliffordspec.sampler as sampler

    calls = []
    sigma_min = sampler._sigma_min
    monkeypatch.setattr(sampler, "_sigma_min", lambda m: calls.append(len(m)) or sigma_min(m))
    for example, indicator in (("pauli", "det-sign"), ("self_dual_path", "pfaffian-sign")):
        code, out, _ = run(
            capsys, "mesh", "--example", example, "--indicator", indicator, "--res", "15"
        )
        assert code == 0 and "triangles=0" not in out and "min_indicator=-" in out
    assert calls == []


def test_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "g.csv"
    code, out, _ = run(
        capsys,
        "grid",
        "--example",
        "pauli",
        "--res",
        "5",
        "--range",
        "-1",
        "1",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "l1,l2,l3,value"
    assert len(lines) == 1 + 125


def test_slice_command(tmp_path, capsys):
    out_path = tmp_path / "s.obj"
    code, out, _ = run(
        capsys,
        "slice",
        "--example",
        "even_odd",
        "--param",
        "deform=3/2",
        "--fix",
        "3=0",
        "--range",
        "-2.5",
        "2.5",
        "--res",
        "13",
        "--out",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("v ")
    # vertex lines carry the fixed coordinate as a 4th value
    first = text.split("\n")[0].split()
    assert len(first) == 5 and first[4] == "0"


def test_slice_requires_fix(capsys):
    code, _, _ = run(capsys, "slice", "--example", "even_odd")
    assert code == 2


def test_example_params(capsys):
    code, out, _ = run(
        capsys,
        "index",
        "--example",
        "bad_plot",
        "--param",
        "r=0",
        "--at",
        "0",
        "0",
        "0",
    )
    assert code == 0
    assert "index=0" in out


def test_unknown_example_exit2(capsys):
    code, _, _ = run(capsys, "charpoly", "--example", "nope")
    assert code == 2


def test_missing_tuple_exit2(capsys):
    code, _, _ = run(capsys, "charpoly")
    assert code == 2


def test_threads_env_fallback(monkeypatch):
    from cliffordspec.parallel import worker_count

    monkeypatch.setenv("CLIFFORDSPEC_THREADS", "3")
    assert worker_count(None) == 3
    assert worker_count(2) == 2
    monkeypatch.delenv("CLIFFORDSPEC_THREADS")
    assert worker_count(None) >= 1


def test_threads_env_that_is_not_an_integer_exits_2(monkeypatch, capsys):
    from cliffordspec.errors import ContractError
    from cliffordspec.parallel import worker_count

    for value in ("abc", "two", "1.5"):
        monkeypatch.setenv("CLIFFORDSPEC_THREADS", value)
        message = f"CLIFFORDSPEC_THREADS is {value!r}, not an integer"
        with pytest.raises(ContractError, match=re.escape(message)):
            worker_count(None)
        assert worker_count(2) == 2  # an explicit count does not read it
    assert run(capsys, "grid", "--example", "pauli", "--res", "5") == (2, "", f"error: {message}\n")


def test_error_inside_computation_exits_3(monkeypatch, capsys):
    from cliffordspec import cli

    def broken(*args, **kwargs):
        raise TypeError("internal fault")

    monkeypatch.setattr(cli, "char_poly", broken)
    code, _, err = run(capsys, "charpoly", "--example", "pauli")
    assert code == 3
    assert "internal fault" in err


def test_unknown_example_param_exits_2(capsys):
    code, _, _ = run(capsys, "charpoly", "--example", "bad_plot", "--param", "nope=1")
    assert code == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in ("{", '{"kind": "exact"}', '{"matrices": [[["x"]]]}'):
        path.write_text(text)
        code, _, _ = run(capsys, "charpoly", str(path))
        assert code == 2, text


def test_non_finite_example_param_exits_2(capsys):
    for value in ("inf", "1e400", "nan", "-inf"):
        argv = ("charpoly", "--example", "fuzzy_sphere_5", "--param", f"t={value}")
        code, _, err = run(capsys, *argv)
        assert code == 2, value
        assert "'t'" in err and "finite" in err, value


def test_fault_inside_example_constructor_exits_3(monkeypatch, capsys):
    from cliffordspec import gallery

    def broken():
        raise TypeError("constructor fault")

    monkeypatch.setitem(gallery.EXAMPLES, "pauli", (broken, {}))
    code, _, err = run(capsys, "charpoly", "--example", "pauli")
    assert code == 3
    assert "constructor fault" in err and "Traceback" in err


def test_non_finite_grid_inputs_exit_2(capsys):
    cases = [
        (("mesh", "--example", "pauli", "--range", " -inf", "1", "--res", "5"), "finite lo"),
        (("mesh", "--example", "pauli", "--range", " -1e308", "1e308", "--res", "5"), "finite hi - lo"),
        (("slice", "--example", "even_odd", "--fix", "3=nan", "--res", "5"), "fixed lambda 3"),
        (("mesh", "--example", "pauli", "--res", "5", "--level", "nan"), "level must be finite"),
        (("mesh", "--example", "pauli", "--res", "5", "--level", "inf"), "level must be finite"),
    ]
    for argv, cause in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert cause in err and "Warning" not in err, argv


def test_non_integer_torus_n_exits_2(capsys):
    for name in ("torus_quadruple", "torus_triple"):
        code, _, err = run(capsys, "charpoly", "--example", name, "--param", "n=2.5")
        assert code == 2, name
        assert "'n'" in err and "integer" in err, name


def test_mesh_min_indicator_matches_full_grid(capsys):
    common = ("--example", "bad_plot", "--range", "-1.5", "1.5", "--res", "15")
    code, mesh_out, _ = run(capsys, "mesh", *common)
    assert code == 0
    code, grid_out, _ = run(capsys, "grid", *common)
    assert code == 0
    assert mesh_out.split()[-1] == grid_out.split()[-1]
    assert mesh_out.split()[-1].startswith("min_indicator=")


def test_fault_inside_example_constructor_from_config_exits_3(monkeypatch, tmp_path, capsys):
    from cliffordspec import gallery

    def broken(t=1):
        raise TypeError("constructor fault")

    monkeypatch.setitem(gallery.EXAMPLES, "fuzzy_sphere_5", (broken, {}))
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"example": "fuzzy_sphere_5", "params": {"t": "1/2"}}))
    code, _, err = run(capsys, "charpoly", str(path))
    assert code == 3
    assert "constructor fault" in err and "Traceback" in err


def test_empty_matrices_in_config_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    cases = [
        ({"matrices": [[]]}, "side at least 1"),
        ({"kind": "float", "matrices": [[]]}, "1-D array"),
        ({"matrices": [[[]]]}, "not 1x1"),
    ]
    for doc, cause in cases:
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "index", str(path), "--at", "0")
        assert code == 2, doc
        assert cause in err, doc


def test_malformed_example_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    docs = [
        [1, 2],
        {"example": "nope"},
        {"example": ["pauli"]},
        {"example": "pauli", "params": [1]},
        {"example": "pauli", "params": {"nope": 1}},
        {"example": "fuzzy_sphere_5", "params": {"t": "inf"}},
        {"example": "fuzzy_sphere_5", "params": {"t": "1/0"}},
        {"example": "torus_quadruple", "params": {"n": 2.5}},
        {"d": 2, "matrices": [[[["1", "0"]]]]},
        {"d": "x", "matrices": [[[["1", "0"]]]]},
        {"n": 3, "matrices": [[[["1", "0"]]]]},
        {"kind": "float", "matrices": [[[["x", "0"]]]]},
        {"matrices": 5},
    ]
    for doc in docs:
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "charpoly", str(path))
        assert code == 2, doc
        assert "Traceback" not in err, doc
    path.write_text(json.dumps({"example": "fuzzy_sphere_5", "params": {"t": "1/2"}}))
    assert run(capsys, "charpoly", str(path))[0] == 0


def test_unknown_kind_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "kind.json"
    for kind in ("exakt", "Float", None, ["exact"]):
        path.write_text(json.dumps({"kind": kind, "matrices": [[[["1", "0"]]]]}))
        code, out, err = run(capsys, "index", str(path), "--at", "0")
        assert code == 2, kind
        assert repr(kind) in err and not out, kind


def _float_config(path, mats):
    rows = [[[[str(z.real), str(z.imag)] for z in row] for row in m] for m in mats]
    path.write_text(json.dumps({"kind": "float", "matrices": rows}))


def test_float_range_probes_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    anti = [[0, 1e300], [-1e300, 0]]
    _float_config(path, [anti] * 3)
    code, out, err = run(capsys, "index", str(path), "--at", "0", "0", "0")
    assert code == 2 and not out
    assert "matrix 0 has an entry beyond the bound" in err
    _float_config(path, [m * 1e40 for m in sykora_two_torus().as_float().matrices])
    code, out, err = run(capsys, "charpoly", str(path))
    assert code == 2 and not out
    assert "beyond the float range" in err and "Traceback" not in err
