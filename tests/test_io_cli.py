import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from triplekit import cli
from triplekit import fixtures as fx
from triplekit import jsonio
from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.cli import main
from triplekit.numerics import TolerancePolicy

from oracles import antisymmetry_defect_loops, cyclic_defect_loops, kernel_lattice_1d_loops


@pytest.fixture(scope="module")
def gallery_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gallery")
    assert main(["gallery", "--write", str(out)]) == 0
    return out


# ---------------------------------------------------------------- round trips

def test_gallery_files_round_trip_byte_identical(gallery_dir):
    files = sorted(gallery_dir.glob("*.json"))
    assert len(files) == 23
    for path in files:
        original = path.read_text()
        obj = jsonio.load(path)
        assert jsonio.dumps(obj) == original


def test_exact_values_survive_round_trip(tmp_path):
    system = fx.u_minus_lts(2)
    p = tmp_path / "sys.json"
    jsonio.save(p, system)
    back = jsonio.load(p)
    assert back.mode == "rational"
    assert isinstance(back.tensor[0, 1, 0, 1], Fraction)
    assert np.array_equal(back.tensor, system.tensor)
    assert back.labels == system.labels


def test_pair_round_trip_keeps_exact_shadow(tmp_path):
    pair = fx.u_modulo_o_pair(2)
    p = tmp_path / "pair.json"
    jsonio.save(p, pair)
    back = jsonio.load(p)
    assert back.mode == "rational"
    assert back.ambient_n == pair.ambient_n
    assert jsonio.pair_to_dict(back)["policy"] == "full_fixed_group"
    sla = sp.derived_symmetric_algebra(back)
    assert sla.algebra.mode == "rational"
    ref = sp.derived_symmetric_algebra(pair)
    assert np.array_equal(sla.algebra.tensor, ref.algebra.tensor)


def test_transpose_inverse_sigma_round_trip():
    doc = {
        "kind": "pair", "ambient_n": 2, "mode": "float",
        "basis": [[[0.0, 1.0], [-1.0, 0.0]]],
        "sigma": "transpose_inverse", "policy": "full_fixed_group", "name": "spin",
    }
    pair = jsonio.pair_from_dict(doc)
    assert isinstance(pair.sigma, sp.SigmaTransposeInverse)
    again = jsonio.pair_to_dict(pair)
    assert again["sigma"] == "transpose_inverse"


def test_sniff_kind_without_tag():
    sys_doc = jsonio.lts_to_dict(fx.sphere_lts(2))
    del sys_doc["kind"]
    assert isinstance(jsonio.from_dict(sys_doc), lt.LieTripleSystem)

    lie_doc = jsonio.lie_to_dict(fx.so3_lie())
    del lie_doc["kind"]
    assert isinstance(jsonio.from_dict(lie_doc), sl.LieAlgebra)

    sym_doc = jsonio.symmetric_to_dict(fx.u_symmetric_algebra(2))
    del sym_doc["kind"]
    assert isinstance(jsonio.from_dict(sym_doc), sl.SymmetricLieAlgebra)

    pair_doc = jsonio.pair_to_dict(fx.sphere_pair(2))
    del pair_doc["kind"]
    assert isinstance(jsonio.from_dict(pair_doc), sp.MatrixSymmetricPair)


def test_garbage_document_rejected():
    with pytest.raises(jsonio.FormatError):
        jsonio.from_dict({"apples": 3})


# ----------------------------------------------------------- exit code contract

def test_check_passes_on_valid_file(gallery_dir, capsys):
    rc = main(["check", str(gallery_dir / "lts_sphere3.json")])
    assert rc == 0
    assert "ok: True" in capsys.readouterr().out


def test_check_fails_on_broken_system(tmp_path, capsys):
    p = tmp_path / "broken.json"
    jsonio.save(p, fx.broken_lts())
    rc = main(["check", str(p)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ok: False" in out


def test_check_of_rescaled_exact_pair_is_exact(tmp_path, capsys):
    # basis matrices times integers in [300, 3000) give structure constants
    # of up to about 10^7; the derived system is exact and checks exactly
    doc = json.loads(jsonio.dumps(fx.u_modulo_o_pair(3)))
    factors = np.random.default_rng(5).integers(300, 3000, len(doc["basis"]))
    doc["basis"] = [[[str(Fraction(x) * int(k)) for x in row] for row in m]
                    for m, k in zip(doc["basis"], factors)]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["derived_mode"] == "rational"


def test_missing_file_is_input_error(capsys):
    rc = main(["check", "/nonexistent/nowhere.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("this is not json{")
    rc = main(["check", str(p)])
    assert rc == 2


def _float_bracket_doc(tmp_path, entries, dim=2, kind="lts"):
    """A float bracket document written as raw JSON text (NaN included)."""
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps({"kind": kind, "dim": dim, "mode": "float", "labels": None,
                             "bracket": entries}))
    return str(p)


@pytest.mark.parametrize("entries,message", [
    ([[0, 1, 0, 1, float("nan")], [1, 0, 0, 1, -1.0]], "non-finite"),
    ([[0, 1, 0, 5, 1.0]], "outside [0, 2)"),
    ([[0, 1, 0, -1, 1.0], [1, 0, 0, -1, -1.0]], "outside [0, 2)"),
    ([[0, 1, 0, 1.0]], "bad lts bracket entry"),
], ids=["nan_value", "index_past_dim", "negative_index", "short_entry"])
def test_broken_float_lts_is_input_error(tmp_path, capsys, entries, message):
    rc = main(["check", _float_bracket_doc(tmp_path, entries), "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("entries", [[[0, 1, 2, 1.0]], [[0, -1, 1, 1.0]], [[0, 1, 1]]])
def test_broken_lie_entries_are_format_errors(tmp_path, entries):
    with pytest.raises(jsonio.FormatError, match="bad lie bracket entry"):
        jsonio.load(_float_bracket_doc(tmp_path, entries, kind="lie"))


@pytest.mark.parametrize("kind,entries", [
    ("lts", [[True, 0, 1, 1, 1.0], [1, 0, 1, 1, -1.0]]),
    ("lie", [[True, 0, 1, 1.0], [1, 0, 1, -1.0]]),
])
def test_boolean_bracket_index_is_format_error(tmp_path, capsys, kind, entries):
    # a bool is an int to the range check, and a mask to numpy
    path = _float_bracket_doc(tmp_path, entries, kind=kind)
    with pytest.raises(jsonio.FormatError, match="is not an integer"):
        jsonio.load(path)
    for command in ("check", "center"):
        assert main([command, path]) == 2
    assert "is not an integer" in capsys.readouterr().err


def _write_json(tmp_path, doc, name="doc.json"):
    """A document written as raw JSON text, NaN included."""
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_non_finite_lie_document_is_input_error(tmp_path, capsys):
    path = _float_bracket_doc(tmp_path, [[0, 1, 2, float("nan")], [1, 0, 2, -1.0]],
                              dim=3, kind="lie")
    for command in ("check", "center"):
        assert main([command, path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


def test_non_finite_theta_is_input_error(tmp_path, capsys):
    sla = fx.so_symmetric_algebra(2)
    doc = jsonio.symmetric_to_dict(
        sl.SymmetricLieAlgebra(sla.algebra.to_float(), sla.theta.astype(float)))
    doc["theta"][0][0] = float("nan")
    path = _write_json(tmp_path, doc)
    for command in ("check", "center"):
        assert main([command, path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theta has a non-finite entry" in captured.err


def _so3_float_pair_doc():
    return {"kind": "pair", "ambient_n": 3, "mode": "float",
            "basis": [nx.to_float(b).tolist() for b in fx.so_basis(3)],
            "sigma": {"conjugation_by": np.diag([1.0, 1.0, -1.0]).tolist()},
            "policy": "full_fixed_group", "name": "SO(3)/SO(2)"}


def _bad_pair(case: str) -> dict:
    doc = _so3_float_pair_doc()
    if case == "shape":
        doc["ambient_n"] = 4
    elif case == "policy":
        doc["policy"] = "bogus"
    elif case == "heuristic":
        doc["policy"] = "identity_component_heuristic"
    elif case == "empty":
        doc["basis"] = []
    elif case == "sigma_size":
        doc["sigma"] = {"conjugation_by": np.eye(2).tolist()}
    else:
        doc["basis"][0][0][1] = float("nan")
    return doc


@pytest.mark.parametrize("command", ["check", "center"])
@pytest.mark.parametrize("case,message", [
    ("shape", "basis matrix shape does not match ambient size"),
    ("policy", "unknown policy 'bogus'"),
    ("heuristic", "unknown policy 'identity_component_heuristic'"),
    ("empty", "basis is empty"),
    ("sigma_size", "sigma matrix shape does not match ambient size"),
    ("nan", "basis has a non-finite entry"),
])
def test_pair_input_errors_exit_2(tmp_path, capsys, command, case, message):
    assert main([command, _write_json(tmp_path, _so3_float_pair_doc(), "good.json")]) == 0
    capsys.readouterr()
    assert main([command, _write_json(tmp_path, _bad_pair(case)), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _complete_doc(kind: str) -> dict:
    if kind == "lts":
        return jsonio.lts_to_dict(fx.sphere_lts(2).to_float())
    if kind == "lie":
        return jsonio.lie_to_dict(fx.so3_lie().to_float())
    if kind == "symmetric_lie":
        return jsonio.symmetric_to_dict(fx.so_symmetric_algebra(2))
    return _so3_float_pair_doc()


@pytest.mark.parametrize("kind,key", [
    ("lts", "dim"), ("lts", "mode"), ("lts", "bracket"),
    ("lie", "dim"), ("lie", "mode"), ("lie", "bracket"),
    ("symmetric_lie", "algebra"), ("symmetric_lie", "theta"),
    ("pair", "ambient_n"), ("pair", "basis"), ("pair", "sigma"),
])
def test_missing_key_is_format_error(tmp_path, capsys, kind, key):
    doc = _complete_doc(kind)
    assert main(["check", _write_json(tmp_path, doc, "good.json")]) == 0
    del doc[key]
    with pytest.raises(jsonio.FormatError, match=repr(key)):
        jsonio.from_dict(doc)
    capsys.readouterr()
    assert main(["check", _write_json(tmp_path, doc), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"no {key!r} key" in captured.err


def _null_ambient_pair() -> dict:
    doc = _so3_float_pair_doc()
    doc["ambient_n"] = None
    return doc


@pytest.mark.parametrize("doc,message", [
    ({"kind": "lts", "dim": None, "mode": "float", "bracket": []}, "'dim' must be an integer"),
    (_null_ambient_pair(), "'ambient_n' must be an integer"),
    ({"bracket": 5, "dim": 2}, "bracket must be a list"),
], ids=["lts_null_dim", "pair_null_ambient_n", "untagged_number_bracket"])
def test_malformed_document_exits_2(tmp_path, capsys, doc, message):
    assert main(["check", _write_json(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_lts_without_bracket_exits_2(tmp_path, capsys):
    assert main(["check", _write_json(tmp_path, {"kind": "lts", "dim": 2, "mode": "float"})]) == 2
    assert "no 'bracket' key" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lts", "lie", "symmetric_lie", "pair"])
def test_unknown_mode_is_format_error(kind):
    doc = _complete_doc(kind)
    (doc["algebra"] if kind == "symmetric_lie" else doc)["mode"] = "exact"
    with pytest.raises(jsonio.FormatError, match="unknown mode 'exact'"):
        jsonio.from_dict(doc)


def test_pair_with_unknown_mode_exits_2(tmp_path, capsys):
    doc = _so3_float_pair_doc()
    doc["mode"] = "exact"
    assert main(["check", _write_json(tmp_path, doc), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown mode 'exact'" in captured.err
    del doc["mode"]      # an absent mode still means float
    assert jsonio.pair_from_dict(doc).mode == nx.FLOAT


def test_gallery_write_reproduces_shipped_fixtures(gallery_dir):
    shipped = Path(__file__).resolve().parents[1] / "fixtures"
    names = sorted(p.name for p in shipped.glob("*.json"))
    assert names == sorted(p.name for p in gallery_dir.glob("*.json"))
    for name in names:
        assert (gallery_dir / name).read_bytes() == (shipped / name).read_bytes(), name


def test_noncentral_period_direction_is_input_error(gallery_dir, capsys):
    rc = main(["period", str(gallery_dir / "pair_u2_mod_o2.json"),
               "--coords", "1,0,0,0"])
    assert rc == 2
    assert "central" in capsys.readouterr().err


def test_json_output_parses(gallery_dir, capsys):
    rc = main(["check", str(gallery_dir / "pair_u2_mod_o2.json"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["derived_mode"] == "rational"


# ------------------------------------------------------------ command behavior

def test_center_command(gallery_dir, capsys):
    rc = main(["center", str(gallery_dir / "lts_u2_minus.json")])
    assert rc == 0
    assert "center_dim: 1" in capsys.readouterr().out


def test_embed_command(gallery_dir, capsys):
    rc = main(["embed", str(gallery_dir / "lts_sphere3.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "operator_part_dim: 3" in out
    assert "certified: True" in out


def test_quotient_out_is_loadable(gallery_dir, tmp_path, capsys):
    out = tmp_path / "quot.json"
    rc = main(["quotient", str(gallery_dir / "lts_u2_minus.json"),
               "--out", str(out)])
    assert rc == 0
    qsys = jsonio.load(out)
    assert qsys.dim == 2


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heisenberg_plus_quarter"])
def test_quotient_by_full_center_exits_zero(gallery_dir, tmp_path, capsys, name):
    out = tmp_path / "quot.json"
    rc = main(["quotient", str(gallery_dir / f"lts_{name}.json"), "--out", str(out), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quotient_dim"] == 0 and report["certified"] is True
    assert jsonio.load(out).dim == 0


def perturbed_u3_minus():
    m = fx.u_minus_lts(3)
    tensor = m.tensor.copy()
    tensor[0, 0, 1, 1] += Fraction(1)
    return lt.LieTripleSystem(m.dim, tensor, m.mode, m.labels)


@pytest.mark.parametrize("build", [fx.broken_lts, perturbed_u3_minus])
def test_failing_check_json_is_byte_identical(tmp_path, capsys, build):
    # the report the Fraction route printed: worst violation from the loop
    # oracles, rendered by the same canonical JSON
    m = build()
    worst = max(antisymmetry_defect_loops(m.tensor), cyclic_defect_loops(m.tensor))
    want = json.dumps({"dim": m.dim, "identity": "left_antisymmetry", "kind": "lts",
                       "mode": "rational", "ok": False, "worst_violation": worst},
                      sort_keys=True, separators=(",", ":")) + "\n"
    path = tmp_path / "broken.json"
    jsonio.save(path, m)
    assert main(["check", str(path), "--json"]) == 1
    assert capsys.readouterr().out == want


def test_tol_reaches_symmetric_algebra_documents(tmp_path, capsys):
    # theta squares to the identity only up to 1e-7: a violation at the
    # default tolerance 1e-9, accepted under --tol 1e-6
    g = fx.so_symmetric_algebra(2).algebra.to_float()
    theta = np.diag([1.0, -1.0, -1.0]) * (1.0 + 5e-8)
    path = tmp_path / "sym.json"
    jsonio.save(path, sl.SymmetricLieAlgebra(g, theta, TolerancePolicy(eq_tol=1e-6)))
    assert main(["check", str(path)]) == 1
    assert "theta squared is not the identity" in capsys.readouterr().out
    assert main(["check", str(path), "--tol", "1e-6"]) == 0
    assert "ok: True" in capsys.readouterr().out


def test_quotient_with_ideal_file(gallery_dir, tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"vectors": [["1", "1", "0"]]}))
    rc = main(["quotient", str(gallery_dir / "lts_u2_minus.json"),
               "--ideal", str(ideal)])
    assert rc == 0
    assert "quotient_dim: 2" in capsys.readouterr().out


def test_product_command(gallery_dir, tmp_path, capsys):
    out = tmp_path / "prod.json"
    rc = main(["product", str(gallery_dir / "lts_sphere2.json"),
               str(gallery_dir / "lts_abelian2.json"), "--out", str(out)])
    assert rc == 0
    assert jsonio.load(out).dim == 4


def test_pair_exp_at_period(gallery_dir, capsys):
    rc = main(["pair-exp", str(gallery_dir / "pair_u2_mod_o2.json"),
               "--t", "3.141592653589793", "--coords", "1,1,0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "in_fixed_group: True" in out


def test_geodesic_command(gallery_dir, capsys):
    rc = main(["geodesic", str(gallery_dir / "pair_so3_mod_so2.json"),
               "--samples", "6"])
    assert rc == 0
    assert "ok: True" in capsys.readouterr().out


def test_period_pair_route_json(gallery_dir, capsys):
    rc = main(["period", str(gallery_dir / "pair_u2_mod_o2.json"),
               "--coords", "1,1,0,0", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Discrete"
    assert abs(doc["generator"] - 3.141592653589793) < 1e-8


@pytest.mark.parametrize("argv", [["--coords", "1,1,0,0"], ["--coords", "1,1,0,0", "--t-max", "2"],
                                  []])
def test_period_pair_report_agrees_with_loop_scan(gallery_dir, capsys, argv):
    # the verdict does not depend on --t-max: the one-matrix-at-a-time scan,
    # run far enough to reach the first kernel point, finds the same one
    path = str(gallery_dir / "pair_u2_mod_o2.json")
    assert main(["period", path, *argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    args = cli._parser().parse_args(["period", path, *argv])
    pair = jsonio.load(path)
    lat = kernel_lattice_1d_loops(pair, cli._direction(pair, args), t_max=12.0)
    assert set(doc) == {"route", "verdict", "generators", "caveat", "generator",
                        "frequencies", "generator_residual"}
    assert doc["verdict"] == lat.verdict == "Discrete"
    assert doc["generators"] == [doc["generator"]]
    assert abs(doc["generator"] - float(lat.generators[0][0])) < 1e-10
    assert doc["generator"] == pytest.approx(math.pi / doc["frequencies"][0], abs=1e-12)
    assert doc["generator_residual"] <= 1e-8


def test_period_inconclusive_states_its_reason(tmp_path, capsys):
    # GL(2) over O(2) along I: exp(t I) = e^t I never returns to O(2)
    basis = [np.eye(2)[[i]].T @ np.eye(2)[[j]] for i in range(2) for j in range(2)]
    doc = {"kind": "pair", "ambient_n": 2, "mode": "float", "name": "GL(2)/O(2)",
           "basis": [b.tolist() for b in basis], "sigma": "transpose_inverse"}
    path = _write_json(tmp_path, doc)
    assert main(["period", path, "--coords", "1,0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Inconclusive\n" in out and "reason: real spectral part\n" in out

def test_period_subgroup_route(capsys):
    rc = main(["period", "--subgroup", "1.0", "1.4142135623730951", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NonDiscreteWitness"
    assert doc["witness_coefficients"] == [665857, -470832]


def test_quotient_demo_reports_both_sides(capsys):
    rc = main(["quotient-demo", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["irrational_pair_verdict"] == "NonDiscreteWitness"
    assert doc["rational_slope_control"] == "Discrete"
    assert doc["witness_norm"] < 1e-6
    assert "simply connected" in doc["caveat"]


def test_loop_demo_only_zero(gallery_dir, capsys):
    rc = main(["loop-demo", str(gallery_dir / "pair_u2_mod_o2.json"),
               "--grid-size", "3", "--coords", "1,1,0,0"])
    assert rc == 0
    assert "only_zero_admissible: True" in capsys.readouterr().out


def test_consecutive_calls_share_no_state(gallery_dir, capsys):
    # main reuses one parser; defaults and options must not carry over
    sqrt2 = ["period", "--subgroup", "1.0", "1.4142135623730951", "--json"]
    assert main(sqrt2 + ["--epsilon", "1e-9"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Inconclusive"
    assert main(["period", str(gallery_dir / "pair_u2_mod_o2.json"),
                 "--coords", "1,1,0,0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "pair"
    assert main(sqrt2) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "NonDiscreteWitness"
    args = cli._parser().parse_args(["period", "pair.json", "--coords", "1,1,0,0"])
    assert args.subgroup is None and args.epsilon == 1e-6 and not args.json


REPO = Path(__file__).resolve().parents[1]


def _readme_commands():
    lines = (REPO / "README.md").read_text().splitlines()
    return [shlex.split(line.split("#")[0])[1:] for line in lines
            if line.startswith("triplekit ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv)  # an unknown flag exits 2


def test_readme_subgroup_and_loop_examples_run(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    commands = [a for a in _readme_commands() if a[0] == "loop-demo" or "--subgroup" in a]
    assert len(commands) == 2
    for argv in commands:
        assert main(argv) == 0, argv


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "triplekit.cli", "gallery"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "u2_mod_o2" in proc.stdout


# ------------------------------------------------------- one value decoder

def _valid_doc(kind: str, mode: str) -> dict:
    exact = mode == nx.RATIONAL
    if kind == "lts":
        m = fx.sphere_lts(2)
        return jsonio.lts_to_dict(m if exact else m.to_float())
    if kind == "symmetric_lie":
        sla = fx.so_symmetric_algebra(2)
        if not exact:
            sla = sl.SymmetricLieAlgebra(sla.algebra.to_float(), nx.to_float(sla.theta))
        return jsonio.symmetric_to_dict(sla)
    return jsonio.pair_to_dict(fx.sphere_pair(2)) if exact else _so3_float_pair_doc()


def _set_first_one(doc: dict, field: str, value) -> None:
    """Replace the first value 1 ("1" or 1.0) of one field of a document."""
    if field == "bracket":
        next(e for e in doc["bracket"] if e[-1] in ("1", 1.0))[-1] = value
        return
    rows = doc["sigma"]["conjugation_by"] if field == "sigma" else doc[field]
    flat = [(row, j) for matrix in (rows if field == "basis" else [rows])
            for row in matrix for j in range(len(row))]
    row, j = next((row, j) for row, j in flat if row[j] in ("1", 1.0))
    row[j] = value


@pytest.mark.parametrize("kind,mode,field,value", [
    ("lts", "rational", "bracket", 1.0),
    ("lts", "rational", "bracket", True),
    ("lts", "rational", "bracket", "1/0"),
    ("lts", "float", "bracket", "1.0"),
    ("lts", "float", "bracket", True),
    ("symmetric_lie", "rational", "theta", 1.0),
    ("symmetric_lie", "float", "theta", "1"),
    ("symmetric_lie", "float", "theta", True),
    ("pair", "rational", "sigma", 1.0),
    ("pair", "float", "basis", "1.0"),
])
def test_value_outside_the_decoding_rule_exits_2(tmp_path, capsys, kind, mode, field, value):
    # one rule for every field: an exact value is a fraction string or a JSON
    # integer, a float value a JSON number; bools are neither
    doc = _valid_doc(kind, mode)
    _set_first_one(doc, field, 1)        # a JSON integer is a value in both modes
    assert main(["check", _write_json(tmp_path, doc, "good.json")]) == 0
    capsys.readouterr()
    _set_first_one(doc, field, value)
    assert main(["check", _write_json(tmp_path, doc), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"is not a {mode} value" in captured.err


@pytest.mark.parametrize("name,ideal,message", [
    ("lts_sphere3", {}, "no 'vectors' key"),
    ("lts_sphere3", [["1", "0", "0"]], "expected an object holding 'vectors'"),
    ("lts_sphere3", {"vectors": [[1, 0]]}, "ideal vectors need 3 entries each"),
    ("lts_sphere3", {"vectors": [["1", "0", "0"], ["0"]]}, "rows of one length"),
    ("lts_u2_minus", {"vectors": [[1.0, 1.0, 0]]}, "1.0 is not a rational value"),
])
def test_bad_ideal_file_exits_2(gallery_dir, tmp_path, capsys, name, ideal, message):
    path = _write_json(tmp_path, ideal, "ideal.json")
    assert main(["quotient", str(gallery_dir / f"{name}.json"), "--ideal", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_ideal_file_with_integers_and_dependent_rows(gallery_dir, tmp_path, capsys):
    path = _write_json(tmp_path, {"vectors": [[1, 1, 0], ["2", "2", "0"]]}, "ideal.json")
    assert main(["quotient", str(gallery_dir / "lts_u2_minus.json"), "--ideal", path]) == 0
    out = capsys.readouterr().out
    assert "ideal_dim: 1" in out and "quotient_dim: 2" in out
