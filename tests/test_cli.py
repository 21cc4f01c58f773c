import contextlib
import enum
import hashlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import salpeter_hulthen
from salpeter_hulthen import cli, oracle
from salpeter_hulthen.errors import ValidationError
from salpeter_hulthen.spectra import Branch


BASE = {"V0": 0.9, "alpha": 1.0, "q": 1.0, "regime": "Real", "m1": 1.0, "m2": 1.0}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, *args, out="out.json"):
    cfg = write_config(tmp_path, doc)
    out_path = tmp_path / out
    code = cli.main(["--config", cfg, "--out", str(out_path), *args])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_spectrum_deterministic_bytes(tmp_path):
    code1, text1 = run(tmp_path, BASE, "--command", "spectrum", "--n-max", "1", out="a.json")
    code2, text2 = run(tmp_path, BASE, "--command", "spectrum", "--n-max", "1", out="b.json")
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1.endswith("}\n") and not text1.endswith("\n\n")


def test_config_echo_round_trip(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "spectrum", "--n-max", "2")
    assert code == 0
    payload = json.loads(text)
    echo = payload["metadata"]["config_echo"]
    rebuilt = cli.build_config(echo)
    original = cli.build_config({**BASE, "command": "spectrum", "n_max": 2})
    assert rebuilt == original


def test_spectrum_zero_coupling_exits_3(tmp_path, capsys):
    code, text = run(tmp_path, {**BASE, "V0": 0.0}, "--command", "spectrum")
    assert code == 3
    assert json.loads(text)["levels"][0]["error"] == "NoBoundStateError"
    assert json.loads(capsys.readouterr().err)["error"] == "NoBoundStateError"


def test_spectrum_limit_value(tmp_path):
    code, text = run(tmp_path, {**BASE, "V0": 1e-12}, "--command", "spectrum", "--n-max", "0")
    assert code == 0
    level = json.loads(text)["levels"][0]
    assert level["minus"]["re"] == pytest.approx(-3.7320508, rel=1e-6)


def test_cli_import_leaves_out_scipy_linalg_and_integrate(tmp_path):
    # only fd_eigenvalues uses scipy: it imports scipy.linalg on first use,
    # which is most of the import time of `verify --mode nonrelativistic`. The
    # Gamma function is the package's own, so no other command imports any
    # scipy module, and none imports scipy.special or scipy.integrate.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for module in ("salpeter_hulthen.cli", "salpeter_hulthen.oracle"):
        script = (f"import sys, {module}; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.strip() == "[]", module
    doc = {**BASE, "scan": {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}}
    script = ("import json, sys; from salpeter_hulthen import cli; code = cli.main(sys.argv[1:]); "
              "print(json.dumps([code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')]))")
    # V0 = 2 gives a nonrelativistic level at n = 0
    for changes, command in (({}, ["spectrum"]), ({}, ["wavefunction"]), ({}, ["verify"]),
                             ({"V0": 2.0}, ["verify", "--mode", "nonrelativistic"]),
                             ({}, ["scan"]), ({}, ["count"])):
        cfg = write_config(tmp_path, {**doc, **changes})
        out = subprocess.run([sys.executable, "-c", script, "--config", cfg,
                              "--out", str(tmp_path / "out.json"), "--command", *command],
                             capture_output=True, text=True, check=True, env=env).stdout
        code, scipy_modules = json.loads(out)
        assert code == 0, command
        if "nonrelativistic" in command:
            assert "scipy.linalg" in scipy_modules
            assert not {"scipy.special", "scipy.integrate"} & set(scipy_modules)
        else:
            assert scipy_modules == [], command


def test_the_package_holds_only_runtime_modules():
    modules = sorted(info.name for info in pkgutil.iter_modules(salpeter_hulthen.__path__))
    assert modules == ["_kernels", "cli", "errors", "oracle", "potentials",
                       "special_functions", "spectra", "wavefunctions"]
    for name in salpeter_hulthen.__all__:
        assert hasattr(salpeter_hulthen, name), name


def test_stderr_is_one_json_document(tmp_path):
    # in a subprocess, since pytest captures warnings in-process; numpy's
    # RuntimeWarnings from the closed forms once came before the JSON error;
    # u = xi/(2 m q V0) is 1e156 here, and u*u overflows with a warning
    doc = {"V0": 1e-96, "alpha": 1e30, "q": 1.0, "m1": 1.0, "m2": 1.0,
           "regime": "Real", "command": "spectrum"}
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "salpeter_hulthen.cli",
                           "--config", write_config(tmp_path, doc)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert set(json.loads(proc.stderr)) == {"error", "message"}


def test_unknown_field_exits_2(tmp_path):
    code, _ = run(tmp_path, {**BASE, "bogus": 2}, "--command", "spectrum")
    assert code == 2


def test_bad_values_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, BASE, "--command", "spectrum", "--n-max", "-3")
    assert code == 2
    code, _ = run(tmp_path, {**BASE, "regime": "Nope"}, "--command", "spectrum")
    assert code == 2
    scan = {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}
    bad = [{"n_max": "x"}, {"n_max": 2.7}, {"n_max": True}, {"grid_points": "a"},
           {"x_max": "a"}, {"x_max": float("nan")}, {"tolerance": float("inf")},
           {"scan": {**scan, "start": "a"}}, {"scan": {**scan, "points": 2.5}},
           {"V0": float("nan")}, {"V0": float("inf")}, {"alpha": float("nan")},
           {"alpha": float("inf")}, {"m1": float("nan")}, {"alpha": -1.0},
           {"n_max": cli.N_MAX_CAP + 1}, {"n_max": 100000000},
           {"grid_points": cli.GRID_POINTS_CAP + 1},
           {"scan": {**scan, "points": cli.SCAN_POINTS_CAP + 1}},
           # the closed form overflows a float: a JSON error, not a traceback
           {"V0": -0.557, "alpha": 6.4e-142, "q": 0.217, "m1": 2.0, "m2": 3.0},
           # the closed-form energies are NaN: an error, not "nan" levels
           # (u = xi/(2 m q V0) is 1e156, and u*u overflows)
           {"V0": 1e-96, "alpha": 1e30, "q": 1.0, "m1": 1.0, "m2": 1.0},
           # a wavefunction that is NaN on the grid: an error, not NaN rows
           {"V0": 8.5e-213, "alpha": 0.3, "q": 1e-12, "regime": "ComplexAlpha", "m1": 3,
            "m2": 3, "mode": "nonrelativistic", "n_max": 3, "format": "csv",
            "command": "wavefunction"}]
    for fields in bad:
        command = fields.get("command", "scan" if "scan" in fields else "spectrum")
        code, _ = run(tmp_path, {**BASE, **fields}, "--command", command)
        assert code == 2, fields
    # the closed forms leave the float range: (2 m V0)^2 overflows, or
    # a = alpha^2/(2 mu) underflows to 0; the oracle's steps overflow too
    for fields in ({"V0": 1e300, "q": 0.5}, {"V0": 1e-300, "alpha": 1e-300, "q": 0.5}):
        for command, error in (("spectrum", "ValidationError"),
                               ("verify", "ShootingOverflowError")):
            capsys.readouterr()
            code, _ = run(tmp_path, {**BASE, **fields}, "--command", command)
            assert code == 2, (fields, command)
            assert json.loads(capsys.readouterr().err)["error"] == error, (fields, command)


@pytest.mark.parametrize("args", [
    ["--command", "spectrum", "--mode", "foo"],
    ["--command", "spectrum", "--n-max", "abc"],
    ["--command", "spectrum", "--format", "xml"],
    ["--command", "spectrum", "--bogus", "1"],
    None,                                   # no --config
], ids=["mode", "n-max", "format", "unknown-flag", "no-config"])
def test_bad_flags_exit_2_with_one_json_error(tmp_path, capsys, args):
    # every bad argument takes the path of a bad document: no usage text, no SystemExit
    if args is None:
        code = cli.main(["--command", "spectrum"])
    else:
        code, _ = run(tmp_path, BASE, *args)
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.err)) == {"error", "message"}
    assert captured.out == ""


@pytest.mark.parametrize("command", ["spectrum", "verify", "scan", "count"])
def test_csv_is_refused_outside_wavefunction(tmp_path, capsys, command):
    doc = {**BASE, "scan": {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}}
    code, text = run(tmp_path, doc, "--command", command, "--format", "csv")
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    with pytest.raises(ValidationError):
        cli.build_config({**doc, "command": command, "format": "csv"})


def test_spectrum_keeps_the_levels_that_evaluate(tmp_path, capsys):
    # varsigma = 0 at n = 0 (see test_spectra): level 0 records the error, level 1 stays
    doc = {**BASE, "V0": 1e-9, "alpha": 0.5, "q": -1.0, "regime": "ComplexAlpha"}
    code, text = run(tmp_path, doc, "--command", "spectrum", "--n-max", "1")
    assert code == 0
    levels = json.loads(text)["levels"]
    assert levels[0]["error"] == "ComplexSpectrumError" and levels[0]["message"]
    assert levels[1]["n"] == 1 and "error" not in levels[1] and "aux" in levels[1]


@pytest.mark.parametrize("regime", ["Real", "ComplexV0Q"])
def test_spectrum_records_a_vanishing_xi_per_level(tmp_path, regime):
    # xi = 0 at n = 0 (see test_spectra): level 0 records the closed form's
    # ComplexSpectrumError, not "energy is not finite", and level 1 stays
    doc = {**BASE, "V0": 1e-7, "alpha": 1e5, "q": -0.5, "regime": regime}
    code, text = run(tmp_path, doc, "--command", "spectrum", "--n-max", "1")
    assert code == 0
    levels = json.loads(text)["levels"]
    assert levels[0] == {"n": 0, "error": "ComplexSpectrumError",
                         "message": "xi vanishes; branch undefined"}
    assert levels[1]["n"] == 1 and "error" not in levels[1]


@pytest.mark.parametrize("regime", ["Real", "ComplexV0Q"])
def test_spectrum_evaluates_a_subnormal_xi(tmp_path, regime):
    # xi = 2e-318 (see test_spectra): the pair is finite, not a level error
    doc = {**BASE, "V0": 1e-159, "alpha": 1e-159, "q": 1.0, "regime": regime}
    code, text = run(tmp_path, doc, "--command", "spectrum", "--n-max", "0")
    assert code == 0
    level = json.loads(text)["levels"][0]
    assert "error" not in level
    assert all(math.isfinite(level[key][part])
               for key in ("minus", "plus") for part in ("re", "im"))


@pytest.mark.parametrize("regime", ["Real", "ComplexV0Q"])
def test_spectrum_evaluates_a_subnormal_v0(tmp_path, regime):
    # 2 m q V0 = 2e-320 (see test_spectra): the pair is finite, not a level error
    doc = {**BASE, "V0": 1e-320, "alpha": 1e-161, "q": 1.0, "regime": regime}
    code, text = run(tmp_path, doc, "--command", "spectrum", "--n-max", "0")
    assert code == 0
    level = json.loads(text)["levels"][0]
    assert "error" not in level
    assert all(math.isfinite(level[key][part])
               for key in ("minus", "plus") for part in ("re", "im"))


@pytest.mark.parametrize("args, built", [
    (("--command", "spectrum", "--n-max", "3"), 0),
    (("--command", "scan", "--n-max", "2"), 0),
    (("--command", "wavefunction", "--n-max", "1"), 2),
])
def test_level_records_are_built_without_bound_states(tmp_path, monkeypatch, args, built):
    # spectrum and scan write each level from classify_level; wavefunction
    # builds the one level it assembles, both branches, once
    from salpeter_hulthen import spectra
    init, made = spectra.BoundState.__init__, []

    def counting_init(self, *a, **k):
        made.append(1)
        init(self, *a, **k)

    monkeypatch.setattr(spectra.BoundState, "__init__", counting_init)
    doc = {**BASE, "scan": {"param": "V0", "start": 0.45, "stop": 1.35, "points": 20}}
    code, _ = run(tmp_path, doc, *args)
    assert code == 0 and len(made) == built


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_exits_2_with_one_json_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    code = cli.main(["--config", write_config(tmp_path, BASE), "--command", "spectrum",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert set(json.loads(captured.err)) == {"error", "message"}


@pytest.mark.parametrize("failing", [{0}, {0, 1}])
def test_spectrum_records_a_validation_error_per_level(tmp_path, capsys, monkeypatch, failing):
    # a ValidationError at some levels is recorded like any level error; at
    # every level it is the command's error, exit 2
    args = ("--command", "spectrum", "--n-max", "1")
    _, reference = run(tmp_path, BASE, *args, out="reference.json")
    classify_level = cli.classify_level

    def refuse(params, masses, n):
        if n in failing:
            raise ValidationError(f"level {n} refused")
        return classify_level(params, masses, n)

    monkeypatch.setattr(cli, "classify_level", refuse)
    code, text = run(tmp_path, BASE, *args)
    err = capsys.readouterr().err
    if failing == {0}:
        assert code == 0 and err == ""
        levels = json.loads(text)["levels"]
        assert levels[0] == {"n": 0, "error": "ValidationError", "message": "level 0 refused"}
        assert levels[1] == json.loads(reference)["levels"][1]
    else:
        assert code == 2 and text == ""
        assert json.loads(err) == {"error": "ValidationError", "message": "level 0 refused"}


def test_wavefunction_csv_schema(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "wavefunction", "--format", "csv",
                     "--n-max", "0", "--grid-points", "8", "--x-max", "12", out="wf.csv")
    assert code == 0
    lines = text.split("\n")
    assert lines[0] == "x,re_psi,im_psi"
    assert lines[-1] == ""                  # exactly one trailing newline
    assert len(lines) == 10                 # header + 8 rows + terminator
    assert "\r" not in text
    for row in lines[1:-1]:
        assert len(row.split(",")) == 3


def test_wavefunction_json_normalization(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "wavefunction", "--n-max", "0",
                     "--grid-points", "50")
    assert code == 0
    payload = json.loads(text)
    assert payload["normalization"]["N"]["re"] > 0
    assert len(payload["psi"]) == 50


def test_wavefunction_default_grid_stays_on_the_half_line_at_negative_alpha(tmp_path):
    # ComplexAlpha allows alpha < 0; the default grid runs to 25/|alpha|
    doc = {**BASE, "alpha": -1.0, "regime": "ComplexAlpha"}
    args = ("--command", "wavefunction", "--n-max", "0", "--grid-points", "3")
    code, text = run(tmp_path, doc, *args)
    assert code == 0
    assert json.loads(text)["grid"] == [0, 12.5, 25]
    code, text = run(tmp_path, doc, *args, "--format", "csv", out="wf.csv")
    assert code == 0
    assert [row.split(",")[0] for row in text.splitlines()[1:]] == ["0", "12.5", "25"]


def test_verify_nonrelativistic(tmp_path):
    doc = {**BASE, "V0": 2.0, "mode": "nonrelativistic"}
    code, text = run(tmp_path, doc, "--command", "verify", "--n-max", "1")
    assert code == 0
    rows = json.loads(text)["rows"]
    assert rows[0]["formula"] == pytest.approx(-0.25)
    assert rows[0]["abs_delta"] < 1e-5


def test_verify_salpeter(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "verify", "--n-max", "1")
    assert code == 0
    rows = json.loads(text)["rows"]
    matched = [r for r in rows if r.get("oracle") is not None and r.get("formula") is not None]
    assert matched and matched[0]["rel_delta"] < 1e-4


def test_verify_salpeter_lists_a_root_no_formula_level_matches(tmp_path):
    # no closed-form branch is physical here, but the oracle finds a level
    code, text = run(tmp_path, {**BASE, "V0": 3.8, "q": 0.5}, "--command", "verify")
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 1
    assert rows[0]["formula"] is None and rows[0]["n"] is None and rows[0]["branch"] is None
    assert rows[0]["oracle"] == pytest.approx(-0.898976, abs=1e-6)
    assert rows[0]["abs_delta"] is None and rows[0]["rel_delta"] is None


def test_verify_salpeter_lists_a_formula_level_no_root_matches(tmp_path):
    # the physical level lies above the default window's -1e-8 edge, so the
    # oracle's scan cannot find it
    code, text = run(tmp_path, {**BASE, "V0": 0.80005}, "--command", "verify")
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 1
    assert rows[0]["oracle"] is None and rows[0]["n"] == 0
    assert -1e-8 < rows[0]["formula"] < 0.0
    assert rows[0]["abs_delta"] is None and rows[0]["rel_delta"] is None



def test_verify_salpeter_matches_each_formula_level_to_one_root(tmp_path, monkeypatch):
    # the oracle's roots are fixed here; the formula levels of this well at
    # n <= 1 are one physical branch each, e0 < e1. Formula levels take
    # their nearest unused root in ascending order, an exact tie goes to
    # the lower root index, and a leftover root follows the matched rows
    doc = {**BASE, "V0": 0.054, "alpha": 0.06}
    found = []
    monkeypatch.setattr(oracle, "salpeter_levels", lambda params, masses: list(found))

    def matches(roots):
        found[:] = roots
        code, text = run(tmp_path, doc, "--command", "verify", "--n-max", "1")
        assert code == 0
        return [(row["n"], row["formula"], row["oracle"]) for row in json.loads(text)["rows"]]

    (_, e0, _), (_, e1, _) = matches([])
    assert e0 < e1 < -0.04
    # -0.125 is the nearest root of both; e0 takes it, e1 the next-nearest
    # -0.5, and -0.9 is left over
    assert matches([-0.9, -0.5, -0.125]) == [(0, e0, -0.125), (1, e1, -0.5),
                                              (None, None, -0.9)]
    below, above = e0 - 2.0 ** -10, e0 + 2.0 ** -10
    assert e0 - below == above - e0     # an exact tie for e0
    assert matches([below, above]) == [(0, e0, below), (1, e1, above)]
    assert matches([above, below]) == [(0, e0, above), (1, e1, below)]

def test_count_command(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "count")
    assert code == 0
    payload = json.loads(text)
    assert payload["predicted"] >= payload["oracle"] == 1


def test_count_command_no_levels(tmp_path):
    # very short range: the one-level inequality fails and the oracle agrees
    code, text = run(tmp_path, {**BASE, "V0": 1.0, "alpha": 4.0}, "--command", "count")
    assert code == 0
    payload = json.loads(text)
    assert payload["predicted"] == 0
    assert payload["oracle"] == 0


@pytest.mark.parametrize("well, roots", [
    ((3.8, 1.0, 0.5), [-0.89897637921772489]),    # V0 > |q| alpha
    ((2.0, 1.0, 0.0), [-0.03923262225606417]),    # q = 0
])
def test_count_writes_a_null_prediction_where_the_bound_fails(tmp_path, capsys, well, roots):
    # level_count raises NoBoundStateError there, but the oracle still
    # counts: the bound is null, the exit 0 and stderr empty
    doc = {**BASE, "V0": well[0], "alpha": well[1], "q": well[2]}
    code, text = run(tmp_path, doc, "--command", "count")
    assert code == 0 and capsys.readouterr().err == ""
    payload = json.loads(text)
    assert payload["predicted"] is None
    assert payload["oracle"] == len(roots)
    assert payload["oracle_roots"] == pytest.approx(roots, rel=1e-12)



@pytest.mark.parametrize("well, masses", [((1e-300, 1e-8, 5e-324), (1.0, 2.0)),
                                          ((1e-300, 1e-300, 5e-324), (0.8, 2.0))])
def test_count_refuses_a_bound_that_leaves_the_float_range(tmp_path, capsys, well, masses):
    # 2 q alpha underflows to 0, so the bound is 0/0: it was a traceback, a
    # bare ValueError from int(nan); now exit 2 with one JSON error
    doc = {**BASE, "V0": well[0], "alpha": well[1], "q": well[2],
           "m1": masses[0], "m2": masses[1]}
    code, text = run(tmp_path, doc, "--command", "count")
    assert code == 2 and text == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValidationError" and "float range" in error["message"]


@pytest.mark.parametrize("q", [5e-324, 1e-310])
def test_verify_nonrelativistic_refuses_an_infinite_beta(tmp_path, capsys, q):
    # beta = 2 mu V0 / (q alpha^2) overflows to inf: the formula was -inf,
    # written as "-inf" with a "nan" rel_delta and exit 0
    doc = {**BASE, "V0": 1.5, "q": q, "m1": 1000.0, "mode": "nonrelativistic"}
    code, text = run(tmp_path, doc, "--command", "verify")
    assert code == 2 and text == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValidationError" and "float range" in error["message"]

def test_scan_command(tmp_path):
    doc = {**BASE, "scan": {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}}
    code, text = run(tmp_path, doc, "--command", "scan", "--n-max", "0")
    assert code == 0
    payload = json.loads(text)
    surface = payload["surface"]
    assert len(surface) == 3
    assert all("levels" in e for e in surface)
    # the scan block survives the config-echo round trip
    rebuilt = cli.build_config(payload["metadata"]["config_echo"])
    assert rebuilt == cli.build_config({**doc, "command": "scan", "n_max": 0})
    # a scan point outside the Real domain (alpha <= 0) is a row error, not an exit
    doc = {**BASE, "scan": {"param": "alpha", "start": -1.0, "stop": 1.0, "points": 3}}
    code, text = run(tmp_path, doc, "--command", "scan", "--n-max", "0")
    assert code == 0
    surface = json.loads(text)["surface"]
    assert ["error" in e for e in surface] == [True, True, False]
    # a level whose closed-form energy is NaN is a level error, not "nan" output
    # (u*u overflows, as in test_bad_values_exit_2)
    doc = {**BASE, "V0": 1e-96, "alpha": 1e30,
           "scan": {"param": "alpha", "start": 1e30, "stop": 1e31, "points": 2}}
    code, text = run(tmp_path, doc, "--command", "scan", "--n-max", "0")
    assert code == 0
    assert "nan" not in text
    levels = [level for e in json.loads(text)["surface"] for level in e["levels"]]
    assert [level.get("error") for level in levels] == ["ValidationError"] * 2
    # (2 m V0)^2 overflows at the last two points in every regime: a level
    # error there, not an abort of the whole scan
    for regime in ("Real", "ComplexAlpha", "ComplexV0Q", "AllComplex"):
        doc = {**BASE, "q": 0.5, "regime": regime,
               "scan": {"param": "V0", "start": 1.0, "stop": 1e300, "points": 3}}
        code, text = run(tmp_path, doc, "--command", "scan", "--n-max", "0")
        assert code == 0
        surface = json.loads(text)["surface"]
        assert [e["levels"][0].get("error") for e in surface[1:]] == ["ValidationError"] * 2


def test_command_from_config_document(tmp_path):
    code, text = run(tmp_path, {**BASE, "command": "count"})
    assert code == 0
    assert "predicted" in json.loads(text)


def test_metadata_units_stamp(tmp_path):
    code, text = run(tmp_path, BASE, "--command", "spectrum")
    assert json.loads(text)["metadata"]["units"] == "hbar=c=1"


def test_float_formatting_17g(tmp_path):
    value = 0.1234567890123456789
    rendered = cli.dumps_canonical({"x": value})
    assert format(value, ".17g") in rendered


def _reference_dumps(obj, indent: int = 0) -> str:
    """The recursive writer dumps_canonical replaced; its bytes are the format."""
    def fmt_float(x):
        if not np.isfinite(x):
            return json.dumps(str(x))
        return format(float(x), ".17g")

    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key in sorted(obj):
            rows.append(f'{pad}  {json.dumps(str(key))}: {_reference_dumps(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_reference_dumps(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _reference_dumps({"im": float(obj.imag), "re": float(obj.real)}, indent)
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist(), indent)
    return json.dumps(str(obj))


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                                1.7976931348623157e308, 0.1, 1.0, -1e-7, 1e16, 1e17])
_LEAVES = st.one_of(
    st.floats(), _EDGE_FLOATS,
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-10**30, 10**30),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.booleans(), st.none(), st.text(max_size=4), st.sampled_from(["\u00e9", "\n\t\"\\", "\x00"]))
# long homogeneous lists, written in one format, and 1-D arrays with the
# non-finite values and -0.0 that send an array back to value-by-value output
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
_ARRAY_FLOATS = st.one_of(_FINITE_FLOATS, _EDGE_FLOATS)
_ARRAYS = st.one_of(
    st.lists(_FINITE_FLOATS, min_size=5, max_size=40),
    st.lists(_FINITE_COMPLEX, min_size=5, max_size=40),
    st.lists(_FINITE_FLOATS, min_size=5, max_size=40).map(tuple),
    st.lists(_ARRAY_FLOATS, max_size=40).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.builds(complex, _ARRAY_FLOATS, _ARRAY_FLOATS), max_size=40).map(
        lambda zs: np.array(zs, dtype=complex)))
_KEYS = st.one_of(st.text(max_size=4),
                  st.sampled_from(["\u00e9t\u00e9", "a\"b", "\\", "\n", "\U0001f600"]))
_DOCUMENTS = st.recursive(
    _LEAVES | _ARRAYS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCUMENTS, indent=st.integers(0, 3))
def test_writer_matches_the_reference_writer_byte_for_byte(doc, indent):
    assert cli.dumps_canonical(doc, indent) == _reference_dumps(doc, indent)


@pytest.mark.parametrize("points", [1, 2, 200])
def test_wavefunction_csv_matches_the_per_row_format(tmp_path, points):
    # the CSV body, one format over the whole table, against rows of the
    # value-by-value float format; the JSON grid and psi carry the same
    # floats, exactly, in 17 significant digits (read as floats: -0 is -0.0)
    args = ["--command", "wavefunction", "--n-max", "1", "--grid-points", str(points)]
    code, text = run(tmp_path, BASE, *args, "--format", "csv", out="wf.csv")
    assert code == 0
    code, doc = run(tmp_path, BASE, *args, out="wf.json")
    assert code == 0
    payload = json.loads(doc, parse_int=float)
    rows = ["x,re_psi,im_psi"]
    for x, p in zip(payload["grid"], payload["psi"]):
        rows.append(f"{cli._fmt_float(x)},{cli._fmt_float(p['re'])},{cli._fmt_float(p['im'])}")
    assert text == "\n".join(rows) + "\n"


def test_writer_edge_values():
    doc = {"b": [math.nan, -math.inf, math.inf, -0.0, 5e-324], "a": {}, "c": [],
           "z": complex(math.nan, -0.0), "\u00e9": np.float32(0.1), "n": np.int64(-3)}
    for indent in range(4):
        assert cli.dumps_canonical(doc, indent) == _reference_dumps(doc, indent)
    assert cli.dumps_canonical(doc) == "\n".join([
        "{", '  "a": {},', '  "b": [', '    "nan",', '    "-inf",', '    "inf",', "    -0,",
        "    4.9406564584124654e-324", "  ],", '  "c": [],', '  "n": -3,', '  "z": {',
        '    "im": -0,', '    "re": "nan"', "  },", '  "\\u00e9": 0.10000000149011612', "}"])



def test_writer_top_level_scalars_and_str_of_other_objects():
    # the branches no other writer test reaches: a top-level str, None or
    # bool, a str subclass (written as its str(), not its value) and an
    # object of no JSON type (its str()), nested and at the top
    class Mode(str, enum.Enum):
        FAST = "fast"

    for obj in ("\u00e9\n", None, True, Mode.FAST, Branch.PLUS, 3 + 0j,
                {"m": Mode.FAST, "b": [Branch.MINUS, Mode.FAST]}):
        for indent in range(2):
            assert cli.dumps_canonical(obj, indent) == _reference_dumps(obj, indent)
    assert cli.dumps_canonical(Mode.FAST) == json.dumps(str(Mode.FAST))
    assert cli.dumps_canonical(Branch.PLUS) == '"Branch.PLUS"'


def test_writer_numpy_bools_and_arrays():
    # numpy.bool_ was written as the string "True", an array as its repr
    assert cli.dumps_canonical([np.bool_(True), np.bool_(False)]) == "[\n  true,\n  false\n]"
    assert (cli.dumps_canonical({"x": np.array([1.0, 2.0])})
            == cli.dumps_canonical({"x": [1.0, 2.0]}))
    grid = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert json.loads(cli.dumps_canonical(grid)) == [[1, 2], [3, 4]]
    assert json.loads(cli.dumps_canonical(np.array([True, False]))) == [True, False]
    assert cli.dumps_canonical(np.array([], dtype=float)) == "[]"


# sha256 of the output of each command at a fixed config, recorded with the
# recursive writer that dumps_canonical replaced; the bytes must not move.
# count's oracle root was re-recorded when the default matching point moved
# in: only its digits changed, -0.014964221403390448 -> -0.01496422140373788;
# and again when the first polish pass took its probes from a 12-point scan
# stencil: -0.01496422140373788 -> -0.014964221403716537; and when the scan
# was spaced in angle and the brackets first probed on their own:
# -0.014964221403716537 -> -0.014964221403739585, each within ROOT_XTOL of
# the residual's sign change. verify_nonrelativistic's oracle value was
# re-recorded when fd_eigenvalues bisected each grid inside a value window
# instead of by index: -0.24999999986627056 -> -0.24999999988807572, within
# the bisection's ulp ||T|| tolerance per grid. Both wavefunction outputs were
# re-recorded when Gamma became the package's own Lanczos sum: the normalization
# constant moved in its last digits, 1.8787417663935706 -> 1.8787417663935779
# (mpmath: 1.8787417663935684), and every psi value with it
GOLDEN = {
    "spectrum": ({**BASE, "regime": "AllComplex", "q": 0.5},
                 ["--command", "spectrum", "--n-max", "2"],
                 "0dde572d0323033af120f8119ecc8965f641bb529a9112a2b70c8e4a82d06ecd"),
    "spectrum_real": (BASE, ["--command", "spectrum", "--n-max", "2"],
                      "a6b7bb8b9df650624967d6e781b7fe0534995e8b3c8a0681d41d320f927790b7"),
    "wavefunction_json": (BASE, ["--command", "wavefunction", "--n-max", "0",
                                 "--grid-points", "20", "--x-max", "12"],
                          "496f662f244f0f2166120b2c5693f8a2310f165fe0fb017dc77c618286785964"),
    "wavefunction_csv": (BASE, ["--command", "wavefunction", "--n-max", "0", "--grid-points",
                                "20", "--x-max", "12", "--format", "csv"],
                         "a992f6e0f7ec4d4bfc52c4248742a3947a64f49b91a22ad87075b7abe00a91a4"),
    "scan": ({**BASE, "scan": {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}},
             ["--command", "scan", "--n-max", "1"],
             "00690bd12011cfce1cff2fa617c54d6753c08b21a65b4cc26a0694148f61ae7a"),
    "verify_nonrelativistic": ({**BASE, "V0": 2.0, "mode": "nonrelativistic"},
                               ["--command", "verify", "--n-max", "1"],
                               "a44e164c6d84c983c9913ffbab706959998985afdf5e32dac7afe025adfa6d59"),
    "count": (BASE, ["--command", "count"],
              "20d541521865aeec7b1830df399073549633336a3a09449845886205c6b3e823"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_golden_hash(tmp_path, name):
    doc, args, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert cli.main(["--config", write_config(tmp_path, doc), "--out", str(out), *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("before", ["longer", "shorter", "fresh"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, name, before):
    # --out overwrites in place and then truncates, so whatever the file held
    # before, it ends up with exactly the bytes the command writes to stdout
    doc, args, _ = GOLDEN[name]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["--config", cfg, *args]) == 0
    expected = capsys.readouterr().out.encode()
    out = tmp_path / "out"
    if before == "longer":
        out.write_bytes(b"x" * (2 * len(expected) + 4097))
    elif before == "shorter":
        out.write_bytes(expected[: len(expected) // 3])
    assert cli.main(["--config", cfg, "--out", str(out), *args]) == 0
    assert out.read_bytes() == expected


def test_out_dev_null_exits_0(tmp_path, capsys):
    code = cli.main(["--config", write_config(tmp_path, BASE), "--command", "spectrum",
                     "--out", os.devnull])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == "" and captured.err == ""


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    code, text = run(tmp_path, BASE, "--command", "wavefunction", "--format", "csv",
                     "--grid-points", "4", out="a.csv")
    assert code == 0 and text.startswith("x,re_psi,im_psi\n")
    # the next call, without --format, writes JSON again
    code, text = run(tmp_path, BASE, "--command", "wavefunction", "--grid-points", "4",
                     out="b.json")
    assert code == 0 and json.loads(text)["metadata"]["config_echo"]["format"] == "json"
    # the command comes from the document when the flag is absent
    code, text = run(tmp_path, {**BASE, "command": "count"}, out="c.json")
    assert code == 0 and "predicted" in json.loads(text)
    # a bad --command after a good call is still exit 2 with one JSON error
    capsys.readouterr()
    for _ in range(2):
        code, _ = run(tmp_path, BASE, "--command", "bogus")
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "ValidationError"
        assert captured.out == ""
    code, _ = run(tmp_path, BASE, "--command", "spectrum", out="d.json")
    assert code == 0


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-10**12, 10**12), st.floats(),
                  st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_SCAN = st.fixed_dictionaries({"param": st.sampled_from(["V0", "alpha", "q"]),
                               "start": st.floats(-2.0, 2.0), "stop": st.floats(-2.0, 2.0),
                               "points": st.integers(2, 4)})
_FIELDS = {
    "V0": st.floats(-1.0, 3.0), "alpha": st.floats(0.3, 2.0), "q": st.floats(-1.0, 1.0),
    "regime": st.sampled_from(["Real", "ComplexAlpha", "ComplexV0Q", "AllComplex"]),
    "m1": st.floats(0.3, 3.0), "m2": st.floats(0.3, 3.0),
    "command": st.sampled_from(["spectrum", "wavefunction", "verify", "scan", "count"]),
    "mode": st.sampled_from(["salpeter", "nonrelativistic"]), "n_max": st.integers(0, 3),
    "grid_points": st.integers(1, 20), "x_max": st.floats(0.0, 50.0),
    "tolerance": st.floats(1e-12, 1e-3), "format": st.sampled_from(["json", "csv"]),
    "scan": _SCAN,
}


@st.composite
def _config_documents(draw):
    """A document of in-range values, with at most one field dropped, replaced or added."""
    doc = {key: draw(value) for key, value in _FIELDS.items()}
    if draw(st.booleans()):
        doc["m2"] = doc["m1"]                  # complex regimes need equal masses
    change = draw(st.sampled_from(["none", "none", "none", "drop", "junk", "extra"]))
    key = draw(st.sampled_from(sorted(_FIELDS)))
    if change == "drop":
        del doc[key]
    elif change == "junk":
        doc[key] = draw(_JUNK)
    elif change == "extra":
        doc[draw(st.text(max_size=4))] = draw(_JUNK)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=_config_documents())
def test_any_config_exits_with_a_documented_code(doc):
    # never a traceback: 0, or 2/3/4 with a JSON error object on stderr
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)
    if code:
        assert set(json.loads(err.getvalue())) == {"error", "message"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_config_documents())
def test_config_echo_reingests_to_the_same_config(doc):
    # the echo written into metadata, read back, is the config that ran
    try:
        config = cli.build_config(doc)
    except ValidationError:
        return
    echo = json.loads(cli.dumps_canonical(cli.config_echo(config)))
    assert cli.build_config(echo) == config
