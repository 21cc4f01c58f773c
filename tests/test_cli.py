import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salpeter_hulthen import cli


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


def test_cli_import_leaves_out_scipy_linalg_and_integrate():
    # fd_eigenvalues, pt_norm_phase and the Gamma function import them on
    # first use; together they are most of the import time of every command
    src = str(Path(cli.__file__).resolve().parents[1])
    for module in ("salpeter_hulthen.cli", "salpeter_hulthen.oracle"):
        script = (f"import sys, {module}; print(sorted(m for m in "
                  "('scipy.linalg', 'scipy.integrate', 'scipy.special') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]", module


def test_stderr_is_one_json_document(tmp_path):
    # in a subprocess, since pytest captures warnings in-process; numpy's
    # RuntimeWarnings from the closed forms once came before the JSON error
    doc = {"V0": 7.54e-287, "alpha": 1.796, "q": -0.488, "m1": 2.959, "m2": 2.959,
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


def test_bad_values_exit_2(tmp_path):
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
           {"V0": 7.54e-287, "alpha": 1.796, "q": -0.488, "m1": 2.959, "m2": 2.959},
           # a wavefunction that is NaN on the grid: an error, not NaN rows
           {"V0": 8.5e-213, "alpha": 0.3, "q": 1e-12, "regime": "ComplexAlpha", "m1": 3,
            "m2": 3, "mode": "nonrelativistic", "n_max": 3, "format": "csv",
            "command": "wavefunction"}]
    for fields in bad:
        command = fields.get("command", "scan" if "scan" in fields else "spectrum")
        code, _ = run(tmp_path, {**BASE, **fields}, "--command", command)
        assert code == 2, fields


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
    doc = {**BASE, "V0": 7.54e-287, "alpha": 1.796, "q": -0.488, "m1": 2.959, "m2": 2.959,
           "scan": {"param": "alpha", "start": 1.7, "stop": 1.8, "points": 2}}
    code, text = run(tmp_path, doc, "--command", "scan", "--n-max", "0")
    assert code == 0
    assert "nan" not in text
    levels = [level for e in json.loads(text)["surface"] for level in e["levels"]]
    assert [level.get("error") for level in levels] == ["ValidationError"] * 2


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
