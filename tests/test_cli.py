import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salpeter_hulthen import cli
from salpeter_hulthen.errors import ValidationError


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
           {"V0": 7.54e-287, "alpha": 1.796, "q": -0.488, "m1": 2.959, "m2": 2.959},
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
_KEYS = st.one_of(st.text(max_size=4),
                  st.sampled_from(["\u00e9t\u00e9", "a\"b", "\\", "\n", "\U0001f600"]))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCUMENTS, indent=st.integers(0, 3))
def test_writer_matches_the_reference_writer_byte_for_byte(doc, indent):
    assert cli.dumps_canonical(doc, indent) == _reference_dumps(doc, indent)


def test_writer_edge_values():
    doc = {"b": [math.nan, -math.inf, math.inf, -0.0, 5e-324], "a": {}, "c": [],
           "z": complex(math.nan, -0.0), "\u00e9": np.float32(0.1), "n": np.int64(-3)}
    for indent in range(4):
        assert cli.dumps_canonical(doc, indent) == _reference_dumps(doc, indent)
    assert cli.dumps_canonical(doc) == "\n".join([
        "{", '  "a": {},', '  "b": [', '    "nan",', '    "-inf",', '    "inf",', "    -0,",
        "    4.9406564584124654e-324", "  ],", '  "c": [],', '  "n": -3,', '  "z": {',
        '    "im": -0,', '    "re": "nan"', "  },", '  "\\u00e9": 0.10000000149011612', "}"])


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
# stencil: -0.01496422140373788 -> -0.014964221403716537, both within
# ROOT_XTOL of the residual's sign change
GOLDEN = {
    "spectrum": ({**BASE, "regime": "AllComplex", "q": 0.5},
                 ["--command", "spectrum", "--n-max", "2"],
                 "0dde572d0323033af120f8119ecc8965f641bb529a9112a2b70c8e4a82d06ecd"),
    "spectrum_real": (BASE, ["--command", "spectrum", "--n-max", "2"],
                      "a6b7bb8b9df650624967d6e781b7fe0534995e8b3c8a0681d41d320f927790b7"),
    "wavefunction_json": (BASE, ["--command", "wavefunction", "--n-max", "0",
                                 "--grid-points", "20", "--x-max", "12"],
                          "17da4ec79173ee67e627916b81830f5e6e511593eaad284117634af56a0fc594"),
    "wavefunction_csv": (BASE, ["--command", "wavefunction", "--n-max", "0", "--grid-points",
                                "20", "--x-max", "12", "--format", "csv"],
                         "c5f133c1ff46a0d69b6f68414f9ad6f416ac5d30cb744bc1143493fd5183f32a"),
    "scan": ({**BASE, "scan": {"param": "V0", "start": 0.85, "stop": 0.95, "points": 3}},
             ["--command", "scan", "--n-max", "1"],
             "00690bd12011cfce1cff2fa617c54d6753c08b21a65b4cc26a0694148f61ae7a"),
    "verify_nonrelativistic": ({**BASE, "V0": 2.0, "mode": "nonrelativistic"},
                               ["--command", "verify", "--n-max", "1"],
                               "f3ae6923c7274c8a6e6eb85fafb3fd1dac689b91571b70d7c76b7a84dd731fd8"),
    "count": (BASE, ["--command", "count"],
              "dd118c3ab2c6cea749236a58c819bc2e885fe0ba358e77cabc29549720dd6d24"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_golden_hash(tmp_path, name):
    doc, args, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert cli.main(["--config", write_config(tmp_path, doc), "--out", str(out), *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    # a bad --command after a good call is still an argparse exit 2
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, BASE, "--command", "bogus")
        assert exc.value.code == 2
    capsys.readouterr()
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
