import json

import pytest

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


def test_spectrum_zero_coupling_exits_3(tmp_path):
    code, _ = run(tmp_path, {**BASE, "V0": 0.0}, "--command", "spectrum")
    assert code == 3


def test_spectrum_limit_value(tmp_path):
    code, text = run(tmp_path, {**BASE, "V0": 1e-12}, "--command", "spectrum", "--n-max", "0")
    assert code == 0
    level = json.loads(text)["levels"][0]
    assert level["minus"]["re"] == pytest.approx(-3.7320508, rel=1e-6)


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
           {"n_max": cli.N_MAX_CAP + 1}, {"n_max": 100000000}]
    for fields in bad:
        command = "scan" if "scan" in fields else "spectrum"
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
