import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "tasks_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
WIDE = [30.0, 40.0, 50.0, 30.0, 40.0, 50.0, 30.0, 40.0, 50.0, 45.0]


@pytest.mark.parametrize("spec, parent, change, verdict, beyond_iqr", [
    # better in 10/10 pairs by more than the parent's IQR
    (RATE, STEADY, [v + 1.0 for v in STEADY], "gain", True),
    # better in 8/10 pairs only: no gain, however large the median gap
    (RATE, STEADY, [v + 1.0 for v in STEADY[:8]] + [v - 0.5 for v in STEADY[8:]],
     "within bound", True),
    # a worse median never exceeds the parent's IQR in the change's favour
    (RATE, STEADY, [v - 1.0 for v in STEADY], "within bound", False),
    (RATE, STEADY, [v * 0.7 for v in STEADY], "regressed", False),
    # the parent's IQR is 40% of its median, beyond the 0.1 bound
    (RSS, WIDE, [41.0] * 10, "unresolved", False),
    # ... unless every run of the change is better than every run of the parent
    (RSS, WIDE, [29.0] * 10, "within bound", False),
])
def test_bench_pairs_verdicts(spec, parent, change, verdict, beyond_iqr):
    summary = bench_pairs._summary(spec, parent, change)
    assert summary["verdict"] == verdict
    assert summary["difference_exceeds_parent_iqr"] is beyond_iqr


def test_bits_digest_prints_the_same_four_lines_twice(capsys):
    spec = importlib.util.spec_from_file_location(
        "bits_digest", Path(__file__).resolve().parent.parent / "tools" / "bits_digest.py")
    bits_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bits_digest)
    runs = []
    for _ in range(2):
        assert bits_digest.main(["7"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == ["levels", "mismatch", "closed_forms", "cli"]
    assert all(len(line.split()[1]) == 64 for line in runs[0])


def _repo_files(root):
    """{path: mtime_ns} of every file under root outside .git."""
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")
            if path.is_file() and ".git" not in path.relative_to(root).parts}


def test_line_trace_lists_the_statements_a_run_never_reaches(tmp_path):
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_throwaway.py").write_text(
        "from salpeter_hulthen.potentials import PotentialParams, short_range_expansion\n\n\n"
        "def test_one_call():\n"
        "    assert short_range_expansion(PotentialParams(1.0, 1.0, 0.5), 0.1, 1) == -2.0 + 0.4\n")
    before = _repo_files(root)
    proc = subprocess.run([sys.executable, str(root / "tools" / "line_trace.py"),
                           str(tmp_path / "test_throwaway.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _repo_files(root) == before
    lines = proc.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src/salpeter_hulthen/")]
    assert listed and all(re.fullmatch(r"src/salpeter_hulthen/\w+\.py:\d+: \S.*", line)
                          for line in listed)
    sources = [line.split(": ", 1)[1] for line in listed if "/potentials.py:" in line]
    # the order check's raise never ran; its test and the imports did
    assert 'raise ValidationError("order must be 0 or 1")' in sources
    assert "if order not in (0, 1):" not in sources
    assert not any(source.startswith(("import ", "from ", "def ")) for source in sources)
    counts = dict(reversed(line.split()) for line in lines if re.fullmatch(r" *\d+  \S+", line))
    assert int(counts["potentials.py"]) == len(sources)
    assert lines[-1].endswith("total statements never run")
