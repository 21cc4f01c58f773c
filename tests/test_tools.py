import importlib.util
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
