#!/usr/bin/env python3
"""Wall time of the `salpeter` CLI commands, each run as a fresh process.

    python3 tools/cli_times.py [N] [COMMAND ...]

Runs each COMMAND (default: spectrum, wavefunction, verify, count) N times
(default 9) on one fixed config, (V0, alpha, q) = (0.9, 1, 1) in the Real
regime with m1 = m2 = 1, every command at its default flags. Each run is a
new Python process doing what the `salpeter` entry point does, with the
checkout's src/ on PYTHONPATH, so its time includes the interpreter start
and the package import. The rounds go through the commands in turn, so slow
spells of the host fall on every command alike. It prints one JSON line:
the best and the median wall time of each command, in seconds, with the
machine. The config and the outputs go to a temporary directory, removed on
exit; nothing is written inside the checkout.
"""

import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("spectrum", "wavefunction", "verify", "count")
CONFIG = {"V0": 0.9, "alpha": 1.0, "q": 1.0, "regime": "Real", "m1": 1.0, "m2": 1.0}
ENTRY_POINT = "import sys; from salpeter_hulthen.cli import main; sys.exit(main())"


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def times(commands, runs):
    """{command: [wall seconds of each run]}; raises if a run exits non-zero."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    out = {command: [] for command in commands}
    with tempfile.TemporaryDirectory(prefix="cli-times-") as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(CONFIG))
        for _ in range(runs):
            for command in commands:
                argv = [sys.executable, "-c", ENTRY_POINT, "--config", str(config),
                        "--command", command, "--out", str(Path(tmp) / "out")]
                start = time.perf_counter()
                proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp)
                wall = time.perf_counter() - start
                if proc.returncode != 0:
                    raise RuntimeError(f"{command} exited {proc.returncode}: {proc.stderr[:300]}")
                out[command].append(wall)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    runs = 9
    if argv and argv[0].isdigit():
        runs, argv = int(argv[0]), argv[1:]
    commands = tuple(argv) or COMMANDS
    if runs < 1 or not set(commands) <= set(COMMANDS):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    walls = times(commands, runs)
    print(json.dumps({
        "config": CONFIG,
        "runs": runs,
        "commands": {command: {"best_s": round(min(values), 4),
                               "median_s": round(statistics.median(values), 4)}
                     for command, values in walls.items()},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _version("numpy"), "scipy": _version("scipy"),
                    "numba_importable": importlib.util.find_spec("numba") is not None},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
