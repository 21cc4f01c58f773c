#!/usr/bin/env python3
"""One sha256 per output surface of the benchmark's inputs, to show a change keeps the bits.

    python3 tools/bits_digest.py SEED [SEED ...]

Builds perfbench's workloads at each seed (its workloads module is imported,
never changed) and prints one line "NAME SHA256" for each surface:
- levels: the float.hex of the roots of every oracle_verify task;
- mismatch: the float64 bytes of every mismatch_scan sweep;
- closed_forms: `spectra.classify_level`'s pair and verdicts for n = 0..7
  on the oracle_verify draws and the cli_closed_form documents, as float.hex,
  or the exception's type and message;
- cli: the kind, exit code, stderr and --out bytes of every cli_closed_form
  task.
Run it on two trees and compare the lines. Files are written only to a
temporary directory, which is removed on exit.
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from salpeter_hulthen import spectra  # noqa: E402
from salpeter_hulthen.errors import SalpeterError  # noqa: E402
from salpeter_hulthen.potentials import params_from_json  # noqa: E402

SURFACES = ("levels", "mismatch", "closed_forms", "cli")
LEVELS = range(8)


def _workloads():
    """perfbench/workloads.py as a module."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _closed_forms(params, masses):
    """classify_level for n in LEVELS, as lines of float.hex or the exception."""
    lines = []
    for n in LEVELS:
        try:
            pair, verdicts = spectra.classify_level(params, masses, n)
        except (SalpeterError, ArithmeticError) as exc:
            lines.append(f"{n} {type(exc).__name__}: {exc}")
            continue
        parts = [part.hex() for z in pair for part in (z.real, z.imag)]
        lines.append(f"{n} {' '.join(parts)} {verdicts}")
    return lines


def digests(seeds):
    """{surface: sha256 hex digest} over the workloads at every seed in turn."""
    workloads = _workloads()
    hashes = {name: hashlib.sha256() for name in SURFACES}

    def feed(name, text):
        hashes[name].update(text.encode("utf-8") + b"\n")

    with tempfile.TemporaryDirectory(prefix="bits-digest-") as tmp:
        for seed in seeds:
            for name in SURFACES:
                feed(name, f"seed {seed}")
            verify = workloads.OracleVerify(seed, tmp)
            for task in verify.tasks:
                roots, _ = verify.run(task)
                feed("levels", f"{task.kind} {' '.join(r.hex() for r in roots)}")
                for line in _closed_forms(task.spec["params"], task.spec["masses"]):
                    feed("closed_forms", line)
            scan = workloads.MismatchScan(seed, tmp)
            for task in scan.tasks:
                hashes["mismatch"].update(np.asarray(scan.run(task), dtype="<f8").tobytes())
            workdir = Path(tmp) / f"cli-{seed}"
            workdir.mkdir()
            cli = workloads.CliClosedForm(seed, workdir)
            documents = {}
            for task in cli.tasks:
                doc = {key: value for key, value in task.spec["doc"].items() if key != "scan"}
                documents.setdefault(json.dumps(doc, sort_keys=True), doc)
            for text, doc in documents.items():
                feed("closed_forms", text)
                for line in _closed_forms(*params_from_json(doc)):
                    feed("closed_forms", line)
            for task in cli.tasks:
                code, err = cli.run(task)
                out = task.spec["out"]
                data = out.read_bytes() if out.exists() else b""
                feed("cli", f"{task.kind} {code} {len(data)} {err!r}")
                hashes["cli"].update(data)
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not all(arg.isdigit() for arg in argv):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    for name, digest in digests([int(arg) for arg in argv]).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
