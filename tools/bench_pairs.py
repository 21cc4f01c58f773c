#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --workload NAME --seed N \
        [--pairs 10] [--seconds 20] [--out FILE]

Runs `perfbench/run.py --workload NAME --seed N --seconds S --trace 0` in
pairs. One side is a `git archive` of REV, the other a copy of the working
tree (tracked files and untracked ones that git does not ignore); both get
the working tree's perfbench/, so only the package differs. Odd pairs run
the change first, even pairs the parent. Each side runs in its own
temporary directory, removed on exit, and each run in its own process
group, which is killed if the tool is interrupted.

For every end-to-end metric of BENCHMARK.json it reports each side's
median and quartiles (statistics.quantiles, n=4, inclusive), the parent's
interquartile range, the per-pair ratios change/parent, the pairs in which
the change is better (a tie counts for neither side), and a verdict, the
first of these that holds:
- "regressed": the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
- "gain": the change is better in at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range (difference_exceeds_parent_iqr, which counts a
  better median only);
- "unresolved": the parent's own interquartile range, as a share of its
  median, is wider than the bound, and not every run of the change is
  better than every run of the parent, so the runs cannot tell a change
  within the bound from one beyond it;
- "within bound".
The JSON goes to stdout, or into FILE under "workloads" -> NAME, keeping
FILE's other keys.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def _parent_tree(rev, dest):
    """A git archive of rev under dest, with the working tree's perfbench/."""
    archive = dest.parent / "parent.tar"
    with open(archive, "wb") as fh:
        _git("archive", "--format=tar", rev, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def _change_tree(dest):
    """The working tree's tracked and unignored untracked files, copied under dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                  capture_output=True).stdout.split(b"\0")
    for name in filter(None, (entry.decode() for entry in listed)):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(tree, workload, seed, seconds):
    """(metrics, report) of one perfbench run in tree."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(command, cwd=tree, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=20 * seconds + 600)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode} in {tree}")
    lines = out.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, report, result


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _summary(spec, parent, change):
    higher = spec["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = _quartiles(parent), _quartiles(change)
    p_iqr = p_q[1] - p_q[0]
    ratio = c_med / p_med if p_med else None
    worse_by = None if ratio is None else (1.0 - ratio if higher else ratio - 1.0)
    better_by = c_med - p_med if higher else p_med - c_med
    better_pairs = sum(better(c, p) for p, c in zip(parent, change))
    if worse_by is not None and worse_by > spec["bound"]:
        verdict = "regressed"
    elif 10 * better_pairs >= 9 * len(parent) and better_by > p_iqr:
        verdict = "gain"
    elif p_med and p_iqr / abs(p_med) > spec["bound"] \
            and not all(better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent_median": p_med, "parent_quartiles": p_q, "parent_iqr": p_iqr,
        "change_median": c_med, "change_quartiles": c_q, "median_ratio": ratio,
        "median_difference": c_med - p_med,
        "difference_exceeds_parent_iqr": better_by > p_iqr,
        "pair_ratios": [c / p if p else None for p, c in zip(parent, change)],
        "change_better_pairs": better_pairs,
        "pairs": len(parent),
        "verdict": verdict,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="JSON file to write the result into")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    # a SIGTERM unwinds like Ctrl-C: the running perfbench group is killed
    # and the temporary trees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = _git("rev-parse", "--short", args.parent, capture_output=True,
                      text=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _parent_tree(args.parent, trees["parent"])
        _change_tree(trees["change"])
        for pair in range(1, args.pairs + 1):
            order = ("change", "parent") if pair % 2 else ("parent", "change")
            for side in order:
                metrics, report, result = _run(trees[side], args.workload, args.seed,
                                               args.seconds)
                runs.append({"pair": pair, "side": side, "metrics": metrics,
                             "attempted": result["attempted"], "failed": result["failed"],
                             "correct": result["correct"], "tasks": report.get("tasks"),
                             "mean_speed": report.get("mean_speed")})
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in metrics.items()), file=sys.stderr, flush=True)
        machine = report["machine"]

    def side_values(side, name):
        return [run["metrics"][name] for run in runs if run["side"] == side]

    result = {
        "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds, "parent": parent_rev,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": {key: machine.get(key) for key in ("nproc", "python", "numpy", "scipy",
                                                      "numba_importable")},
        "failed_share": {side: sorted({run["failed"] / run["attempted"] for run in runs
                                       if run["side"] == side}) for side in ("parent", "change")},
        "correct": {side: all(run["correct"] for run in runs if run["side"] == side)
                    for side in ("parent", "change")},
        "summary": {spec["name"]: _summary(spec, side_values("parent", spec["name"]),
                                           side_values("change", spec["name"]))
                    for spec in bench["end_to_end"]},
        "runs": runs,
    }
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = result
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
