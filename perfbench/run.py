#!/usr/bin/env python3
"""Benchmark of the salpeter-hulthen package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): oracle_verify, cli_closed_form, mismatch_scan.
Each runs as a closed loop: one client in this process, no worker threads,
the next task starts when the previous one returns. A run executes whole
rounds of its workload's task mix and stops before a round that would end
past --seconds (it always runs at least one).

--trace 0 prints the end-to-end metrics. Every time among them is given at
reference speed (see speed.py): the host's speed is sampled all through the
run and each measured time is scaled to a fixed speed, so the figures do not
follow the shared CPU's swings. The report keeps the measured seconds.
Set-up time is the median over SETUP_PROBES fresh processes, each timed
from its start to the end of its first, untimed warm-up task.

--trace 1 runs each task twice in a row, first untraced and then with spans
around the package's public entry points, and prints the per-layer metrics
of the traced runs plus the tracing overhead, in measured seconds.

Output checks run after the timed region. "failed" counts every task that
raised, exited with an undocumented code or failed its check, documented
closed-form findings included; "correct" is false when any other check
fails. The last line of standard output is the result JSON; the line before
it is a report with machine facts, the check verdicts, the findings and the
figures that are not metrics (task_s.p90, failed_ratio, measured seconds).
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
P90_MIN_TASKS = 100


def _setup_probe(args):
    """In a fresh process: import, build the inputs, run the warm-up task."""
    with SpeedSampler() as sampler, \
            tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        start = perf_counter()
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.run(workload.tasks[0])
        end = perf_counter()
        print(json.dumps({"sampled_s": sampler.overhead(start, end)[0],
                          "speed": sampler.speed(start, end)}), flush=True)
    return 0


def _setup_seconds(workload, seed):
    """(at reference speed, measured) set-up seconds of one fresh process."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    probe = json.loads(line)
    return (elapsed - probe["sampled_s"]) * probe["speed"], elapsed


def _timed(workload, task):
    """One task as a record (task, start, end, outcome, error)."""
    t0 = perf_counter()
    try:
        outcome, error = workload.run(task), None
    except Exception as exc:   # a raising task is a failed task; keep running
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return task, t0, perf_counter(), outcome, error


def _run_rounds(workload, seconds, step):
    """Closed loop over whole rounds; step(task) runs a task and returns its records."""
    records = []
    start = perf_counter()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    done = 0
    while True:
        for task in workload.tasks:
            records.extend(step(task))
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            break
    end = perf_counter()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return records, start, end, cpu, done


def _check(workload, records):
    findings, failures = [], []
    for task, _, _, outcome, error in records:
        verdict = {"why": error} if error else workload.check(task, outcome)
        if verdict is not None:
            verdict = {"task": task.kind, **verdict}
            (findings if verdict.pop("finding", False) else failures).append(verdict)
    return findings, failures


def _machine():
    from salpeter_hulthen import _kernels
    import numpy
    import scipy
    backend = getattr(_kernels, "active_backend", None)
    try:
        resolved = backend() if backend else "unavailable"
    except RuntimeError as exc:
        resolved = f"error: {exc}"
    try:
        # the ceiling keeps git from searching above the checkout
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": resolved, "git_describe": git,
        "SALPETER_BACKEND": os.environ.get("SALPETER_BACKEND"),
        "SALPETER_THREADS": os.environ.get("SALPETER_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return _setup_probe(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2

    setup = [] if args.trace else [_setup_seconds(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            workload.run(workload.tasks[0])     # warm-up, untimed
            records, metrics = _traced(args, workload, report)
        else:
            with SpeedSampler() as sampler:
                workload.run(workload.tasks[0])     # warm-up, untimed
                records, start, end, cpu, rounds = _run_rounds(
                    workload, args.seconds, lambda task: [_timed(workload, task)])
            metrics = _end_to_end(records, start, end, cpu, setup, sampler, report)
            report["rounds"] = rounds
        findings, failures = _check(workload, records)

    failed = len(findings) + len(failures)
    report.update({"machine": _machine(), "failed_ratio": failed / len(records),
                   "findings": findings, "unexpected_failures": failures})
    if args.workload == "oracle_verify":
        report["oracle_h_alpha"] = workloads.ORACLE_H_ALPHA
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not failures, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _end_to_end(records, start, end, cpu, setup, sampler, report):
    n = len(records)
    speed = sampler.speed(start, end)
    sampled_wall, sampled_cpu = sampler.overhead(start, end)
    times = sorted(sampler.at_reference(t0, t1) for _, t0, t1, _, _ in records)
    measured = sorted(t1 - t0 for _, t0, t1, _, _ in records)
    wall = end - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = statistics.quantiles(times, n=10)[-1] if n >= P90_MIN_TASKS else \
        f"omitted: {n} tasks < {P90_MIN_TASKS}"
    report.update({
        "tasks": n, "task_s.p90": p90, "mean_speed": speed,
        "speed_samples": len(sampler.starts), "sampled_share": sampled_wall / wall,
        "measured": {"setup_s": [s for _, s in setup], "task_s.p50": statistics.median(measured),
                     "tasks_per_s": n / wall, "cpu_s.per_task": cpu / n, "timed_phase_s": wall},
    })
    return {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "task_s.p50": (statistics.median(times), "s"),
        "tasks_per_s": (n / ((wall - sampled_wall) * speed), "1/s"),
        "cpu_s.per_task": ((cpu - sampled_cpu) * speed / n, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _traced(args, workload, report):
    """Each task runs untraced and then traced, so both see the same host speed."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()

    def step(task):
        plain = _timed(workload, task)
        tracer.install()
        try:
            return [plain, _timed(workload, task)]
        finally:
            tracer.uninstall()

    records, _, _, _, rounds = _run_rounds(workload, args.seconds, step)
    plain, traced = records[0::2], records[1::2]
    written = workload.output_bytes(traced) if hasattr(workload, "output_bytes") else 0
    metrics, missing = layer_metrics(tracer, written)
    untraced_s, traced_s = (sum(t1 - t0 for _, t0, t1, _, _ in part) for part in (plain, traced))
    metrics["trace.overhead_share"] = (1.0 - untraced_s / traced_s, "ratio")
    report.update({"rounds": rounds, "tasks_per_pass": len(plain),
                   "untraced_tasks_per_s": len(plain) / untraced_s,
                   "traced_tasks_per_s": len(traced) / traced_s,
                   "spans": len(tracer.spans), "missing_metrics": missing})
    return records, metrics


if __name__ == "__main__":
    sys.exit(main())
