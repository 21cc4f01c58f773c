"""In-memory spans around the package's public entry points.

The tracer replaces names in the modules that callers look them up from
(``cli.bound_states``, ``oracle.rk4_sweep``, ...) with timing wrappers, and
restores them afterwards. Nothing inside the package changes. A name that no
longer exists, or a kernel call whose arguments no longer bind to the
expected parameters, makes the metrics that depend on it *missing*; the run
goes on.
"""

import functools
import inspect
from time import perf_counter

from salpeter_hulthen import cli, oracle, spectra, wavefunctions

# (module, attribute, span name). Several attributes may feed one span name.
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "dumps_canonical", "cli.dumps_canonical"),
    (cli, "params_from_json", "potentials.params_from_json"),
    (cli, "bound_states", "spectra.bound_states"),
    (spectra, "bound_states", "spectra.bound_states"),
    (cli, "assemble", "wavefunctions.assemble"),
    (cli, "normalization_constant", "wavefunctions.normalization_constant"),
    (cli, "evaluate_on_grid", "wavefunctions.evaluate_on_grid"),
    (wavefunctions, "gauss_2f1", "special_functions.gauss_2f1"),
    (oracle, "salpeter_levels", "oracle.salpeter_levels"),
    (oracle, "fd_eigenvalues", "oracle.fd_eigenvalues"),
    (oracle, "mismatch_sweep", "oracle.mismatch_sweep"),
    (oracle, "rk4_sweep", "kernels.rk4_sweep"),
    (oracle, "frobenius_start", "kernels.frobenius_start"),
    (oracle, "g_laurent_q1", "kernels.g_laurent_q1"),
)

NAME, START, END, PARENT, OK, INFO = range(6)


def _sweep_shape(original):
    """Read (batch, nsteps) of a kernel call from its bound arguments."""
    signature = inspect.signature(original)

    def shape(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        return len(bound["g0s"]), int(bound["nsteps"])
    return shape


def _physical_count(result):
    return sum(1 for state in result if state.physical), len(result)


# span name -> what to keep in the span's info slot
_ARG_READERS = {"kernels.rk4_sweep": _sweep_shape}     # built from the wrapped function
_RESULT_READERS = {"spectra.bound_states": _physical_count, "oracle.salpeter_levels": len}


class Tracer:
    """Spans as lists [name, start, end, parent index, ok, info]."""

    def __init__(self):
        self.spans = []
        self.missing = set()      # span names whose wrapped attribute is gone
        self.unreadable = set()   # span names whose call shape changed
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            setattr(module, attr, self._wrap(original, name))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack
        read_args, read_result = None, _RESULT_READERS.get(name)
        if name in _ARG_READERS:
            try:
                read_args = _ARG_READERS[name](original)
            except (TypeError, ValueError):
                self.unreadable.add(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return original(*args, **kwargs)     # recursion: outermost span only
            span = [name, 0.0, 0.0, stack[-1] if stack else None, False, None]
            if read_args is not None:
                try:
                    span[INFO] = read_args(args, kwargs)
                except (TypeError, KeyError, ValueError):
                    self.unreadable.add(name)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[OK] = True
            if read_result is not None:
                try:
                    span[INFO] = read_result(result)
                except (TypeError, AttributeError):
                    self.unreadable.add(name)
            return result
        return wrapper


def _enclosing_levels(spans, span):
    """Index of the salpeter_levels span a span runs under, or None."""
    parent = span[PARENT]
    while parent is not None and spans[parent][NAME] != "oracle.salpeter_levels":
        parent = spans[parent][PARENT]
    return parent


def _stages(sweeps, spans):
    """Classify the kernel calls inside salpeter_levels by their shape.

    The first call of a salpeter_levels span is the scan and fixes the
    default-domain step count; later batch-1 calls with that count are
    bisection, and calls with more steps run on the extended (refinement)
    domain.
    """
    stages = {"scan": 0.0, "bisect": 0.0, "refine": 0.0}
    scan_steps = {}
    for span in sweeps:
        levels = _enclosing_levels(spans, span)
        if levels is None:
            continue
        batch, nsteps = span[INFO]
        dur = span[END] - span[START]
        if levels not in scan_steps:
            scan_steps[levels] = nsteps
            stages["scan"] += dur
        elif nsteps > scan_steps[levels]:
            stages["refine"] += dur
        elif batch == 1:
            stages["bisect"] += dur
    return stages


def layer_metrics(tracer, output_bytes):
    """Aggregate spans into per-layer metrics {name: (value, unit)}.

    Names follow <module>.<function>.<what>; the _kernels module is reported
    as ``kernels`` because a metric name must start with a letter.
    """
    spans = tracer.spans
    calls, total, child, failed = {}, {}, {}, {}
    for span in spans:
        name, dur = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        if not span[OK]:
            failed[name] = failed.get(name, 0) + 1
        if span[PARENT] is not None:
            pname = spans[span[PARENT]][NAME]
            child[pname] = child.get(pname, 0.0) + dur

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def self_s(name):
        return s(name) - child.get(name, 0.0)

    sweeps = [sp for sp in spans if sp[NAME] == "kernels.rk4_sweep" and sp[INFO]]
    b1 = [sp for sp in sweeps if sp[INFO][0] == 1]
    wide = [sp for sp in sweeps if sp[INFO][0] > 1]

    def ns_per_step(group):
        steps = sum(sp[INFO][0] * sp[INFO][1] for sp in group)
        return 1e9 * sum(sp[END] - sp[START] for sp in group) / steps if steps else 0.0

    roots = sum(sp[INFO] or 0 for sp in spans if sp[NAME] == "oracle.salpeter_levels")
    in_levels = sum(_enclosing_levels(spans, sp) is not None
                    for sp in spans if sp[NAME] == "kernels.rk4_sweep")
    branches = [sp[INFO] for sp in spans if sp[NAME] == "spectra.bound_states" and sp[INFO]]
    returned = sum(b[1] for b in branches)
    stages = _stages(sweeps, spans)

    # metric name -> (value, unit, span names it needs, needs the call shape)
    table = {
        "cli.main.calls": (n("cli.main"), "count", ["cli.main"], False),
        "cli.main.self_s": (self_s("cli.main"), "s", ["cli.main"], False),
        "cli.dumps_canonical.s": (s("cli.dumps_canonical"), "s", ["cli.dumps_canonical"], False),
        "cli.output_bytes": (output_bytes, "bytes", ["cli.main"], False),
        "potentials.params_from_json.s": (s("potentials.params_from_json"), "s",
                                          ["potentials.params_from_json"], False),
        "spectra.bound_states.calls": (n("spectra.bound_states"), "count",
                                       ["spectra.bound_states"], False),
        "spectra.bound_states.s": (s("spectra.bound_states"), "s",
                                   ["spectra.bound_states"], False),
        "spectra.physical_share": (sum(b[0] for b in branches) / returned if returned else 0.0,
                                   "ratio", ["spectra.bound_states"], True),
        "special_functions.gauss_2f1.calls": (n("special_functions.gauss_2f1"), "count",
                                              ["special_functions.gauss_2f1"], False),
        "special_functions.gauss_2f1.s": (s("special_functions.gauss_2f1"), "s",
                                          ["special_functions.gauss_2f1"], False),
        "special_functions.gauss_2f1.failed": (failed.get("special_functions.gauss_2f1", 0),
                                               "count", ["special_functions.gauss_2f1"], False),
        "wavefunctions.assemble.s": (s("wavefunctions.assemble"), "s",
                                     ["wavefunctions.assemble"], False),
        "wavefunctions.normalization_constant.calls": (
            n("wavefunctions.normalization_constant"), "count",
            ["wavefunctions.normalization_constant"], False),
        "wavefunctions.normalization_constant.s": (
            s("wavefunctions.normalization_constant"), "s",
            ["wavefunctions.normalization_constant"], False),
        "wavefunctions.normalization_constant.failed": (
            failed.get("wavefunctions.normalization_constant", 0), "count",
            ["wavefunctions.normalization_constant"], False),
        "wavefunctions.evaluate_on_grid.s": (s("wavefunctions.evaluate_on_grid"), "s",
                                             ["wavefunctions.evaluate_on_grid"], False),
        "oracle.salpeter_levels.calls": (n("oracle.salpeter_levels"), "count",
                                         ["oracle.salpeter_levels"], False),
        "oracle.salpeter_levels.self_s": (self_s("oracle.salpeter_levels"), "s",
                                          ["oracle.salpeter_levels"], False),
        "oracle.roots": (roots, "count", ["oracle.salpeter_levels"], True),
        "oracle.fd_eigenvalues.calls": (n("oracle.fd_eigenvalues"), "count",
                                        ["oracle.fd_eigenvalues"], False),
        "oracle.fd_eigenvalues.s": (s("oracle.fd_eigenvalues"), "s",
                                    ["oracle.fd_eigenvalues"], False),
        "oracle.mismatch_sweep.s": (s("oracle.mismatch_sweep"), "s",
                                    ["oracle.mismatch_sweep"], False),
        "oracle.scan.s": (stages["scan"], "s",
                          ["oracle.salpeter_levels", "kernels.rk4_sweep"], True),
        "oracle.bisect.s": (stages["bisect"], "s",
                            ["oracle.salpeter_levels", "kernels.rk4_sweep"], True),
        "oracle.refine.s": (stages["refine"], "s",
                            ["oracle.salpeter_levels", "kernels.rk4_sweep"], True),
        "oracle.integrations_per_root": (in_levels / roots if roots else 0.0, "ratio",
                                         ["oracle.salpeter_levels", "kernels.rk4_sweep"], True),
        "kernels.rk4_sweep.calls.batch1": (len(b1), "count", ["kernels.rk4_sweep"], True),
        "kernels.rk4_sweep.calls.wide": (len(wide), "count", ["kernels.rk4_sweep"], True),
        "kernels.rk4_sweep.s": (s("kernels.rk4_sweep"), "s", ["kernels.rk4_sweep"], False),
        "kernels.energy_steps": (sum(sp[INFO][0] * sp[INFO][1] for sp in sweeps), "count",
                                 ["kernels.rk4_sweep"], True),
        "kernels.ns_per_energy_step.batch1": (ns_per_step(b1), "ns", ["kernels.rk4_sweep"], True),
        "kernels.ns_per_energy_step.wide": (ns_per_step(wide), "ns", ["kernels.rk4_sweep"], True),
        "kernels.frobenius_start.calls": (n("kernels.frobenius_start"), "count",
                                          ["kernels.frobenius_start"], False),
        "kernels.frobenius_start.s": (s("kernels.frobenius_start") + s("kernels.g_laurent_q1"),
                                      "s", ["kernels.frobenius_start", "kernels.g_laurent_q1"],
                                      False),
    }
    metrics, missing = {}, []
    for key, (value, unit, needs, needs_shape) in table.items():
        gone = any(name in tracer.missing for name in needs)
        if gone or (needs_shape and any(name in tracer.unreadable for name in needs)):
            missing.append(key)
        else:
            metrics[key] = (value, unit)
    return metrics, missing
