"""The three benchmark workloads: seeded inputs, tasks and output checks.

A workload's tasks form one *round*: a fixed list of task kinds whose
parameters are drawn from the seed, so every run executes the same mix of
kinds and only the draws inside each kind's box change with the seed. Runs
always execute whole rounds; see run.py.

Each task returns an outcome; `check` inspects it outside the timed region
and returns None when it passes, or a verdict dict. A verdict with
``"finding": True`` is a documented disagreement of a closed form with the
numerical oracle (the oracle is authoritative); it still counts as a failed
task, and it is listed in the report, never dropped.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from salpeter_hulthen import cli, oracle, spectra
from salpeter_hulthen.errors import SalpeterError
from salpeter_hulthen.potentials import MassConfig, PotentialParams

ROOT = Path(__file__).resolve().parent.parent

# The oracle's default step is h * alpha = 0.01; it refuses more than 0.05.
# Every stage (scan, bisection, refinement) costs a number of RK4 steps
# proportional to 1/h, so a step near the coarsest accepted one keeps the
# stage shares while a round of nine draws fits in a run: at the default
# step the (0.9, 1, 1) draw alone takes over 30 s. The 1e-4 match rule still
# holds with ample margin.
ORACLE_H_ALPHA = 0.049
MATCH_REL = 1e-4            # criterion-5 root match
FD_ABS_TOL = 1e-5           # criterion-2 nonrelativistic tolerance
REF_REL, REF_ABS = 1e-10, 1e-12   # pytest.approx(rel=1e-10) of the reference-integrator test
SWEEP_ENERGIES = 2000
MC1 = MassConfig.equal(1.0)


@dataclass
class Task:
    kind: str
    spec: dict


def _stratified(rng, lo, hi, n):
    """n draws from [lo, hi], one in each of n equal strata, in random order."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _window(masses):
    # the default window of oracle.salpeter_levels
    edge = min(masses.total, 2.0 * masses.m_tilde)
    delta = 1e-8 * max(1.0, edge)
    return -edge + delta, -delta


# ---------------------------------------------------------------------------
# oracle_verify: one salpeter_levels draw matched against the physical
# closed-form branches for n <= 7 (criterion 5).

# kind -> (q, masses, alpha box, V0 box, V0 given as a multiple of alpha?)
# Each box keeps its draws on one path through the oracle, so the seed moves
# the inputs but not the amount of work: the q = 1 boxes sit inside
# criterion-5's boxes, away from the coupling where a level crosses
# threshold (there the refinement domain 16/kappa runs up to its 2000/alpha
# cap and one draw can cost minutes), and each q != 1 box holds exactly one
# deep level, which needs no refinement.
_ORACLE_KINDS = {
    "empty": (1.0, MC1, (0.6, 1.1), (0.3, 0.6), True),                 # scan-led
    "single_level": (1.0, MC1, (0.97, 1.03), (0.94, 0.95), True),      # refine-led
    "unequal_mass": (1.0, MassConfig(0.8, 1.3), (0.97, 1.03), (0.91, 0.92), True),
    "multi_level": (1.0, MC1, (0.145, 0.155), (0.925, 0.935), True),     # bisect-led
    "q_half": (0.5, MC1, (0.98, 1.02), (3.7, 3.9), False),              # bisect-led
    "q_minus_one": (-1.0, MC1, (0.97, 1.03), (6.1, 6.4), False),
}
# Five of the nine draws are refinement-led and each costs more than any of
# the other four, so the median task refines, and refinement is the largest
# stage, as it is for criterion-5 draws.
_ORACLE_ROUND = ("empty", "single_level", "q_half", "unequal_mass", "multi_level",
                 "unequal_mass", "q_minus_one", "single_level", "unequal_mass")
ONE_LEVEL_REL = 1e-4        # q != 1: the mismatch changes sign across root * (1 -+ this)


class OracleVerify:
    name = "oracle_verify"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.tasks = []
        for kind in _ORACLE_ROUND:
            q, masses, abox, vbox, relative = _ORACLE_KINDS[kind]
            alpha = rng.uniform(*abox)
            v0 = rng.uniform(*vbox) * (alpha if relative else 1.0)
            self.tasks.append(Task(kind, {"params": PotentialParams(v0, alpha, q),
                                          "masses": masses}))

    def run(self, task):
        p, m = task.spec["params"], task.spec["masses"]
        roots = oracle.salpeter_levels(p, m, h=ORACLE_H_ALPHA / p.alpha)
        physical = []
        for n in range(8):
            try:
                pair = spectra.bound_states(p, m, n)
            except SalpeterError:
                continue
            physical.extend(s.energy.real for s in pair if s.physical)
        return [float(r) for r in roots], physical

    @staticmethod
    def _one_level(p, m, deep_roots):
        """q != 1: None if the box's one deep level is found, else the reason.

        The closed forms do not apply off q = 1, so the oracle is checked on
        its own terms: one root above the floor, at which its mismatch, taken
        again as a batch of two energies, changes sign.
        """
        if len(deep_roots) != 1:
            return f"{len(deep_roots)} roots above the floor; the box holds one deep level"
        r = deep_roots[0]
        lo, hi = oracle.mismatch_sweep(p, m, [r * (1 + ONE_LEVEL_REL), r * (1 - ONE_LEVEL_REL)],
                                       h=ORACLE_H_ALPHA / p.alpha)
        if np.sign(lo) == np.sign(hi):
            return "the mismatch does not change sign across the root at rel 1e-4"
        return None

    def check(self, task, outcome):
        p, m = task.spec["params"], task.spec["masses"]
        roots, physical = outcome
        lo, hi = _window(m)
        if not all(math.isfinite(r) and lo <= r <= hi for r in roots):
            return {"why": "oracle root outside the window or not finite", "roots": roots}
        floor = 0.01 * p.alpha ** 2 / (2.0 * m.mu)
        deep_roots = [r for r in roots if abs(r) > floor]
        if p.q != 1.0:
            why = self._one_level(p, m, deep_roots)
            if why:
                return {"why": why, "params": [p.v0, p.alpha, p.q], "oracle_roots": roots}
        deep_formula = [e for e in physical if abs(e) > floor]
        unmatched = [r for r in deep_roots
                     if not physical or min(abs(e - r) for e in physical) > MATCH_REL * abs(r)]
        if not unmatched and len(deep_roots) == len(deep_formula):
            return None
        return {"why": "oracle roots above the floor do not match the physical closed-form "
                       "branches one to one at rel 1e-4",
                # criterion 5 asserts the match for q = 1 only. Off q = 1 the
                # closed forms equal the q = 1 ones at V0/q, i.e. they solve
                # the problem with psi = 0 at x = ln(q)/alpha, not at x = 0;
                # the oracle passed its own check above
                "finding": p.q != 1.0,
                "params": [p.v0, p.alpha, p.q], "masses": [m.m1, m.m2],
                "oracle_roots": roots, "physical_formula": physical, "floor": floor}


# ---------------------------------------------------------------------------
# cli_closed_form: in-process cli.main calls writing to a file.

_REGIMES = ("Real", "ComplexAlpha", "ComplexV0Q", "AllComplex")
_GRID_POINTS = 200
CLI_DRAWS = 8               # draws per document kind, regime and q class in a round


def _cli_templates():
    """(command flags, regime, q class) of the 34 command templates."""
    out = []
    for regime in _REGIMES:
        for q_class in ("standard", "generalized"):
            out.append((("--command", "spectrum", "--n-max", "3"), regime, q_class))
            out.append((("--command", "wavefunction", "--n-max", "1"), regime, q_class))
            out.append((("--command", "wavefunction", "--n-max", "1", "--format", "csv"),
                        regime, q_class))
            out.append((("--command", "scan", "--n-max", "2"), regime, q_class))
    for q_class in ("standard", "generalized"):
        out.append((("--command", "verify", "--mode", "nonrelativistic", "--n-max", "2"),
                    "Real", q_class))
    return out


def _doc_kind(flags):
    """spectrum and both wavefunction formats read the same kind of document."""
    return flags[1] if flags[1] in ("scan", "verify") else "plain"


class CliClosedForm:
    name = "cli_closed_form"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        workdir = Path(workdir)
        templates = _cli_templates()
        # per document kind, regime and q class, the round's draws of each
        # parameter are stratified over its box, so every seed spreads the
        # same work over the round
        draws = {}
        for flags, regime, q_class in templates:
            key = (_doc_kind(flags), regime, q_class)
            if key in draws:
                continue
            verify = key[0] == "verify"
            # q = 1 is the standard Hulthen potential; there the complex
            # regimes put the 2F1 argument on the unit circle, which is the
            # slow normalization path
            qs = [1.0] * CLI_DRAWS if q_class == "standard" else \
                _stratified(rng, 0.3, 0.8, CLI_DRAWS)
            # verify: beta = 2 mu V0 / (q alpha^2) in [2, 3.5], one bound level
            # where the two-grid finite-difference oracle converges; else
            # V0/alpha, below 1.3, where the AllComplex q = 1 wavefunction
            # leaves its slow 2F1 path, so every seed has the same slow tasks
            alphas = _stratified(rng, *((0.5, 1.2) if verify else (0.6, 1.2)), CLI_DRAWS)
            factors = _stratified(rng, *((2.0, 3.5) if verify else (0.4, 1.3)), CLI_DRAWS)
            draws[key] = list(zip(qs, alphas, factors))
        self.tasks = []
        for d in range(CLI_DRAWS):
            docs = {}
            for key, per_draw in draws.items():
                q, alpha, factor = per_draw[d]
                v0 = factor * (q * alpha * alpha if key[0] == "verify" else alpha)
                doc = {"V0": v0, "alpha": alpha, "q": q, "regime": key[1],
                       "m1": 1.0, "m2": 1.0}
                if key[0] == "scan":
                    doc["scan"] = {"param": "V0", "start": 0.5 * v0, "stop": 1.5 * v0,
                                   "points": 20}
                path = workdir / f"cfg{len(docs)}-{d}.json"
                path.write_text(json.dumps(doc))
                docs[key] = doc, path
            for flags, regime, q_class in templates:
                doc, path = docs[(_doc_kind(flags), regime, q_class)]
                out = workdir / f"out{len(self.tasks)}"
                kind = f"{flags[1]}{'-csv' if 'csv' in flags else ''}:{regime}:{q_class}"
                self.tasks.append(Task(kind,
                                       {"doc": doc, "flags": flags, "out": out,
                                        "argv": ["--config", str(path), *flags, "--out", str(out)]}))

    def run(self, task):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(task.spec["argv"])
        return code, err.getvalue()

    @staticmethod
    def _overrides(flags):
        pairs = dict(zip(flags[::2], flags[1::2]))
        return {"command": pairs.get("--command"), "format": pairs.get("--format"),
                "mode": pairs.get("--mode"),
                "n_max": int(pairs["--n-max"]) if "--n-max" in pairs else None}

    def output_bytes(self, records):
        """Bytes the CLI wrote over the given task records."""
        return sum(task.spec["out"].stat().st_size for task, *_ in records
                   if task.spec["out"].exists())

    def check(self, task, outcome):
        """Exit code and stderr of this call; the output file holds the last
        call on this input, which a deterministic program repeats exactly."""
        code, err = outcome
        flags = task.spec["flags"]
        if code not in (0, 3):
            return {"why": f"exit code {code}", "stderr": err[:300]}
        path = task.spec["out"]
        if not path.exists() or path.stat().st_size == 0:
            try:
                # a first-time RuntimeWarning may precede the JSON error
                json.loads(err[err.find("{"):])["error"]
            except (ValueError, KeyError, TypeError):
                return {"why": "no output and no JSON error on stderr", "stderr": err[:300]}
            return None
        text = path.read_text(encoding="utf-8")
        if "csv" in flags:
            rows = text.split("\n")
            if rows[0] != "x,re_psi,im_psi" or rows[-1] != "" \
                    or len(rows) != _GRID_POINTS + 2:
                return {"why": "CSV layout"}
            try:
                values = [float(v) for row in rows[1:-1] for v in row.split(",")]
            except ValueError:
                return {"why": "CSV value does not parse"}
            if not all(math.isfinite(v) for v in values):
                return {"why": "non-finite psi in CSV"}
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return {"why": "output is not JSON"}
        expected = cli.build_config(task.spec["doc"], self._overrides(flags))
        if cli.build_config(payload["metadata"]["config_echo"]) != expected:
            return {"why": "config_echo does not re-ingest to the same RunConfig"}
        if "psi" in payload:
            # dumps_canonical writes non-finite floats as strings
            parts = [z[k] for z in payload["psi"] for k in ("re", "im")]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in parts):
                return {"why": "non-finite psi in JSON"}
        for row in payload.get("rows", []):
            if not (row["abs_delta"] is not None and row["abs_delta"] <= FD_ABS_TOL):
                # off q = 1 the closed form vanishes at x = ln(q)/alpha, not
                # at x = 0 (see OracleVerify.check)
                return {"why": "verify row beyond the criterion-2 tolerance", "row": row,
                        "finding": task.spec["doc"]["q"] != 1.0}
        return None


# ---------------------------------------------------------------------------
# mismatch_scan: one oracle.mismatch_sweep over 2000 energies spanning the
# binding window.

def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "salpeter_reference_integrator", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_rk4_trajectory


# three of five draws at q = 1 so the median task is a q = 1 sweep, which
# pays the per-energy Frobenius start on top of the step loop
_SWEEP_KINDS = (0.5, 1.0, -1.0, 1.0, 1.0)
SWEEP_DRAWS = 2             # draws of each kind in a round


class MismatchScan:
    name = "mismatch_scan"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.energies = np.linspace(*_window(MC1), SWEEP_ENERGIES)
        self._reference = None
        self.tasks = []
        for _ in range(SWEEP_DRAWS):
            for q in _SWEEP_KINDS:
                alpha = rng.uniform(0.6, 1.1)
                if q == 1.0:
                    v0 = rng.uniform(0.86, 0.96) * alpha
                else:
                    v0 = rng.uniform(0.5, 3.0)
                probes = sorted(rng.sample(range(SWEEP_ENERGIES), 2))
                self.tasks.append(Task(f"q={q:g}", {"params": PotentialParams(v0, alpha, q),
                                                    "probes": probes}))

    def run(self, task):
        return oracle.mismatch_sweep(task.spec["params"], MC1, self.energies)

    def _reference_value(self, params, energy):
        if self._reference is None:
            self._reference = _load_reference()
        prob = oracle.EffectiveProblem(params, MC1)
        g0, g1, g2 = prob.g_coefficients(energy)
        x0, u0, v0 = prob.start_state(energy)

        def g_of_x(x):
            s = np.exp(-params.alpha * x)
            r = s / (1 - params.q * s)
            return g0 + g1 * r + g2 * r * r

        nsteps = int(round((prob.x_max - x0) / prob.h))
        _, us = self._reference(g_of_x, x0, u0, v0, prob.h, nsteps)
        return us[-1] / np.max(np.abs(us))

    def check(self, task, outcome):
        values = np.asarray(outcome)
        if values.shape != (SWEEP_ENERGIES,) or not np.all(np.isfinite(values)):
            return {"why": "sweep values missing or not finite"}
        for i in task.spec["probes"]:
            energy = float(self.energies[i])
            ref = self._reference_value(task.spec["params"], energy)
            if abs(values[i] - ref) > max(REF_REL * abs(ref), REF_ABS):
                return {"why": "sweep disagrees with the reference integrator",
                        "energy": energy, "value": float(values[i]), "reference": float(ref)}
        return None


WORKLOADS = {w.name: w for w in (OracleVerify, CliClosedForm, MismatchScan)}
