"""Batch command-line front end.

Commands: spectrum, wavefunction, verify, scan, count. Parameters come from
a JSON config document; flags override config values. All output is
deterministic: sorted keys, 17-significant-digit floats, fixed row order.
Exit codes: 0 ok, 2 validation failure (an overflow or a division by zero
in a closed form, or a non-finite wavefunction, at extreme inputs included),
3 no bound state for any requested level, 4 oracle non-convergence. Every
nonzero exit writes a JSON error object to stderr.
"""

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, oracle
from .errors import (
    ComplexSpectrumError,
    NoBoundStateError,
    NonConvergentError,
    NotConvergedError,
    SalpeterError,
    ValidationError,
)
from .potentials import MassConfig, PotentialParams, params_from_json
from .spectra import Branch, bound_states, level_count, nonrelativistic_energy
from .wavefunctions import assemble, evaluate_on_grid, normalization_constant

_CONFIG_KEYS = {"V0", "alpha", "q", "regime", "m1", "m2",
                "command", "mode", "n_max", "grid_points", "x_max",
                "tolerance", "format", "scan"}
_COMMANDS = ("spectrum", "wavefunction", "verify", "scan", "count")
_SCAN_KEYS = {"param", "start", "stop", "points"}
# Highest accepted n_max: every command loops over n = 0..n_max, and the
# Rodrigues construction of a wavefunction divides by n!, which leaves the
# float range at n = 171.
N_MAX_CAP = 100
# Highest accepted grid_points: the JSON wavefunction writes about 80 bytes
# per point, 8 MB at the cap.
GRID_POINTS_CAP = 100_000
# Highest accepted scan.points: every point solves the n_max + 1 levels, so a
# scan is at most SCAN_POINTS_CAP * (N_MAX_CAP + 1) closed-form solves.
SCAN_POINTS_CAP = 1_000


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: PotentialParams
    masses: MassConfig
    mode: str = "salpeter"
    n_max: int = 0
    grid_points: int = 200
    x_max: float = 0.0
    tolerance: float = 1e-10
    format: str = "json"
    scan: tuple | None = None   # (param, start, stop, points)


def _number(value, name: str, low=-math.inf, high=math.inf, integral: bool = False):
    """value as a finite float (or int when integral) in [low, high]; bools and strings are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (integral and value != round(value))
            or not low <= value <= high):
        kind = "an integer" if integral else "a finite number"
        raise ValidationError(f"{name} must be {kind} in [{low}, {high}], got {value!r}")
    return int(value) if integral else float(value)


def build_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Validate the merged JSON document and produce a RunConfig."""
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    params, masses = params_from_json({k: merged.get(k) for k in
                                       ("V0", "alpha", "q", "regime", "m1", "m2")})
    command = merged.get("command")
    if command not in _COMMANDS:
        raise ValidationError(f"command must be one of {_COMMANDS}, got {command!r}")
    mode = merged.get("mode", "salpeter")
    if mode not in ("salpeter", "nonrelativistic"):
        raise ValidationError("mode must be 'salpeter' or 'nonrelativistic'")
    n_max = _number(merged.get("n_max", 0), "n_max", 0, N_MAX_CAP, integral=True)
    grid_points = _number(merged.get("grid_points", 200), "grid_points", 1, GRID_POINTS_CAP,
                          integral=True)
    x_max = _number(merged.get("x_max", 0.0), "x_max", 0.0)
    tolerance = _number(merged.get("tolerance", 1e-10), "tolerance", 0.0)
    if tolerance == 0.0:
        raise ValidationError("tolerance must be positive")
    fmt = merged.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError("format must be 'json' or 'csv'")
    scan = None
    if merged.get("scan") is not None:
        sdoc = merged["scan"]
        if not isinstance(sdoc, dict) or set(sdoc) != _SCAN_KEYS:
            raise ValidationError(f"scan block must have exactly the keys {sorted(_SCAN_KEYS)}")
        if sdoc["param"] not in ("V0", "alpha", "q"):
            raise ValidationError("scan.param must be one of V0, alpha, q")
        scan = (sdoc["param"], _number(sdoc["start"], "scan.start"),
                _number(sdoc["stop"], "scan.stop"),
                _number(sdoc["points"], "scan.points", 2, SCAN_POINTS_CAP, True))
    return RunConfig(command=command, params=params, masses=masses, mode=mode,
                     n_max=n_max, grid_points=grid_points, x_max=x_max,
                     tolerance=tolerance, format=fmt, scan=scan)


def config_echo(config: RunConfig) -> dict:
    doc = {
        "V0": config.params.v0, "alpha": config.params.alpha, "q": config.params.q,
        "regime": config.params.regime.value,
        "m1": config.masses.m1, "m2": config.masses.m2,
        "command": config.command, "mode": config.mode, "n_max": config.n_max,
        "grid_points": config.grid_points, "x_max": config.x_max,
        "tolerance": config.tolerance, "format": config.format,
    }
    if config.scan is not None:
        doc["scan"] = {"param": config.scan[0], "start": config.scan[1],
                       "stop": config.scan[2], "points": config.scan[3]}
    return doc


# ---------------------------------------------------------------------------
# Deterministic serialization: sorted keys, 17 significant digits.

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        return json.dumps(str(x))
    text = format(float(x), ".17g")
    return text


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key in sorted(obj):
            rows.append(f'{pad}  {json.dumps(str(key))}: {dumps_canonical(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {dumps_canonical(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps_canonical({"im": float(obj.imag), "re": float(obj.real)}, indent)
    return json.dumps(str(obj))


def _metadata(config: RunConfig) -> dict:
    return {"units": "hbar=c=1", "generator": "salpeter-hulthen",
            "version": __version__, "config_echo": config_echo(config)}


def _complex(obj) -> dict:
    z = complex(obj)
    return {"im": z.imag, "re": z.real}


# ---------------------------------------------------------------------------
# Command implementations. Each returns (payload_dict_or_text, exit_code).

def _aux_dict(aux) -> dict:
    return {
        "b": _complex(aux.b), "C": _complex(aux.big_c), "D": _complex(aux.big_d),
        "xi": _complex(aux.xi), "kappa": _complex(aux.kappa),
        "xi_tilde": _complex(aux.xi_tilde), "varsigma": _complex(aux.varsigma),
        "varsigma_tilde": _complex(aux.varsigma_tilde),
        "chi_sq_plus": _complex(aux.chi_sq[0]), "chi_sq_minus": _complex(aux.chi_sq[1]),
        "beta": _complex(aux.beta), "c": _complex(aux.c), "d": _complex(aux.d),
    }


def _finite_states(params, masses, n):
    """bound_states, refusing a closed form that left the float range (no "nan" energies)."""
    minus, plus = bound_states(params, masses, n)
    if not (cmath.isfinite(minus.energy) and cmath.isfinite(plus.energy)):
        raise ValidationError(f"level {n} energy is not finite at these parameters")
    return minus, plus


def _cmd_spectrum(config: RunConfig):
    levels = []
    failures = 0
    for n in range(config.n_max + 1):
        try:
            minus, plus = _finite_states(config.params, config.masses, n)
        except (NoBoundStateError, ComplexSpectrumError) as exc:
            levels.append({"n": n, "error": type(exc).__name__, "message": str(exc)})
            failures += 1
            continue
        levels.append({
            "n": n,
            "minus": _complex(minus.energy), "plus": _complex(plus.energy),
            "physical_minus": minus.physical, "physical_plus": plus.physical,
            "aux": _aux_dict(minus.aux),
        })
    code = 3 if failures == config.n_max + 1 else 0
    return {"metadata": _metadata(config), "levels": levels}, code


def _pick_state(config: RunConfig, n: int):
    minus, plus = bound_states(config.params, config.masses, n)
    state = plus if plus.physical or not minus.physical else minus
    return state


def _cmd_wavefunction(config: RunConfig):
    n = config.n_max
    state = _pick_state(config, n)
    wf = assemble(config.params, config.masses, state)
    norm_info = {}
    try:
        norm = normalization_constant(wf)
        wf = wf.with_norm(norm)
        norm_info["N"] = _complex(norm)
    except SalpeterError as exc:
        norm_info["error"] = type(exc).__name__
        norm_info["message"] = str(exc)
    x_max = config.x_max if config.x_max > 0 else 25.0 / config.params.alpha
    xs = np.linspace(0.0, x_max, config.grid_points)
    psi = evaluate_on_grid(wf, xs)
    if not np.all(np.isfinite(psi)):
        # a recorded normalization error alone leaves psi finite and exits 0
        raise ValidationError("wavefunction is not finite on the grid at these parameters")
    if config.format == "csv":
        rows = ["x,re_psi,im_psi"]
        for x, p in zip(xs, psi):
            rows.append(f"{_fmt_float(x)},{_fmt_float(p.real)},{_fmt_float(p.imag)}")
        return "\n".join(rows) + "\n", 0
    payload = {
        "metadata": _metadata(config),
        "n": n, "branch": state.branch.value, "energy": _complex(state.energy),
        "normalization": norm_info,
        "grid": [float(x) for x in xs],
        "psi": [_complex(p) for p in psi],
    }
    return payload, 0


def _cmd_verify(config: RunConfig):
    rows = []
    if config.mode == "nonrelativistic":
        formula = []
        for n in range(config.n_max + 1):
            try:
                formula.append(nonrelativistic_energy(config.params, config.masses.mu, n))
            except NoBoundStateError:
                break
        if not formula:
            return {"metadata": _metadata(config), "mode": config.mode, "rows": []}, 3
        oracle_vals = oracle.fd_eigenvalues(config.params, config.masses.mu,
                                            len(formula), h=0.005 / config.params.alpha)
        for n, (f, o) in enumerate(zip(formula, oracle_vals)):
            rows.append({"n": n, "formula": f, "oracle": float(o),
                         "abs_delta": abs(f - o), "rel_delta": abs(f - o) / max(abs(f), 1e-300)})
    else:
        formula = []
        for n in range(config.n_max + 1):
            try:
                minus, plus = bound_states(config.params, config.masses, n)
            except SalpeterError:
                continue
            for state in (minus, plus):
                if state.physical:
                    formula.append((n, state.branch.value, state.energy.real))
        roots = oracle.salpeter_levels(config.params, config.masses)
        used = set()
        for n, branch, e in sorted(formula, key=lambda t: t[2]):
            best = None
            for i, root in enumerate(roots):
                if i in used:
                    continue
                if best is None or abs(root - e) < abs(roots[best] - e):
                    best = i
            if best is None:
                rows.append({"n": n, "branch": branch, "formula": e, "oracle": None,
                             "abs_delta": None, "rel_delta": None})
                continue
            used.add(best)
            root = roots[best]
            rows.append({"n": n, "branch": branch, "formula": e, "oracle": root,
                         "abs_delta": abs(e - root),
                         "rel_delta": abs(e - root) / max(abs(e), 1e-300)})
        for i, root in enumerate(roots):
            if i not in used:
                rows.append({"n": None, "branch": None, "formula": None,
                             "oracle": root, "abs_delta": None, "rel_delta": None})
    return {"metadata": _metadata(config), "mode": config.mode, "rows": rows}, 0


def _cmd_scan(config: RunConfig):
    if config.scan is None:
        raise ValidationError("scan command needs a scan block in the config")
    name, start, stop, points = config.scan
    surface = []
    for value in np.linspace(start, stop, points):
        fields = {"V0": config.params.v0, "alpha": config.params.alpha, "q": config.params.q}
        fields[name] = float(value)
        entry = {"value": float(value), "levels": []}
        try:
            params = PotentialParams(fields["V0"], fields["alpha"], fields["q"],
                                     config.params.regime)
        except ValidationError as exc:
            entry["error"] = str(exc)
            surface.append(entry)
            continue
        for n in range(config.n_max + 1):
            try:
                minus, plus = _finite_states(params, config.masses, n)
                entry["levels"].append({"n": n, "minus": _complex(minus.energy),
                                        "plus": _complex(plus.energy),
                                        "physical_minus": minus.physical,
                                        "physical_plus": plus.physical})
            except SalpeterError as exc:
                entry["levels"].append({"n": n, "error": type(exc).__name__})
        surface.append(entry)
    return {"metadata": _metadata(config), "param": name, "surface": surface}, 0


def _cmd_count(config: RunConfig):
    predicted = level_count(config.params, config.masses.m_tilde / 2.0)
    roots = oracle.salpeter_levels(config.params, config.masses)
    payload = {"metadata": _metadata(config), "predicted": predicted,
               "oracle": len(roots), "oracle_roots": [float(r) for r in roots]}
    return payload, 0


def _emit(payload, config: RunConfig, out_path):
    text = payload if isinstance(payload, str) else dumps_canonical(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_exit(exc, code):
    sys.stderr.write(dumps_canonical({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="salpeter",
        description="Spectra and wavefunctions of the generalized-Hulthen spinless "
                    "Salpeter problem (hbar = c = 1).")
    parser.add_argument("--config", required=True, help="JSON parameter document")
    parser.add_argument("--command", choices=_COMMANDS, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--n-max", type=int, default=None, dest="n_max")
    parser.add_argument("--grid-points", type=int, default=None, dest="grid_points")
    parser.add_argument("--x-max", type=float, default=None, dest="x_max")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--mode", choices=("salpeter", "nonrelativistic"), default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError("config document must be a JSON object")
        config = build_config(doc, overrides={
            "command": args.command, "format": args.format, "n_max": args.n_max,
            "grid_points": args.grid_points, "x_max": args.x_max,
            "tolerance": args.tolerance, "mode": args.mode,
        })
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
        return _error_exit(exc, 2)

    handlers = {"spectrum": _cmd_spectrum, "wavefunction": _cmd_wavefunction,
                "verify": _cmd_verify, "scan": _cmd_scan, "count": _cmd_count}
    try:
        # numpy's RuntimeWarnings would break the one JSON document on stderr;
        # _finite_states and the psi check refuse the non-finite results anyway
        with np.errstate(all="ignore"):
            payload, code = handlers[config.command](config)
    except ValidationError as exc:
        return _error_exit(exc, 2)
    except (NotConvergedError, NonConvergentError) as exc:
        return _error_exit(exc, 4)
    except NoBoundStateError as exc:
        return _error_exit(exc, 3)
    except (SalpeterError, ArithmeticError) as exc:
        return _error_exit(exc, 2)
    _emit(payload, config, args.out)
    if code:
        # a handler's nonzero code means no requested level is bound; the
        # payload holds the per-level errors
        return _error_exit(NoBoundStateError("no bound state for any requested level"), code)
    return code


if __name__ == "__main__":
    sys.exit(main())
