"""Batch command-line front end.

Commands: spectrum, wavefunction, verify, scan, count. Parameters come from
a JSON config document. Each run option in OPTIONS is both a document key
and a flag (n_max is --n-max); a flag overrides the document and passes the
same checks. CSV output is for the wavefunction command only. All output is
deterministic. A JSON document has its keys sorted, one value per line,
two spaces of indent per level, "key": value with one space, and a single
trailing newline; empty containers are {} and []. Floats are written with
format(x, ".17g"), so 1.0 is 1 and -0.0 is -0; a non-finite float is the
JSON string "nan", "inf" or "-inf". Complex numbers are {"im", "re"}
objects. Strings, keys included, are ASCII with JSON \\uXXXX escapes.
Rows keep their order. CSV rows use the same float format.

Exit codes: 0 ok, 2 validation failure (a bad flag or document, an overflow
or a division by zero in a closed form, or a non-finite wavefunction, at
extreme inputs included) or an --out path that cannot be written, 3 no bound
state for any requested level, 4 oracle non-convergence. Every nonzero exit
writes a JSON error object to stderr; only --help prints usage text.
"""

import argparse
import cmath
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__, oracle
from .errors import (
    NoBoundStateError,
    NonConvergentError,
    NotConvergedError,
    SalpeterError,
    ValidationError,
)
from .potentials import JSON_FIELDS, MassConfig, PotentialParams, params_from_json
from .spectra import (Branch, bound_states, classify_level, level_count, nonrelativistic_energy,
                      spectral_auxiliaries)
from .wavefunctions import assemble, evaluate_on_grid, normalization_constant

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

# The run options, each a document key and a flag: key, default, the type
# the flag parses to, and the accepted values (the choices of a str, the
# closed range of a number). tolerance must also be nonzero; it is checked
# and echoed, but no command reads it yet.
OPTIONS = (
    ("command", None, str, ("spectrum", "wavefunction", "verify", "scan", "count")),
    ("mode", "salpeter", str, ("salpeter", "nonrelativistic")),
    ("n_max", 0, int, (0, N_MAX_CAP)),
    ("grid_points", 200, int, (1, GRID_POINTS_CAP)),
    ("x_max", 0.0, float, (0.0, math.inf)),
    ("tolerance", 1e-10, float, (0.0, math.inf)),
    ("format", "json", str, ("json", "csv")),
)
_SCAN_KEYS = {"param", "start", "stop", "points"}


@dataclass(frozen=True)
class RunConfig:
    """A validated command configuration: the potential, the masses, one
    attribute per run option, and the scan block (param, start, stop,
    points) or None."""

    command: str
    params: PotentialParams
    masses: MassConfig
    mode: str
    n_max: int
    grid_points: int
    x_max: float
    tolerance: float
    format: str
    scan: tuple | None


def _number(value, name: str, low=-math.inf, high=math.inf, integral: bool = False):
    """value as a finite float (or int when integral) in [low, high]; bools and strings are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (integral and value != round(value))
            or not low <= value <= high):
        kind = "an integer" if integral else "a finite number"
        raise ValidationError(f"{name} must be {kind} in [{low}, {high}], got {value!r}")
    return int(value) if integral else float(value)


def build_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Validate the document, with the non-None overrides merged in, and produce a RunConfig."""
    unknown = set(doc) - {*JSON_FIELDS, *(row[0] for row in OPTIONS), "scan"}
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    merged = {key: default for key, default, *_ in OPTIONS}
    merged.update(doc)
    merged.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    params, masses = params_from_json({key: merged.get(key) for key in JSON_FIELDS})
    options = {}
    for key, _, kind, accepted in OPTIONS:
        value = merged[key]
        if kind is not str:
            value = _number(value, key, *accepted, integral=kind is int)
        elif value not in accepted:
            raise ValidationError(f"{key} must be one of {accepted}, got {value!r}")
        options[key] = value
    if options["tolerance"] == 0.0:
        raise ValidationError("tolerance must be positive")
    if options["format"] == "csv" and options["command"] != "wavefunction":
        raise ValidationError("format 'csv' is written by the wavefunction command only")
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
    return RunConfig(params=params, masses=masses, scan=scan, **options)


def config_echo(config: RunConfig) -> dict:
    doc = {
        "V0": config.params.v0, "alpha": config.params.alpha, "q": config.params.q,
        "regime": config.params.regime.value,
        "m1": config.masses.m1, "m2": config.masses.m2,
    }
    doc.update((key, getattr(config, key)) for key, *_ in OPTIONS)
    if config.scan is not None:
        doc["scan"] = {"param": config.scan[0], "start": config.scan[1],
                       "stop": config.scan[2], "points": config.scan[3]}
    return doc


# ---------------------------------------------------------------------------
# Deterministic serialization: sorted keys, 17 significant digits.

def _fmt_float(x: float) -> str:
    """x to 17 significant digits; a non-finite x as the JSON string "nan", "inf" or "-inf"."""
    if math.isfinite(x):
        return format(x, ".17g")
    return f'"{float(x)!r}"'


def _complex_format(nl: str) -> str:
    """The %-format of a complex value on a line indented by nl, over (imag, real)."""
    inner = nl + "  "
    return "{" + inner + '"im": %.17g,' + inner + '"re": %.17g' + nl + "}"


def _array_text(items, nl: str):
    """The items in one format, each on a line indented by nl.

    None unless they are all finite floats or all complex with finite parts.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        item, values = "%.17g", tuple(items)
    elif kinds == {complex}:
        item = _complex_format(nl)
        values = tuple([part for z in items for part in (z.imag, z.real)])
    else:
        return None
    if not math.isfinite(sum(values)):      # a sum is finite only where every term is
        return None
    return ("," + nl).join([item] * len(items)) % values


def _write_items(heads, values, nl: str, out: list) -> None:
    """Append each value after its head; nl is a newline plus the indent of the values' lines.

    The one value dispatcher: finite floats and complex values, ints, bools,
    None and strings of exactly those types come first; a dict, list or
    tuple writes its items through it again, a level deeper; numpy scalars
    and arrays, non-finite values and str-mixin enums go last. No type is
    both a container and a float or str, so the order of those checks
    cannot change a byte.
    """
    complex_format = None
    for head, value in zip(heads, values):
        kind = type(value)
        if kind is float and math.isfinite(value):
            out.append("%s%.17g" % (head, value))
        elif kind is str:
            out.append(head + _encode_str(value))
        elif kind is int:
            out.append(head + str(value))
        elif kind is bool:
            out.append(head + ("true" if value else "false"))
        elif value is None:
            out.append(head + "null")
        elif kind is complex and cmath.isfinite(value):
            complex_format = complex_format or _complex_format(nl)
            out.append(head + complex_format % (value.imag, value.real))
        elif isinstance(value, (dict, list, tuple)):
            inner = nl + "  "
            if not value:
                out.append(head + ("{}" if isinstance(value, dict) else "[]"))
            elif isinstance(value, dict):
                keys = sorted(value)
                item_heads = ["," + inner + _encode_str(str(key)) + ": " for key in keys]
                item_heads[0] = head + "{" + item_heads[0][1:]
                _write_items(item_heads, [value[key] for key in keys], inner, out)
                out.append(nl + "}")
            else:
                text = _array_text(value, inner)
                if text is None:
                    _write_items([head + "[" + inner] + ["," + inner] * (len(value) - 1),
                                 value, inner, out)
                else:
                    out.append(head + "[" + inner + text)
                out.append(nl + "]")
        elif isinstance(value, float):              # numpy.float64 included
            out.append(head + _fmt_float(value))
        elif isinstance(value, str):                # a str-mixin Enum writes str(), not its value
            out.append(head + _encode_str(str(value)))
        elif isinstance(value, (bool, np.bool_)):
            out.append(head + ("true" if value else "false"))
        elif isinstance(value, (int, np.integer)):
            out.append(head + str(int(value)))
        elif isinstance(value, np.floating):
            out.append(head + _fmt_float(float(value)))
        elif isinstance(value, (complex, np.complexfloating)):
            _write_items([head], [{"im": float(value.imag), "re": float(value.real)}], nl, out)
        elif isinstance(value, np.ndarray):
            _write_items([head], [value.tolist()], nl, out)
        else:
            out.append(head + _encode_str(str(value)))


def dumps_canonical(obj, indent: int = 0) -> str:
    """obj as JSON: keys sorted, two spaces per level, floats to 17 significant digits.

    indent is the nesting level of obj's own line, which sets the padding of
    every line after the first. Complex numbers become {"im", "re"} objects,
    non-finite floats the strings "nan", "inf" and "-inf", numpy scalars
    and arrays their Python values, and any other object its str().
    One dispatcher, `_write_items`, writes obj as the single item of an
    empty head, and every container's items the same way; a list, tuple or
    1-D array of finite floats, or of complex values with finite parts, is
    formatted in one pass (`_array_text`).
    """
    out = []
    _write_items([""], [obj], "\n" + "  " * indent, out)
    return "".join(out)


def _metadata(config: RunConfig) -> dict:
    return {"units": "hbar=c=1", "generator": "salpeter-hulthen",
            "version": __version__, "config_echo": config_echo(config)}


# ---------------------------------------------------------------------------
# Command implementations. Each returns (payload_dict_or_text, exit_code).

def _aux_dict(aux) -> dict:
    fields = {
        "b": aux.b, "C": aux.big_c, "D": aux.big_d, "xi": aux.xi, "kappa": aux.kappa,
        "xi_tilde": aux.xi_tilde, "varsigma": aux.varsigma,
        "varsigma_tilde": aux.varsigma_tilde,
        "chi_sq_plus": aux.chi_sq[0], "chi_sq_minus": aux.chi_sq[1],
        "beta": aux.beta, "c": aux.c, "d": aux.d,
    }
    return {key: complex(value) for key, value in fields.items()}


def _check_finite(n, minus, plus):
    """Refuse a level whose energy pair is not finite (a closed form that left the float range)."""
    if not (cmath.isfinite(minus) and cmath.isfinite(plus)):
        raise ValidationError(f"level {n} energy is not finite at these parameters")


def _level(params, masses, n):
    """Level n as (entry, error): its output entry, and the SalpeterError it records or None.

    The entry holds both energies of classify_level and their physical
    verdicts. Where classify_level raises a SalpeterError, or its pair is
    not finite, the entry records the error as {"n", "error", "message"}.
    """
    try:
        pair, (physical_minus, physical_plus) = classify_level(params, masses, n)
        _check_finite(n, *pair)
    except SalpeterError as exc:
        return {"n": n, "error": type(exc).__name__, "message": str(exc)}, exc
    return {"n": n, "minus": pair.minus, "plus": pair.plus,
            "physical_minus": physical_minus, "physical_plus": physical_plus}, None


def _cmd_spectrum(config: RunConfig):
    levels, errors = [], []
    for n in range(config.n_max + 1):
        entry, error = _level(config.params, config.masses, n)
        if error is not None:
            errors.append(error)
        else:
            entry["aux"] = _aux_dict(spectral_auxiliaries(config.params, config.masses, n))
        levels.append(entry)
    none_evaluates = len(errors) == len(levels)
    invalid = [exc for exc in errors if isinstance(exc, ValidationError)]
    if none_evaluates and invalid:
        raise invalid[0]    # a validation failure outranks "no bound state"
    return {"metadata": _metadata(config), "levels": levels}, 3 if none_evaluates else 0


def _cmd_wavefunction(config: RunConfig):
    n = config.n_max
    minus, plus = bound_states(config.params, config.masses, n)
    _check_finite(n, minus.energy, plus.energy)
    state = plus if plus.physical or not minus.physical else minus
    wf = assemble(config.params, config.masses, state)
    norm_info = {}
    try:
        norm = normalization_constant(wf)
        wf = wf.with_norm(norm)
        norm_info["N"] = complex(norm)
    except SalpeterError as exc:
        norm_info["error"] = type(exc).__name__
        norm_info["message"] = str(exc)
    x_max = config.x_max if config.x_max > 0 else 25.0 / abs(config.params.alpha)
    xs = np.linspace(0.0, x_max, config.grid_points)
    psi = evaluate_on_grid(wf, xs)
    if not np.all(np.isfinite(psi)):
        # a recorded normalization error alone leaves psi finite and exits 0
        raise ValidationError("wavefunction is not finite on the grid at these parameters")
    if config.format == "csv":
        table = np.column_stack((xs, psi.real, psi.imag)).ravel().tolist()
        return "x,re_psi,im_psi\n" + ("%.17g,%.17g,%.17g\n" * len(xs)) % tuple(table), 0
    payload = {
        "metadata": _metadata(config),
        "n": n, "branch": state.branch.value, "energy": complex(state.energy),
        "normalization": norm_info, "grid": xs, "psi": psi,
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
            entry, error = _level(config.params, config.masses, n)
            if error is None:
                formula += [(n, branch.value, entry[key].real)
                            for branch, key in ((Branch.MINUS, "minus"), (Branch.PLUS, "plus"))
                            if entry["physical_" + key]]
        roots = oracle.salpeter_levels(config.params, config.masses)
        # each formula level, in ascending order, takes its nearest unused
        # root; min keeps the first of a tie, the lowest root index
        unused = list(range(len(roots)))
        for n, branch, e in sorted(formula, key=lambda t: t[2]):
            best = min(unused, key=lambda i: abs(roots[i] - e), default=None)
            root = None if best is None else roots[best]
            if best is not None:
                unused.remove(best)
            rows.append({"n": n, "branch": branch, "formula": e, "oracle": root,
                         "abs_delta": None if root is None else abs(e - root),
                         "rel_delta": None if root is None
                         else abs(e - root) / max(abs(e), 1e-300)})
        rows += [{"n": None, "branch": None, "formula": None, "oracle": roots[i],
                  "abs_delta": None, "rel_delta": None} for i in unused]
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
        entry["levels"] = [_level(params, config.masses, n)[0]
                           for n in range(config.n_max + 1)]
        surface.append(entry)
    return {"metadata": _metadata(config), "param": name, "surface": surface}, 0


def _cmd_count(config: RunConfig):
    """The oracle's level count, next to "predicted": the closed form's critical-coupling bound.

    predicted is `spectra.level_count`, the levels n whose energy radicand
    the bound keeps real. It is a bound, not a count, and can far exceed the
    true count: at (0.9, 1, 1), (0.135, 0.15, 1) and (0.054, 0.06, 1) at
    unit masses it reads 2, 13 and 33 where the oracle finds 1, 2 and 4.
    Where the bound does not apply (q = 0, or V0 > |q| alpha, where
    level_count raises NoBoundStateError) predicted is null and the oracle
    still counts: at (3.8, 1, 0.5) it finds one level. "oracle" and
    "oracle_roots" are `oracle.salpeter_levels`'s roots.
    """
    try:
        predicted = level_count(config.params, config.masses.m_tilde / 2.0)
    except NoBoundStateError:
        predicted = None
    roots = oracle.salpeter_levels(config.params, config.masses)
    payload = {"metadata": _metadata(config), "predicted": predicted,
               "oracle": len(roots), "oracle_roots": [float(r) for r in roots]}
    return payload, 0


def _emit(payload, out_path):
    """Write the payload's text to out_path, or to stdout when there is none.

    The file is overwritten in place: opened without O_TRUNC, written from
    its start, then cut to the new length where fstat shows a regular file
    (a FIFO or a device such as /dev/null is never truncated). On an
    existing file this skips the truncation to zero at open, the costly part
    of the write; the likely mechanism, not traced, is ext4's auto_da_alloc,
    which starts writeback when a file truncated to zero is closed. The
    write is neither atomic nor durable (no rename, no fsync): a crash
    mid-write can leave the old bytes past the new end, where truncating at
    open left a short file. An unwritable path raises OSError.
    """
    text = payload if isinstance(payload, str) else dumps_canonical(payload) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _error_exit(exc, code):
    sys.stderr.write(dumps_canonical({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ValidationError where argparse prints usage and exits 2."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parse_args leaves no state in it."""
    parser = _Parser(
        prog="salpeter",
        description="Spectra and wavefunctions of the generalized-Hulthen spinless "
                    "Salpeter problem (hbar = c = 1). Each option flag overrides its "
                    "key in the config document.")
    parser.add_argument("--config", required=True, help="JSON parameter document")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    for key, default, kind, accepted in OPTIONS:
        accepts = " | ".join(accepted) if kind is str else f"[{accepted[0]}, {accepted[1]}]"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                            help=f"{accepts} (default {default})")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError("config document must be a JSON object")
        config = build_config(doc, {key: getattr(args, key) for key, *_ in OPTIONS})
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
        return _error_exit(exc, 2)

    handlers = {"spectrum": _cmd_spectrum, "wavefunction": _cmd_wavefunction,
                "verify": _cmd_verify, "scan": _cmd_scan, "count": _cmd_count}
    try:
        # numpy's RuntimeWarnings would break the one JSON document on stderr;
        # _level and the psi check refuse the non-finite results anyway
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
    try:
        _emit(payload, args.out)
    except OSError as exc:
        return _error_exit(exc, 2)
    if code:
        # a handler's nonzero code means no requested level is bound; the
        # payload holds the per-level errors
        return _error_exit(NoBoundStateError("no bound state for any requested level"), code)
    return code


if __name__ == "__main__":
    sys.exit(main())
