import json
from pathlib import Path

import numpy as np
import pytest

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"

_SUMMARY_LINES = []


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def announce(line: str):
    """Queue a line for the end-of-run terminal summary (survives capture)."""
    _SUMMARY_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _SUMMARY_LINES:
        terminalreporter.write_sep("-", "acceptance summary")
        for line in _SUMMARY_LINES:
            terminalreporter.write_line(line)


class FindingsLog:
    """Collector for expected-findings entries shared by the acceptance tests."""

    def __init__(self):
        self.entries = {}

    def record(self, section: str, payload):
        self.entries.setdefault(section, []).append(payload)

    def flush(self):
        ARTIFACT_DIR.mkdir(exist_ok=True)
        path = ARTIFACT_DIR / "acceptance_findings.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=2, sort_keys=True, default=str)
        return path


@pytest.fixture(scope="session")
def findings():
    log = FindingsLog()
    yield log
    if log.entries:
        path = log.flush()
        announce(f"[findings] expected-findings artifact written to {path}")


def reference_rk4_trajectory(g_of_x, x0, u0, v0, h, nsteps, slopes=False):
    """Plain-python RK4 for psi'' + g psi = 0, keeping the whole trajectory.

    Independent of the package kernel; used to cross-check it and to
    count nodes of shooting solutions. Returns (x, psi), or (x, psi, psi')
    with slopes=True; h < 0 integrates inward.
    """
    xs = np.empty(nsteps + 1)
    us = np.empty(nsteps + 1)
    vs = np.empty(nsteps + 1)
    u, v, x = float(u0), float(v0), float(x0)
    xs[0], us[0], vs[0] = x, u, v
    scale = 1.0
    for i in range(nsteps):
        g1 = g_of_x(x)
        gm = g_of_x(x + 0.5 * h)
        g2 = g_of_x(x + h)
        k1u, k1v = v, -g1 * u
        k2u, k2v = v + 0.5 * h * k1v, -gm * (u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, -gm * (u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, -g2 * (u + h * k3u)
        u += h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        x += h
        m = max(abs(u), abs(v))
        if m > 1e100:
            u /= m
            v /= m
            us[: i + 1] /= m
            vs[: i + 1] /= m
            scale /= m
        xs[i + 1], us[i + 1], vs[i + 1] = x, u, v
    return (xs, us, vs) if slopes else (xs, us)
