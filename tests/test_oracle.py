import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.optimize import brentq

from conftest import reference_rk4_trajectory
from salpeter_hulthen import MassConfig, PotentialParams, Regime, bound_states
from salpeter_hulthen import _kernels, cli, oracle
from salpeter_hulthen._kernels import (
    OVERFLOW_GUARD,
    frobenius_start,
    frobenius_values,
    g_laurent_q1,
    laurent_rows_q1,
    rk4_sweep,
    step_grid,
)
from salpeter_hulthen.errors import (
    NonConvergentError,
    NotConvergedError,
    PoleOnGridError,
    StepTooCoarseError,
    ValidationError,
)
from salpeter_hulthen.spectra import nonrelativistic_energy

MC1 = MassConfig.equal(1.0)


def _g_of_x(g0, g1, g2, alpha, q):
    """g(x) = g0 + g1 r + g2 r^2 for one energy, for the reference integrator."""
    def g_of_x(x):
        s = np.exp(-alpha * x)
        r = s / (1 - q * s)
        return g0 + g1 * r + g2 * r * r
    return g_of_x


def _polish_brackets(residual, lo, hi):
    """oracle._polish on the brackets [lo, hi], its first probes aimed at their midpoints."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return oracle._polish(residual, lo, hi, residual(lo), residual(hi), 0.5 * (lo + hi))


def test_effective_problem_defaults():
    prob = oracle.EffectiveProblem(PotentialParams(0.9, 2.0, 1.0), MC1)
    assert prob.x_max * 2.0 >= 25.0
    assert prob.h * 2.0 <= 0.01
    with pytest.raises(StepTooCoarseError):
        oracle.EffectiveProblem(PotentialParams(0.9, 1.0, 1.0), MC1, h=0.2)
    with pytest.raises(PoleOnGridError):
        oracle.EffectiveProblem(PotentialParams(0.9, 1.0, 1.5), MC1)
    with pytest.raises(ValidationError):
        oracle.EffectiveProblem(
            PotentialParams(0.9, 1.0, 1.0, Regime.COMPLEX_ALPHA), MC1)


@pytest.mark.parametrize("solver", ["salpeter_levels", "mismatch_sweep", "fd_eigenvalues"])
@pytest.mark.parametrize("kwargs", [{"x_max": 0.3}, {"x_max": 0.504}, {"x_max": math.inf},
                                    {"x_max": math.nan}, {"h": math.nan}, {"h": math.inf},
                                    {"x_max": 0.01}])
def test_bad_box_or_step_is_a_validation_error(solver, kwargs):
    # at q = 1 the steps start at x0 = 0.5/alpha: x_max = 0.3 asked for a
    # negative step count (numpy's "negative dimensions" ValueError) and
    # 0.504 for none (the mismatch of the start state); a non-finite x_max
    # or h raised OverflowError or ValueError from int(round(...)). The
    # finite-difference grids of these boxes hold 0, 29 and 49 interior
    # points at h = 0.01, fewer than the 60 levels asked of them: numpy's
    # "zero-size array" ValueError, or scipy's "select_range out of bounds"
    p = PotentialParams(0.9, 1.0, 1.0)
    with pytest.raises(ValidationError):
        if solver == "salpeter_levels":
            oracle.salpeter_levels(p, MC1, **kwargs)
        elif solver == "mismatch_sweep":
            oracle.mismatch_sweep(p, MC1, [-0.5, -0.01], **kwargs)
        else:
            oracle.fd_eigenvalues(p, 0.5, 60, **kwargs)


def test_g_single_source_of_truth():
    # kernel coefficients against the composition through potentials.evaluate
    prob = oracle.EffectiveProblem(PotentialParams(0.7, 0.9, 0.6), MC1)
    e = -0.21
    g0, g1, g2 = prob.g_coefficients(e)
    xs = np.linspace(0.1, 10.0, 17)
    s = np.exp(-0.9 * xs)
    r = s / (1 - 0.6 * s)
    poly = g0 + g1 * r + g2 * r * r
    np.testing.assert_allclose(poly, prob.g_values(e, xs), rtol=1e-13)


def test_fd_no_negative_levels_at_zero_coupling():
    vals = oracle.fd_eigenvalues(PotentialParams(0.0, 1.0, 1.0), 0.5, 3)
    assert all(v > 0 for v in vals)


def test_fd_reproduces_hulthen_golden_value():
    p = PotentialParams(2.0, 1.0, 1.0)
    vals = oracle.fd_eigenvalues(p, 0.5, 1, h=0.005)
    assert vals[0] == pytest.approx(-0.25, abs=1e-6)


def test_fd_grid_convergence():
    p = PotentialParams(2.0, 1.0, 1.0)
    a = oracle.fd_eigenvalues(p, 0.5, 1, h=0.01)[0]
    b = oracle.fd_eigenvalues(p, 0.5, 1, h=0.005)[0]
    assert abs(a - b) < 1e-6


def test_fd_deep_well_count_cross_check():
    # beta = 2 mu V0 / alpha^2 = 12.5 admits floor(sqrt(beta)) = 3 levels
    p = PotentialParams(0.125, 0.1, 1.0)
    vals = oracle.fd_eigenvalues(p, 0.5, 4, h=0.05, x_max=400.0, target=1e-4)
    formula = [nonrelativistic_energy(p, 0.5, n) for n in range(3)]
    assert sum(1 for v in vals if v < -1e-6) == 3
    np.testing.assert_allclose(vals[:3], formula, atol=5e-5)


def test_fd_not_converged_signal():
    p = PotentialParams(2.0, 1.0, 1.0)
    with pytest.raises(NotConvergedError):
        oracle.fd_eigenvalues(p, 0.5, 1, h=0.01, target=1e-14)


def test_shooting_sign_structure():
    p = PotentialParams(0.9, 1.0, 1.0)
    root = -0.014964221403
    below = oracle.mismatch_sweep(p, MC1, [-1.5])[0]
    deep = oracle.mismatch_sweep(p, MC1, [-1.0])[0]
    assert np.sign(below) == np.sign(deep)   # no node below the ground state
    lo = oracle.mismatch_sweep(p, MC1, [root * 1.3])[0]
    hi = oracle.mismatch_sweep(p, MC1, [root * 0.7])[0]
    assert np.sign(lo) * np.sign(hi) < 0     # bracketing the eigenvalue


@pytest.mark.parametrize("v0", [0.9, 0.82])
def test_salpeter_levels_match_formula(v0):
    # 0.82 binds a near-threshold level (E ~ -4.6e-4, kappa * x_max ~ 0.5)
    # that a Dirichlet far boundary pushes out of the window
    p = PotentialParams(v0, 1.0, 1.0)
    roots = oracle.salpeter_levels(p, MC1)
    assert len(roots) == 1
    formula = bound_states(p, MC1, 0)[1].energy.real
    assert roots[0] == pytest.approx(formula, rel=1e-6)


def test_salpeter_levels_unequal_masses():
    # the general-mass closed form against the oracle (not just the
    # equal-mass rearrangement checked elsewhere)
    masses = MassConfig(0.8, 1.3)
    p = PotentialParams(0.85, 1.0, 1.0)
    mi, pl = bound_states(p, masses, 0)
    assert pl.physical
    roots = oracle.salpeter_levels(p, masses)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(pl.energy.real, rel=1e-6)


def test_salpeter_levels_two_states_sturm_order():
    p = PotentialParams(0.1425, 0.15, 1.0)
    roots = oracle.salpeter_levels(p, MC1)
    assert len(roots) == 2
    for n, root in enumerate(roots):
        formula = bound_states(p, MC1, n)[1].energy.real
        assert root == pytest.approx(formula, rel=1e-5)
    # Sturm ordering: node count increases along the sorted roots. Nodes can
    # sit inside the series-start region, so prepend the Frobenius values;
    # integrate ~10 decay lengths only, so the off-eigenvalue tail blowup
    # cannot swamp the interior oscillation region.
    prob = oracle.EffectiveProblem(p, MC1)
    nodes = []
    for root in roots:
        g0, g1, g2 = prob.g_coefficients(root)
        g_of_x = _g_of_x(g0, g1, g2, p.alpha, p.q)
        kappa = np.sqrt(-g0)
        x_stop = min(prob.x_max, 10.0 / kappa)
        x0, u0, v0 = prob.start_state(root)
        nsteps = int((x_stop - x0) / prob.h)
        _, us = reference_rk4_trajectory(g_of_x, x0, u0, v0, prob.h, nsteps)
        series = g_laurent_q1(g0, g1, laurent_rows_q1(g2, p.alpha, 16))
        head = frobenius_values(series, np.linspace(x0 / 400, x0, 400))
        full = np.concatenate([head, us[1:] / (us[0] / head[-1])])
        kept = full[np.abs(full) > 1e-9 * np.max(np.abs(full))]
        nodes.append(int(np.sum(np.sign(kept[1:]) * np.sign(kept[:-1]) < 0)))
    assert nodes == [0, 1]


def test_no_levels_below_genuine_threshold():
    # V0/(q alpha) = 0.6 sits below the quantization threshold: empty spectrum
    roots = oracle.salpeter_levels(PotentialParams(0.6, 1.0, 1.0), MC1)
    assert roots == []


def test_woods_saxon_well_too_shallow():
    # q = -1 runs through the regular (nonsingular) start; a depth-V0/2 well
    # with a Dirichlet origin does not bind at these couplings
    roots = oracle.salpeter_levels(PotentialParams(0.5, 1.0, -1.0), MC1)
    assert roots == []


def test_zero_coupling_limit_has_no_window_roots():
    # the deep limit values sit at or outside the binding window edge, and a
    # vanishing coupling binds nothing inside it
    roots = oracle.salpeter_levels(PotentialParams(1e-12, 1.0, 1.0), MC1)
    assert roots == []


def test_supercritical_origin_rejected():
    with pytest.raises(NonConvergentError):
        oracle.salpeter_levels(PotentialParams(2.0, 1.0, 1.0), MC1)


def test_x_max_insensitivity():
    p = PotentialParams(0.95, 1.0, 1.0)
    e0 = bound_states(p, MC1, 0)[1].energy.real
    kappa = np.sqrt(-2.0 * MC1.mu * (e0 + e0 * e0 / (2 * MC1.m_tilde)))
    x_need = 18.0 / kappa
    r1 = oracle.salpeter_levels(p, MC1, x_max=x_need)
    r2 = oracle.salpeter_levels(p, MC1, x_max=2.0 * x_need)
    assert len(r1) == len(r2) == 1
    assert abs(r1[0] - r2[0]) < 1e-8


def test_shooting_agrees_with_fd_on_linear_problem():
    # drive the kernel with the linear (nonrelativistic) coefficients directly
    p = PotentialParams(2.0, 1.0, 1.0)
    mu = 0.5
    fd = oracle.fd_eigenvalues(p, mu, 1, h=0.0025)[0]

    def mismatch(energies):
        g0, g1, g2 = 2 * mu * energies, np.full_like(energies, 2 * mu * p.v0), 0.0
        coeffs = g_laurent_q1(g0, g1, laurent_rows_q1(g2, p.alpha, 16))
        x0 = 0.5 / p.alpha
        u0, v0 = frobenius_start(coeffs, x0)
        nsteps = int((60.0 - x0) / 0.004)
        grid = step_grid(g2, p.q, p.alpha, x0, 0.004, nsteps)
        u, _, _ = rk4_sweep(g0, g1, grid, u0, v0, 0.004, nsteps)
        return u

    shoot = _polish_brackets(mismatch, [-0.26], [-0.24])[0]
    assert shoot == pytest.approx(fd, abs=1e-7)


def _uniform_passes(width):
    """Passes of a plain POLISH_POINTS-fold multisection from width down to ROOT_XTOL."""
    return math.ceil(math.log(width / oracle.ROOT_XTOL) / math.log(oracle.POLISH_POINTS))


def _counted_levels(params, masses=MC1, h=0.0):
    """salpeter_levels(params, masses, h=h) and the g0 values of each kernel call it made."""
    calls = []
    sweep = oracle.rk4_sweep

    def counted(*args, **kwargs):
        calls.append(np.array(args[0]))
        return sweep(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "rk4_sweep", counted)
        roots = oracle.salpeter_levels(params, masses, h=h)
    return roots, calls


def test_polish_is_one_kernel_call_per_pass():
    # the scan, then one batched call per polish pass for all open brackets
    # at once, never more passes than the plain multisection
    per_bracket = oracle.POLISH_POINTS + 1     # the uniform interior points and two probes
    width = (2.0 - 4e-8) / 239                 # scan step of the default window
    passes = _uniform_passes(width)
    assert passes == 5
    cases = [(0.1425, 0.15, 1.0, 0.0, 2, 3), (0.9, 1.0, 1.0, 0.0, 1, 2),
             (3.8, 1.0, 0.5, 0.049, 1, 2), (6.2, 1.0, -1.0, 0.049, 1, 2),
             (0.62, 0.71, 1.0, 0.049, 1, 2), (250.0, 1.0, 0.5, 0.0, 3, 3)]
    for v0, alpha, q, h_alpha, levels, kernel_calls in cases:
        roots, calls = _counted_levels(PotentialParams(v0, alpha, q), h=h_alpha / alpha)
        assert len(roots) == levels
        assert calls[0].size == 240
        assert calls[1].size == per_bracket * len(roots)
        # the bracket ends keep their scan values: no scan energy is integrated again
        assert not np.isin(calls[1], calls[0]).any()
        sizes = [batch.size for batch in calls[1:]]
        open_brackets = [size // per_bracket for size in sizes]
        assert [n * per_bracket for n in open_brackets] == sizes
        assert open_brackets == sorted(open_brackets, reverse=True) and open_brackets[-1] >= 1
        assert len(calls) <= 1 + passes
        # (0.9, 1, 1) and the coarse-step q != 1 levels close on the
        # scan-predicted first probe pair, and the two levels of
        # (0.1425, 0.15, 1) in two passes. (0.62, 0.71, 1) needs the scan
        # interpolated in kappa, not in E, and the deep well's third level a
        # stencil without the probes
        assert len(calls) == kernel_calls


def test_polish_on_closed_form_residuals():
    # both roots sit on the first pass's grid: an exact zero is the root itself
    roots = _polish_brackets(lambda e: (e + 0.75) * (e + 0.25), [-1.0, -0.5], [-0.5, 0.0])
    assert roots.tolist() == [-0.75, -0.25]
    # near |E| = 1e4 one ulp (1.8e-12) is wider than ROOT_XTOL and no double is
    # an exact zero; the bracket still closes
    root = _polish_brackets(lambda e: (e + 12345.678) - 4e-13, [-2e4], [-5e3])[0]
    assert root == pytest.approx(-12345.678, abs=1e-11)


def test_polish_on_a_saturated_step():
    # tanh saturates at +-1 a few 1e-8 from its root, so the interpolation
    # meets equal values; the bracket still closes within the plain
    # multisection's passes, without a warning
    calls = []

    def residual(energies):
        calls.append(energies.size)
        return np.tanh((energies + 0.3) / 1e-9)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        root = oracle._polish(residual, [-1.0], [0.0], [-1.0], [1.0], [-0.5])[0]
    assert abs(root + 0.3) <= oracle.ROOT_XTOL
    assert len(calls) <= _uniform_passes(1.0)


BRENT_CASES = [(0.9, 1.0, 1.0), (0.1425, 0.15, 1.0), (3.8, 1.0, 0.5), (6.2, 1.0, -1.0)]
UNIT_WINDOW = (-2.0 + 2e-8, -2e-8)             # the default window at unit masses


def _scan_brackets(residual, energies):
    values = residual(energies)
    return np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)


@pytest.mark.parametrize("v0, alpha, q", BRENT_CASES)
def test_polish_matches_brent_on_the_scan_brackets(v0, alpha, q):
    p = PotentialParams(v0, alpha, q)
    h = 0.049 / alpha
    roots = oracle.salpeter_levels(p, MC1, window=UNIT_WINDOW, h=h)
    problem = oracle.EffectiveProblem(p, MC1, x_max=oracle.matching_point(p, MC1, h), h=h)
    energies = np.linspace(*UNIT_WINDOW, 240)
    brackets = _scan_brackets(lambda e: oracle._jost_residual(problem, e), energies)

    def residual(energy):
        return oracle._jost_residual(problem, [energy])[0]

    reference = [brentq(residual, energies[i], energies[i + 1], xtol=oracle.ROOT_XTOL)
                 for i in brackets]
    assert len(reference) >= 1
    assert len(roots) == len(reference)
    np.testing.assert_allclose(roots, reference, rtol=0, atol=2 * oracle.ROOT_XTOL)


def _robin_roots(problem, energies, refine):
    """Roots of the Robin condition psi' + kappa psi = 0 at 25/alpha, polished from a scan.

    The regular solution takes problem's steps to its matching point and the
    tail from there to 25/alpha at the step problem.h / refine.
    """
    alpha, q = problem.params.alpha, problem.params.q
    tail_h = problem.h / refine

    def robin(energies):
        (g0s, g1s, g2), u, v, head_scale, x_end = oracle._shoot(problem, energies)
        tail_steps = int(round((25.0 / alpha - x_end) / tail_h))
        u, v, tail_scale = rk4_sweep(g0s, g1s, step_grid(g2, q, alpha, x_end, tail_h, tail_steps),
                                     u, v, tail_h, tail_steps)
        return (v + np.sqrt(-g0s) * u) * np.exp(head_scale + tail_scale)

    brackets = _scan_brackets(robin, energies)
    return _polish_brackets(robin, energies[brackets], energies[brackets + 1])


@pytest.mark.parametrize("v0, alpha, q", BRENT_CASES)
def test_jost_roots_match_robin_roots_on_the_long_box(v0, alpha, q):
    # the Robin condition psi' + kappa psi = 0 at 25/alpha, the matching the
    # levels used before the Jost tail, is the series' first term taken
    # where the rest has decayed. The tail beyond the matching point is
    # integrated at half the step: at the full step it alone moves
    # these roots by up to 7e-12
    p = PotentialParams(v0, alpha, q)
    problem = oracle.EffectiveProblem(p, MC1, x_max=oracle.matching_point(p, MC1))
    reference = _robin_roots(problem, np.linspace(*UNIT_WINDOW, 240), 2)
    roots = oracle.salpeter_levels(p, MC1, window=UNIT_WINDOW)
    assert len(reference) >= 1
    assert len(roots) == len(reference)
    np.testing.assert_allclose(roots, reference, rtol=0, atol=2 * oracle.ROOT_XTOL)


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_jost_roots_match_robin_roots_in_a_deep_well(q):
    # at V0/alpha = 250 psi_J has a node at the matching point inside the
    # window, where psi_J'/psi_J has a pole; the Wronskian residual must
    # neither bracket that pole nor report the series unconverged there. The
    # reference integrates the Robin tail at a tenth of the step: at the full
    # step that tail alone moves these deep roots by up to 5e-11
    p = PotentialParams(250.0, 1.0, q)
    problem = oracle.EffectiveProblem(p, MC1, x_max=oracle.matching_point(p, MC1))
    energies = np.linspace(*UNIT_WINDOW, 240)
    g0s, g1s, g2 = problem.g_coefficients(energies)
    _, total, _ = oracle.jost_sums(g0s, g1s, g2, q, 1.0, problem.x_max)
    nodes = np.flatnonzero(np.sign(total[:-1]) * np.sign(total[1:]) < 0)
    assert nodes.size >= 1

    def psi_j(energy):
        g = problem.g_coefficients(np.array([energy]))
        return oracle.jost_sums(*g, q, 1.0, problem.x_max)[1][0]

    # the series converges on the node itself, where its sum vanishes
    brentq(psi_j, energies[nodes[0]], energies[nodes[0] + 1], xtol=1e-300)
    reference = _robin_roots(problem, energies, 10)
    roots = oracle.salpeter_levels(p, MC1, window=UNIT_WINDOW)
    assert len(reference) >= 2
    assert len(roots) == len(reference)
    np.testing.assert_allclose(roots, reference, rtol=0, atol=2 * oracle.ROOT_XTOL)


@pytest.mark.parametrize("v0, alpha, masses", [(0.9, 1.0, MC1), (0.1425, 0.15, MC1),
                                               (0.915, 1.0, MassConfig(0.8, 1.3))])
def test_coarse_step_roots_match_the_closed_form(v0, alpha, masses):
    # at h = 0.049/alpha the matching point is a step end of the coarse
    # grid; were the series taken off the point where the steps stop, by up
    # to h/2, the roots would move by rel ~1e-4
    p = PotentialParams(v0, alpha, 1.0)
    roots = oracle.salpeter_levels(p, masses, h=0.049 / alpha)
    physical = sorted(state.energy.real for n in range(8)
                      for state in bound_states(p, masses, n) if state.physical)
    assert len(roots) == len(physical) >= 1
    np.testing.assert_allclose(roots, physical, rtol=5e-6, atol=0)


@pytest.mark.parametrize("v0, alpha, q", [(0.9, 1.0, 1.0), (3.8, 1.0, 0.5),
                                          (6.2, 1.0, -1.0), (0.7, 0.5, 0.0)])
def test_jost_log_derivative_against_an_inward_reference_tail(v0, alpha, q):
    # integrate 40/alpha inward from a Robin start: the decaying solution
    # grows inward and the start's error, of order exp(-45), does not
    p = PotentialParams(v0, alpha, q)
    x_m = oracle.matching_point(p, MC1)
    problem = oracle.EffectiveProblem(p, MC1)
    energies = np.array([-1.5, -0.3, -0.015])
    g0s, g1s, g2 = problem.g_coefficients(energies)
    kappas, total, weighted = oracle.jost_sums(g0s, g1s, g2, q, alpha, x_m)
    slopes = -kappas - alpha * weighted / total
    h = 0.01 / alpha
    for j in range(energies.size):
        kappa = math.sqrt(-g0s[j])
        _, us, vs = reference_rk4_trajectory(_g_of_x(g0s[j], g1s[j], g2, alpha, q),
                                             x_m + 40.0 / alpha, 1.0, -kappa, -h, 4000,
                                             slopes=True)
        assert slopes[j] == pytest.approx(vs[-1] / us[-1], rel=1e-8)
        # the series' first term alone is the Robin slope, off by far more
        assert abs(slopes[j] + kappa) > 1e-4 * abs(slopes[j])


def test_residual_stays_finite_where_the_solution_outgrows_a_float():
    # at alpha = 1e-3 the regular solution reaches exp(2761) near the
    # window's lower edge: the residual applies at most exp(SCALE_CAP) of
    # that scale and keeps the sign of the rescaled Wronskian
    p = PotentialParams(0.9e-3, 1e-3, 1.0)
    problem = oracle.EffectiveProblem(p, MC1, x_max=oracle.matching_point(p, MC1))
    energies = np.linspace(*UNIT_WINDOW, 240)
    (g0s, g1s, g2), u, v, log_scale, x_end = oracle._shoot(problem, energies)
    assert log_scale.max() > 2.0 * oracle.SCALE_CAP
    kappa, total, weighted = oracle.jost_sums(g0s, g1s, g2, p.q, p.alpha, x_end)
    wronskian = v * total + (kappa * total + p.alpha * weighted) * u
    residual = oracle._jost_residual(problem, energies)
    assert np.all(np.isfinite(residual)) and np.all(residual != 0.0)
    np.testing.assert_array_equal(np.sign(residual), np.sign(wronskian))
    assert len(oracle.salpeter_levels(p, MC1)) == 1


def _old_matching_point(p):
    """(5 + max(0, ln|q|))/alpha, the fixed matching point that matching_point is capped at."""
    return (5.0 + (max(0.0, math.log(abs(p.q))) if p.q else 0.0)) / p.alpha


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box=st.sampled_from(["single", "multi", "deep"]), alpha=st.floats(0.0, 1.0),
       ratio=st.floats(0.0, 1.0), q=st.sampled_from([1.0, 0.9, 0.5, 0.0, -1.0, -40.0]),
       masses=st.sampled_from([(1.0, 1.0), (0.8, 1.3), (1.0, 2.0)]),
       h_alpha=st.sampled_from([0.0, 0.049]))
def test_jost_series_converges_at_the_matching_point(box, alpha, ratio, q, masses, h_alpha):
    # criterion-5's boxes (single-level alpha in [0.6, 1.1], V0/alpha in
    # [0.86, 0.96]; multi-level alpha in [0.12, 0.18], V0/alpha in [0.9,
    # 0.97]) and a deep one, V0/alpha in [5, 250]: the majorant's point must
    # pass jost_sums' check for every energy of the window, never lie beyond
    # the old fixed point, leave at least one step, and be where the steps stop
    if box == "single":
        alpha, ratio = 0.6 + 0.5 * alpha, 0.86 + 0.1 * ratio
    elif box == "multi":
        alpha, ratio = 0.12 + 0.06 * alpha, 0.9 + 0.07 * ratio
    else:
        alpha, ratio = 0.3 + 1.2 * alpha, 5.0 + 245.0 * ratio
    p, mc = PotentialParams(ratio * alpha, alpha, q), MassConfig(*masses)
    x_m = oracle.matching_point(p, mc, h_alpha / alpha)
    problem = oracle.EffectiveProblem(p, mc, x_max=x_m, h=h_alpha / alpha)
    x0, _, x_end = problem.steps()
    assert x_m - x0 >= problem.h
    assert x_m <= _old_matching_point(p)
    assert x_end == x_m
    energies = np.linspace(-2.0 * mc.m_tilde + 1e-8, -1e-8, 240)
    oracle.jost_sums(*problem.g_coefficients(energies), q, alpha, x_m)


def test_matching_point_at_the_ends_of_the_float_range():
    # where the majorant overflows, the old point; where it vanishes, one step
    for v0, alpha in ((1e300, 1.0), (1e-300, 1e-300), (0.9, 1e-160)):
        p = PotentialParams(v0, alpha, 0.5)
        assert oracle.matching_point(p, MC1) == _old_matching_point(p)
    assert oracle.matching_point(PotentialParams(0.0, 2.0, 0.0), MC1) == 0.005
    assert oracle.matching_point(PotentialParams(0.0, 2.0, 1.0), MC1, 0.02) == 0.27


def _convolution_jost_sums(g0s, g1s, g2, q, alpha, x):
    """The Jost series by its convolution, c_k D_k = -sum_{j=1..k} G_j c_{k-j}, in O(K^2)."""
    kappa = np.sqrt(-np.asarray(g0s, dtype=float))
    s = math.exp(-alpha * x)
    qs = q * s
    j = np.arange(1.0, oracle.JOST_TERMS + 1.0).reshape(-1, 1)
    gs = g1s * s * qs ** (j - 1.0) + g2 * s * s * (j - 1.0) * qs ** np.maximum(j - 2.0, 0.0)
    den = j * alpha * (2.0 * kappa + j * alpha)
    t = np.empty((oracle.JOST_TERMS + 1,) + kappa.shape)
    t[0] = 1.0
    for k in range(1, oracle.JOST_TERMS + 1):
        t[k] = -(gs[:k] * t[k - 1::-1]).sum(axis=0) / den[k - 1]
    return kappa, t.sum(axis=0), (j * t[1:]).sum(axis=0)


@pytest.mark.parametrize("alpha", [1.0, 0.15])
@pytest.mark.parametrize("q", [1.0, 0.5, 0.0, -1.0, -40.0])
def test_jost_recurrence_against_the_convolution(q, alpha):
    # the three-term recurrence is the convolution with (1 - q s)^2 cleared;
    # both are exact, so they differ by rounding alone
    p = PotentialParams(2.0 * alpha, alpha, q)
    x_m = oracle.matching_point(p, MC1)
    problem = oracle.EffectiveProblem(p, MC1, x_max=x_m)
    g0s, g1s, g2 = problem.g_coefficients(np.linspace(*UNIT_WINDOW, 240))
    for x in (x_m, 1.3 * x_m):
        got = oracle.jost_sums(g0s, g1s, g2, q, alpha, x)
        want = _convolution_jost_sums(g0s, g1s, g2, q, alpha, x)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)


def test_unconverged_jost_series_raises_and_exits_4(monkeypatch, tmp_path, capsys):
    # at x_max = 0.05/alpha and q = -1, |q| s is 0.95: the series has not
    # converged after JOST_TERMS terms
    p = PotentialParams(0.5, 1.0, -1.0)
    with pytest.raises(NonConvergentError):
        oracle.salpeter_levels(p, MC1, x_max=0.05)
    levels = oracle.salpeter_levels
    monkeypatch.setattr(oracle, "salpeter_levels",
                        lambda *args, **kwargs: levels(*args, **kwargs, x_max=0.05))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"V0": 0.5, "alpha": 1.0, "q": -1.0, "regime": "Real",
                                "m1": 1.0, "m2": 1.0, "command": "count"}))
    capsys.readouterr()
    assert cli.main(["--config", str(path)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "NonConvergentError"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(0.6, 1.1), ratio=st.floats(0.86, 0.96))
def test_every_root_is_bracketed_and_physical(alpha, ratio):
    # criterion-5's single-level box: V0/alpha in [0.86, 0.96], q = 1
    p = PotentialParams(ratio * alpha, alpha, 1.0)
    roots = oracle.salpeter_levels(p, MC1)
    assert roots
    problem = oracle.EffectiveProblem(p, MC1, x_max=oracle.matching_point(p, MC1))
    physical = [state.energy.real for n in range(8)
                for state in bound_states(p, MC1, n) if state.physical]
    for root in roots:
        below, above = oracle._jost_residual(
            problem, [root - oracle.ROOT_XTOL, root + oracle.ROOT_XTOL])
        assert np.sign(below) * np.sign(above) < 0
        assert min(abs(e - root) for e in physical) <= 1e-4 * abs(root)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["single", "multi", "deep"]), alpha=st.floats(0.0, 1.0),
       ratio=st.floats(0.0, 1.0), q=st.sampled_from([0.9, 0.5, 0.0, -1.0]),
       masses=st.sampled_from([(1.0, 2.0), (0.8, 1.3)]), coarse=st.booleans())
def test_polish_never_takes_more_passes_than_the_multisection(kind, alpha, ratio, q, masses,
                                                              coarse):
    # criterion-5's draws: single-level alpha in [0.6, 1.1], V0/alpha in
    # [0.86, 0.96]; multi-level alpha in [0.12, 0.18], V0/alpha in [0.9, 0.97];
    # and deep wells off q = 1 with several levels, where a poor root
    # estimate shows first: alpha in [0.3, 1.5], V0/alpha in [5, 200],
    # unequal masses, h at the default or at 0.049/alpha
    mc, h = MC1, 0.0
    if kind == "multi":
        alpha, ratio, q = 0.12 + 0.06 * alpha, 0.9 + 0.07 * ratio, 1.0
    elif kind == "single":
        alpha, ratio, q = 0.6 + 0.5 * alpha, 0.86 + 0.1 * ratio, 1.0
    else:
        alpha, ratio, mc = 0.3 + 1.2 * alpha, 5.0 + 195.0 * ratio, MassConfig(*masses)
        h = 0.049 / alpha if coarse else 0.0
    roots, calls = _counted_levels(PotentialParams(ratio * alpha, alpha, q), mc, h)
    assert roots
    edge = min(mc.total, 2.0 * mc.m_tilde)
    assert len(calls) <= 1 + _uniform_passes(edge / 239) == 1 + 5


@pytest.mark.parametrize("v0, alpha, q", [(0.9, 1.0, 1.0), (3.8, 1.0, 0.5), (6.2, 1.0, -1.0)])
def test_jost_function_does_not_depend_on_the_matching_point(v0, alpha, q):
    # F = residual exp(-kappa x_end) is the Wronskian of the regular and the
    # Jost solution, constant in x; taken at the matching point and at 1.5
    # times it, or at the old fixed point (5 + max(0, ln|q|))/alpha, it
    # differs only by the RK4 step error, rel 2e-10 at the default step,
    # which falls about 16-fold when the step halves
    p = PotentialParams(v0, alpha, q)
    energies = np.array([-1.9, -1.5, -1.0, -0.6, -0.3, -0.1])

    def jost(x_max, h):
        problem = oracle.EffectiveProblem(p, MC1, x_max=x_max, h=h)
        kappa = np.sqrt(-problem.g_coefficients(energies)[0])
        return oracle._jost_residual(problem, energies) * np.exp(-kappa * problem.steps()[2])

    x_m = oracle.matching_point(p, MC1)
    gaps = []
    for h in (0.01 / alpha, 0.005 / alpha):
        near, far = jost(x_m, h), jost(1.5 * x_m, h)
        gaps.append(np.max(np.abs(near / far - 1.0)))
    assert gaps[0] < 1e-9
    assert gaps[1] < gaps[0] / 8.0
    old = jost(_old_matching_point(p), 0.01 / alpha)
    assert np.max(np.abs(jost(x_m, 0.01 / alpha) / old - 1.0)) < 1e-9


@pytest.mark.parametrize("v0, alpha, q", BRENT_CASES)
def test_default_roots_match_the_old_matching_point(v0, alpha, q):
    # the roots move by the RK4 step error of the stretch no longer
    # integrated, at most rel 4.2e-11 on these cases
    p = PotentialParams(v0, alpha, q)
    roots = oracle.salpeter_levels(p, MC1)
    old = oracle.salpeter_levels(p, MC1, x_max=_old_matching_point(p))
    assert len(roots) == len(old) >= 1
    np.testing.assert_allclose(roots, old, rtol=1e-9, atol=0)


@pytest.mark.parametrize("q, v0, level", [(0.5, 1.5, -0.0189), (1.0, 0.9, -0.0150)],
                         ids=["0.5", "1.0"])
def test_backend_against_reference_integrator(q, v0, level):
    # third, dependency-free integrator as arbiter; at q = 1 both start from
    # the batched Frobenius series at x0 = 0.5/alpha. The energies sit around
    # a shallow level, where psi(x_max)/peak is not pinned at +-1 by a
    # growing tail, so the values test the integration itself.
    p = PotentialParams(v0, 1.0, q)
    energies = level * np.array([1.05, 1.0, 0.95])
    vals = oracle.mismatch_sweep(p, MC1, energies)
    assert np.all(np.abs(vals) < 0.99)
    e = energies[1]
    prob = oracle.EffectiveProblem(p, MC1)
    g0, g1, g2 = prob.g_coefficients(e)
    g_of_x = _g_of_x(g0, g1, g2, p.alpha, p.q)
    x0, u0, v0 = prob.start_state(e)
    nsteps = int(round((prob.x_max - x0) / prob.h))
    _, us = reference_rk4_trajectory(g_of_x, x0, u0, v0, prob.h, nsteps)
    ref = us[-1] / np.max(np.abs(us))
    assert vals[1] == pytest.approx(ref, rel=1e-10)
    # each batch row is the same computation as that energy on its own
    singles = [oracle.mismatch_sweep(p, MC1, [energy])[0] for energy in energies]
    np.testing.assert_array_equal(vals, singles)


@pytest.mark.parametrize("v0, q", [(0.9, 1.0), (1.5, 0.5)])
def test_wide_sweep_against_reference_integrator(v0, q):
    # a growing tail is its own running peak, so almost every value of a
    # default-window sweep is exactly +-1; the few that are not test the kernel
    p = PotentialParams(v0, 1.0, q)
    energies = np.linspace(-2.0 + 2e-8, -2e-8, 2000)
    vals = oracle.mismatch_sweep(p, MC1, energies)
    probes = np.flatnonzero(np.abs(vals) != 1.0)
    assert probes.size >= 4
    prob = oracle.EffectiveProblem(p, MC1)
    for i in probes:
        g0, g1, g2 = prob.g_coefficients(energies[i])
        x0, u0, du0 = prob.start_state(energies[i])
        nsteps = int(round((prob.x_max - x0) / prob.h))
        _, us = reference_rk4_trajectory(_g_of_x(g0, g1, g2, p.alpha, q), x0, u0, du0,
                                         prob.h, nsteps)
        assert vals[i] == pytest.approx(us[-1] / np.max(np.abs(us)), rel=1e-10)
        assert vals[i] == oracle.mismatch_sweep(p, MC1, [energies[i]])[0]


@pytest.mark.parametrize("nsteps", [0, 1, 15, 16, 17, 31, 32, 33, 37])
def test_kernel_step_counts_against_reference_integrator(nsteps):
    # no step, one step, and block boundaries (BLOCK_STEPS = 16; the last
    # block takes in a remainder shorter than that: 31 steps make one block,
    # 32 and 33 two) with an oscillating g, so psi is not pinned to its
    # growing tail
    g0s = np.array([30.0, 200.0, 400.0])
    g1s = np.array([1.0, -2.0, 0.5])
    g2, q, alpha, x0, h = 0.3, 0.5, 1.0, 0.2, 0.05
    u0s, v0s = np.array([0.3, -0.2, 1.0]), np.array([1.0, 2.0, -1.0])
    grid = step_grid(g2, q, alpha, x0, h, nsteps)
    u, v, log_scale = rk4_sweep(g0s, g1s, grid, u0s, v0s, h, nsteps)
    for j in range(3):
        _, us, vs = reference_rk4_trajectory(_g_of_x(g0s[j], g1s[j], g2, alpha, q),
                                             x0, u0s[j], v0s[j], h, nsteps, slopes=True)
        assert u[j] * np.exp(log_scale[j]) == pytest.approx(us[-1], rel=1e-10)
        assert v[j] * np.exp(log_scale[j]) == pytest.approx(vs[-1], rel=1e-10)
        alone = rk4_sweep(g0s[j:j + 1], g1s[j:j + 1], grid, u0s[j:j + 1], v0s[j:j + 1],
                          h, nsteps)
        assert (alone[0][0], alone[1][0], alone[2][0]) == (u[j], v[j], log_scale[j])
        if nsteps >= 15:
            assert abs(us[-1]) < np.max(np.abs(us))


@pytest.mark.parametrize("nsteps, blocks", [(1, 1), (15, 1), (16, 1), (18, 1), (31, 1), (32, 2),
                                            (33, 2), (47, 2), (48, 3)])
def test_last_block_takes_in_a_remainder_shorter_than_a_block(monkeypatch, nsteps, blocks):
    # the dirichlet mode checks its certificate once per block end; g > 0
    # keeps every energy in the batch to the end
    ends = []
    settled = _kernels.dirichlet_settled

    def spy(*args):
        ends.append(settled(*args))
        return ends[-1]

    monkeypatch.setattr(_kernels, "dirichlet_settled", spy)
    g0s, g1s, h = np.array([30.0, 200.0]), np.array([1.0, -2.0]), 0.05
    rk4_sweep(g0s, g1s, step_grid(0.3, 0.5, 1.0, 0.2, h, nsteps), np.zeros(2), np.ones(2), h,
              nsteps, dirichlet=True)
    assert len(ends) == blocks and not np.any(ends)


def _series_coefficients(coeffs):
    """(nu, a_k) of the regular solution for the energies of g_laurent_q1's rows coeffs."""
    nu, a = _kernels._frobenius_columns(coeffs)
    return nu, a[:, 1:]     # column 0 is the energy-independent part


def _polyval_start(coeffs, x0):
    """(psi, psi') of frobenius_start summed by two Horner loops, the reference form."""
    nu, a = _series_coefficients(coeffs)
    ks = np.arange(float(len(a)))[:, None]
    return x0 ** nu * polyval(x0, a), x0 ** (nu - 1.0) * polyval(x0, a * (nu + ks))


@pytest.mark.parametrize("v0, alpha, masses", [(0.9, 1.0, (1.0, 1.0)), (0.1425, 0.15, (1.0, 1.0)),
                                               (0.915, 1.0, (0.8, 1.3))])
def test_frobenius_start_gives_each_energy_its_batch_bits(v0, alpha, masses):
    mc = MassConfig(*masses)
    prob = oracle.EffectiveProblem(PotentialParams(v0, alpha, 1.0), mc)
    x0 = prob.steps()[0]
    rows = laurent_rows_q1(prob.g_coefficients(0.0)[2], alpha, 16)
    edge = min(mc.total, 2.0 * mc.m_tilde)
    energies = np.linspace(-edge + 1e-8, -1e-8, 240)

    def series(e):
        g0, g1, _ = prob.g_coefficients(e)
        return g_laurent_q1(g0, g1, rows)

    u, v = frobenius_start(series(energies), x0)
    assert u.shape == v.shape == (240,)
    for j in range(0, 240, 7):
        for batch in (energies[j:j + 1], energies[j:j + 2]):
            u_j, v_j = frobenius_start(series(batch), x0)
            assert np.shape(u_j) == np.shape(v_j) == np.shape(batch)
            assert _bits(u_j[0]) == _bits(u[j]) and _bits(v_j[0]) == _bits(v[j])
        # a float energy gets scalars with the same bits
        _, u_j, v_j = prob.start_state(float(energies[j]))
        assert np.shape(u_j) == np.shape(v_j) == ()
        assert _bits(u_j) == _bits(u[j]) and _bits(v_j) == _bits(v[j])
    # to rel 1e-14 of the series summed in absolute value: near a node of
    # psi at x0 the sum cancels (1500-fold at (0.1425, 0.15, 1), where the
    # Horner form is itself 2.5e-14 off the exactly summed series)
    nu, a = _series_coefficients(series(energies))
    ks = np.arange(17.0)[:, None]
    terms = np.abs(a) * x0 ** ks
    sizes = x0 ** nu * terms.sum(axis=0), x0 ** (nu - 1.0) * ((nu + ks) * terms).sum(axis=0)
    for got, ref, size in zip((u, v), _polyval_start(series(energies), x0), sizes):
        assert np.all(np.abs(got - ref) <= 1e-14 * size)


def test_overflow_rescale_keeps_the_tail_slope():
    # kappa * x_max ~ 290: psi grows past OVERFLOW_GUARD and is rescaled on
    # the way; two legs of half the domain each stay below the guard
    p = PotentialParams(0.9, 1.0, 1.0)
    prob = oracle.EffectiveProblem(p, MC1, x_max=300.0, h=0.05)
    energies = np.array([-1.5, -1.2, -0.9])
    g0s, g1s, g2 = prob.g_coefficients(energies)
    x0, u0s, v0s = prob.start_state(energies)
    nsteps = int(round((prob.x_max - x0) / prob.h))
    half = nsteps // 2
    kappa = np.sqrt(-g0s[0])
    assert kappa * (prob.x_max - x0) > math.log(OVERFLOW_GUARD)
    assert kappa * (nsteps - half) * prob.h < 0.7 * math.log(OVERFLOW_GUARD)

    def sweep(sl, x_start, u_start, v_start, steps):
        grid = step_grid(g2, p.q, p.alpha, x_start, prob.h, steps)
        return rk4_sweep(g0s[sl], g1s[sl], grid, u_start, v_start, prob.h, steps)

    u, v, log_scale = sweep(slice(None), x0, u0s, v0s, nsteps)
    u1, v1, scale1 = sweep(slice(0, 1), x0, u0s[:1], v0s[:1], half)
    m1 = max(abs(u1[0]), abs(v1[0]))
    u2, v2, scale2 = sweep(slice(0, 1), x0 + half * prob.h, u1 / m1, v1 / m1, nsteps - half)
    assert log_scale[0] > 0.0 and scale1[0] == scale2[0] == 0.0
    assert v[0] / u[0] == pytest.approx(v2[0] / u2[0], rel=1e-10)
    # the scale carried out of the kernel restores the unrescaled solution
    assert u[0] * np.exp(log_scale[0]) == pytest.approx(u2[0] * m1, rel=1e-10)
    assert v[0] * np.exp(log_scale[0]) == pytest.approx(v2[0] * m1, rel=1e-10)
    # each batch row is the same computation as that energy on its own
    for j in range(3):
        alone = sweep(slice(j, j + 1), x0, u0s[j:j + 1], v0s[j:j + 1], nsteps)
        assert (alone[0][0], alone[1][0], alone[2][0]) == (u[j], v[j], log_scale[j])


def _record_retirements(monkeypatch, batch):
    """Batch indices the next dirichlet-mode kernel call retires, in order."""
    live, retired = [np.arange(batch)], []
    settled = _kernels.dirichlet_settled

    def spy(*args):
        done = settled(*args)
        retired.extend(live[0][done])
        live[0] = live[0][~done]
        return done

    monkeypatch.setattr(_kernels, "dirichlet_settled", spy)
    return retired


def _retire_nothing(monkeypatch):
    """Make the next dirichlet-mode kernel calls run every energy to the end."""
    monkeypatch.setattr(_kernels, "dirichlet_settled",
                        lambda *args: np.zeros(np.shape(args[5]), dtype=bool))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


_WINDOW = (-2.0 + 2e-8, -2e-8, 600)
_DEEP = (-2.0 + 1e-3, -1e-3, 300)


@pytest.mark.parametrize("v0, alpha, q, masses, energies, box, min_share", [
    (0.9, 1.0, 1.0, (1.0, 1.0), _WINDOW, (0.0, 0.0), 0.9),
    (1.5, 1.0, 0.5, (1.0, 1.0), _WINDOW, (0.0, 0.0), 0.9),
    (2.0, 1.0, 0.0, (1.0, 1.0), _WINDOW, (0.0, 0.0), 0.9),
    (6.2, 1.0, -1.0, (1.0, 1.0), _WINDOW, (0.0, 0.0), 0.9),
    (1.5, 1.0, 0.5, (1.0, 2.0), (-3.0 + 1e-6, -1e-6, 600), (0.0, 0.0), 0.9),
    (250.0, 1.0, 0.0, (1.0, 1.0), _DEEP, (0.0, 0.0), 0.9),
    # outside (-2 m_tilde, 0) = (-4, 0) g0 >= 0: the tail is never forbidden
    (0.9, 1.0, 1.0, (1.0, 1.0), (-5.0, -4.0, 100), (0.0, 0.0), 0.0),
    (1.5, 1.0, 0.5, (1.0, 1.0), (0.0, 1.0, 100), (0.0, 0.0), 0.0),
    # kappa * x_max ~ 290: the guard rescales the full path after retirement
    (0.9, 1.0, 1.0, (1.0, 1.0), (-1.9, -0.01, 100), (300.0, 0.05), 0.9),
], ids=["q=1", "q=0.5", "q=0", "q=-1", "masses-1-2", "deep-250", "below-threshold",
        "above-zero", "rescaled-box"])
def test_retired_sweep_is_bitwise_the_full_integration(monkeypatch, v0, alpha, q, masses,
                                                       energies, box, min_share):
    # with no energy retired the kernel runs the full integration;
    # mismatch_sweep drops an energy as soon as its result is certified to
    # be sign(psi)
    p = PotentialParams(v0, alpha, q)
    mc = MassConfig(*masses)
    energies = np.linspace(*energies)
    x_max, h = box
    settled = _kernels.dirichlet_settled
    _retire_nothing(monkeypatch)
    full = oracle.mismatch_sweep(p, mc, energies, x_max=x_max, h=h)
    monkeypatch.setattr(_kernels, "dirichlet_settled", settled)
    # the batch may have any shape, as in the full integration
    grid = oracle.mismatch_sweep(p, mc, energies.reshape(2, -1), x_max=x_max, h=h)
    retired = _record_retirements(monkeypatch, energies.size)
    vals = oracle.mismatch_sweep(p, mc, energies, x_max=x_max, h=h)
    np.testing.assert_array_equal(_bits(vals), _bits(full))
    np.testing.assert_array_equal(_bits(grid), _bits(full.reshape(2, -1)))
    assert np.all(np.abs(vals[retired]) == 1.0)
    if min_share:
        assert len(retired) >= min_share * energies.size
    else:
        assert retired == []
    if x_max:
        g0s = oracle.EffectiveProblem(p, mc).g_coefficients(energies)[0]
        assert np.sqrt(-g0s[0]) * x_max > math.log(OVERFLOW_GUARD)


def test_mismatch_sweep_bits_off_q1_are_pinned():
    # off q = 1 the start state is exact and no rescale falls inside these
    # sweeps, so taking a short remainder into the last kernel block leaves
    # every bit as it was; the digest was recorded before that change
    settings = [((1.5, 1.0, 0.5), (1.0, 1.0), _WINDOW[:2], 0.0, 0.0),
                ((2.0, 1.0, 0.0), (1.0, 1.0), _WINDOW[:2], 0.0, 0.0),
                ((6.2, 1.0, -1.0), (1.0, 1.0), _WINDOW[:2], 0.0, 0.0),
                ((1.5, 1.0, 0.5), (1.0, 2.0), (-3.0 + 1e-6, -1e-6), 0.0, 0.0),
                ((250.0, 1.0, 0.0), (1.0, 1.0), _DEEP[:2], 0.0, 0.0),
                ((3.8, 1.0, 0.5), (1.0, 1.0), _WINDOW[:2], 0.0, 0.049),
                ((1.5, 1.0, 0.5), (1.0, 1.0), (-1.9, -0.01), 300.0, 0.05)]
    digest = hashlib.sha256()
    for params, masses, window, x_max, h in settings:
        energies = np.linspace(*window, 2000)
        vals = oracle.mismatch_sweep(PotentialParams(*params), MassConfig(*masses), energies,
                                     h=h, x_max=x_max)
        digest.update(np.ascontiguousarray(vals, dtype=float).tobytes())
    assert digest.hexdigest() == "4c27b587704ce8f58c80d4652d5df87c6a518965762f182c9d283aad71e836aa"


def test_opposite_signs_with_an_underflowing_product_do_not_retire(monkeypatch):
    # steps of 1e-20 leave psi = 1e-200 = peak and psi' = -1e-200 as they
    # are in a forbidden region; psi * psi' underflows to -0.0, but the
    # signs differ, so the certificate must not pass
    g0s, g1s = np.array([-1.0]), np.array([0.0])
    u0s, v0s = np.array([1e-200]), np.array([-1e-200])
    assert u0s[0] * v0s[0] == 0.0
    nsteps = 3 * _kernels.BLOCK_STEPS
    args = (g0s, g1s, step_grid(0.0, 0.5, 1.0, 0.5, 1e-20, nsteps), u0s, v0s, 1e-20, nsteps)
    settled = _kernels.dirichlet_settled
    _retire_nothing(monkeypatch)
    full = rk4_sweep(*args, dirichlet=True)
    monkeypatch.setattr(_kernels, "dirichlet_settled", settled)
    retired = _record_retirements(monkeypatch, 1)
    psi = rk4_sweep(*args, dirichlet=True)
    assert retired == []
    assert _bits(psi) == _bits(full)
    # with psi' of psi's sign the same state passes at the first block end
    retired = _record_retirements(monkeypatch, 1)
    assert rk4_sweep(*args[:4], -v0s, *args[5:], dirichlet=True) == 1.0
    assert retired == [0]


@pytest.mark.parametrize("q", [1.0, 0.5])
def test_empty_energy_batch_gives_empty_results(q):
    # at q = 1 the indicial root comes from the energy-independent Laurent
    # rows, so a batch with no energy needs no first column to read it from
    p = PotentialParams(0.9, 1.0, q)
    assert oracle.mismatch_sweep(p, MC1, []).shape == (0,)
    x0, u0s, v0s = oracle.EffectiveProblem(p, MC1).start_state(np.array([]))
    assert u0s.shape == v0s.shape == (0,)


def test_window_validation():
    # below -2 m_tilde the tail oscillates and the decaying-tail match is undefined
    p = PotentialParams(0.9, 1.0, 1.0)
    with pytest.raises(ValidationError):
        oracle.salpeter_levels(p, MC1, window=(-2.0 * MC1.m_tilde - 0.1, -0.01))
    with pytest.raises(ValidationError):
        oracle.salpeter_levels(p, MC1, window=(-0.5, 0.0))
