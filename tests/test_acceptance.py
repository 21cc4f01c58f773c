"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Known analytic defects of the closed forms (branches that do not solve the
reduced equation, level-count overprediction) are recorded in the shared
findings artifact instead of being forced green; the numerical oracle is
authoritative there.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import announce
from reference import nu_engine as nu
from reference.jacobi_forms import (
    jacobi_binomial_form,
    jacobi_coefficients,
    jacobi_eval,
    jacobi_gamma_form,
)
from salpeter_hulthen import (
    MassConfig,
    PotentialParams,
    Regime,
    SymmetryVerdict,
    bound_states,
    check_pt_symmetry,
    exponential_energy_imaginary_alpha,
    level_count,
    nonrelativistic_energy,
    salpeter_energy_equal_mass,
)
from salpeter_hulthen import oracle, spectra
from salpeter_hulthen import wavefunctions as wfp
from salpeter_hulthen.errors import NonConvergentError
from salpeter_hulthen.special_functions import gauss_2f1

MC1 = MassConfig.equal(1.0)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    announce(f"ACCEPTANCE {name}: {tag}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_1_zero_coupling_limits():
    m = 1.0
    p = PotentialParams(1e-12 * m, m, 1.0)
    e0 = salpeter_energy_equal_mass(p, m, 0).minus.real
    e1 = salpeter_energy_equal_mass(p, m, 1).minus.real
    ok0 = abs(e0 - (-3.732 * m)) / (3.732 * m) < 1e-3
    ok1 = abs(e1 - (-2.0 * m)) / (2.0 * m) < 1e-6
    assert _report("criterion-1 (zero-coupling limit values)", ok0 and ok1,
                   f"E0={e0:.6f} E1={e1:.9f}")


def test_criterion_2_nonrelativistic_golden(findings):
    p = PotentialParams(2.0, 1.0, 1.0)
    mu = 0.5
    e0 = nonrelativistic_energy(p, mu, 0)
    e1 = nonrelativistic_energy(p, mu, 1, check_exists=False)
    assert e0 == pytest.approx(-0.25, abs=1e-12)
    assert e1 == pytest.approx(-0.25, abs=1e-12)
    fd = oracle.fd_eigenvalues(p, mu, 2, h=0.005)
    ok = abs(fd[0] - e0) < 1e-5 and abs(fd[0] - e1) < 1e-5
    # the n = 1 closed-form value coincides with n = 0 numerically, but the
    # level fails the existence condition n+1 < sqrt(beta) = sqrt(2); the
    # discretized problem has a single bound state and its next eigenvalue
    # is a continuum artifact of the finite box
    findings.record("criterion-2", {
        "note": "formula n=1 equals n=0 by the x -> beta/x symmetry of the bracket "
                "but violates the existence condition; the oracle has one bound level",
        "formula_n0": e0, "formula_n1": e1,
        # to 1e-8: 100x finer than the oracle's 1e-6 target and 100x coarser
        # than its bisection noise (~1e-10), which reaches the 10th
        # significant digit of both values
        "oracle_ground": round(float(fd[0]), 8), "oracle_next": round(float(fd[1]), 8),
    })
    assert _report("criterion-2 (nonrelativistic golden value)", ok,
                   f"fd={fd[0]:.9f} vs -0.25; second fd level {fd[1]:+.4f} is continuum")


def test_criterion_3_nu_reproduction(rng):
    worst = 0.0
    for _ in range(100):
        eps = rng.uniform(0.1, 2.0)
        eps1 = rng.uniform(0.1, 3.0)
        eps3 = rng.uniform(0.1, 3.0)
        q = rng.uniform(0.3, 2.0)
        eps2_sq = rng.uniform(0.0, 0.9) * q * q / 4.0
        b = np.sqrt(q * q - 4.0 * eps2_sq)
        prob = nu.hulthen_problem(eps, eps1, eps2_sq, eps3, q)
        ks = nu.candidate_k(prob)
        expect_k = sorted([eps1 + eps3 - b * eps, eps1 + eps3 + b * eps])
        got_k = sorted(z.real for z in ks)
        worst = max(worst, abs(got_k[0] - expect_k[0]), abs(got_k[1] - expect_k[1]))
        # all four (k, sign) combinations against the closed-form pi branches:
        # pi = -qs/2 +- (1/2)[(2 q eps -+ b) s - 2 eps]
        for k_val, slope in ((expect_k[1], 2 * q * eps - b), (expect_k[0], 2 * q * eps + b)):
            expect_w = np.array([-eps, slope / 2.0], dtype=complex)
            for sign in (nu.SignChoice.PLUS, nu.SignChoice.MINUS):
                sol = nu.solve_with_k(prob, k_val, sign)
                w_lin = sol.pi - prob.half_diff()
                match_plus = np.max(np.abs(w_lin - expect_w))
                match_minus = np.max(np.abs(w_lin + expect_w))
                worst = max(worst, min(match_plus, match_minus))
        # the admissible branch: k_minus with the sign giving pi(0) = +eps
        sol = nu.solve_with_k(prob, expect_k[0], nu.SignChoice.MINUS)
        tau_expect = np.array([1 + 2 * eps, -q * (2 + 2 * eps + b / q)], dtype=complex)
        worst = max(worst, np.max(np.abs(sol.tau - tau_expect)))
        lam_expect = -(q / 2.0) * (1 + 2 * eps) * (1 + b / q) + eps1 + eps3
        worst = max(worst, abs(sol.lam - lam_expect))
        for n in range(4):
            lam_n = nu.quantized_lambda(sol, prob.sigma, n)
            worst = max(worst, abs(lam_n - (1 + n + 2 * eps + b / q) * n * q))
    assert _report("criterion-3 (reduction branch table, 100 draws)", worst < 1e-12,
                   f"worst coefficient deviation {worst:.2e}")


def test_criterion_4_ode_residual(findings):
    cases = [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, -1.0)]
    xs = np.linspace(0.05, 20.0, 200)
    passing = []
    table = []
    for v0, alpha, q in cases:
        p = PotentialParams(v0, alpha, q)
        try:
            roots = oracle.salpeter_levels(p, MC1)
            oracle_info = [float(r) for r in roots]
        except NonConvergentError as exc:
            oracle_info = f"oracle refused: {exc}"
        for n in (0, 1):
            for state in bound_states(p, MC1, n):
                wf = wfp.assemble(p, MC1, state)
                res = float(wfp.ode_residual(wf, xs).max())
                entry = {"params": (v0, alpha, q), "n": n, "branch": state.branch.value,
                         "energy": str(state.energy), "max_residual": res,
                         "oracle": oracle_info}
                if res < 1e-6:
                    passing.append(entry)
                else:
                    table.append(entry)
    for entry in table:
        findings.record("criterion-4", entry)
    # flagged q = -1 comparison: the alternate literature prefactor disagrees
    # with the equal-mass closed form it is supposed to rearrange
    p_ws = PotentialParams(1.0, 1.0, -1.0)
    corrected = spectra.woods_saxon_energy(p_ws, 1.0, 0)
    verbatim = spectra.woods_saxon_energy(p_ws, 1.0, 0, verbatim=True)
    findings.record("criterion-4", {
        "note": "alternate q=-1 prefactor vs the equal-mass closed form at q=-1; "
                "the oracle finds no bound state for these couplings either way",
        "params": (1.0, 1.0, -1.0),
        "equal_mass_form": [str(corrected.minus), str(corrected.plus)],
        "verbatim_form": [str(verbatim.minus), str(verbatim.plus)],
    })
    # each parameter set owns at least one branch that solves the equation
    sets_passing = {e["params"] for e in passing}
    ok = sets_passing == set(cases)
    assert _report("criterion-4 (end-to-end ODE residual)", ok,
                   f"{len(passing)} branch cases < 1e-6; "
                   f"{len(table) + 1} recorded in findings")


def test_criterion_5_oracle_cross_check(findings, rng):
    draws = []
    for _ in range(3):   # single-level draws
        alpha = rng.uniform(0.6, 1.1)
        v0 = rng.uniform(0.86, 0.96) * alpha
        draws.append(("single-level", PotentialParams(v0, alpha, 1.0)))
    for _ in range(2):   # multi-level draws
        alpha = rng.uniform(0.12, 0.18)
        v0 = rng.uniform(0.9, 0.97) * alpha
        draws.append(("multi-level", PotentialParams(v0, alpha, 1.0)))
    # more draws from the same boxes, after the first five so that those
    # keep their values
    for _ in range(60):
        alpha = rng.uniform(0.6, 1.1)
        v0 = rng.uniform(0.86, 0.96) * alpha
        draws.append(("single-level", PotentialParams(v0, alpha, 1.0)))
    for _ in range(40):
        alpha = rng.uniform(0.12, 0.18)
        v0 = rng.uniform(0.9, 0.97) * alpha
        draws.append(("multi-level", PotentialParams(v0, alpha, 1.0)))
    all_matched = True
    counts = {"single-level": [], "multi-level": []}    # (predicted, oracle) per draw
    for box, p in draws:
        roots = oracle.salpeter_levels(p, MC1)
        physical = []
        for n in range(8):
            for state in bound_states(p, MC1, n):
                if state.physical:
                    physical.append((n, state.energy.real))
        predicted = level_count(p, 1.0)
        # recorded: the roots to 10 significant digits and the rel errors of
        # those recorded roots (off the full-precision ones by at most half
        # a unit of the 10th digit over |E|), so a root move far inside
        # ROOT_XTOL leaves the artifact's bytes as they were
        shown, shown_errors = [], []
        for root in roots:
            best = min(physical, key=lambda t: abs(t[1] - root)) if physical else None
            rel = abs(best[1] - root) / abs(root) if best else np.inf
            if rel > 1e-4:
                all_matched = False
            shown.append(float(f"{root:.10g}"))
            rel = abs(best[1] - shown[-1]) / abs(shown[-1]) if best else np.inf
            shown_errors.append(float(f"{rel:.10g}"))
        # the shooting oracle's stated validity floor is |E| > 0.01 alpha^2/(2 mu);
        # nearer-threshold levels depend on the domain truncation
        floor = 0.01 * p.alpha**2 / (2.0 * MC1.mu)
        deep_formula = [t for t in physical if abs(t[1]) > floor]
        deep_roots = [r for r in roots if abs(r) > floor]
        entry = {"V0": p.v0, "alpha": p.alpha, "q": p.q,
                 "oracle_roots": shown,
                 "physical_formula": physical,
                 "level_count_bound": predicted,
                 "root_rel_errors": shown_errors,
                 "oracle_floor": floor}
        # the closed-form count bounds real-energy pairs, not true eigenstates,
        # so it overpredicts: summarized per box below; any other disagreement
        # is recorded draw by draw
        counts[box].append((predicted, len(roots)))
        if predicted < len(roots):
            findings.record("criterion-5", entry)
        if len(deep_formula) != len(physical):
            findings.record("criterion-5-subfloor", entry)
        # above the validity floor the physical-branch set must agree exactly
        assert len(deep_formula) == len(deep_roots)
    for box, pairs in counts.items():
        predicted, oracle_counts = zip(*pairs)
        findings.record("criterion-5", {
            "box": box, "draws": len(pairs),
            "level_count_overpredicts": sum(a > b for a, b in pairs),
            "level_count_bound_range": [min(predicted), max(predicted)],
            "oracle_root_count_range": [min(oracle_counts), max(oracle_counts)],
        })
    assert _report(f"criterion-5 (oracle cross-check, {len(draws)} draws)", all_matched,
                   "all roots matched a physical branch at 1e-4; "
                   "critical-coupling-bound overpredictions recorded in findings")


def test_criterion_6_special_functions(rng):
    worst = 0.0
    for _ in range(40):
        while True:
            rho = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            nu_p = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            bad = False
            for base in (rho, nu_p, rho + nu_p):
                if abs(base.imag) < 0.05 and abs(base.real - round(base.real)) < 0.25:
                    bad = True
            if not bad:
                break
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in range(9):
            a = jacobi_eval(n, rho, nu_p, z)
            b = jacobi_binomial_form(n, rho, nu_p, z)
            c = jacobi_gamma_form(n, rho, nu_p, z)
            scale = max(abs(a), abs(b), abs(c), 1.0)
            worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
    gauss = abs(gauss_2f1(1.0, 1.0, 3.0, 1.0) - 2.0)
    ortho = 0.0
    eps, bpar = 0.4, 0.6
    polys = {n: jacobi_coefficients(n, 2 * eps, bpar) for n in range(5)}
    for m in range(5):
        for n in range(m + 1, 5):
            val = quad(lambda s: (s ** (2 * eps) * (1 - s) ** bpar
                                  * polys[m](1 - 2 * s).real * polys[n](1 - 2 * s).real),
                       0.0, 1.0, epsabs=1e-12, limit=200)[0]
            ortho = max(ortho, abs(val))
    ok = worst <= 1e-10 and gauss <= 1e-10 and ortho <= 1e-8
    assert _report("criterion-6 (special-function suite)", ok,
                   f"cross-form {worst:.1e}, Gauss {gauss:.1e}, orthogonality {ortho:.1e}")


def test_criterion_7_normalization():
    p = PotentialParams(0.057, 0.06, 1.0)   # four genuine levels at q = 1
    worst_norm = 0.0
    worst_int = 0.0
    for n in range(4):
        state = bound_states(p, MC1, n)[1]
        assert state.physical
        wf = wfp.assemble(p, MC1, state)
        wf = wf.with_norm(wfp.normalization_constant(wf))
        val = quad(lambda s: abs(wfp.psi_of_s(wf, s)) ** 2, 0.0, 1.0,
                   epsabs=1e-12, limit=300)[0]
        worst_norm = max(worst_norm, abs(val - 1.0))
        if n <= 3:
            rho, nu_p = wf.jacobi.rho_param, wf.jacobi.nu_param
            for pp in range(n + 1):
                for rr in range(n + 1):
                    closed = wfp.norm_integral_closed(n, rho, nu_p, wf.q_eff, pp, rr)
                    direct = quad(
                        lambda s: (s ** (n + rho.real + rr - pp)
                                   * (1 - s) ** (pp + nu_p.real + 1)),
                        0.0, 1.0, epsabs=1e-13, limit=300)[0]
                    worst_int = max(worst_int, abs(closed.real - direct))
    ok = worst_norm <= 1e-8 and worst_int <= 1e-9
    assert _report("criterion-7 (normalization, n <= 3 at q = 1)", ok,
                   f"|quad-1| {worst_norm:.1e}, closed-vs-quad {worst_int:.1e}")


def test_criterion_8_symmetry_verdicts():
    grid = np.linspace(0.03, 2.9, 100)
    v1 = check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_ALPHA),
                           grid, 1e-12)
    v2 = check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0, Regime.ALL_COMPLEX),
                           grid, 1e-12)
    ok = v1 is SymmetryVerdict.PT_SYMMETRIC and v2 is SymmetryVerdict.P_PSEUDO_HERMITIAN
    assert _report("criterion-8 (symmetry verdicts at 1e-12)", ok,
                   f"ComplexAlpha={v1.value}, AllComplex={v2.value}")


def test_criterion_9_complex_identities(rng):
    worst = 0.0
    for _ in range(200):
        v0 = rng.uniform(0.1, 3.0)
        alpha = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.3, 2.5)
        m = rng.uniform(0.5, 2.0)
        n = int(rng.integers(0, 6))
        p = PotentialParams(v0, alpha, q)
        aux = spectra.spectral_auxiliaries(p, MassConfig.equal(m), n)
        gap = 4.0 * q * alpha * (2 * n + 1) * np.sqrt(q * q * alpha * alpha + v0 * v0)
        worst = max(worst, abs(aux.varsigma - aux.varsigma_tilde - gap) / max(1.0, gap))
        xi_err = abs(aux.xi - (aux.kappa**2 + v0 * v0)) / max(1.0, abs(aux.xi))
        worst = max(worst, xi_err)
    e73 = exponential_energy_imaginary_alpha(1.0, 2.0, 1.0, 0)
    ok = worst < 1e-12 and e73 == -4.0
    assert _report("criterion-9 (complex-case identities)", ok,
                   f"worst identity residual {worst:.1e}; imaginary-screening value {e73}")
