import numpy as np
import pytest
from scipy.integrate import quad

from salpeter_hulthen import MassConfig, PotentialParams, Regime, bound_states
from salpeter_hulthen import spectra
from salpeter_hulthen import wavefunctions as wfp
from salpeter_hulthen.errors import (
    ConvergenceViolationError,
    PoleOnGridError,
    RegimeMismatchError,
    ValidationError,
)
from salpeter_hulthen.special_functions import beta_fn, jacobi_coefficients

MC1 = MassConfig.equal(1.0)
DEEP = PotentialParams(0.057, 0.06, 1.0)   # four genuine levels at q = 1


def test_rodrigues_matches_jacobi_exactly(rng):
    for _ in range(10):
        eps = complex(rng.uniform(0.1, 1.5), rng.uniform(-0.3, 0.3))
        w = complex(rng.uniform(-0.5, 2.0), rng.uniform(-0.3, 0.3))
        q = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
        for n in range(6):
            rod = wfp.rodrigues_polynomial(n, eps, w, q)
            jac = jacobi_coefficients(n, 2 * eps, w)
            scale = max(1.0, np.max(np.abs(jac.coeffs)))
            assert np.max(np.abs(rod.coeffs - jac.coeffs)) < 1e-11 * scale


def test_rodrigues_small_orders():
    rod0 = wfp.rodrigues_polynomial(0, 0.4, 0.7, 1.0)
    np.testing.assert_allclose(rod0.coeffs, [1.0], atol=1e-15)
    eps, w, q = 0.4, 0.7, 1.0
    rod1 = wfp.rodrigues_polynomial(1, eps, w, q)
    rho, nu = 2 * eps, w
    np.testing.assert_allclose(rod1.coeffs, [(rho - nu) / 2.0, (rho + nu + 2) / 2.0],
                               atol=1e-13)
    # degree 3: pointwise ratio against the Jacobi values is constant 1
    rod3 = wfp.rodrigues_polynomial(3, 0.37, 1.21, 0.85)
    jac3 = jacobi_coefficients(3, 0.74, 1.21)
    zs = np.linspace(-0.9, 0.9, 20)
    np.testing.assert_allclose(rod3(zs) / jac3(zs), np.ones_like(zs), rtol=1e-9)


def test_rodrigues_order_beyond_float_factorial():
    # 1/n! needs n! as a float: 170! fits, 171! raised a raw OverflowError
    assert wfp.rodrigues_polynomial(170, 0.4, 0.7, 1.0).n == 170
    with pytest.raises(ValidationError):
        wfp.rodrigues_polynomial(171, 0.4, 0.7, 1.0)
    p = PotentialParams(0.9, 1.0, 1.0)
    with pytest.raises(ValidationError):
        wfp.assemble(p, MC1, bound_states(p, MC1, 171)[1])


def _state(params, n, branch="plus"):
    mi, pl = bound_states(params, MC1, n)
    return pl if branch == "plus" else mi


def test_assemble_real_regime():
    p = PotentialParams(0.9, 1.0, 1.0)
    st = _state(p, 0)
    wf = wfp.assemble(p, MC1, st)
    b = np.sqrt(1.0 - 0.81)
    assert wf.edge_exponent == pytest.approx((b + 1.0) / 2.0, rel=1e-12)
    assert wf.q_eff == 1.0
    assert wf.s_rate == 1.0
    assert wf.jacobi.rho_param == pytest.approx(2 * wf.eps_exponent)
    # n = 0: psi = N s^eps (1-qs)^((b+q)/2q)
    s = 0.37
    val = wfp.psi_of_s(wf, s)
    assert val == pytest.approx(s**wf.eps_exponent * (1 - s) ** wf.edge_exponent, rel=1e-12)


def test_assemble_complex_alpha_regime():
    p = PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_ALPHA)
    st = _state(p, 0)
    wf = wfp.assemble(p, MC1, st)
    c = np.sqrt(4.0 + 1.0)
    assert wf.edge_exponent == pytest.approx((c + 2.0) / 4.0, rel=1e-12)
    assert wf.s_rate == pytest.approx(1j)
    assert wf.q_eff == 2.0
    # this regime carries the exponent i*eps with eps^2 = (2mu/alpha^2)(E + E^2/2mt)
    e = st.energy
    eps = np.sqrt((e + e * e / 4.0) + 0j)
    assert wf.eps_exponent == pytest.approx(1j * eps, rel=1e-12)
    assert wf.jacobi.nu_param == pytest.approx(c / 2.0, rel=1e-12)


def test_assemble_complex_v0q_regime():
    p = PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_V0_Q)
    st = _state(p, 0)
    wf = wfp.assemble(p, MC1, st)
    d = np.sqrt(4.0 - 1.0)
    assert wf.q_eff == pytest.approx(2j)
    assert wf.edge_exponent == pytest.approx((d + 2.0) / 4.0, rel=1e-12)
    assert wf.jacobi.nu_param == pytest.approx(d / 2.0, rel=1e-12)
    assert wf.s_rate == pytest.approx(1.0)


def test_assemble_all_complex_regime():
    p = PotentialParams(1.0, 1.0, 2.0, Regime.ALL_COMPLEX)
    st = _state(p, 0)
    wf = wfp.assemble(p, MC1, st)
    c = np.sqrt(4.0 + 1.0)
    assert wf.q_eff == pytest.approx(2j)
    assert wf.s_rate == pytest.approx(1j)
    assert wf.edge_exponent == pytest.approx((c + 2.0) / 4.0, rel=1e-12)


def test_assemble_nonrelativistic_complex():
    p = PotentialParams(1.0, 1.0, 1.0, Regime.COMPLEX_ALPHA)
    e = spectra.nonrelativistic_energy(p, 0.5, 0)
    aux = spectra.spectral_auxiliaries(p, MC1, 0)
    state = spectra.BoundState(n=0, energy=complex(e), branch=spectra.Branch.PLUS,
                               physical=True, aux=aux,
                               energy_pair=spectra.EnergyPair(complex(e), complex(e)),
                               regime=Regime.COMPLEX_ALPHA, kinematics="nonrelativistic")
    wf = wfp.assemble(p, MC1, state)
    assert wf.edge_exponent == 1.0
    assert wf.jacobi.nu_param == pytest.approx(1.0)
    # quantization exponent: -(eps1_nr + q (n+1)^2)/(2 q (n+1))
    assert wf.eps_exponent == pytest.approx(-(1.0 + 1.0) / 2.0, rel=1e-12)
    # energy consistency with the positive spectrum: E = alpha^2 eps~^2 / (2 mu)
    assert e == pytest.approx(abs(wf.eps_exponent) ** 2, rel=1e-12)


def test_assemble_regime_mismatch():
    p = PotentialParams(0.9, 1.0, 1.0)
    st = _state(p, 0)
    with pytest.raises(RegimeMismatchError):
        wfp.assemble(PotentialParams(0.9, 1.0, 1.0, Regime.COMPLEX_ALPHA), MC1, st)


def test_norm_integral_closed_vs_quadrature():
    # I_00(0,0) against direct quadrature of s^(2 eps) (1-s)^(b+1)
    eps, b, q = 0.42, 0.63, 1.0
    closed = wfp.norm_integral_closed(0, 2 * eps, b, q, 0, 0)
    ref = quad(lambda s: s ** (2 * eps) * (1 - s) ** (b + 1), 0, 1, epsabs=1e-13)[0]
    assert closed.real == pytest.approx(ref, abs=1e-10)
    assert abs(closed.imag) < 1e-14


def test_normalization_n0_beta_closed_form():
    p = PotentialParams(0.9, 1.0, 1.0)
    wf = wfp.assemble(p, MC1, _state(p, 0))
    n_const = wfp.normalization_constant(wf)
    b = np.sqrt(1 - 0.81)
    eps = wf.eps_exponent.real
    ref = 1.0 / np.sqrt(beta_fn(2 * eps + 1, b + 2).real)
    assert n_const.real == pytest.approx(ref, rel=1e-12)


def test_normalization_makes_unit_norm():
    for n in (0, 1):
        mi, pl = bound_states(DEEP, MC1, n)
        wf = wfp.assemble(DEEP, MC1, pl).with_norm(1.0)
        wf = wf.with_norm(wfp.normalization_constant(wf))
        val = quad(lambda s: abs(wfp.psi_of_s(wf, s)) ** 2, 0, 1,
                   epsabs=1e-12, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-8)


def test_pt_norm_phase():
    p = PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_ALPHA)
    st = _state(p, 0)
    wf = wfp.assemble(p, MC1, st)
    nu_sign, integral = wfp.pt_norm_phase(wf)
    assert nu_sign in (1, -1)
    # normalizing with 1/sqrt(|J|) makes the PT norm a unit phase
    wf2 = wf.with_norm(1.0 / np.sqrt(abs(integral)))
    _, integral2 = wfp.pt_norm_phase(wf2)
    assert abs(integral2) == pytest.approx(1.0, rel=1e-8)


def test_evaluate_on_grid_boundaries():
    p = PotentialParams(0.9, 1.0, 1.0)
    wf = wfp.assemble(p, MC1, _state(p, 0))
    tail = wfp.evaluate_on_grid(wf, [80.0, 120.0])
    assert abs(tail[1]) < abs(tail[0]) < 1e-4
    # q = 1 at x = 0: the (1-s) edge factor with positive exponent vanishes
    assert wfp.evaluate_on_grid(wf, [0.0])[0] == 0.0
    near_zero = wfp.evaluate_on_grid(wf, [1e-7])
    assert abs(near_zero[0]) < 1e-3


def test_node_counts_match_level_index():
    for n in range(3):
        mi, pl = bound_states(DEEP, MC1, n)
        wf = wfp.assemble(DEEP, MC1, pl)
        xs = np.linspace(0.5, 250.0, 6000)
        vals = wfp.evaluate_on_grid(wf, xs)
        assert wfp.count_nodes(vals) == n


def test_ode_residual_real_regime():
    p = PotentialParams(0.9, 1.0, 1.0)
    mi, pl = bound_states(p, MC1, 0)
    wf = wfp.assemble(p, MC1, pl)
    xs = np.linspace(0.05, 25.0, 200)
    assert wfp.ode_residual(wf, xs).max() < 1e-10
    # the spurious branch does not solve the equation
    wf_bad = wfp.assemble(p, MC1, mi)
    assert wfp.ode_residual(wf_bad, xs).max() > 1e-2


def test_ode_residual_complex_v0q_regime():
    # at genuine couplings the case (V0 -> iV0, q -> iq) state solves the
    # substituted reduced equation pointwise; the i-factors thread through
    # the whole pipeline (exponents, Jacobi parameters, energies)
    p = PotentialParams(0.9, 1.0, 1.0, Regime.COMPLEX_V0_Q)
    mi, pl = bound_states(p, MC1, 0)
    xs = np.linspace(0.05, 20.0, 150)
    wf = wfp.assemble(p, MC1, pl)
    assert wfp.ode_residual(wf, xs).max() < 1e-10
    assert wfp.ode_residual(wfp.assemble(p, MC1, mi), xs).max() > 1e-2


def test_ode_residual_nonrelativistic_complex_alpha():
    # the imaginary-screening positive spectrum and its state solve the
    # alpha -> i alpha nonrelativistic equation
    p = PotentialParams(1.0, 1.0, 1.0, Regime.COMPLEX_ALPHA)
    for n in range(3):
        e = spectra.nonrelativistic_energy(p, 0.5, n)
        aux = spectra.spectral_auxiliaries(p, MC1, n)
        state = spectra.BoundState(n=n, energy=complex(e), branch=spectra.Branch.PLUS,
                                   physical=True, aux=aux,
                                   energy_pair=spectra.EnergyPair(complex(e), complex(e)),
                                   regime=Regime.COMPLEX_ALPHA,
                                   kinematics="nonrelativistic")
        wf = wfp.assemble(p, MC1, state)
        xs = np.linspace(0.05, 3.0, 120)
        assert wfp.ode_residual(wf, xs).max() < 1e-10


def test_ode_residual_nonrelativistic():
    p = PotentialParams(2.0, 1.0, 1.0)
    e = spectra.nonrelativistic_energy(p, 0.5, 0)
    aux = spectra.spectral_auxiliaries(p, MC1, 0)
    state = spectra.BoundState(n=0, energy=complex(e), branch=spectra.Branch.PLUS,
                               physical=True, aux=aux,
                               energy_pair=spectra.EnergyPair(complex(e), complex(e)),
                               regime=Regime.REAL, kinematics="nonrelativistic")
    wf = wfp.assemble(p, MC1, state)
    xs = np.linspace(0.05, 20.0, 150)
    assert wfp.ode_residual(wf, xs).max() < 1e-10


def test_fd_eigenvector_nodes_agree_with_closed_form():
    # oracle-side node count: FD eigenvectors of the nonrelativistic problem
    from scipy.linalg import eigh_tridiagonal

    p = PotentialParams(0.3, 0.15, 1.0)   # beta = 2 mu V0 / alpha^2 = 13.3: 3 levels
    mu = 0.5
    h, x_max = 0.02, 300.0
    npts = int(x_max / h)
    xs = h * np.arange(1, npts)
    v = -p.v0 * np.exp(-p.alpha * xs) / (1 - np.exp(-p.alpha * xs))
    w, vecs = eigh_tridiagonal(1.0 / (mu * h * h) + v,
                               np.full(npts - 2, -1.0 / (2 * mu * h * h)),
                               select="i", select_range=(0, 2))
    for n in range(3):
        e = spectra.nonrelativistic_energy(p, mu, n)
        assert w[n] == pytest.approx(e, abs=2e-4)
        vec = vecs[:, n]
        sign_changes = np.sum(np.abs(np.diff(np.sign(
            vec[np.abs(vec) > 1e-9 * np.max(np.abs(vec))]))) > 1)
        aux = spectra.spectral_auxiliaries(p, MC1, n)
        state = spectra.BoundState(n=n, energy=complex(e), branch=spectra.Branch.PLUS,
                                   physical=True, aux=aux,
                                   energy_pair=spectra.EnergyPair(complex(e), complex(e)),
                                   regime=Regime.REAL, kinematics="nonrelativistic")
        wf = wfp.assemble(p, MC1, state)
        vals = wfp.evaluate_on_grid(wf, np.linspace(0.5, x_max, 5000))
        assert wfp.count_nodes(vals) == sign_changes == n


def test_normalization_convergence_violation():
    # |q_eff| = 2 with a non-terminating 2F1 series is outside |z| <= 1
    p = PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_V0_Q)
    wf = wfp.assemble(p, MC1, _state(p, 0))
    with pytest.raises(ConvergenceViolationError):
        wfp.normalization_constant(wf)


def test_float_range_failures_raise_documented_errors():
    # each of these raised a raw OverflowError or ZeroDivisionError
    with pytest.raises(ValidationError):
        spectra.salpeter_energy_general(PotentialParams(-0.557, 6.4e-142, 0.217),
                                        MassConfig(2.0, 3.0), 0, strict=False)
    with pytest.raises(ValidationError):
        spectra.nonrelativistic_energy(PotentialParams(1.0, -2.7e-217, 0.5, Regime.COMPLEX_ALPHA),
                                       0.5, 0)
    # a Gamma value of the double sum underflows to 0
    p, masses = PotentialParams(-2.62, 1.46, 6.1e-5), MassConfig(1.89, 1.21)
    wf = wfp.assemble(p, masses, bound_states(p, masses, 0)[1])
    with pytest.raises(ConvergenceViolationError):
        wfp.normalization_constant(wf)


def test_pole_on_grid():
    # a negative-real-part edge exponent cannot be continued across its zero
    jac = jacobi_coefficients(0, 0.5, -1.5)
    wf = wfp.WaveFunction(n=0, eps_exponent=0.5 + 0j, edge_exponent=-0.75 + 0j,
                          jacobi=jac, norm=1.0 + 0j, s_rate=1.0 + 0j, q_eff=1.0 + 0j,
                          regime=Regime.REAL, kinematics="salpeter", energy=-0.1 + 0j,
                          params=PotentialParams(0.9, 1.0, 1.0), masses=MC1)
    with pytest.raises(PoleOnGridError):
        wfp.evaluate_on_grid(wf, [0.0])
