import numpy as np
import pytest
from scipy.integrate import quad

from reference.jacobi_forms import (
    jacobi_binomial_form,
    jacobi_closed_form,
    jacobi_coefficients,
    jacobi_eval,
    jacobi_gamma_form,
    jacobi_shifted_sum_forms,
    kummer_1f1,
)
from salpeter_hulthen import special_functions
from salpeter_hulthen.errors import NonConvergentError, ParameterPoleError, ValidationError
from salpeter_hulthen.special_functions import beta_fn, gamma_fn, gauss_2f1


def _draw_params(rng):
    """Complex Jacobi parameters with |.| <= 5, kept away from integer poles."""
    while True:
        rho = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        nu = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        ok = True
        for base in (rho, nu, rho + nu):
            if abs(base.imag) < 0.05 and abs(base.real - round(base.real)) < 0.25:
                ok = False
        if ok:
            return rho, nu


def test_beta_values():
    assert beta_fn(3.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert beta_fn(0.5, 0.5) == pytest.approx(np.pi, rel=1e-12)
    # quadrature cross-check of the classical identity
    val = quad(lambda t: t**-0.5 * (1 - t) ** -0.5, 0, 1, limit=200)[0]
    assert beta_fn(0.5, 0.5).real == pytest.approx(val, rel=1e-9)
    with pytest.raises(ParameterPoleError):
        beta_fn(-1.0, 0.5)


def test_gamma_pole():
    with pytest.raises(ParameterPoleError):
        gamma_fn(-2.0)
    assert gamma_fn(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1964)
    strip = [complex(rng.uniform(-6.0, 25.0), rng.uniform(-8.0, 8.0)) for _ in range(3000)]
    # reflection side, Re z < 1/2, far off the real axis
    reflected = [complex(rng.uniform(-6.0, 0.5), rng.uniform(-40.0, 40.0)) for _ in range(500)]
    worst = 0.0
    for z in strip + reflected:
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(gamma_fn(z) - ref) / abs(ref))
    assert worst <= 1e-13
    for pole in (0.0, -1.0, -7.0, complex(-3.0, 1e-14)):
        with pytest.raises(ParameterPoleError):
            gamma_fn(pole)
    # past the float range Gamma raises rather than return inf
    for z in (171.7, 200.0, complex(180.0, 3.0)):
        with pytest.raises(ArithmeticError):
            gamma_fn(z)
    assert gamma_fn(171.5) == pytest.approx(float(mp.gamma(171.5)), rel=1e-13)


def test_gamma_ladder_rungs_match_gamma():
    for z in (0.3 + 0.2j, -2.5 + 0.1j, 4.0, 1.0 + 24.4j):
        rungs = special_functions.gamma_ladder(z, 6)
        assert len(rungs) == 7
        for k, rung in enumerate(rungs):
            assert rung == pytest.approx(gamma_fn(z + k), rel=1e-13)
    assert special_functions.gamma_ladder(2.5, 0) == [gamma_fn(2.5)]
    with pytest.raises(ArithmeticError):
        special_functions.gamma_ladder(168.0, 5)
    with pytest.raises(ParameterPoleError):
        special_functions.gamma_ladder(-2.0, 4)


def test_2f1_at_zero():
    assert gauss_2f1(0.3 + 0.1j, 1.2, 2.0, 0.0) == 1.0


def test_2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * np.log(2.0), rel=1e-13)


def test_2f1_gauss_theorem():
    assert gauss_2f1(1.0, 1.0, 3.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NonConvergentError):
        gauss_2f1(2.0, 1.5, 3.0, 1.0)   # Re(c-a-b) < 0


def test_2f1_gauss_theorem_at_a_denominator_pole():
    # Gauss's value Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)) is 0 where
    # c - b or c - a is a nonpositive integer: the reciprocal Gamma vanishes
    # there, where dividing by Gamma would raise a pole error
    mp = pytest.importorskip("mpmath")
    assert complex(mp.hyp2f1(-2.3, 1.5, 0.5, 1.0)) == 0
    assert gauss_2f1(-2.3, 1.5, 0.5, 1.0) == 0j         # c - b = -1
    assert gauss_2f1(0.5, -1.5, 0.5, 1.0) == 0j         # c - a = 0
    assert gauss_2f1(1.25 + 0.5j, -2.5, 1.25 + 0.5j, 1.0) == 0j


def test_2f1_terminating_exact():
    # terminating series is an exact finite sum, valid for any |z|
    a, b, c, z = -3.0, 1.3 + 0.4j, 2.7, 2.0 + 1.5j
    explicit = 0j
    term = 1.0 + 0j
    for k in range(3):
        explicit += term
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
    explicit += term
    assert gauss_2f1(a, b, c, z) == pytest.approx(explicit, rel=1e-15)
    # a terminating series longer than max_terms is refused, not summed: a
    # wavefunction at q ~ 1e-132 asked for ~1e131 terms and never returned
    with pytest.raises(NonConvergentError):
        gauss_2f1(-1e6, b, c, 0.3)


def test_non_finite_parameters_rejected():
    # round() of a NaN or inf parameter raised a raw ValueError/OverflowError
    for z in (float("nan"), float("inf"), complex(1.0, float("nan"))):
        with pytest.raises(ValidationError):
            gamma_fn(z)
    with pytest.raises(ValidationError):
        gauss_2f1(float("nan"), 1.0, 2.0, 0.3)


def test_2f1_against_mpmath(rng):
    mp = pytest.importorskip("mpmath")
    for _ in range(25):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        r = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0, 2 * np.pi)
        z = r * np.exp(1j * phi)
        mine = gauss_2f1(a, b, c, z)
        ref = complex(mp.hyp2f1(a, b, c, z))
        assert mine == pytest.approx(ref, rel=5e-12, abs=1e-13)
    # large Re(c-a-b) near z = -1, where the Euler transformation was wrong:
    # the first is the normalization's own shape at n = p = 7, rho = 0.05,
    # nu = 0.9, q_eff = -0.99
    for a, b, c, z in ((1.05, -8.9, 2.05, -0.99),
                       (-2.79 - 0.89j, -2.69 - 0.90j, 2.97 - 0.90j, -0.978)):
        ref = complex(mp.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=5e-12, abs=1e-13)


def test_2f1_refusals(monkeypatch):
    with pytest.raises(NonConvergentError):
        gauss_2f1(0.5, 0.7, 1.9, 1.5)
    with pytest.raises(ParameterPoleError):
        gauss_2f1(0.5, 0.7, -2.0, 0.3)
    # a terminating series at |z| = 1 is still the exact finite sum
    assert gauss_2f1(-2.0, 1.5, 2.5, 1j) == pytest.approx(
        1 - 2 * 1.5 * 1j / 2.5 + 1.5 * 2.5 * 1j**2 / (2.5 * 3.5), rel=1e-15)
    # a non-terminating series at |z| = 1, z != 1, is refused before any term
    calls = []
    monkeypatch.setattr(special_functions, "_hyp_series",
                        lambda *args: calls.append(args))
    with pytest.raises(NonConvergentError):
        gauss_2f1(1.5, -2.5, 2.5, 1j)
    assert calls == []


def test_1f1_against_mpmath(rng):
    mp = pytest.importorskip("mpmath")
    for _ in range(10):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert kummer_1f1(a, c, z) == pytest.approx(complex(mp.hyp1f1(a, c, z)),
                                                    rel=1e-11, abs=1e-12)
    # terminating case
    assert kummer_1f1(-2.0, 1.5, 0.7) == pytest.approx(
        1 - 2 * 0.7 / 1.5 + 0.7**2 / (1.5 * 2.5), rel=1e-14)


def test_1f1_solves_confluent_reduction():
    # the q = 0 reduction has polynomial-free solutions
    # y = 1F1(1/2 + eps + i(eps1+eps3)/(2 eps2); 1 + 2 eps; 2i eps2 s);
    # check s y'' + (1 + 2 eps - 2i eps2 s) y' - (i eps2 + 2i eps2 eps - eps1 - eps3) y = 0
    eps, eps1, eps2, eps3 = 0.6, 1.3, 0.45, 0.2
    a = 0.5 + eps + 1j * (eps1 + eps3) / (2 * eps2)
    c = 1.0 + 2 * eps
    k = 2j * eps2

    def y(s, da=0):
        # d^m/ds^m 1F1(a;c;ks) = k^m (a)_m/(c)_m 1F1(a+m;c+m;ks)
        pref = 1.0 + 0j
        for i in range(da):
            pref *= k * (a + i) / (c + i)
        return pref * kummer_1f1(a + da, c + da, k * s)

    for s in (0.1, 0.45, 0.8):
        resid = (s * y(s, 2) + (1 + 2 * eps - 2j * eps2 * s) * y(s, 1)
                 - (1j * eps2 + 2j * eps2 * eps - eps1 - eps3) * y(s))
        assert abs(resid) < 1e-12 * max(1.0, abs(y(s)))


def test_jacobi_trivial_and_linear():
    assert jacobi_eval(0, 0.3 + 1j, -0.2, 0.7 + 0.2j) == 1.0
    rho, nu, z = 0.8 - 0.3j, 1.4 + 0.2j, 0.3 + 0.9j
    expected = (rho - nu) / 2.0 + (rho + nu + 2.0) * z / 2.0
    assert jacobi_eval(1, rho, nu, z) == pytest.approx(expected, rel=1e-14)


def test_jacobi_at_unit_argument():
    # P_n(1) = Gamma(n+rho+1) / (n! Gamma(rho+1))
    import math

    rho, nu = 0.75, 1.3
    for n in range(6):
        expected = gamma_fn(n + rho + 1) / (gamma_fn(rho + 1) * math.factorial(n))
        assert jacobi_eval(n, rho, nu, 1.0) == pytest.approx(expected, rel=1e-12)


def test_jacobi_cross_form_agreement(rng):
    # relative to the family's magnitude with a unit floor: near polynomial
    # roots no finite-precision scheme can deliver digits of a cancelled value
    for _ in range(30):
        rho, nu = _draw_params(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in range(9):
            a = jacobi_eval(n, rho, nu, z)
            b = jacobi_binomial_form(n, rho, nu, z)
            c = jacobi_gamma_form(n, rho, nu, z)
            d = jacobi_coefficients(n, rho, nu)(z)
            scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
            assert abs(a - b) <= 1e-10 * scale
            assert abs(a - c) <= 1e-10 * scale
            assert abs(a - d) <= 1e-10 * scale


def test_jacobi_gamma_form_pole_fallback():
    # rho + nu = -2 makes the gamma form blow up at n = 1; binomial form survives
    rho, nu = 0.5, -2.5
    with pytest.raises(ParameterPoleError):
        jacobi_gamma_form(1, rho, nu, 0.3)
    via_fallback = jacobi_closed_form(1, rho, nu, 0.3)
    assert via_fallback == pytest.approx(jacobi_eval(1, rho, nu, 0.3), rel=1e-12)


def test_jacobi_orthogonality_quadrature():
    # weight s^(2 eps) (1-s)^b on [0,1] at q = 1
    eps, b = 0.4, 0.6
    polys = {n: jacobi_coefficients(n, 2 * eps, b) for n in range(5)}

    def inner(m, n):
        def f(s):
            z = 1.0 - 2.0 * s
            return (s ** (2 * eps) * (1 - s) ** b
                    * polys[m](z).real * polys[n](z).real)
        return quad(f, 0.0, 1.0, epsabs=1e-12, limit=200)[0]

    for m in range(5):
        for n in range(m + 1, 5):
            assert abs(inner(m, n)) < 1e-8


def test_jacobi_shifted_sum_forms():
    v49, v50 = jacobi_shifted_sum_forms(0, 0.5, 1.0, 1.0, 0.3)
    assert v49 == pytest.approx(1.0, abs=1e-14)
    assert v50 == pytest.approx(1.0, abs=1e-14)
    n, eps, w, q, s = 2, 0.5, 1.0, 1.0, 0.3
    v49, v50 = jacobi_shifted_sum_forms(n, eps, w, q, s)
    ref = jacobi_eval(n, 2 * eps, w, 1.0 - 2.0 * q * s)
    assert v49 == pytest.approx(ref, rel=1e-10)
    assert v50 == pytest.approx(ref, rel=1e-10)
    # s = 0 reduces to the closed unit-argument value
    v49, v50 = jacobi_shifted_sum_forms(3, 0.7, 0.9, 0.8, 0.0)
    ref = jacobi_eval(3, 1.4, 0.9, 1.0)
    assert v49 == pytest.approx(ref, rel=1e-10)
    assert v50 == pytest.approx(ref, rel=1e-10)
