import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from salpeter_hulthen import nu_engine as nu
from salpeter_hulthen.errors import (
    AdmissibilityFailureError,
    DegenerateRadicandError,
    NotPerfectSquareError,
    UnsupportedSigmaShapeError,
    ValidationError,
)
from salpeter_hulthen.wavefunctions import rodrigues_polynomial


def hulthen_draw(rng):
    eps = rng.uniform(0.1, 2.0)
    eps1 = rng.uniform(0.1, 3.0)
    eps3 = rng.uniform(0.1, 3.0)
    q = rng.uniform(0.3, 2.0)
    eps2_sq = rng.uniform(0.0, 0.9) * q * q / 4.0
    return eps, eps1, eps2_sq, eps3, q


def test_candidate_k_hulthen_example():
    prob = nu.hulthen_problem(1.0, 2.0, 0.0, 1.0, 1.0)
    ks = sorted(nu.candidate_k(prob), key=lambda z: z.real)
    np.testing.assert_allclose(ks, [2.0, 4.0], atol=1e-12)


def test_candidate_k_against_sympy(rng):
    # independent computer-algebra check of the discriminant roots
    sympy = pytest.importorskip("sympy")
    # exact rationals keep sympy's discriminant algebra well posed
    draws = rng.integers(1, 24, size=5)
    eps, eps1, eps2_num, eps3, q = [sympy.Rational(int(v), 16) for v in draws]
    eps2_sq = eps2_num * q * q / 32   # stays below q^2/4
    prob = nu.hulthen_problem(float(eps), float(eps1), float(eps2_sq), float(eps3), float(q))
    ks = nu.candidate_k(prob)
    s, k = sympy.symbols("s k")
    sigma = s * (1 - q * s)
    sigma_t = (s**2 * (eps2_sq - q * q * eps * eps - q * eps3 - q * eps1)
               + s * (eps1 + eps3 + 2 * q * eps * eps) - eps * eps)
    tau_t = 1 - q * s
    half = (sympy.diff(sigma, s) - tau_t) / 2
    radicand = sympy.expand(half**2 - sigma_t + k * sigma)
    disc = sympy.discriminant(sympy.Poly(radicand, s).as_expr(), s)
    key = lambda z: (z.real, z.imag)
    roots = sorted((complex(r) for r in sympy.solve(sympy.Eq(disc, 0), k)), key=key)
    mine = sorted((complex(v) for v in ks), key=key)
    assert len(mine) == len(roots)
    for a, b in zip(mine, roots):
        assert a == pytest.approx(b, rel=1e-9)


def test_candidate_k_exponential_case():
    eps, eps1, eps2, eps3 = 0.7, 1.1, 0.4, 0.3
    prob = nu.exponential_problem(eps, eps1, eps2, eps3)
    ks = sorted(nu.candidate_k(prob), key=lambda z: z.imag)
    expected = [eps1 + eps3 - 2j * eps2 * eps, eps1 + eps3 + 2j * eps2 * eps]
    np.testing.assert_allclose(ks, expected, atol=1e-12)


def test_candidate_k_forced_trivial():
    # sigma_tilde = 0, tau_tilde = sigma': radicand = k*sigma, double root k = 0
    prob = nu.NuProblem(sigma=[0.0, 1.0, -0.5], sigma_tilde=[0.0], tau_tilde=[1.0, -1.0])
    ks = nu.candidate_k(prob)
    np.testing.assert_allclose(ks, [0.0, 0.0], atol=1e-12)
    sol = nu.solve_with_k(prob, 0.0, nu.SignChoice.PLUS)
    np.testing.assert_allclose(sol.pi, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.tau, prob.tau_tilde, atol=1e-12)
    assert sol.lam == pytest.approx(0.0)


def test_degenerate_radicand():
    prob = nu.NuProblem(sigma=[1.0], sigma_tilde=[0.3], tau_tilde=[1.0])
    with pytest.raises(DegenerateRadicandError):
        nu.candidate_k(prob)


def test_solve_with_k_reproduces_chosen_branch():
    eps, q, b = 1.0, 1.0, 1.0
    prob = nu.hulthen_problem(eps, 2.0, 0.0, 1.0, q)
    sol = nu.solve_with_k(prob, 2.0, nu.SignChoice.MINUS)   # k_minus = 3 - b*eps
    np.testing.assert_allclose(sol.pi, [eps, -q / 2 - (2 * q * eps + b) / 2], atol=1e-12)
    np.testing.assert_allclose(sol.tau, [1 + 2 * eps, -q * (2 + 2 * eps + b / q)], atol=1e-12)
    assert sol.lam == pytest.approx(-(q / 2) * (1 + 2 * eps) * (1 + b / q) + 3.0, abs=1e-12)
    assert sol.tau_prime.real < 0


def test_solve_with_k_exponential_branch():
    eps, eps1, eps2, eps3 = 0.7, 1.1, 0.4, 0.3
    prob = nu.exponential_problem(eps, eps1, eps2, eps3)
    k_minus = eps1 + eps3 - 2j * eps2 * eps
    sol = nu.solve_with_k(prob, k_minus, nu.SignChoice.MINUS)
    np.testing.assert_allclose(sol.pi, [eps, -1j * eps2], atol=1e-12)
    np.testing.assert_allclose(sol.tau, [1 + 2 * eps, -2j * eps2], atol=1e-12)
    assert sol.lam == pytest.approx(eps1 + eps3 - 1j * eps2 - 2j * eps2 * eps, abs=1e-12)


def test_solve_with_k_rejects_bad_k():
    prob = nu.hulthen_problem(1.0, 2.0, 0.0, 1.0, 1.0)
    with pytest.raises(NotPerfectSquareError):
        nu.solve_with_k(prob, 2.5, nu.SignChoice.MINUS)


def test_admissibility_flag():
    prob = nu.hulthen_problem(1.0, 2.0, 0.0, 1.0, 1.0)
    # the principal-sqrt Plus orientation at k_minus has tau' = +1
    sol = nu.solve_with_k(prob, 2.0, nu.SignChoice.PLUS)
    assert sol.tau_prime.real >= 0
    with pytest.raises(AdmissibilityFailureError):
        nu.solve_with_k(prob, 2.0, nu.SignChoice.PLUS, admissible_only=True)


def test_quantized_lambda_values():
    prob = nu.hulthen_problem(1.0, 2.0, 0.0, 1.0, 1.0)
    sol = nu.solve_with_k(prob, 2.0, nu.SignChoice.MINUS)
    assert nu.quantized_lambda(sol, prob.sigma, 0) == 0.0
    assert nu.quantized_lambda(sol, prob.sigma, 2) == pytest.approx(12.0, abs=1e-12)
    eps, eps2 = 0.7, 0.4
    prob0 = nu.exponential_problem(eps, 1.1, eps2, 0.3)
    sol0 = nu.solve_with_k(prob0, 1.1 + 0.3 - 2j * eps2 * eps, nu.SignChoice.MINUS)
    assert nu.quantized_lambda(sol0, prob0.sigma, 3) == pytest.approx(6j * eps2, abs=1e-12)


def test_weight_and_phi_hulthen(rng):
    eps, eps1, eps2_sq, eps3, q = hulthen_draw(rng)
    prob = nu.hulthen_problem(eps, eps1, eps2_sq, eps3, q)
    b = np.sqrt(complex(q * q - 4 * eps2_sq))
    k_minus = eps1 + eps3 - b * eps
    sol = nu.solve_with_k(prob, k_minus, nu.SignChoice.MINUS)
    rho, phi = nu.weight_and_phi(sol, prob)
    assert rho.s_exponent == pytest.approx(2 * eps, abs=1e-10)
    assert rho.edge_exponent == pytest.approx(b / q, abs=1e-10)
    assert rho.edge_q == pytest.approx(q, abs=1e-12)
    assert phi.s_exponent == pytest.approx(eps, abs=1e-10)
    assert phi.edge_exponent == pytest.approx((b + q) / (2 * q), abs=1e-10)


def test_weight_and_phi_exponential():
    eps, eps2 = 0.7, 0.4
    prob = nu.exponential_problem(eps, 1.1, eps2, 0.3)
    sol = nu.solve_with_k(prob, 1.4 - 2j * eps2 * eps, nu.SignChoice.MINUS)
    rho, phi = nu.weight_and_phi(sol, prob)
    assert phi.s_exponent == pytest.approx(eps, abs=1e-12)
    assert phi.exp_rate == pytest.approx(-1j * eps2, abs=1e-12)
    assert rho.s_exponent == pytest.approx(2 * eps, abs=1e-12)
    assert rho.exp_rate == pytest.approx(-2j * eps2, abs=1e-12)


def _selected_hulthen():
    prob = nu.hulthen_problem(0.8, 1.5, 0.1, 0.7, 0.9)
    return prob, nu.select_solution(prob)


def _exponential():
    # tau' is imaginary at q = 0, so no branch is admissible; take the one
    # of test_weight_and_phi_exponential
    prob = nu.exponential_problem(0.7, 1.1, 0.4, 0.3)
    return prob, nu.solve_with_k(prob, 1.4 - 0.56j, nu.SignChoice.MINUS)


@pytest.mark.parametrize("case", [_selected_hulthen, _exponential], ids=["hulthen", "exponential"])
def test_exponent_forms_solve_their_equations(case):
    # the evaluated records, not just their exponents: (sigma rho)' = tau rho
    # and phi'/phi = pi/sigma, by central differences at a few s in (0, 1)
    prob, sol = case()
    rho, phi = nu.weight_and_phi(sol, prob)
    assert (rho.exp_rate is None) == (prob.sigma[2] != 0.0)
    s = np.array([0.1, 0.35, 0.6, 0.85])
    h = 1e-6

    def diff(f):
        return (f(s + h) - f(s - h)) / (2.0 * h)

    sigma, tau, pi = (npoly.Polynomial(c) for c in (prob.sigma, sol.tau, sol.pi))
    np.testing.assert_allclose(diff(lambda x: sigma(x) * rho(x)), tau(s) * rho(s), rtol=1e-7)
    np.testing.assert_allclose(diff(phi) / phi(s), pi(s) / sigma(s), rtol=1e-7)


def test_weight_and_phi_unsupported_sigma():
    prob = nu.NuProblem(sigma=[1.0, 0.0, -1.0], sigma_tilde=[0.1], tau_tilde=[1.0])
    sol = nu.NuSolution(k=0.0, pi=np.array([0.0, -1.0], dtype=complex),
                        tau=np.array([1.0, -2.0], dtype=complex), lam=-1.0,
                        sign_choice=nu.SignChoice.MINUS)
    with pytest.raises(UnsupportedSigmaShapeError):
        nu.weight_and_phi(sol, prob)


def _compose(coeffs, inner):
    out = np.array([0.0 + 0j])
    power = np.array([1.0 + 0j])
    for c in coeffs:
        out = npoly.polyadd(out, c * power)
        power = npoly.polymul(power, inner)
    return out


def test_rodrigues_reconstruction(rng):
    # sigma y'' + tau y' + lambda_n y = 0 coefficientwise for the Rodrigues y_n
    for _ in range(8):
        eps, eps1, eps2_sq, eps3, q = hulthen_draw(rng)
        prob = nu.hulthen_problem(eps, eps1, eps2_sq, eps3, q)
        b = np.sqrt(complex(q * q - 4 * eps2_sq))
        sol = nu.solve_with_k(prob, eps1 + eps3 - b * eps, nu.SignChoice.MINUS)
        for n in range(7):
            lam_n = nu.quantized_lambda(sol, prob.sigma, n)
            jac = rodrigues_polynomial(n, eps, b / q, q)
            y = _compose(jac.coeffs, np.array([1.0, -2.0 * q], dtype=complex))
            yp = npoly.polyder(y)
            ypp = npoly.polyder(y, 2)
            resid = npoly.polyadd(
                npoly.polyadd(npoly.polymul(prob.sigma, ypp), npoly.polymul(sol.tau, yp)),
                lam_n * y)
            scale = max(1.0, np.max(np.abs(y)))
            assert np.max(np.abs(resid)) < 1e-8 * scale


def test_select_solution_on_shell():
    # with eps3 tuned so lambda(k_minus) = lambda_0 = 0, the auto-pick takes the bounded branch
    eps, eps1, eps2_sq, q = 1.0, 2.0, 0.0, 1.0
    b = 1.0
    # lambda = -(q/2)(1+2eps)(1+b/q) + eps1 + eps3 = 0  =>  eps3 = 3 - eps1 = 1
    prob = nu.hulthen_problem(eps, eps1, eps2_sq, 1.0, q)
    sol = nu.select_solution(prob)
    np.testing.assert_allclose(sol.pi, [eps, -q / 2 - (2 * q * eps + b) / 2], atol=1e-10)
    assert sol.tau_prime.real < 0


def test_select_solution_degenerate_b():
    # b = 0 collapses the two k roots; the duplicate must not raise ambiguity
    eps, q = 0.8, 1.0
    eps2_sq = q * q / 4.0
    prob = nu.hulthen_problem(eps, 1.5, eps2_sq, 0.7, q)
    sol = nu.select_solution(prob)
    assert sol.pi[0] == pytest.approx(eps, abs=1e-10)


def test_problem_validation():
    with pytest.raises(ValidationError):
        nu.NuProblem(sigma=[0.0], sigma_tilde=[1.0], tau_tilde=[1.0])
    with pytest.raises(ValidationError):
        nu.NuProblem(sigma=[0.0, 1.0], sigma_tilde=[1.0], tau_tilde=[1.0, 2.0, 3.0])
    prob = nu.hulthen_problem(1.0, 2.0, 0.0, 1.0, 1.0)
    sol = nu.solve_with_k(prob, 2.0, nu.SignChoice.MINUS)
    with pytest.raises(ValidationError):
        nu.quantized_lambda(sol, prob.sigma, -1)
