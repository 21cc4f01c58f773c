"""Generic reduction of hypergeometric-type equations over complex coefficients.

Given sigma, sigma_tilde (degree <= 2) and tau_tilde (degree <= 1) of

    y'' + (tau_tilde/sigma) y' + (sigma_tilde/sigma^2) y = 0,

the engine finds the constants k that make the radicand of the auxiliary
linear polynomial pi(s) a perfect square, builds pi, tau = tau_tilde + 2*pi
and lambda = k + pi', and produces the quantization values
lambda_n = -n*tau' - n(n-1)/2 * sigma''.

Polynomials are stored as ascending complex coefficient arrays.
"""

import enum
from dataclasses import dataclass

import numpy as np

from salpeter_hulthen.errors import SalpeterError, ValidationError

SQUARE_TOL = 1e-10


class DegenerateRadicandError(SalpeterError):
    """The pi-radicand is s-independent, so every k is admissible."""


class NotPerfectSquareError(SalpeterError):
    """The supplied k does not make the radicand a perfect square."""


class AdmissibilityFailureError(SalpeterError):
    """No branch satisfies the negative-derivative condition on tau."""


class AmbiguousBranchError(SalpeterError):
    """Several admissible branches remain after all tie-breaks."""


class UnsupportedSigmaShapeError(SalpeterError):
    """sigma(s) is not of the form s or s*(1-q*s)."""


class SignChoice(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"


def _as_poly(coeffs, max_deg, name):
    arr = np.zeros(max_deg + 1, dtype=complex)
    given = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if given.size > max_deg + 1 and np.any(given[max_deg + 1:] != 0):
        raise ValidationError(f"{name} exceeds degree {max_deg}")
    arr[: min(given.size, max_deg + 1)] = given[: max_deg + 1]
    return arr


@dataclass(frozen=True)
class NuProblem:
    """Defining polynomials (sigma, sigma_tilde, tau_tilde)."""

    sigma: np.ndarray
    sigma_tilde: np.ndarray
    tau_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_poly(self.sigma, 2, "sigma"))
        object.__setattr__(self, "sigma_tilde", _as_poly(self.sigma_tilde, 2, "sigma_tilde"))
        object.__setattr__(self, "tau_tilde", _as_poly(self.tau_tilde, 1, "tau_tilde"))
        if not np.any(self.sigma != 0):
            raise ValidationError("sigma must not be the zero polynomial")

    def half_diff(self):
        """(sigma' - tau_tilde)/2 as a linear polynomial."""
        sig_p = np.array([self.sigma[1], 2.0 * self.sigma[2]], dtype=complex)
        return (sig_p - self.tau_tilde) / 2.0

    def radicand(self, k: complex):
        """Coefficients of ((sigma'-tau_tilde)/2)^2 - sigma_tilde + k*sigma."""
        p = self.half_diff()
        sq = np.array([p[0] * p[0], 2.0 * p[0] * p[1], p[1] * p[1]], dtype=complex)
        return sq - self.sigma_tilde + k * self.sigma


@dataclass(frozen=True)
class NuSolution:
    """Selected root k, the linear pi(s), tau(s), lambda and the sign branch."""

    k: complex
    pi: np.ndarray
    tau: np.ndarray
    lam: complex
    sign_choice: SignChoice

    @property
    def tau_prime(self):
        return self.tau[1]


def candidate_k(problem: NuProblem):
    """All k making the radicand a perfect square (<= 2, with multiplicity).

    The radicand is quadratic in s with coefficients linear in k; its
    s-discriminant is at most quadratic in k and is solved exactly.
    """
    p = problem.half_diff()
    a2 = p[1] * p[1] - problem.sigma_tilde[2]
    a1 = 2.0 * p[0] * p[1] - problem.sigma_tilde[1]
    a0 = p[0] * p[0] - problem.sigma_tilde[0]
    s0, s1, s2 = problem.sigma
    scale = max(abs(a2), abs(a1), abs(a0), abs(s0), abs(s1), abs(s2), 1.0)
    if abs(s2) <= SQUARE_TOL * scale and abs(s1) <= SQUARE_TOL * scale \
            and abs(a2) <= SQUARE_TOL * scale and abs(a1) <= SQUARE_TOL * scale:
        raise DegenerateRadicandError("radicand is s-independent; every k is admissible")
    # discriminant of (a2 + k s2) s^2 + (a1 + k s1) s + (a0 + k s0) as poly in k
    c2 = s1 * s1 - 4.0 * s2 * s0
    c1 = 2.0 * a1 * s1 - 4.0 * (a2 * s0 + a0 * s2)
    c0 = a1 * a1 - 4.0 * a2 * a0
    cscale = max(abs(c2), abs(c1), abs(c0), 1.0)
    if abs(c2) > SQUARE_TOL * cscale:
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0 + 0j)
        return [(-c1 + disc) / (2.0 * c2), (-c1 - disc) / (2.0 * c2)]
    if abs(c1) > SQUARE_TOL * cscale:
        return [-c0 / c1]
    if abs(c0) <= SQUARE_TOL * cscale:
        raise DegenerateRadicandError("discriminant vanishes identically in k")
    return []


def solve_with_k(problem: NuProblem, k: complex, sign: SignChoice,
                 admissible_only: bool = False) -> NuSolution:
    """Assemble pi, tau and lambda for a given perfect-square root k."""
    r = problem.radicand(k)
    r0, r1, r2 = r
    scale = max(abs(r0), abs(r1), abs(r2), 1.0)
    disc = r1 * r1 - 4.0 * r2 * r0
    if abs(disc) > SQUARE_TOL * scale * scale:
        raise NotPerfectSquareError(f"discriminant {abs(disc):.3e} exceeds tolerance")
    if abs(r2) > SQUARE_TOL * scale:
        w1 = np.sqrt(r2 + 0j)
        w0 = r1 / (2.0 * w1)
    else:
        if abs(r1) > SQUARE_TOL * scale:
            raise NotPerfectSquareError("radicand linear in s cannot be a perfect square")
        w1 = 0.0 + 0j
        w0 = np.sqrt(r0 + 0j)
    w = np.array([w0, w1], dtype=complex)
    if sign is SignChoice.MINUS:
        w = -w
    pi = problem.half_diff() + w
    tau = problem.tau_tilde + 2.0 * pi
    lam = k + pi[1]
    if admissible_only and not tau[1].real < 0:
        raise AdmissibilityFailureError("Re(tau') >= 0")
    return NuSolution(k=complex(k), pi=pi, tau=tau, lam=complex(lam), sign_choice=sign)


def quantized_lambda(solution: NuSolution, sigma, n: int) -> complex:
    """lambda_n = -n*tau' - n(n-1)/2 * sigma''."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    sig = _as_poly(sigma, 2, "sigma")
    return -n * solution.tau[1] - n * (n - 1) * sig[2]


@dataclass(frozen=True)
class ExponentForm:
    """Closed form s^a * (1-Q*s)^b, or s^a * exp(rate*s) when Q is absent."""

    s_exponent: complex
    edge_q: complex | None = None
    edge_exponent: complex | None = None
    exp_rate: complex | None = None

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.exp(self.s_exponent * np.log(s))
        if self.edge_q is not None:
            out = out * np.exp(self.edge_exponent * np.log(1.0 - self.edge_q * s))
        if self.exp_rate is not None:
            out = out * np.exp(self.exp_rate * s)
        return out


def _exponents_from_ratio(numer, sigma):
    """Solve f'/f = numer/sigma for sigma = c1*s*(1-Q*s) or sigma = c1*s."""
    c0, c1, c2 = sigma
    scale = max(abs(c0), abs(c1), abs(c2), 1.0)
    if abs(c0) > SQUARE_TOL * scale or abs(c1) <= SQUARE_TOL * scale:
        raise UnsupportedSigmaShapeError("sigma must factor as s*(1-q*s) or s")
    n0, n1 = numer[0], numer[1]
    if abs(c2) <= SQUARE_TOL * scale:
        # sigma = c1*s: f = s^(n0/c1) * exp((n1/c1) s)
        return ExponentForm(s_exponent=n0 / c1, exp_rate=n1 / c1)
    q_eff = -c2 / c1
    # numer/(c1 s (1-Qs)) = (A/s + B/(1-Qs))/c1 with A = numer(0), B = Q*numer(1/Q)
    a_res = n0
    b_res = q_eff * (n0 + n1 / q_eff)
    return ExponentForm(s_exponent=a_res / c1, edge_q=q_eff, edge_exponent=-b_res / (q_eff * c1))


def weight_and_phi(solution: NuSolution, problem: NuProblem):
    """Closed-form records for the weight rho and the prefactor phi.

    rho solves (sigma*rho)' = tau*rho and phi solves phi'/phi = pi/sigma.
    """
    sig_p = np.array([problem.sigma[1], 2.0 * problem.sigma[2]], dtype=complex)
    rho_numer = solution.tau - sig_p
    rho = _exponents_from_ratio(rho_numer, problem.sigma)
    phi = _exponents_from_ratio(solution.pi, problem.sigma)
    return rho, phi


def select_solution(problem: NuProblem, require_admissible: bool = True) -> NuSolution:
    """Auto-select the branch: Re(tau') < 0, bounded phi on (0,1], smallest |lambda|.

    Bounded phi on (0,1] means a nonnegative real part of the s-exponent of
    phi. Among survivors the smallest |lambda| wins; residual ties raise.
    """
    candidates = []
    for k in candidate_k(problem):
        for sign in (SignChoice.PLUS, SignChoice.MINUS):
            try:
                sol = solve_with_k(problem, k, sign)
            except NotPerfectSquareError:
                continue
            if require_admissible and not sol.tau[1].real < 0:
                continue
            try:
                _, phi = weight_and_phi(sol, problem)
            except UnsupportedSigmaShapeError:
                continue
            if phi.s_exponent.real < -SQUARE_TOL:
                continue
            candidates.append(sol)
    if not candidates:
        raise AdmissibilityFailureError("no admissible (k, sign) combination")
    # a double k-root splits by ~sqrt(machine eps) in floating point; collapse
    # such conjugate twins before the tie-break
    unique = []
    for sol in candidates:
        if not any(np.allclose(sol.pi, other.pi, rtol=1e-7, atol=1e-9)
                   and abs(sol.k - other.k) <= 1e-7 * (1.0 + abs(sol.k))
                   for other in unique):
            unique.append(sol)
    unique.sort(key=lambda s: abs(s.lam))
    if len(unique) > 1:
        best, second = unique[0], unique[1]
        if abs(abs(second.lam) - abs(best.lam)) <= 1e-12 * (1.0 + abs(best.lam)):
            raise AmbiguousBranchError("two admissible branches share the smallest |lambda|")
    return unique[0]


def hulthen_problem(eps, eps1, eps2_sq, eps3, q) -> NuProblem:
    """Defining polynomials of the dimensionless generalized-Hulthen reduction.

    tau_tilde = 1 - q s, sigma = s(1 - q s),
    sigma_tilde = s^2 (eps2^2 - q^2 eps^2 - q eps3 - q eps1)
                  + s (eps1 + eps3 + 2 q eps^2) - eps^2.
    """
    eps_sq = eps * eps
    return NuProblem(
        sigma=[0.0, 1.0, -q],
        sigma_tilde=[-eps_sq, eps1 + eps3 + 2.0 * q * eps_sq,
                     eps2_sq - q * q * eps_sq - q * eps3 - q * eps1],
        tau_tilde=[1.0, -q],
    )


def exponential_problem(eps, eps1, eps2, eps3) -> NuProblem:
    """q = 0 degeneration: sigma = s, sigma_tilde = eps2^2 s^2 + (eps1+eps3) s - eps^2."""
    return NuProblem(
        sigma=[0.0, 1.0, 0.0],
        sigma_tilde=[-eps * eps, eps1 + eps3, eps2 * eps2],
        tau_tilde=[1.0, 0.0],
    )
