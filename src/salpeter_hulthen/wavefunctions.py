"""Assembly, normalization and grid evaluation of the bound-state wavefunctions.

A state is psi(s) = N * s^a * (1 - Q s)^e * P_n(1 - 2 Q s) with s = exp(-rate*x);
the exponents, the Jacobi parameters, Q and the rate depend on the parameter
regime. Normalization constants come from the double-sum closed form built on
the 2F1/Beta integral; an adaptive quadrature of the same integrand serves as
the independent cross-check in the tests.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    ConvergenceViolationError,
    NonConvergentError,
    NormSquaredNegativeError,
    PoleOnGridError,
    RegimeMismatchError,
    ValidationError,
)
from .potentials import MassConfig, PotentialParams, Regime
from .special_functions import JacobiPoly, beta_fn, gamma_fn, gauss_2f1
from .spectra import BoundState

POLE_TOL = 1e-10


@dataclass(frozen=True)
class WaveFunction:
    """Closed-form state: exponents, Jacobi block, mapping s(x) and norm."""

    n: int
    eps_exponent: complex
    edge_exponent: complex
    jacobi: JacobiPoly
    norm: complex
    s_rate: complex          # s(x) = exp(-s_rate * x)
    q_eff: complex
    regime: Regime
    kinematics: str
    energy: complex
    params: PotentialParams
    masses: MassConfig
    nu_phase: int | None = None

    def with_norm(self, norm):
        return replace(self, norm=complex(norm))


def _falling(x, m):
    out = 1.0 + 0j
    for i in range(m):
        out *= x - i
    return out


def rodrigues_polynomial(n: int, eps, b_over_q, q) -> JacobiPoly:
    """Expand the n-th derivative generator against the weight s^(2 eps) (1-qs)^(b/q).

    The constant is fixed to 1/n!, which makes the result identical (not
    merely proportional) to the Jacobi polynomial P_n^(2 eps, b/q) evaluated
    at 1 - 2 q s, expressed here in the monomial basis of z = 1 - 2 q s.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n > 170:
        # the 1/n! below needs n! as a float, and 171! exceeds the float range
        raise ValidationError(f"rodrigues_polynomial needs n <= 170, got {n}")
    eps, w, q = complex(eps), complex(b_over_q), complex(q)
    if q == 0:
        raise ValidationError("rodrigues_polynomial needs q != 0 (use the q=0 confluent form)")
    # Leibniz: d^n [s^(n+2e) (1-qs)^(n+w)] / weight
    #        = sum_j C(n,j) fall(n+2e, j) fall(n+w, n-j) (-q)^(n-j) s^(n-j) (1-qs)^j
    coeffs_s = np.zeros(n + 1, dtype=complex)
    for j in range(n + 1):
        factor = (math.comb(n, j) * _falling(n + 2 * eps, j)
                  * _falling(n + w, n - j) * (-q) ** (n - j)) / math.factorial(n)
        # expand s^(n-j) (1-qs)^j
        for t in range(j + 1):
            coeffs_s[n - j + t] += factor * math.comb(j, t) * (-q) ** t
    # rebase from s to z = 1 - 2 q s, i.e. s = (1 - z)/(2 q)
    s_of_z = np.array([1.0 / (2.0 * q), -1.0 / (2.0 * q)], dtype=complex)
    coeffs_z = np.zeros(n + 1, dtype=complex)
    power = np.array([1.0 + 0j])
    for k in range(n + 1):
        coeffs_z[: power.size] += coeffs_s[k] * power
        power = npoly.polymul(power, s_of_z)
    return JacobiPoly(n, 2 * eps, w, coeffs_z)


def _eps2_sq_effective(params, masses):
    v0, alpha, _ = params.effective()
    a_eff = alpha * alpha / (2.0 * masses.mu)
    return v0 * v0 / (2.0 * masses.m_tilde * a_eff), a_eff


def assemble(params: PotentialParams, masses: MassConfig, state: BoundState) -> WaveFunction:
    """Build the closed-form wavefunction for a bound state of the same regime."""
    if state.regime is not params.regime:
        raise RegimeMismatchError("state and parameters come from different regimes")
    n, e = state.n, complex(state.energy)
    mu, mt = masses.mu, masses.m_tilde
    v0, alpha, q = params.v0, params.alpha, params.q
    regime = params.regime

    if state.kinematics == "nonrelativistic":
        if regime is Regime.REAL:
            eps_exp = np.sqrt(complex(-2.0 * mu * e)) / alpha
            rate, q_eff = complex(alpha), complex(q)
        elif regime is Regime.COMPLEX_ALPHA:
            eps1_nr = 2.0 * mu * v0 / (alpha * alpha)
            eps_exp = -(eps1_nr + q * (n + 1) ** 2) / (2.0 * q * (n + 1))
            rate, q_eff = 1j * alpha, complex(q)
        else:
            raise ValidationError("nonrelativistic states exist for Real or ComplexAlpha only")
        jac = rodrigues_polynomial(n, eps_exp, 1.0, q_eff)
        return WaveFunction(n=n, eps_exponent=complex(eps_exp), edge_exponent=1.0 + 0j,
                            jacobi=jac, norm=1.0 + 0j, s_rate=rate, q_eff=q_eff,
                            regime=regime, kinematics="nonrelativistic", energy=e,
                            params=params, masses=masses)

    eps2_eff, a_eff = _eps2_sq_effective(params, masses)
    _, alpha_eff, q_eff = params.effective()
    eps_val = np.sqrt(-(e + e * e / (2.0 * mt)) / a_eff + 0j)
    b_eff = np.sqrt(q_eff * q_eff - 4.0 * eps2_eff + 0j)
    if regime in (Regime.COMPLEX_ALPHA, Regime.ALL_COMPLEX):
        # these regimes carry the exponent i*eps with eps^2 = (2 mu/alpha^2)(E + E^2/2mt)
        eps_exp = 1j * np.sqrt((2.0 * mu / (alpha * alpha)) * (e + e * e / (2.0 * mt)) + 0j)
    else:
        eps_exp = eps_val
    edge = (b_eff + q_eff) / (2.0 * q_eff)
    jac = rodrigues_polynomial(n, eps_exp, b_eff / q_eff, q_eff)
    return WaveFunction(n=n, eps_exponent=complex(eps_exp), edge_exponent=complex(edge),
                        jacobi=jac, norm=1.0 + 0j, s_rate=complex(alpha_eff),
                        q_eff=complex(q_eff), regime=regime, kinematics="salpeter",
                        energy=e, params=params, masses=masses)


def _safe_power(base, exponent, what):
    """base^exponent continued to base = 0: zero for Re(exponent) > 0."""
    base = np.asarray(base, dtype=complex)
    zero = np.abs(base) < 1e-300
    if np.any(zero):
        if not exponent.real > 0:
            raise PoleOnGridError(f"{what} factor is singular on the sample")
        out = np.zeros_like(base)
        nz = ~zero
        out[nz] = np.exp(exponent * np.log(base[nz]))
        return out
    return np.exp(exponent * np.log(base))


def psi_of_s(wf: WaveFunction, s):
    """Evaluate N s^a (1 - Q s)^e P(1 - 2 Q s) at (possibly negative) s."""
    s = np.asarray(s, dtype=complex)
    amp = _safe_power(s, wf.eps_exponent, "s-power") \
        * _safe_power(1.0 - wf.q_eff * s, wf.edge_exponent, "edge")
    return wf.norm * amp * wf.jacobi(1.0 - 2.0 * wf.q_eff * s)


def evaluate_on_grid(wf: WaveFunction, xs):
    """psi(x) on a spatial grid through s = exp(-rate x)."""
    xs = np.asarray(xs, dtype=float)
    s = np.exp(-wf.s_rate * xs.astype(complex))
    return psi_of_s(wf, s)


def norm_integral_closed(n: int, rho, nu, q_eff, p: int, r: int) -> complex:
    """I(p, r) = int_0^1 s^(n+rho+r-p) (1 - Q s)^(p+nu+1) ds via 2F1 * Beta."""
    a0 = n + complex(rho) + r - p + 1.0
    if not a0.real > 0:
        raise ConvergenceViolationError("integral representation needs Re(alpha0) > 0")
    b0 = -(p + complex(nu) + 1.0)
    try:
        f = gauss_2f1(a0, b0, a0 + 1.0, q_eff)
    except NonConvergentError as exc:
        raise ConvergenceViolationError(str(exc)) from exc
    return f * beta_fn(a0, 1.0)


def normalization_sum(n: int, rho, nu, q_eff) -> complex:
    """The double sum over (p, r) for int_0^1 weight * P^2 ds in closed form."""
    rho, nu, q_eff = complex(rho), complex(nu), complex(q_eff)
    try:
        pref = ((-1.0) ** n * gamma_fn(n + nu + 1) * gamma_fn(n + rho + 1) ** 2
                / gamma_fn(n + rho + nu + 1))
        total = 0j
        for p in range(n + 1):
            t_p = ((-1.0) ** p * q_eff ** (n - p)
                   / (math.factorial(p) * math.factorial(n - p)
                      * gamma_fn(p + nu + 1) * gamma_fn(n + rho - p + 1)))
            for r in range(n + 1):
                u_r = ((-1.0) ** r * q_eff ** r * gamma_fn(n + rho + nu + r + 1)
                       / (math.factorial(r) * math.factorial(n - r) * gamma_fn(rho + r + 1)))
                total += t_p * u_r * norm_integral_closed(n, rho, nu, q_eff, p, r)
    except ArithmeticError as exc:
        # a Gamma value under- or overflows at extreme parameters
        raise ConvergenceViolationError(f"normalization sum leaves the float range: {exc}") from exc
    return pref * total


def normalization_constant(wf: WaveFunction) -> complex:
    """Closed-form N making int_0^1 weight * P^2 ds equal 1.

    For the real regime the sum is the literal norm-square and must come out
    positive; complex regimes return the formal constant of the same double
    sum with the regime's parameter replacements.
    """
    s_sum = normalization_sum(wf.n, wf.jacobi.rho_param, wf.jacobi.nu_param, wf.q_eff)
    if wf.regime is Regime.REAL:
        if abs(s_sum.imag) > 1e-10 * (1.0 + abs(s_sum)) or not s_sum.real > 0:
            raise NormSquaredNegativeError(f"norm-square {s_sum} is not positive")
        return 1.0 / np.sqrt(s_sum.real)
    return 1.0 / np.sqrt(s_sum)


def pt_norm_phase(wf: WaveFunction, tol: float = 1e-10):
    """PT inner product int_0^1 conj(psi(-s)) psi(s) ds and its sign nu.

    Powers of -s use the principal branch. On the real s-segment the literal
    integrand generally keeps a residual imaginary part; nu is read from the
    sign of the real part and the full complex integral is returned alongside
    for inspection.
    """
    from scipy.integrate import quad   # 0.1 s to import; used only here

    def integrand(s):
        return np.conj(psi_of_s(wf, -s)) * psi_of_s(wf, s)

    re = quad(lambda s: integrand(s).real, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)[0]
    im = quad(lambda s: integrand(s).imag, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)[0]
    value = complex(re, im)
    if value.real == 0.0:
        return None, value
    return (1 if value.real > 0 else -1), value


def ode_residual(wf: WaveFunction, xs):
    """Pointwise relative residual of the reduced equation for this state.

    Derivatives of the closed form are taken analytically, so a vanishing
    residual really certifies that (psi, E) solves the equation, not that a
    finite-difference stencil is small.
    """
    xs = np.asarray(xs, dtype=float)
    s = np.exp(-wf.s_rate * xs.astype(complex))
    a, ee, big_q = wf.eps_exponent, wf.edge_exponent, wf.q_eff
    edge = 1.0 - big_q * s
    if np.any(np.abs(edge) < POLE_TOL * (1.0 + abs(big_q))):
        raise PoleOnGridError("grid touches the potential pole")
    amp = np.exp(a * np.log(s) + ee * np.log(edge))
    z = 1.0 - 2.0 * big_q * s
    p0 = wf.jacobi(z)
    p1 = npoly.polyval(z, wf.jacobi.derivative(1)) if wf.n >= 1 else np.zeros_like(z)
    p2 = npoly.polyval(z, wf.jacobi.derivative(2)) if wf.n >= 2 else np.zeros_like(z)
    log_d = a / s - ee * big_q / edge
    log_dd = -a / (s * s) - ee * big_q * big_q / (edge * edge)
    f0 = amp * p0
    f1 = amp * (log_d * p0 - 2.0 * big_q * p1)
    f2 = amp * ((log_d * log_d + log_dd) * p0 - 4.0 * big_q * log_d * p1
                + 4.0 * big_q * big_q * p2)
    rate = wf.s_rate
    psi = wf.norm * f0
    psi_xx = wf.norm * rate * rate * (s * f1 + s * s * f2)

    v0, _, q_eff = wf.params.effective()
    mu, mt = wf.masses.mu, wf.masses.m_tilde
    e = wf.energy
    pot = v0 * s / (1.0 - q_eff * s)
    if wf.kinematics == "nonrelativistic":
        g = 2.0 * mu * (e + pot)
    else:
        g = 2.0 * mu * (e + e * e / (2.0 * mt) + pot
                        + v0 * v0 * s * s / (2.0 * mt * (1.0 - q_eff * s) ** 2)
                        + v0 * e * s / (mt * (1.0 - q_eff * s)))
    res = psi_xx + g * psi
    scale = np.abs(psi_xx) + np.abs(g) * np.abs(psi) + 1e-300
    return np.abs(res) / scale


def count_nodes(values) -> int:
    """Interior sign changes of Re(psi), with a noise floor."""
    re = np.asarray(values).real
    floor = 1e-9 * np.max(np.abs(re)) if np.max(np.abs(re)) > 0 else 0.0
    kept = re[np.abs(re) > floor]
    return int(np.sum(np.sign(kept[1:]) * np.sign(kept[:-1]) < 0))
