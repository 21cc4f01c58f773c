"""Jacobi polynomials with complex parameters, Gauss 2F1, and the Beta function.

Everything here works over complex parameters, which the orthodox library
routines do not cover. 2F1 and 1F1 share one power-series loop. 2F1 is
summed exactly for any z when it terminates, takes Gauss's theorem at
z = 1 and the direct series for |z| < 1; any other z is refused at once with
NonConvergentError. Gamma itself is delegated to scipy's complex
implementation (Lanczos-class accuracy, better than 1e-12 on the strip the
normalization integrals need). scipy.special is imported on first use: it
is most of the package's import time, and only the wavefunction
normalization needs it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NonConvergentError, ParameterPoleError, ValidationError

_INT_TOL = 1e-12
# A non-terminating series stops once its tail bound is below SERIES_TOL
# relative to the sum; no series runs past MAX_TERMS terms.
SERIES_TOL = 1e-14
MAX_TERMS = 200_000


def _nonpos_int_order(z) -> int | None:
    """Return m >= 0 when z is (numerically) the nonpositive integer -m.

    Every Gamma, Beta and 2F1 parameter passes through here, so a parameter
    that left the float range upstream is rejected here.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValidationError(f"special-function parameter {z} is not finite")
    if abs(z.imag) > _INT_TOL * (1.0 + abs(z)):
        return None
    r = round(z.real)
    if r > 0 or abs(z.real - r) > _INT_TOL * (1.0 + abs(z)):
        return None
    return -r


def gamma_fn(z) -> complex:
    """Gamma of a complex argument; raises on nonpositive-integer poles."""
    if _nonpos_int_order(z) is not None:
        raise ParameterPoleError(f"Gamma pole at {z}")
    from scipy.special import gamma
    return complex(gamma(complex(z)))


def beta_fn(x, y) -> complex:
    """B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), with B(x, 1) = 1/x exact."""
    x, y = complex(x), complex(y)
    for arg in (x, y):
        if _nonpos_int_order(arg) is not None:
            raise ParameterPoleError(f"Beta pole at argument {arg}")
    if y == 1:
        return 1.0 / x
    return gamma_fn(x) * gamma_fn(y) / gamma_fn(x + y)


def _hyp_series(numer, c, z) -> complex:
    """Sum over k of (a)_k (b)_k / (c)_k * z^k / k!, with numer = (a, b), or (a,) for 1F1.

    A nonpositive-integer numerator parameter -m ends the series at k = m, and
    the finite sum is exact for any z. Otherwise the sum stops once the
    term-ratio bound on the tail falls below SERIES_TOL relative to the total.
    """
    numer = [complex(p) for p in numer]
    c, z = complex(c), complex(z)
    orders = [m for m in map(_nonpos_int_order, numer) if m is not None]
    n_stop = min(orders, default=None)
    if n_stop is not None and n_stop > MAX_TERMS:
        raise NonConvergentError(f"terminating series of {n_stop} terms exceeds {MAX_TERMS}")
    abs_numer = [abs(p) for p in numer]
    bound_floor = 2.0 * (sum(abs_numer) + abs(c)) + 10.0
    term = 1.0 + 0j
    total = term
    for k in range(MAX_TERMS if n_stop is None else n_stop):
        for p in numer:
            term = term * (p + k)
        term = term * z / ((c + k) * (k + 1.0))
        total += term
        if n_stop is None and k >= bound_floor:
            ratio_bound = abs(z)
            for ap in abs_numer:
                ratio_bound *= k + 2.0 + ap
            ratio_bound /= (k + 2.0) * max(k + 2.0 - abs(c), 1.0)
            if ratio_bound < 1.0:
                tail = abs(term) * ratio_bound / (1.0 - ratio_bound)
                if tail < SERIES_TOL * max(abs(total), 1e-300):
                    return total
    if n_stop is None:
        raise NonConvergentError(f"series did not meet its tail bound in {MAX_TERMS} terms")
    return total


def gauss_2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) for complex parameters.

    A terminating series (a or b a nonpositive integer) is summed exactly for
    any z. At z = 1 Gauss's theorem gives a Gamma ratio, which needs
    Re(c-a-b) > 0. For |z| < 1 the direct series is summed. Every other z
    raises NonConvergentError before a term is summed.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _nonpos_int_order(c) is not None:
        raise ParameterPoleError(f"2F1 parameter pole: c = {c}")
    if _nonpos_int_order(a) is None and _nonpos_int_order(b) is None:
        if abs(z - 1.0) <= 1e-14:
            if not (c - a - b).real > 0:
                raise NonConvergentError("Gauss value at z = 1 needs Re(c-a-b) > 0")
            from scipy.special import rgamma
            return complex(gamma_fn(c) * gamma_fn(c - a - b) * rgamma(c - a) * rgamma(c - b))
        if not abs(z) < 1.0:
            raise NonConvergentError(f"|z| = {abs(z):.6g} >= 1 for a non-terminating 2F1 series")
    return _hyp_series((a, b), c, z)


def kummer_1f1(a, c, z) -> complex:
    """Confluent 1F1(a; c; z) by the direct series, which converges for every z."""
    if _nonpos_int_order(c) is not None:
        raise ParameterPoleError(f"1F1 parameter pole: c = {complex(c)}")
    return _hyp_series((a,), c, z)


@dataclass(frozen=True)
class JacobiPoly:
    """Degree-n Jacobi polynomial P_n^(rho, nu) in the monomial basis of z."""

    n: int
    rho_param: complex
    nu_param: complex
    coeffs: np.ndarray  # ascending in z, length n + 1

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.size != self.n + 1:
            raise ValidationError("coefficient list must have length n + 1")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, z):
        return npoly.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def derivative(self, order: int = 1):
        return npoly.polyder(self.coeffs, m=order)


def linear_rebase(coeffs, linear) -> np.ndarray:
    """Monomial coefficients in z of sum_k coeffs[k] * L(z)^k, for L(z) = linear[0] + linear[1] z."""
    out = np.zeros(len(coeffs), dtype=complex)
    power = np.array([1.0 + 0j])
    for c in coeffs:
        out[: power.size] += c * power
        power = npoly.polymul(power, linear)
    return out


def _rising(x, m) -> complex:
    out = 1.0 + 0j
    for i in range(m):
        out *= x + i
    return out


def jacobi_coefficients(n: int, rho, nu) -> JacobiPoly:
    """Pole-free monomial coefficients from the Pochhammer expansion.

    P_n(z) = sum_r rise(rho+1+r, n-r) * rise(n+rho+nu+1, r) / (r! (n-r)!) * u^r
    with u = (z-1)/2.
    """
    rho, nu = complex(rho), complex(nu)
    coeffs_u = np.array(
        [_rising(rho + 1 + r, n - r) * _rising(n + rho + nu + 1.0, r)
         / (math.factorial(r) * math.factorial(n - r))
         for r in range(n + 1)],
        dtype=complex,
    )
    # compose with u(z) = (z - 1)/2
    return JacobiPoly(n, rho, nu, linear_rebase(coeffs_u, np.array([-0.5, 0.5], dtype=complex)))


def jacobi_eval(n: int, rho, nu, z) -> complex:
    """P_n^(rho, nu)(z) by the three-term recurrence.

    Falls back to the closed-form coefficients when a recurrence denominator
    degenerates (possible for special complex parameter combinations).
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    rho, nu, z = complex(rho), complex(nu), complex(z)
    if n == 0:
        return 1.0 + 0j
    p_prev = 1.0 + 0j
    p_cur = (rho - nu) / 2.0 + (rho + nu + 2.0) * z / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + rho + nu) * (2.0 * k + rho + nu - 2.0)
        if abs(c1) < 1e-12 * (1.0 + abs(rho) + abs(nu)) ** 3:
            return complex(jacobi_coefficients(n, rho, nu)(z))
        c2 = (2.0 * k + rho + nu - 1.0) * (rho * rho - nu * nu)
        c3 = (2.0 * k + rho + nu - 2.0) * (2.0 * k + rho + nu - 1.0) * (2.0 * k + rho + nu)
        c4 = 2.0 * (k + rho - 1.0) * (k + nu - 1.0) * (2.0 * k + rho + nu)
        p_next = ((c2 + c3 * z) * p_cur - c4 * p_prev) / c1
        p_prev, p_cur = p_cur, p_next
    return p_cur


def jacobi_binomial_form(n: int, rho, nu, z) -> complex:
    """Binomial-sum expansion 2^-n sum_p (-1)^(n-p) C(n+rho,p) C(n+nu,n-p) (1-z)^(n-p) (1+z)^p.

    The generalized binomials are evaluated through rising-factorial
    products, which is the same Gamma-quotient rewritten without the
    cancellation error of two large Gamma values.
    """
    rho, nu, z = complex(rho), complex(nu), complex(z)
    total = 0j
    for p in range(n + 1):
        binom1 = _rising(n + rho - p + 1, p) / math.factorial(p)
        binom2 = _rising(nu + p + 1, n - p) / math.factorial(n - p)
        total += (-1.0) ** (n - p) * binom1 * binom2 * (1.0 - z) ** (n - p) * (1.0 + z) ** p
    return total * 2.0 ** (-n)


def jacobi_gamma_form(n: int, rho, nu, z) -> complex:
    """Gamma-ratio expansion in powers of (z-1)/2.

    Raises ParameterPole when an argument of the defining Gamma quotients
    hits a nonpositive integer; away from those the quotients are evaluated
    as rising factorials for precision.
    """
    rho, nu, z = complex(rho), complex(nu), complex(z)
    for arg in (n + rho + 1, n + rho + nu + 1, rho + 1):
        if _nonpos_int_order(arg) is not None:
            raise ParameterPoleError(f"Gamma pole at {arg}")
    for r in range(n + 1):
        if _nonpos_int_order(r + rho + 1) is not None \
                or _nonpos_int_order(n + rho + nu + r + 1) is not None:
            raise ParameterPoleError("Gamma pole inside the expansion")
    # Gamma(n+rho+1)/Gamma(rho+1) = (rho+1)_n;
    # Gamma(n+rho+nu+r+1)/Gamma(n+rho+nu+1) = (n+rho+nu+1)_r;
    # Gamma(rho+1)/Gamma(r+rho+1) = 1/(rho+1)_r
    pref = _rising(rho + 1, n) / math.factorial(n)
    total = 0j
    for r in range(n + 1):
        total += (math.comb(n, r) * _rising(n + rho + nu + 1, r)
                  / _rising(rho + 1, r) * ((z - 1.0) / 2.0) ** r)
    return pref * total


def jacobi_closed_form(n: int, rho, nu, z) -> complex:
    """Gamma-ratio form, falling back to the binomial sum on parameter poles."""
    try:
        return jacobi_gamma_form(n, rho, nu, z)
    except ParameterPoleError:
        return jacobi_binomial_form(n, rho, nu, z)


def jacobi_shifted_sum_forms(n: int, eps, b_over_q, q, s):
    """The two explicit expansions of P_n^(2 eps, b/q)(1 - 2 q s).

    Returns the pair (mixed-power sum over p, plain-power sum over r); both
    must agree with jacobi_eval at z = 1 - 2 q s.
    """
    eps, w, q, s = complex(eps), complex(b_over_q), complex(q), complex(s)
    sum_p = 0j
    for p in range(n + 1):
        sum_p += ((-1.0) ** p * q ** (n - p)
                  / (math.factorial(p) * math.factorial(n - p)
                     * gamma_fn(p + w + 1) * gamma_fn(n + 2 * eps - p + 1))
                  * s ** (n - p) * (1.0 - q * s) ** p)
    v_mixed = (-1.0) ** n * gamma_fn(n + 2 * eps + 1) * gamma_fn(n + w + 1) * sum_p
    sum_r = 0j
    for r in range(n + 1):
        sum_r += ((-1.0) ** r * q ** r * gamma_fn(n + 2 * eps + w + r + 1)
                  / (math.factorial(r) * math.factorial(n - r) * gamma_fn(2 * eps + r + 1))
                  * s ** r)
    v_plain = gamma_fn(n + 2 * eps + 1) / gamma_fn(n + 2 * eps + w + 1) * sum_r
    return v_mixed, v_plain
