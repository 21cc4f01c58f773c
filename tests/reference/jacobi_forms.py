"""Alternative forms of the Jacobi polynomial and the confluent 1F1.

The package builds P_n^(rho, nu) one way, by the Rodrigues construction in
`wavefunctions.rodrigues_polynomial`; the tests check it against these:
the Pochhammer coefficients, the three-term recurrence, the binomial sum,
the Gamma-ratio expansion and the two shifted sums of P_n(1 - 2 q s). 1F1
checks the q = 0 confluent reduction.
"""

import math

import numpy as np

from salpeter_hulthen.errors import ParameterPoleError, ValidationError
from salpeter_hulthen.special_functions import (JacobiPoly, _hyp_series, _nonpos_int_order,
                                                linear_rebase)
from salpeter_hulthen.wavefunctions import _shifted_sum_terms


def kummer_1f1(a, c, z) -> complex:
    """Confluent 1F1(a; c; z) by the direct series, which converges for every z."""
    if _nonpos_int_order(c) is not None:
        raise ParameterPoleError(f"1F1 parameter pole: c = {complex(c)}")
    return _hyp_series((a,), c, z)


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
    t_p, u_r, (g_nu, g_rho, g_top) = _shifted_sum_terms(n, 2 * eps, w, q)
    sum_p = 0j
    for p in range(n + 1):
        sum_p += t_p[p] * s ** (n - p) * (1.0 - q * s) ** p
    v_mixed = (-1.0) ** n * g_rho * g_nu * sum_p
    sum_r = 0j
    for r in range(n + 1):
        sum_r += u_r[r] * s ** r
    v_plain = g_rho / g_top * sum_r
    return v_mixed, v_plain
