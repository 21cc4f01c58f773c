"""Jacobi polynomials with complex parameters, Gauss 2F1, and the Beta function.

Everything here works over complex parameters, which the orthodox library
routines do not cover. A Jacobi polynomial is held by its monomial
coefficients (`JacobiPoly`), which `linear_rebase` carries onto a linear map
of z. 2F1 is summed exactly for any z when it terminates, takes Gauss's
theorem at z = 1 and the direct series for |z| < 1; any other z is refused
at once with NonConvergentError. Gamma is a complex Lanczos sum (g = 7,
n = 9, reflection below Re z = 1/2), within 6e-14 relative error of mpmath
on the strip the normalization integrals need; `gamma_ladder` extends one
evaluation to Gamma(z + k) by the recurrence. Nothing here imports scipy.
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


# Lanczos sum with g = 7: Gamma(z) = sqrt(2 pi) A(z) t^(z - 1/2) e^(-t), with
# t = z + g - 1/2 and A(z) = 1 + sum_i c_i / (z + i), i = 0..7. The c_i were
# refitted in 40-digit arithmetic (Lawson-weighted least squares) to the relative
# error on the line Re z = 1/2, with the constant term fixed at 1 so that the
# error vanishes as |z| grows. By the maximum-modulus principle that bounds the
# approximation error by 3.5e-14 on all of Re z >= 1/2; the classical g = 7 set
# has the constant term 1 - 1.9e-13, and that much error far from the origin.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (676.5203681219624, -1259.139216724116, 771.323428791919,
                   -176.61502922130038, 12.507343413261415, -0.13857126578253492,
                   1.0097139741430741e-05, 1.202513784333582e-07)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lanczos_gamma(z: complex) -> complex:
    """Gamma(z) off the poles; OverflowError where |Gamma(z)| leaves the float range."""
    if z.real < 0.5:
        # Gamma(z) Gamma(1 - z) = pi / sin(pi z), with the sine taken at
        # z - k, k the nearest integer, which keeps it exact near the poles
        k = round(z.real)
        sine = cmath.sin(math.pi * (z - k))
        out = (-math.pi if k % 2 else math.pi) / (sine * _lanczos_gamma(1.0 - z))
    else:
        series = 1.0
        for i, c in enumerate(_LANCZOS_COEFFS):
            series += c / (z + i)
        t = z + (_LANCZOS_G - 0.5)
        # the power and the exponential in one exp, so that neither overflows
        # before Gamma itself does
        out = _SQRT_2PI * series * cmath.exp((z - 0.5) * cmath.log(t) - t)
    if not cmath.isfinite(out):
        raise OverflowError(f"Gamma({z}) overflows")
    return out


def gamma_fn(z) -> complex:
    """Gamma of a complex argument; raises on nonpositive-integer poles."""
    if _nonpos_int_order(z) is not None:
        raise ParameterPoleError(f"Gamma pole at {z}")
    return _lanczos_gamma(complex(z))


def gamma_ladder(z, m: int) -> list[complex]:
    """[Gamma(z), Gamma(z + 1), ..., Gamma(z + m)] from one Lanczos evaluation.

    The rungs above the first come from Gamma(z + 1) = z Gamma(z); a top rung
    past the float range raises OverflowError, as Gamma itself does.
    """
    z = complex(z)
    rungs = [gamma_fn(z)]
    for k in range(m):
        rungs.append((z + k) * rungs[-1])
    if not cmath.isfinite(rungs[-1]):
        raise OverflowError(f"Gamma({z + m}) overflows")
    return rungs


def beta_fn(x, y) -> complex:
    """B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), with B(x, 1) = 1/x exact."""
    x, y = complex(x), complex(y)
    for arg in (x, y):
        if _nonpos_int_order(arg) is not None:
            raise ParameterPoleError(f"Beta pole at argument {arg}")
    if y == 1:
        return 1.0 / x
    return gamma_fn(x) * gamma_fn(y) / gamma_fn(x + y)


def _rgamma(z: complex) -> complex:
    """1/Gamma(z), exactly 0 at the nonpositive integers."""
    return 0j if _nonpos_int_order(z) is not None else 1.0 / _lanczos_gamma(z)


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
            return gamma_fn(c) * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
        if not abs(z) < 1.0:
            raise NonConvergentError(f"|z| = {abs(z):.6g} >= 1 for a non-terminating 2F1 series")
    return _hyp_series((a, b), c, z)


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
