"""Fixed-step RK4 shooting kernel.

The sweep over trial energies is the only hot loop in the package. It is a
numpy loop over the steps, vectorized over the energy batch, so a batch of
240 energies costs little more than a single one.
"""

import math

import numpy as np

OVERFLOW_GUARD = 1e100


def rk4_sweep(g0s, g1s, g2, q, alpha, x0s, u0s, v0s, h, nsteps):
    """Integrate psi'' + g psi = 0 outward for a batch of energies.

    g = g0 + g1 r + g2 r^2 with r = s/(1 - q s), s = exp(-alpha x); each
    energy has its own (g0, g1) and start state (x0, psi, psi'). Returns
    (psi, psi') at x0 + nsteps * h, both divided by the running peak of |psi|.
    """
    g0s = np.asarray(g0s, dtype=float)
    g1s = np.asarray(g1s, dtype=float)
    u = np.array(u0s, dtype=float)
    v = np.array(v0s, dtype=float)
    x = np.array(x0s, dtype=float)
    g2, q, alpha, h = float(g2), float(q), float(alpha), float(h)
    peak = np.abs(u)

    def g_at(xv):
        s = np.exp(-alpha * xv)
        r = s / (1.0 - q * s)
        return g0s + g1s * r + g2 * r * r

    g_lo = g_at(x)
    for _ in range(int(nsteps)):
        g_mid = g_at(x + 0.5 * h)
        g_hi = g_at(x + h)
        k1u = v
        k1v = -g_lo * u
        k2u = v + 0.5 * h * k1v
        k2v = -g_mid * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = -g_mid * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = -g_hi * (u + h * k3u)
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        x = x + h
        g_lo = g_hi
        np.maximum(peak, np.abs(u), out=peak)
        m = np.maximum(np.abs(u), np.abs(v))
        mask = m > OVERFLOW_GUARD
        if np.any(mask):
            u[mask] /= m[mask]
            v[mask] /= m[mask]
            peak[mask] /= m[mask]
    safe = np.where(peak == 0.0, 1.0, peak)
    return u / safe, v / safe


# ---------------------------------------------------------------------------
# Frobenius start for the singular origin at q = 1 (pole of the potential).

def _exp_ratio_taylor(n_terms: int) -> np.ndarray:
    """Taylor coefficients f_k of t/(e^t - 1)."""
    f = np.zeros(n_terms)
    f[0] = 1.0
    for n in range(2, n_terms + 1):
        acc = 0.0
        for m in range(2, n + 1):
            acc += f[n - m] / math.factorial(m)
        f[n - 1] = -acc
    return f


def g_laurent_q1(g0, g1, g2, alpha, order: int = 16) -> dict:
    """Laurent coefficients {j: G_j} of g(x) about x = 0 for q = 1.

    Uses 1/(e^{alpha x} - 1) = (1/(alpha x)) * sum f_k (alpha x)^k.
    """
    f = _exp_ratio_taylor(order + 3)
    r = {k - 1: f[k] * alpha ** (k - 1) for k in range(order + 3)}
    r2 = {}
    for ja, va in r.items():
        for jb, vb in r.items():
            j = ja + jb
            if -2 <= j <= order:
                r2[j] = r2.get(j, 0.0) + va * vb
    out = {}
    for j in range(-2, order + 1):
        out[j] = (g0 if j == 0 else 0.0) + g1 * r.get(j, 0.0) + g2 * r2.get(j, 0.0)
    return out


def frobenius_coefficients(g_coeffs: dict, order: int = 16):
    """(nu, a_k) of the regular solution psi = x^nu sum a_k x^k at the origin.

    nu is the larger indicial root of nu(nu-1) + G_{-2} = 0; requires the
    subcritical case 1 - 4 G_{-2} >= 0.
    """
    a_m2 = g_coeffs[-2]
    disc = 1.0 - 4.0 * a_m2
    if disc < 0:
        raise ValueError("supercritical inverse-square strength at the origin")
    nu = 0.5 * (1.0 + math.sqrt(disc))
    a = np.zeros(order + 1)
    a[0] = 1.0
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(-1, k - 1):
            acc += g_coeffs.get(j, 0.0) * a[k - 2 - j]
        a[k] = -acc / (k * (k + 2.0 * nu - 1.0))
    return nu, a


def frobenius_values(g_coeffs: dict, xs, order: int = 16):
    """Regular-solution values on a grid inside the series radius."""
    nu, a = frobenius_coefficients(g_coeffs, order)
    xs = np.asarray(xs, dtype=float)
    ks = np.arange(order + 1)
    return xs**nu * np.sum(a * xs[:, None] ** ks, axis=1)


def frobenius_start(g_coeffs: dict, x0: float, order: int = 16):
    """(psi, psi') of the regular solution at x0, from the power-series ansatz."""
    nu, a = frobenius_coefficients(g_coeffs, order)
    ks = np.arange(order + 1)
    powers = x0 ** ks
    u = x0 ** nu * float(np.sum(a * powers))
    v = x0 ** (nu - 1.0) * float(np.sum(a * (nu + ks) * powers))
    return u, v
