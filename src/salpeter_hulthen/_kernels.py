"""Fixed-step RK4 shooting kernel.

The sweep over trial energies is the only hot loop in the package. It is a
numpy loop over the steps, vectorized over the energy batch, so a batch of
240 energies costs little more than a single one. The batch shares r(x) on
the step grid and, at q = 1, the Frobenius series and its indicial root.
"""

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

OVERFLOW_GUARD = 1e100


def rk4_sweep(g0s, g1s, g2, q, alpha, x0, u0s, v0s, h, nsteps):
    """Integrate psi'' + g psi = 0 outward for a batch of energies.

    g = g0 + g1 r + g2 r^2 with r = s/(1 - q s), s = exp(-alpha x); each
    energy has its own (g0, g1) and start state (psi, psi'). The batch shares
    x0, so r is computed once per grid point. Returns (psi, psi') at
    x0 + nsteps * h, both divided by the running peak of |psi|.
    """
    g0s = np.asarray(g0s, dtype=float)
    g1s = np.asarray(g1s, dtype=float)
    u = np.array(u0s, dtype=float)
    v = np.array(v0s, dtype=float)
    g2, q, alpha, h, nsteps = float(g2), float(q), float(alpha), float(h), int(nsteps)
    peak = np.abs(u)
    # step ends x0 + k h (accumulated step by step), then the midpoints
    nodes = np.cumsum(np.concatenate(([float(x0)], np.full(nsteps, h))))
    s = np.exp(-alpha * np.concatenate((nodes, nodes[:-1] + 0.5 * h)))
    rs = (s / (1.0 - q * s)).tolist()

    def g_at(r):
        return g0s + g1s * r + g2 * r * r

    g_lo = g_at(rs[0])
    for r_mid, r_hi in zip(rs[nsteps + 1:], rs[1:nsteps + 1]):
        g_mid = g_at(r_mid)
        g_hi = g_at(r_hi)
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


def g_laurent_q1(g0, g1, g2, alpha, order: int = 16) -> np.ndarray:
    """Laurent coefficients of g(x) about x = 0 for q = 1: row j + 2 holds G_j.

    Uses 1/(e^{alpha x} - 1) = (1/(alpha x)) * sum f_k (alpha x)^k. A batch of
    (g0, g1) runs along the trailing axis; r and r^2 are built once for it.
    """
    f = _exp_ratio_taylor(order + 2)
    r = np.array([f[k] * alpha ** (k - 1) for k in range(order + 2)])  # j = -1..order
    r_rows = np.concatenate(([0.0], r))                                 # j = -2..order
    r2_rows = np.convolve(r, r)[:order + 3]                             # j = -2..order
    col = (-1,) + (1,) * np.ndim(g1)
    out = r_rows.reshape(col) * g1
    out[2] += g0
    out += (g2 * r2_rows).reshape(col)
    return out


def frobenius_coefficients(g_coeffs, order: int = 16):
    """(nu, a_k) of the regular solution psi = x^nu sum a_k x^k at the origin.

    g_coeffs are the rows of g_laurent_q1. nu is the larger indicial root of
    nu(nu-1) + G_{-2} = 0, one per batch as G_{-2} = g2/alpha^2; requires the
    subcritical case 1 - 4 G_{-2} >= 0.
    """
    g = np.asarray(g_coeffs, dtype=float)
    disc = 1.0 - 4.0 * np.ravel(g[0])[0]
    if disc < 0:
        raise ValueError("supercritical inverse-square strength at the origin")
    nu = 0.5 * (1.0 + math.sqrt(disc))
    a = np.zeros((order + 1,) + g.shape[1:])
    a[0] = 1.0
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(-1, k - 1):
            acc = acc + g[j + 2] * a[k - 2 - j]
        a[k] = -acc / (k * (k + 2.0 * nu - 1.0))
    return nu, a


def frobenius_values(g_coeffs, xs, order: int = 16):
    """Regular-solution values on a grid inside the series radius, for one energy."""
    nu, a = frobenius_coefficients(g_coeffs, order)
    xs = np.asarray(xs, dtype=float)
    return xs**nu * polyval(xs, a)


def frobenius_start(g_coeffs, x0: float, order: int = 16):
    """(psi, psi') of the regular solution at x0, elementwise over the batch axes."""
    nu, a = frobenius_coefficients(g_coeffs, order)
    ks = np.arange(order + 1.0).reshape((-1,) + (1,) * (a.ndim - 1))
    u = x0 ** nu * polyval(x0, a)
    v = x0 ** (nu - 1.0) * polyval(x0, a * (nu + ks))
    return u, v
