"""Fixed-step RK4 shooting kernel.

The sweep over trial energies is the only hot loop in the package. It is a
numpy loop over the steps, vectorized over the energy batch, so a batch of
240 energies costs little more than a single one. Every function here takes
the batch as a 1-D array (g0, g1 and the start state one entry per energy);
the oracle module flattens the caller's energies and restores their shape.
The batch shares r(x) on the step grid and, at q = 1, the Frobenius series'
order and indicial root.

psi'' = -g psi is linear, so one classical RK4 step is exactly a 2x2 matrix
per energy, built from g at the step's start, midpoint and end. The kernel
builds these propagators a block of steps at a time, each coefficient one
numpy expression over a (steps, batch) array, which leaves the step loop
with one matrix-vector product per step (and, for the Dirichlet mismatch,
one |psi| row for the running peak). Blocks start every BLOCK_STEPS steps,
and the last one takes in any remainder shorter than that, so a sweep of
fewer than 2 BLOCK_STEPS steps builds its coefficients once. The blocks are
counted in steps, not elements: the overflow rescale, and the peak, are
applied at block ends, which then fall on the same step indices for any
batch size, so each energy in a batch gives the same bits as that energy
alone; the block's arrays stay small whatever the batch. Otherwise the
solution is left unnormalized and each rescale is carried out as a
per-energy log scale. r and g2 r^2 on the step grid do not depend on the
energy; `step_grid` builds them once for every sweep of a problem.

The Dirichlet mismatch psi(x_max)/peak of a wide sweep is exactly +-1 for
almost every energy: once the tail is classically forbidden for good and psi
grows away from zero, psi is its own running peak. In its dirichlet mode the
kernel checks a certificate of that at each block end (`dirichlet_settled`),
writes sign(psi) for the energies that pass it and drops them from the
batch, so the rest of the steps run on the few energies still undecided.
The certificate reads only values the block already holds, and the result
is bitwise that of the full integration.
"""

import functools
import math

import numpy as np
from numpy.polynomial.polynomial import polyval

OVERFLOW_GUARD = 1e100
BLOCK_STEPS = 16
FORBIDDEN_MARGIN = 1e-12     # relative margin of the retirement test on g < 0


def step_grid(g2, q, alpha, x0, h, nsteps):
    """(r, g2 r^2) at the step ends x0 + k h, k = 0..nsteps, then at the step midpoints.

    r = s/(1 - q s) with s = exp(-alpha x); the step ends are accumulated
    step by step. Both arrays have 2 nsteps + 1 entries and serve every
    rk4_sweep over these steps, whatever the energies.
    """
    h, nsteps = float(h), int(nsteps)
    nodes = np.cumsum(np.concatenate(([float(x0)], np.full(nsteps, h))))
    s = np.exp(-float(alpha) * np.concatenate((nodes, nodes[:-1] + 0.5 * h)))
    r = s / (1.0 - float(q) * s)
    return r, float(g2) * r * r


def rk4_sweep(g0s, g1s, grid, u0s, v0s, h, nsteps, *, dirichlet=False):
    """Integrate psi'' + g psi = 0 outward for a 1-D batch of energies.

    g = g0 + g1 r + g2 r^2 with r = s/(1 - q s), s = exp(-alpha x); each
    energy has its own (g0, g1) and start state (psi, psi'), the entries of
    g0s, g1s, u0s and v0s. grid is `step_grid(g2, q, alpha, x0, h, nsteps)`,
    shared by the batch. Returns 1-D (psi, psi', log_scale) at
    x0 + nsteps * h, where psi exp(log_scale) and psi' exp(log_scale) are the
    unnormalized solution; with dirichlet=True, psi divided by the running
    peak of |psi| alone, the Dirichlet mismatch.

    With g_lo, g_mid, g_hi at x, x + h/2 and x + h, one RK4 step is
    psi <- A psi + B psi', psi' <- C psi + D psi' with
    A = 1 - h^2/6 (g_lo + 2 g_mid) + h^4/24 g_mid g_lo,
    B = h - h^3/6 g_mid,
    C = -h/6 (g_lo + 4 g_mid + g_hi) + h^3/12 g_mid (g_lo + g_hi),
    D = 1 - h^2/6 (2 g_mid + g_hi) + h^4/24 g_mid g_hi.
    At the end of every block (BLOCK_STEPS steps, the last one up to
    2 BLOCK_STEPS - 1), an energy whose m = max(|psi|, |psi'|) exceeds
    OVERFLOW_GUARD has both divided by m, and log(m) added to its log_scale
    (in dirichlet mode, its peak divided by m too). A step grows |psi| by at
    most about (g h^2)^2 / 24 where |g| h^2 is large, so a block stays
    inside the 1e208 left above the guard unless |g| h^2 exceeds ~1e4; the
    oracle's steps have it near 1e-4.

    With dirichlet=True, an energy leaves the batch at the first block end
    where `dirichlet_settled` certifies that the rest of the integration
    ends at psi/peak = sign(psi), and gets exactly that value.
    """
    g0s = np.asarray(g0s, dtype=float)
    g1s = np.asarray(g1s, dtype=float)
    u = np.array(u0s, dtype=float)
    v = np.array(v0s, dtype=float)
    h, nsteps = float(h), int(nsteps)
    if dirichlet:
        psi = np.empty(u.size)       # filled as energies leave the batch
        live = np.arange(u.size)
        peak = np.abs(u)
        rows = np.empty((min(nsteps, 2 * BLOCK_STEPS - 1), u.size))
    else:
        log_scale = np.zeros(u.size)
    r, g2r2 = (part[:, None] for part in grid)
    r_end, r_mid = r[:nsteps + 1], r[nsteps + 1:]
    g2r2_end, g2r2_mid = g2r2[:nsteps + 1], g2r2[nsteps + 1:]
    for k in range(0, nsteps, BLOCK_STEPS):
        n = nsteps - k if nsteps - k < 2 * BLOCK_STEPS else BLOCK_STEPS
        re, rm = r_end[k:k + n + 1], r_mid[k:k + n]
        g_end = g0s + g1s * re + g2r2_end[k:k + n + 1]
        g_mid = g0s + g1s * rm + g2r2_mid[k:k + n]
        g_lo, g_hi = g_end[:-1], g_end[1:]
        a = 1.0 - h * h / 6.0 * (g_lo + 2.0 * g_mid) + h ** 4 / 24.0 * g_mid * g_lo
        b = h - h ** 3 / 6.0 * g_mid
        c = -h / 6.0 * (g_lo + 4.0 * g_mid + g_hi) + h ** 3 / 12.0 * g_mid * (g_lo + g_hi)
        d = 1.0 - h * h / 6.0 * (2.0 * g_mid + g_hi) + h ** 4 / 24.0 * g_mid * g_hi
        if dirichlet:
            for a_k, b_k, c_k, d_k, row in zip(a, b, c, d, rows):
                u, v = a_k * u + b_k * v, c_k * u + d_k * v
                np.abs(u, out=row)
            np.maximum(peak, rows[:n].max(axis=0), out=peak)
        else:
            for a_k, b_k, c_k, d_k in zip(a, b, c, d):
                u, v = a_k * u + b_k * v, c_k * u + d_k * v
        m = np.maximum(np.abs(u), np.abs(v))
        mask = m > OVERFLOW_GUARD
        if np.any(mask):
            u[mask] /= m[mask]
            v[mask] /= m[mask]
            if dirichlet:
                peak[mask] /= m[mask]
            else:
                log_scale[mask] += np.log(m[mask])
        if dirichlet:
            done = dirichlet_settled(g0s, g1s, re[-1], g2r2_end[k + n], g_end[-1], u, v, peak)
            if np.any(done):
                psi[live[done]] = np.sign(u[done])
                keep = ~done
                live, u, v, peak = live[keep], u[keep], v[keep], peak[keep]
                g0s, g1s = g0s[keep], g1s[keep]
                rows = rows[:, :live.size]
                if live.size == 0:
                    break
        if k + n == nsteps:
            break
    if not dirichlet:
        return u, v, log_scale
    psi[live] = u / np.where(peak == 0.0, 1.0, peak)
    return psi


def dirichlet_settled(g0s, g1s, r_c, g2r2_c, g_c, u, v, peak):
    """Energies whose Dirichlet result psi/peak at the far end is already sign(psi).

    Takes the state at a block end x_c, after the peak and rescale, with
    r_c = r(x_c), g2r2_c = g2 r_c^2 and g_c = g(x_c). The certificate:
    * the tail stays forbidden: max(g0, g_c) < -FORBIDDEN_MARGIN
      (|g0| + |g1| r_c + g2 r_c^2). g is convex in r (g2 >= 0) and r falls
      monotonically to 0, so g < 0 at every later node; the margin covers
      the rounding of g there, a few ulps of that scale;
    * psi and psi' are nonzero with the same sign, compared sign to sign
      (their product can underflow to -0.0); NaN fails the comparison, and
      the rescale has already turned any inf into NaN;
    * |psi| == peak.
    With g <= 0 at a step's nodes, A, D >= 1 and B, C >= 0 in floating
    point too (rounding is monotone), so psi keeps its sign and |psi| never
    decreases: the peak is |psi| at every later block end, a rescale divides
    both by the same m, and the full integration ends at psi/peak = sign(psi)
    bit for bit.
    """
    scale = np.abs(g0s) + np.abs(g1s) * r_c + g2r2_c
    sign = np.sign(u)
    return ((np.maximum(g0s, g_c) < -FORBIDDEN_MARGIN * scale)
            & (sign != 0.0) & (sign == np.sign(v)) & (np.abs(u) == peak))


# ---------------------------------------------------------------------------
# Frobenius start for the singular origin at q = 1 (pole of the potential).

@functools.cache
def _exp_ratio_taylor(n_terms: int) -> np.ndarray:
    """Taylor coefficients f_k of t/(e^t - 1), built once per length (read-only)."""
    f = np.zeros(n_terms)
    f[0] = 1.0
    for n in range(2, n_terms + 1):
        acc = 0.0
        for m in range(2, n + 1):
            acc += f[n - m] / math.factorial(m)
        f[n - 1] = -acc
    f.flags.writeable = False
    return f


def laurent_rows_q1(g2, alpha, order: int):
    """The energy-independent rows of g_laurent_q1: r and g2 r^2 in powers of x, j = -2..order.

    Uses 1/(e^{alpha x} - 1) = (1/(alpha x)) * sum f_k (alpha x)^k. The
    Frobenius series built from these rows runs to x^order: the functions
    below read the order as len(rows) - 3.
    """
    r = _exp_ratio_taylor(order + 2) * alpha ** np.arange(-1.0, order + 1.0)   # j = -1..order
    return np.concatenate(([0.0], r)), g2 * np.convolve(r, r)[:order + 3]


def g_laurent_q1(g0, g1, rows) -> np.ndarray:
    """Laurent coefficients of g(x) about x = 0 for q = 1: row j + 2 holds G_j.

    rows is `laurent_rows_q1(g2, alpha, order)`. The 1-D batch of (g0, g1)
    takes columns 1 onward. Column 0 holds the energy-independent part
    g2 r^2 alone (g0 = g1 = 0), which carries G_-2 = g2/alpha^2 whatever
    the batch, even an empty one.
    """
    r_rows, g2r2_rows = rows
    out = r_rows[:, None] * np.append(0.0, g1)
    out[2, 1:] += g0
    out += g2r2_rows[:, None]
    return out


def _frobenius_columns(g):
    """(nu, a_k), k = 0..len(g) - 3, of the regular solution psi = x^nu sum a_k x^k, per column.

    g are the rows of g_laurent_q1. nu is the larger indicial root of
    nu(nu-1) + G_-2 = 0, read from the energy-independent column 0 (G_-2 =
    g2/alpha^2 is one per batch); requires 1 - 4 G_-2 >= 0. That column
    also keeps every batch two or more columns wide, where an axis-0 sum
    adds the rows one by one (over one column numpy sums pairwise), so each
    energy gets the same bits in any batch.
    """
    disc = 1.0 - 4.0 * g[0, 0]
    if disc < 0:
        raise ValueError("supercritical inverse-square strength at the origin")
    nu = 0.5 * (1.0 + math.sqrt(disc))
    a = np.empty((len(g) - 2, g.shape[1]))
    a[0] = 1.0
    for k, a_k in enumerate(a[1:], 1):
        np.divide((g[1:k + 1] * a[k - 1::-1]).sum(axis=0), -(k * (k + 2.0 * nu - 1.0)), out=a_k)
    return nu, a


def frobenius_values(g_coeffs, xs):
    """Regular-solution values on a grid inside the series radius, for one energy."""
    nu, a = _frobenius_columns(g_coeffs)
    xs = np.asarray(xs, dtype=float)
    return xs**nu * polyval(xs, a[:, 1])


def frobenius_start(g_coeffs, x0: float):
    """1-D (psi, psi') of the regular solution at x0, one entry per energy of the batch.

    g_coeffs are the rows of g_laurent_q1. Sums a_k x0^k and
    (nu + k) a_k x0^k along the coefficient axis, over all the columns of
    `_frobenius_columns`, so each energy gets the same bits in any batch.
    """
    nu, a = _frobenius_columns(g_coeffs)
    ks = np.arange(float(len(a)))[:, None]
    a *= x0 ** ks
    u = x0 ** nu * a.sum(axis=0)
    v = x0 ** (nu - 1.0) * ((nu + ks) * a).sum(axis=0)
    return u[1:], v[1:]
