"""Fixed-step RK4 shooting kernel.

The sweep over trial energies is the only hot loop in the package. Every
function here takes the batch as a 1-D array (g0, g1 and the start state
one entry per energy); the oracle module flattens the caller's energies and
restores their shape. The batch shares r(x) on the step grid and, at q = 1,
the Frobenius series' order and indicial root. r and g2 r^2 on the step
grid do not depend on the energy; `step_grid` builds them once for every
sweep of a problem.

psi'' = -g psi is linear, so one classical RK4 step is exactly a 2x2 matrix
per energy, built from g at the step's start, midpoint and end. The steps
fall into blocks of BLOCK_STEPS, the last one taking in any remainder
shorter than that, so a sweep of fewer than 2 BLOCK_STEPS steps is one
block. `rk4_sweep` walks the sweep a chunk of blocks per pass: it builds
the chunk's matrices as one numpy expression per coefficient over a
(steps, batch) array and hands them to one of two steppers. While the live
batch is wider than NARROW_BATCH a chunk is one block, stepped in numpy
(`_numpy_steps`): one matrix-vector product per step over the batch, which
costs about the same at any batch up to a few hundred energies, as it is
bound by the dispatch of its numpy calls. Once the batch is narrow a chunk
is CHUNK_BLOCKS blocks, stepped one energy at a time in Python floats
(`_float_steps`). Both make the same IEEE float64 multiplies and adds in
the same order, and numpy and CPython round each one alike, so an energy
gets the same bits on either path.

The overflow rescale, and for the Dirichlet mismatch the running peak of
|psi|, are applied at block ends. These fall on the same step indices for
any batch size, so each energy in a batch gives the same bits as that
energy alone. Otherwise the solution is left unnormalized and each rescale
is carried out as a per-energy log scale.

The Dirichlet mismatch psi(x_max)/peak of a wide sweep is exactly +-1 for
almost every energy: once the tail is classically forbidden for good and psi
grows away from zero, psi is its own running peak. In its dirichlet mode the
kernel checks a certificate of that (`dirichlet_settled`) at each chunk end,
writes sign(psi) for the energies that pass it and drops them from the
batch, so the rest of the steps run on the few energies still undecided.
The certificate reads only values the chunk already holds, and the result
is bitwise that of the full integration.
"""

import functools
import itertools
import math

import numpy as np

OVERFLOW_GUARD = 1e100
BLOCK_STEPS = 16
FORBIDDEN_MARGIN = 1e-12     # relative margin of the retirement test on g < 0
# Live batches this narrow step in Python floats (`_float_steps`). A 16-step
# block of a 256-step sweep costs 62-102 us in numpy at any live batch from 8
# to 48, and in floats, CHUNK_BLOCKS blocks to a build, 2.8-3.2 us per
# energy on top of 2-4 us (2 cores, numpy 2.4): the two cross at 20-26
# energies. On the mismatch sweep, 24 and 32 against 16 read x1.01 / x0.95
# and x1.03 / x0.94 at seeds 7 / 11 (medians of 10 interleaved rounds of
# CPU): no clear gain, so 16 stays.
NARROW_BATCH = 16
# Blocks per coefficient build (and dirichlet certificate) of a narrow
# batch. CPU per mismatch_scan round against one build per block, medians
# of 10 interleaved rounds at seeds 7 / 11: x0.83 / x0.87 at 4 blocks,
# x0.79 / x0.87 at 8, x0.79 / x0.85 at 12, x0.79 / x0.86 at 16, and
# x1.00 / x1.06 for the whole rest of the sweep at once, which builds and
# lists coefficients for energies that retire early.
CHUNK_BLOCKS = 8


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

    Each pass of the loop takes one chunk of blocks: one block, stepped in
    numpy, while the live batch holds more than NARROW_BATCH energies, and
    up to CHUNK_BLOCKS blocks, stepped in Python floats, once it holds
    fewer; the bits are the same either way. With dirichlet=True, an energy
    leaves the batch at the first chunk end where `dirichlet_settled`
    certifies that the rest of the integration ends at psi/peak =
    sign(psi), and gets exactly that value: the certificate, once it holds
    at a block end, holds at every later one, so a narrow batch, checked
    once per chunk, may retire an energy a few blocks later, with the same
    value.
    """
    g0s = np.asarray(g0s, dtype=float)
    g1s = np.asarray(g1s, dtype=float)
    u = np.array(u0s, dtype=float)
    v = np.array(v0s, dtype=float)
    h, nsteps = float(h), int(nsteps)
    if dirichlet:
        psi = np.empty(u.size)       # filled as energies leave the batch
        live = np.arange(u.size)
        scale = np.abs(u)            # the running peak
        rows = np.empty((min(nsteps, 2 * BLOCK_STEPS - 1), u.size))
    else:
        scale = np.zeros(u.size)     # the log scale
        rows = None
    grid = r, g2r2 = tuple(part[:, None] for part in grid)
    k = 0
    while k < nsteps and u.size:
        wide = u.size > NARROW_BATCH
        blocks = _chunk(k, nsteps, 1 if wide else CHUNK_BLOCKS)
        end = k + sum(blocks)
        g_end, g_mid = _g_rows(g0s, g1s, grid, nsteps, k, end)
        if wide:
            u, v = _numpy_steps(_propagators(g_end, g_mid, h), u, v, scale, rows)
        else:
            u, v, scale = _float_steps(_propagators(g_end, g_mid, h), blocks, u, v, scale,
                                       dirichlet)
        if dirichlet:
            done = dirichlet_settled(g0s, g1s, r[end], g2r2[end], g_end[-1], u, v, scale)
            if np.logical_or.reduce(done):
                psi[live[done]] = np.sign(u[done])
                keep = ~done
                live, u, v, scale = live[keep], u[keep], v[keep], scale[keep]
                g0s, g1s, rows = g0s[keep], g1s[keep], rows[:, :live.size]
        k = end
    if not dirichlet:
        return u, v, scale
    psi[live] = u / np.where(scale == 0.0, 1.0, scale)
    return psi


def _chunk(k, nsteps, blocks):
    """Lengths of up to `blocks` blocks from step k, the last taking in a shorter remainder."""
    lengths = []
    while k < nsteps and len(lengths) < blocks:
        lengths.append(nsteps - k if nsteps - k < 2 * BLOCK_STEPS else BLOCK_STEPS)
        k += lengths[-1]
    return lengths


def _g_rows(g0s, g1s, grid, nsteps, lo, hi):
    """g at the step ends lo..hi and at the midpoints of steps lo..hi-1, (steps, batch) each.

    grid holds (r, g2 r^2) as columns, the step ends and then the midpoints;
    the rows of a whole sweep are one expression over it.
    """
    r, g2r2 = grid
    if hi - lo == nsteps:
        g = g0s + g1s * r + g2r2
        return g[:nsteps + 1], g[nsteps + 1:]
    ends, mids = slice(lo, hi + 1), slice(nsteps + 1 + lo, nsteps + 1 + hi)
    return g0s + g1s * r[ends] + g2r2[ends], g0s + g1s * r[mids] + g2r2[mids]


def _propagators(g_end, g_mid, h):
    """The RK4 coefficients (A, B, C, D) of the steps between the rows of g_end."""
    g_lo, g_hi = g_end[:-1], g_end[1:]
    return (1.0 - h * h / 6.0 * (g_lo + 2.0 * g_mid) + h ** 4 / 24.0 * g_mid * g_lo,
            h - h ** 3 / 6.0 * g_mid,
            -h / 6.0 * (g_lo + 4.0 * g_mid + g_hi) + h ** 3 / 12.0 * g_mid * (g_lo + g_hi),
            1.0 - h * h / 6.0 * (2.0 * g_mid + g_hi) + h ** 4 / 24.0 * g_mid * g_hi)


def _numpy_steps(coeffs, u, v, scale, rows):
    """(psi, psi') after one block's steps in numpy, then the block-end peak and rescale.

    scale is the log scale, or with rows (the dirichlet mode's buffer for
    |psi| after each step) the running peak; it is updated in place. The
    block's coefficients die on return, before the next block builds its
    own, so a wide batch holds one block's at a time.
    """
    if rows is None:
        for a_k, b_k, c_k, d_k in zip(*coeffs):
            u, v = a_k * u + b_k * v, c_k * u + d_k * v
    else:
        for a_k, b_k, c_k, d_k, row in zip(*coeffs, rows):
            u, v = a_k * u + b_k * v, c_k * u + d_k * v
            np.abs(u, out=row)
        np.maximum(scale, rows[:len(coeffs[0])].max(axis=0), out=scale)
    m = np.maximum(np.abs(u), np.abs(v))
    mask = m > OVERFLOW_GUARD
    if np.logical_or.reduce(mask):
        u[mask] /= m[mask]
        v[mask] /= m[mask]
        if rows is None:
            scale[mask] += np.log(m[mask])
        else:
            scale[mask] /= m[mask]
    return u, v


def _float_steps(coeffs, blocks, u, v, scale, dirichlet):
    """(psi, psi', scale) after a chunk's blocks, one energy at a time in Python floats.

    blocks are the chunk's block lengths and coeffs their coefficients;
    scale is the log scale, or in dirichlet mode the running peak. Each
    energy steps through the blocks with the overflow rescale at every
    block end. The multiplies and adds are those of `_numpy_steps`, in its
    order, and numpy and CPython round each one alike, so the bits are
    those of the numpy loop. The rescale follows np.maximum: a NaN psi or
    psi' never rescales. The peak can differ from numpy's only once psi is
    NaN, and psi then stays NaN to the end whatever the peak.
    """
    us, vs, scales = u.tolist(), v.tolist(), scale.tolist()
    for j, (a, b, c, d) in enumerate(zip(*(part.T.tolist() for part in coeffs))):
        u_j, v_j, s_j = us[j], vs[j], scales[j]
        steps = zip(a, b, c, d)
        for n in blocks:
            if dirichlet:
                for a_k, b_k, c_k, d_k in itertools.islice(steps, n):
                    u_j, v_j = a_k * u_j + b_k * v_j, c_k * u_j + d_k * v_j
                    if u_j > s_j:
                        s_j = u_j
                    elif -u_j > s_j:
                        s_j = -u_j
            else:
                for a_k, b_k, c_k, d_k in itertools.islice(steps, n):
                    u_j, v_j = a_k * u_j + b_k * v_j, c_k * u_j + d_k * v_j
            m = max(abs(u_j), abs(v_j))
            if m > OVERFLOW_GUARD and u_j == u_j and v_j == v_j:
                u_j, v_j = u_j / m, v_j / m
                s_j = s_j / m if dirichlet else s_j + float(np.log(m))
        us[j], vs[j], scales[j] = u_j, v_j, s_j
    return np.array(us), np.array(vs), np.array(scales)


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
    out = np.empty((len(r_rows), np.size(g1) + 1))
    out[:, 0] = g2r2_rows
    batch = out[:, 1:]
    np.multiply(r_rows[:, None], g1, out=batch)
    batch[2] += g0
    batch += g2r2_rows[:, None]
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
    # a_k is row -1 - k of rev: a_(k-1), .., a_0 are its last k rows, in order
    rev = np.empty((len(g) - 2, g.shape[1]))
    rev[-1] = 1.0
    for k, a_k in enumerate(list(rev)[-2::-1], 1):
        np.divide(np.add.reduce(g[1:k + 1] * rev[-k:], 0), -(k * (k + 2.0 * nu - 1.0)), a_k)
    return nu, rev[::-1].copy()


def frobenius_start(g_coeffs, x0: float):
    """1-D (psi, psi') of the regular solution at x0, one entry per energy of the batch.

    g_coeffs are the rows of g_laurent_q1. Sums a_k x0^k and
    (nu + k) a_k x0^k along the coefficient axis, over all the columns of
    `_frobenius_columns`, so each energy gets the same bits in any batch.
    """
    nu, a = _frobenius_columns(g_coeffs)
    ks = np.arange(float(len(a)))[:, None]
    a *= x0 ** ks
    u = x0 ** nu * np.add.reduce(a, axis=0)
    v = x0 ** (nu - 1.0) * np.add.reduce((nu + ks) * a, axis=0)
    return u[1:], v[1:]
