"""Independent numerical ground truth for the real-parameter regime.

Two solvers, deliberately unrelated to the closed forms:

* a symmetric finite-difference eigensolver for the linear nonrelativistic
  problem, Richardson-extrapolated over two grids;
* a shooting integrator for the full energy-nonlinear reduced equation. It
  integrates outward from the origin only to a matching point x_m, the
  nearest step end at which a majorant of the tail's series proves it
  converged for every energy of the window (1.2 decay lengths of the
  potential out in the shallow pinned wells, 4.1 at V0/alpha = 250), and
  matches there to the exact decaying tail: with s = exp(-alpha x), the
  Jost solution psi_J = exp(-kappa x) sum_k c_k s^k, kappa = sqrt(-g0(E)), of
  exponential-type potentials (Bargmann, Rev. Mod. Phys. 21 (1949) 488;
  Newton, Scattering Theory of Waves and Particles, 1982). The residual is
  the Wronskian psi_J psi' - psi_J' psi at x_m, which has no poles where
  psi_J has a node; with the k = 0 term alone it is the Robin condition
  psi' + kappa psi = 0 of asymptotic matching (Cooley, Math. Comp. 15 (1961)
  363), which needs a far longer domain. The regular solution is carried
  unnormalized, so the residual is smooth in E and its scan values predict
  the roots. Roots of the residual are bracketed by a scan spaced uniformly
  in the angle theta, E = -2 m_tilde sin^2(theta/2), which is uniform in
  kappa at threshold, where the shallow levels of a weakly screened well
  crowd. The roots are then polished all at once by a batched multisection,
  each pass one kernel call for every open bracket, which keeps a
  subinterval over which the residual changes sign. Its first pass
  integrates just a ladder of ten probes, 0.8 of the closing width apart,
  around each bracket's estimated root; where two rungs straddle the root
  the bracket closes, as most do, even where the estimate is a few closing
  widths off. Every later pass integrates the POLISH_POINTS - 1 interior
  energies of each open bracket, with two probes. One rule aims every
  pass's probes: inverse interpolation through the values nearest the sign
  change (the scan's, in theta, for the first pass; then a quadratic
  through the ladder's outer rungs and a bracket end; later a cubic
  through the last pass's uniform values), kept inside the bracket as
  Brent's method does (Brent, Algorithms for Minimization without
  Derivatives, 1973). A level search takes the scan, the probe pass and
  at most P later passes, where P is the plain multisection's count:
  2 + P kernel calls at worst.

Only the Real regime is handled here; complex regimes are checked through
algebraic identities instead (see the spectra tests).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import potentials
from ._kernels import frobenius_start, g_laurent_q1, laurent_rows_q1, rk4_sweep, step_grid
from .errors import (
    NonConvergentError,
    NotConvergedError,
    PoleOnGridError,
    ShootingOverflowError,
    StepTooCoarseError,
    ValidationError,
)
from .potentials import MassConfig, PotentialParams, Regime

FROBENIUS_ORDER = 16           # the q = 1 start's series runs to x^FROBENIUS_ORDER
ROOT_XTOL = 1e-12              # absolute energy tolerance of the polish
POLISH_POINTS = 128            # subintervals per bracket and polish pass
JOST_TERMS = 24                # terms c_1..c_K of the Jost series after c_0 = 1
JOST_TOL = 1e-14               # largest last term K |c_K s^K| next to sum_k |c_k s^k|
SCALE_CAP = 400.0              # largest log scale of the regular solution the residual applies
SCAN_POINTS = 240              # energies of the level search's scan
SCAN_STENCIL = 12              # scan values per bracket in the first pass's root estimate
STEP_ALPHA = 0.01              # default step h alpha of the shooting integrator

_JOST_K = np.arange(0.0, JOST_TERMS + 1.0).reshape(-1, 1)    # the index k of the Jost terms
_JOST_K.flags.writeable = False
# the polish's offsets and points, as Python floats
_LADDER = tuple((0.8 * np.arange(-4.5, 5.0)).tolist())   # the probe pass's, in tol: -3.6, .., 3.6
_PROBE_OFFSETS = _LADDER[4:6]                 # a later pass's two probes: -+0.4 tol
_INNER = tuple((np.arange(1, POLISH_POINTS) / POLISH_POINTS).tolist())   # its uniform points
_FOUR_ULPS = 4.0 * float(np.finfo(float).eps)


def _start_point(params: PotentialParams) -> float:
    """x0 of the outward integration: the origin, or 0.5/alpha where q = 1 puts a pole there."""
    return 0.5 / params.alpha if params.q == 1.0 else 0.0


@dataclass(frozen=True)
class EffectiveProblem:
    """Shooting setup for the reduced equation psi'' + g(x; E) psi = 0.

    g(x; E) = 2 mu [ (E - V(x)) + (V(x) - E)^2 / (2 m_tilde) ] with V taken
    from the potentials module (single source of truth). Defaults keep
    alpha * x_max >= 25 and alpha * h <= 0.01. The long default box serves
    the Dirichlet mismatch psi(x_max)/peak of mismatch_sweep, which brackets
    a level only where the growing tail has swamped everything else; its
    kernel drops an energy from the batch once its value is certain, so most
    energies stop a few decay lengths out. salpeter_levels instead passes
    its matching point (`matching_point`), a twentieth to a fifth of that
    length. x_max and h must be finite, and x_max must leave at least one
    step after x0. What does not depend on the energy is built once, on
    construction: the factors of g's coefficients, the steps, r and g2 r^2
    on the step grid (`step_grid`) and, at q = 1, the Laurent rows of r and
    r^2 to FROBENIUS_ORDER (`laurent_rows_q1`).
    """

    params: PotentialParams
    masses: MassConfig
    x_max: float = field(default=0.0)
    h: float = field(default=0.0)

    def __post_init__(self):
        if self.params.regime is not Regime.REAL:
            raise ValidationError("the oracle handles the Real regime only")
        alpha, q = self.params.alpha, self.params.q
        if self.x_max <= 0.0:
            object.__setattr__(self, "x_max", 25.0 / alpha)
        if self.h <= 0.0:
            object.__setattr__(self, "h", STEP_ALPHA / alpha)
        if not (math.isfinite(self.x_max) and math.isfinite(self.h)):
            raise ValidationError("x_max and h must be finite")
        if self.h * alpha > 0.05:
            raise StepTooCoarseError(f"h * alpha = {self.h * alpha:.3g} > 0.05")
        if q > 1.0:
            raise PoleOnGridError("potential pole inside the integration domain for q > 1")
        x0 = _start_point(self.params)
        nsteps = int(round((self.x_max - x0) / self.h))
        if nsteps < 1:
            raise ValidationError(f"x_max = {self.x_max:.6g} leaves no step after x0 = {x0:.6g}")
        mu, mt, v0 = self.masses.mu, self.masses.m_tilde, self.params.v0
        # the factors of g_coefficients, each formed as its expression forms it
        object.__setattr__(self, "_factors", (2.0 * mu, 2.0 * mt, 2.0 * mu * v0, mt,
                                              mu * v0 * v0 / mt))
        g2 = self._factors[4]
        object.__setattr__(self, "_steps", (x0, nsteps, x0 + nsteps * self.h))
        object.__setattr__(self, "_grid", step_grid(g2, q, alpha, x0, self.h, nsteps))
        object.__setattr__(self, "_laurent", laurent_rows_q1(g2, alpha, FROBENIUS_ORDER)
                           if q == 1.0 else None)

    def g_coefficients(self, energy):
        """(g0, g1, g2) of g = g0 + g1 r + g2 r^2, r = s/(1 - q s); energy may be an array.

        g0 = 2 mu (E + E^2/(2 m_tilde)), g1 = 2 mu V0 (1 + E/m_tilde) and
        g2 = mu V0^2/m_tilde, their energy-independent factors taken once.
        """
        two_mu, two_mt, two_mu_v0, mt, g2 = self._factors
        return two_mu * (energy + energy * energy / two_mt), two_mu_v0 * (1.0 + energy / mt), g2

    def steps(self):
        """(x0, nsteps, x_end): the start point, the fixed steps toward x_max, and where they stop.

        x_end = x0 + nsteps h is x_max only to within h/2.
        """
        return self._steps

    def start_state(self, energy):
        """Initial (x0, psi, psi') honoring psi(0) = 0, for a float or an array.

        x0 is shared by every energy; psi and psi' take the shape of energy,
        and are numpy scalars for a float. For q = 1 the origin is a pole of
        the potential and the regular solution behaves like x^nu; the
        integration then starts from a Frobenius series evaluated at
        x0 = 0.5/alpha.
        """
        shape = np.shape(energy)
        g0, g1, _ = self.g_coefficients(np.asarray(energy, dtype=float).ravel())
        u, v = self._start(g0, g1)
        return self._steps[0], u.reshape(shape)[()], v.reshape(shape)[()]

    def _start(self, g0, g1):
        """1-D (psi, psi') at x0 for the energies with these 1-D (g0, g1); see start_state."""
        if self._laurent is None:
            return np.zeros(g0.size), np.ones(g0.size)
        coeffs = g_laurent_q1(g0, g1, self._laurent)
        try:
            return frobenius_start(coeffs, self._steps[0])
        except ValueError as exc:
            raise NonConvergentError(
                "supercritical attractive 1/x^2 tail at the origin; "
                "the Dirichlet spectrum is not well defined") from exc


def fd_eigenvalues(params: PotentialParams, mu: float, count: int,
                   h: float = 0.0, x_max: float = 0.0, target: float = 1e-6):
    """Lowest eigenvalues of -psi''/(2 mu) + V psi = E psi, Dirichlet ends.

    Symmetric tridiagonal discretization on two grids (h and h/2) with
    Richardson extrapolation of the O(h^2) error. Raises NotConverged when
    the two-grid difference exceeds 10x the accuracy target. mu and target
    must be finite and positive, x_max and h finite, and the grid must hold
    at least count interior points.

    Each grid's levels come from LAPACK's bisection (dstebz) over a value
    window (lo, hi] rather than by index, which first bisects the whole
    Gershgorin interval: the narrower the window, the fewer Sturm counts.
    lo lies below the whole spectrum, so the count lowest levels of the
    window are the count lowest of all. On the coarse grid the window is
    (Gershgorin bound, 0]. On the fine grid it is the coarse levels widened
    by 4x the two-grid acceptance bound, which holds the fine levels
    whenever the check below passes at a target under 1/120; where the
    coarse windows found a next level, the upper end stops halfway to it,
    so the continuum states of a long box stay out. Its lower end
    counts only when dpttrf factors T - lo I as LDL^T with positive pivots,
    the sign test of bisection's Sturm count, which proves that no level
    lies at or below lo (else the window starts at the Gershgorin bound).
    Where a window holds fewer than count levels, as when count asks for
    continuum states of the box, the levels above it come from a second
    window that ends at Weyl's bound on the count-th level (see matrix);
    bisection by index remains only as a guard.
    """
    if params.regime is not Regime.REAL:
        raise ValidationError("the oracle handles the Real regime only")
    if count < 1:
        raise ValidationError("count must be >= 1")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValidationError("mu must be finite and positive")
    if not (math.isfinite(target) and target > 0.0):
        raise ValidationError("target must be finite and positive")
    alpha = params.alpha
    if x_max <= 0.0:
        x_max = 25.0 / alpha
    if h <= 0.0:
        h = 0.01 / alpha
    if not (math.isfinite(x_max) and math.isfinite(h)):
        raise ValidationError("x_max and h must be finite")
    from scipy.linalg import eigvalsh_tridiagonal   # 0.2 s to import; used only here
    from scipy.linalg.lapack import dpttrf

    def matrix(step):
        """(diagonal, off-diagonal, Gershgorin lower bound, Weyl upper bound) of the grid at step.

        The upper bound lies above the count-th level: by Weyl's inequality
        that level is at most the free box's count-th level, (1 - cos(count
        pi / npts))/(mu step^2), written 2 sin^2(count pi / (2 npts))/(mu
        step^2) to keep its digits, plus max(v). Eight ulps of ||T|| cover
        the rounding of the stored matrix and of the Sturm counts.
        """
        npts = int(round(x_max / step))
        if npts - 1 < count:
            raise ValidationError(f"x_max = {x_max:.6g} at h = {step:.6g} leaves "
                                  f"{max(npts - 1, 0)} grid points for count = {count} levels")
        xs = step * np.arange(1, npts)
        v = potentials._values(params, xs)
        if np.max(np.abs(v.imag)) > 1e-12 * (1.0 + np.max(np.abs(v.real))):
            raise ValidationError("potential is not real on the grid")
        diag = 1.0 / (mu * step * step) + v.real
        hop = -1.0 / (2.0 * mu * step * step)
        free = 2.0 * math.sin(0.5 * math.pi * count / npts) ** 2 / (mu * step * step)
        ceiling = free + np.max(v.real) + 8.0 * math.ulp(np.max(np.abs(diag)) - 2.0 * hop)
        return diag, np.full(npts - 2, hop), np.min(diag) + 2.0 * hop, ceiling

    def lowest(diag, off, lo, hi, ceiling):
        """The lowest levels, at least count of them, lo below them all.

        Those in (lo, hi], then, where they are fewer than count, those in
        (hi, ceiling].
        """
        vals = (eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi))
                if lo < hi else np.empty(0))
        hi = max(lo, hi)
        if len(vals) < count and hi < ceiling:
            more = eigvalsh_tridiagonal(diag, off, select="v", select_range=(hi, ceiling))
            vals = np.concatenate((vals, more))
        if len(vals) >= count:
            return vals
        # a guard: the ceiling lies above the count-th level
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))

    diag, off, floor, ceiling = matrix(h)
    found = lowest(diag, off, floor, 0.0, ceiling)
    coarse = found[:count]
    bound = 10.0 * max(target, 1e-12)
    margin = 4.0 * bound * max(1.0, np.max(np.abs(coarse)))
    top = coarse[-1] + margin
    if len(found) > count:
        # below the next coarse level, which in a long box lies within the
        # margin, as do the continuum box states above it
        top = min(top, 0.5 * (coarse[-1] + found[count]))
    diag, off, floor, ceiling = matrix(h / 2.0)
    lo = coarse[0] - margin
    if dpttrf(diag - lo, off)[2] != 0:
        lo = floor
    fine = lowest(diag, off, lo, top, ceiling)[:count]
    # |fine - coarse|/3 is the classical error estimate of the fine grid;
    # the extrapolated value below is better still
    estimate = np.max(np.abs(fine - coarse)) / 3.0
    if estimate > bound * max(1.0, np.max(np.abs(fine))):
        raise NotConvergedError("two-grid error estimate exceeds 10x the accuracy target")
    return list((4.0 * fine - coarse) / 3.0)


def _shoot(problem: EffectiveProblem, energies, dirichlet=False):
    """((g0, g1, g2), psi, psi', log_scale, x_end) per energy where the integration stops.

    The energies are flattened: g0, g1, psi, psi' and log_scale are 1-D.
    psi exp(log_scale) and psi' exp(log_scale) are the regular solution with
    its start state unnormalized; x_end = x0 + nsteps h is where the fixed
    steps stop (`EffectiveProblem.steps`). With dirichlet=True, psi' and
    log_scale are None and psi is rk4_sweep's Dirichlet mismatch psi/peak,
    for which energies whose value is settled stop early.
    """
    g0s, g1s, g2 = problem.g_coefficients(np.asarray(energies, dtype=float).ravel())
    _, nsteps, x_end = problem.steps()
    u0s, v0s = problem._start(g0s, g1s)
    try:
        out = rk4_sweep(g0s, g1s, problem._grid, u0s, v0s, problem.h, nsteps,
                        dirichlet=dirichlet)
    except ArithmeticError as exc:
        # h^4 overflows a float where alpha is tiny
        raise ShootingOverflowError(f"shooting steps leave the float range: {exc}") from exc
    u, v, log_scale = (out, None, None) if dirichlet else out
    # one test for every entry: the kernel leaves a finite psi or psi' at
    # most OVERFLOW_GUARD in size and an infinite one only beside a NaN, so
    # the dot product is finite exactly where all entries are, and it
    # raises no float flag (the Dirichlet psi/peak is at most 1 or NaN)
    if not math.isfinite(u.dot(u if dirichlet else v)):
        raise ShootingOverflowError("non-finite shooting mismatch")
    return (g0s, g1s, g2), u, v, log_scale, x_end


def jost_sums(g0s, g1s, g2, q, alpha, x):
    """(kappa, sum_k t_k, sum_k k t_k) of the decaying solution at x, for a batch of energies.

    With s = exp(-alpha x) and r = s/(1 - q s), g - g0 = g1 r + g2 r^2, and
    psi_J = exp(-kappa x) sum_k c_k s^k with c_0 = 1 and
    D_k c_k = -sum_{j=1..k} G_j c_{k-j}, D_k = k alpha (2 kappa + k alpha),
    where G_j are the coefficients of g - g0 in powers of s. Clearing
    (1 - q s)^2 from that convolution leaves, in the terms t_k = c_k s^k,
    D_k t_k = (2q D_{k-1} - g1) s t_{k-1} - (q^2 D_{k-2} - g1 q + g2) s^2 t_{k-2}
    with t_{-1} = 0. The terms carry (q s)^k and never overflow where the
    series converges (|q| s < 1); D_k > 0 for kappa >= 0. Then, up to the
    common factor exp(-kappa x), psi_J = sum_k t_k and psi_J' =
    -kappa sum_k t_k - alpha sum_k k t_k. Raises NonConvergentError when the
    last term K t_K is not negligible next to sum_k |t_k|; the sum itself
    may vanish, on a node of psi_J.
    """
    kappa = np.sqrt(-np.asarray(g0s, dtype=float))
    s = math.exp(-alpha * x)
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    k_alpha = _JOST_K * alpha
    den = 2.0 * kappa + k_alpha
    multiply(k_alpha, den, den)                       # row k is D_k, D_0 = 0
    # rows k - 1 and k - 2 of these multiply t_{k-1} and t_{k-2} for t_k
    near = 2.0 * q * den[:-1]
    subtract(near, g1s, near)
    multiply(near, s, near)
    far = q * q * den[:-2]
    subtract(far, g1s * q, far)
    np.add(far, g2, far)
    multiply(far, s * s, far)
    t = np.empty((JOST_TERMS + 1,) + kappa.shape)
    t[0] = 1.0
    rows = list(t)                                    # views of t, written in place
    divide(near[0], den[1], rows[1])
    # t_k = (near_k t_{k-1} - far_k t_{k-2}) / D_k, each operation written
    # into buf or row k itself
    buf = np.empty(kappa.shape)
    for t_k, t_1, t_2, near_k, far_k, den_k in zip(rows[2:], rows[1:], rows, list(near)[1:],
                                                   list(far), list(den)[2:]):
        multiply(near_k, t_1, buf)
        multiply(far_k, t_2, t_k)
        subtract(buf, t_k, t_k)
        divide(t_k, den_k, t_k)
    tail = JOST_TERMS * np.abs(rows[-1])
    # sum_k |t_k| >= t_0 = 1: a last term within JOST_TOL passes at once
    if not np.logical_and.reduce(tail <= JOST_TOL):
        scale = np.add.reduce(np.abs(t), 0)
        if not np.logical_and.reduce(tail <= JOST_TOL * scale):
            with np.errstate(all="ignore"):
                worst = np.max(tail / scale)
            raise NonConvergentError(
                f"Jost series not converged at x = {x:.6g}: its last term K |t_K| is {worst:.3g} "
                f"of sum_k |t_k|, above {JOST_TOL:g}; the series ratio |q| exp(-alpha x) is "
                f"{abs(q * s):.3g} and the depth of the well adds to it")
    return kappa, np.add.reduce(t, 0), np.add.reduce(_JOST_K * t, 0)


def _jost_residual(problem: EffectiveProblem, energies):
    """Wronskian psi_J psi' - psi_J' psi where the integration stops; zero on an eigenvalue.

    It is psi_J times psi' - (psi_J'/psi_J) psi, with the same zeros and no
    pole where psi_J has a node at the matching point, as it can in a deep
    well. psi is the regular solution unnormalized, with the kernel's log
    scale applied, so the residual is smooth in E. psi_J is taken without
    its factor exp(-kappa x_end): the residual is exp(kappa x_end) times the
    Jost function F, the Wronskian with the full psi_J, which does not
    depend on where it is taken. Of a log scale above SCALE_CAP only
    SCALE_CAP is applied (the kernel keeps psi below its OVERFLOW_GUARD), so
    the residual stays a finite float with the right sign, though its size
    then jumps where the kernel rescales.
    """
    (g0s, g1s, g2), u, v, log_scale, x_end = _shoot(problem, energies)
    alpha = problem.params.alpha
    kappa, total, weighted = jost_sums(g0s, g1s, g2, problem.params.q, alpha, x_end)
    wronskian = v * total + (kappa * total + alpha * weighted) * u
    if not log_scale.any():
        return wronskian                  # no energy rescaled: the scale is exp(0) = 1
    return wronskian * np.exp(np.minimum(log_scale, SCALE_CAP))


def matching_point(params: PotentialParams, masses: MassConfig, h: float = 0.0) -> float:
    """First step end x0 + n h, n >= 1, where the Jost series provably converges on the window.

    The proof holds for every energy of (-2 m_tilde, 0) at once. There
    |1 + E/m_tilde| < 1, so |g1| <= 2 mu |V0|; D_k >= k^2 alpha^2 as kappa >= 0;
    and the coefficients G_j of g - g0 in powers of s obey |G_j| <= |g1| |q|^(j-1)
    + g2 (j-1) |q|^(j-2), the coefficients of |g1| z/(1 - |q| z) + g2 z^2/(1 - |q| z)^2.
    The majorant k^2 alpha^2 C_k = sum_j |G_j| C_(k-j), C_0 = 1, then bounds
    |c_k|. Clearing (1 - |q| z)^2 from that convolution, as jost_sums does,
    leaves a three-term recurrence in S_k = k^2 C_k, with b1 = |g1|/alpha^2,
    b2 = g2/alpha^2 and S_0 = C_(-1) = 0:
    S_k = 2|q| S_(k-1) - q^2 S_(k-2) + b1 (C_(k-1) - |q| C_(k-2)) + b2 C_(k-2),
    taken in Python floats in a fixed order, so the point does not depend on
    how a Python version sums. Since sum_k |t_k| >= t_0 = 1, jost_sums'
    check passes wherever K C_K s^K <= JOST_TOL; the point asks for half that,
    leaving the recurrence's rounding room. The point is capped at
    (5 + max(0, ln|q|))/alpha, where |q| exp(-alpha x_m) <= e^-5, and is that
    cap where the majorant leaves the float range; where it vanishes (V0 = 0)
    the point is one step out. h is the step, STEP_ALPHA/alpha by default as
    in EffectiveProblem.
    """
    alpha, q, v0 = params.alpha, params.q, params.v0
    shift = max(0.0, math.log(abs(q))) if q != 0.0 else 0.0
    cap = (5.0 + shift) / alpha
    x0 = _start_point(params)
    h = h if h > 0.0 else STEP_ALPHA / alpha
    a2 = alpha * alpha
    if a2 == 0.0:                                       # every b1, b2 is inf or nan
        return cap
    mu = masses.mu
    b1 = 2.0 * mu * abs(v0) / a2
    b2 = mu * v0 * v0 / masses.m_tilde / a2
    r = abs(q)
    c1, c2, s1, s2 = 1.0, 0.0, 0.0, 0.0                 # C_(k-1), C_(k-2), S_(k-1), S_(k-2)
    for k in range(1, JOST_TERMS + 1):
        # overflow gives inf or nan, never a finite wrong bound: every term is >= 0
        s = 2.0 * (r * s1) - r * (r * s2) + b1 * (c1 - r * c2) + b2 * c2
        c1, c2, s1, s2 = s / (k * k), c1, s, s1
    if c1 <= 0.0:                                       # V0 = 0, or an underflow
        return x0 + h
    n = (math.log(2.0 * JOST_TERMS * c1 / JOST_TOL) / (JOST_TERMS * alpha) - x0) / h
    if math.isfinite(n):
        n = float(math.ceil(n))
    if not x0 + n * h < cap:                            # also where n is nan
        return cap
    return x0 + max(n, 1.0) * h


def _aim(xs, fs, k, width, lo, hi, f_lo, f_hi, remap=None):
    """Root estimates inside the brackets [lo, hi] with end values f_lo, f_hi, one per row.

    Row r of xs and fs (or their one row, shared by every bracket) holds
    points (x, f) whose f changes sign between columns k[r] and k[r] + 1.
    The estimate is the value at f = 0 of the polynomial x(f) through the
    width columns nearest that sign change, clipped to the row, in
    Lagrange's form relative to the stencil's first x, and taken through
    remap where the brackets are in another variable than x (the tests
    below then act in that variable). Where it is not finite (two equal
    values of f) or not inside the bracket, the regula-falsi point of the
    ends replaces it, as in Brent's method; where that too is not finite,
    the midpoint. The stencils are cut and the bracket tests run one bracket
    at a time, in Python, which rounds as numpy does; lo, hi, f_lo and f_hi
    may be lists.
    """
    starts = [min(max(int(kr) - (width // 2 - 1), 0), xs.shape[1] - width) for kr in k]
    rows = range(len(starts)) if len(xs) > 1 else [0] * len(starts)
    x, f = (np.array([part[r, s:s + width] for r, s in zip(rows, starts)]) for part in (xs, fs))
    with np.errstate(all="ignore"):
        ratio = f[:, None, :] / (f[:, None, :] - f[:, :, None])    # [i, j] = f_j/(f_j - f_i)
        ratio.reshape(len(ratio), width * width)[:, ::width + 1] = 1.0     # the diagonal
        est = x[:, 0] + np.add.reduce((x - x[:, :1]) * np.multiply.reduce(ratio, axis=2), axis=1)
        est = (est if remap is None else remap(est)).tolist()
    out = []
    for e, a, z, fa, fz in zip(est, lo, hi, f_lo, f_hi):
        # strictly inside the bracket is finite too
        if not a < e < z:
            e = a - fa * (z - a) / (fz - fa) if fz != fa else math.nan
            if not math.isfinite(e):
                e = 0.5 * (a + z)
        out.append(e)
    return np.array(out)


def _narrow(edges, fs):
    """(lo, hi, f_lo, f_hi): the first subinterval of the ascending edges whose end values differ in sign.

    edges are a bracket's ends with the pass's energies between them, and fs
    their values. The subinterval ends at the first interior value without
    the lower end's sign (zero, the other sign or NaN); with none, it is the
    last subinterval. An interior value of exactly zero is the root itself,
    a bracket of zero width.
    """
    sign = (fs[0] > 0.0) - (fs[0] < 0.0)
    k, last = 0, len(fs) - 2
    while k < last and fs[k + 1] * sign > 0.0:
        k += 1
    if fs[k + 1] == 0.0:
        return edges[k + 1], edges[k + 1], 0.0, fs[k + 1]
    return edges[k], edges[k + 1], fs[k], fs[k + 1]


def _tol(lo, hi):
    """The closing width of the bracket [lo, hi]: ROOT_XTOL, or 4 eps |E| where that is wider."""
    return ROOT_XTOL + _FOUR_ULPS * max(abs(lo), abs(hi))


def _polish(residual, lo, hi, f_lo, f_hi, centre):
    """Midpoints of the brackets [lo, hi] of a continuous residual, narrowed together.

    residual maps an energy array to an array of values; each bracket holds
    a sign change between its end values f_lo and f_hi (or lo == hi, a
    known root), and centre is an estimate of its root. Every pass
    evaluates, in one call for all open brackets, probes around the root
    estimate e* at offsets in units of tol, the bracket's closing width, and
    keeps, per bracket, a subinterval whose ends differ in sign (`_narrow`).
    The first pass, the probe pass, evaluates a ladder of ten probes alone,
    at centre + (-3.6, -2.8, .., 3.6) tol: the energies cost little next to
    the call itself, and wherever two rungs straddle the root, as they do
    for a centre up to 3.6 tol off, the bracket is 0.8 tol wide and closes.
    Every later pass evaluates the POLISH_POINTS - 1 uniform interior
    energies and two probes at e* -+ 0.4 tol, so the kept subinterval lies
    inside a uniform one. The pass's e* is `_aim`'s, taken only for the
    brackets still open: after the probe pass, whose open brackets keep a
    subinterval past an end of the ladder, the inverse quadratic through
    the ladder's two outermost rungs and that subinterval's far end (a
    secant through rungs, extrapolated thousands of tol, misses by the
    residual's curvature); after a later pass the inverse cubic through the
    four uniform points nearest the kept sign change, the probes left out,
    as two points 0.8 tol apart spoil the cubic. A bracket closes at
    ROOT_XTOL wide, or at 4 eps |E| where that is wider (`_tol`; a few
    ulps: near |E| = 1e4 one ulp exceeds ROOT_XTOL, and rounding would stall
    the bracket); until then each pass after the probe pass shrinks it at
    least about POLISH_POINTS-fold, so the probes never cost a pass: 1 + P
    passes at most, where P is the plain multisection's count from the
    widest bracket. The brackets are kept as Python floats, one at a time,
    which costs less than numpy calls on a few brackets and rounds alike;
    only the residual and `_aim` take arrays. The open test runs once after
    each pass, on the brackets that pass took; where it leaves none open, as
    after most probe passes, the polish returns at once, without building
    the next pass's stencil.
    """
    lo, hi, f_lo, f_hi, centre = np.array([lo, hi, f_lo, f_hi, centre], dtype=float).tolist()
    todo = [b for b, (a, z) in enumerate(zip(lo, hi)) if z - a > _tol(a, z)]
    ladder = True                                       # the first pass, the probe pass
    while todo:
        rows = []
        for b in todo:
            a, z, aim, tol = lo[b], hi[b], centre[b], _tol(lo[b], hi[b])
            # the rungs ascend, and clipping keeps them in order
            probes = [min(max(aim + off * tol, a), z)
                      for off in (_LADDER if ladder else _PROBE_OFFSETS)]
            rows.append(probes if ladder else [a + (z - a) * t for t in _INNER] + probes)
        width = len(rows[0])
        values = residual(np.array(rows).ravel()).tolist()
        last, todo, stencils = todo, [], []
        for b, energies, fs in zip(last, rows, (values[j:j + width]
                                               for j in range(0, len(values), width))):
            a, z, fa, fz = lo[b], hi[b], f_lo[b], f_hi[b]
            if ladder:
                interior = energies, fs
                # the bracket's ends around the ladder's two outermost rungs
                xs, ys = [a, energies[0], energies[-1], z], [fa, fs[0], fs[-1], fz]
            else:
                order = sorted(range(width), key=energies.__getitem__)    # stable
                interior = [energies[j] for j in order], [fs[j] for j in order]
                # the bracket's ends around the pass's uniform points
                xs, ys = [a, *energies[:-2], z], [fa, *fs[:-2], fz]
            lo[b], hi[b], f_lo[b], f_hi[b] = _narrow([a, *interior[0], z], [fa, *interior[1], fz])
            if hi[b] - lo[b] > _tol(lo[b], hi[b]):
                todo.append(b)
                stencils.append((xs, ys))
        if todo:
            # only the brackets still open are aimed; a closed one never
            # reopens. Columns k and k + 1 of a row hold the kept
            # subinterval (or, in a gap of the ladder, enclose it)
            k = [sum(x <= lo[b] for x in xs) - 1 for b, (xs, _) in zip(todo, stencils)]
            xs, ys = (np.array(part) for part in zip(*stencils))
            ends = ([end[b] for b in todo] for end in (lo, hi, f_lo, f_hi))
            for b, aim in zip(todo, _aim(xs, ys, k, 3 if ladder else 4, *ends).tolist()):
                centre[b] = aim
        ladder = False
    return np.array([0.5 * (a + z) for a, z in zip(lo, hi)])


@functools.lru_cache(maxsize=32)
def _scan_grid(lo, hi, m_tilde):
    """(theta, E, sin theta) of the SCAN_POINTS scan energies, E ascending from lo to hi.

    The angles are uniform, with E = -2 m_tilde sin^2(theta/2), which does
    not cancel near E = 0; the ends are pinned to exactly lo and hi. sin
    theta scales the Jost function (`salpeter_levels`). The arrays are
    read-only and built once per window and m_tilde, in a bounded cache:
    every search at the same masses scans the same default window.
    """
    ends = 2.0 * np.arcsin(np.sqrt(np.array([lo, hi]) / (-2.0 * m_tilde)))
    thetas = np.linspace(ends[0], ends[1], SCAN_POINTS)
    energies = -2.0 * m_tilde * np.sin(0.5 * thetas) ** 2
    energies[0], energies[-1] = lo, hi
    grid = thetas, energies, np.sin(thetas)
    for part in grid:
        part.flags.writeable = False
    return grid


def salpeter_levels(params: PotentialParams, masses: MassConfig, window=None,
                    h: float = 0.0, x_max: float = 0.0):
    """Eigenvalues of the energy-nonlinear reduced equation inside the window.

    Scans the Jost Wronskian psi_J psi' - psi_J' psi over SCAN_POINTS
    energies spaced uniformly in theta, E = -2 m_tilde sin^2(theta/2)
    (`_scan_grid`), so kappa = sqrt(mu m_tilde) sin(theta): the scan is
    uniform in kappa at threshold, where the shallow levels of a weakly
    screened well crowd, and about ten times finer there than a scan
    uniform in E. The root of each sign change is then estimated from the
    SCAN_STENCIL scan values nearest it (`_aim`): theta is
    inverse-interpolated in the Jost function F = residual exp(-kappa x_end),
    analytic in theta where the residual's growth and E's threshold branch
    are not, and mapped back to E. The brackets and their estimates go to a
    batched multisection (`_polish`). Its first pass, the probe pass,
    integrates only a ladder of ten probes around each estimate, 0.8 tol
    apart, in one kernel call; the brackets where two rungs straddle the
    root close, which takes in estimates up to 3.6 tol off. Every later pass
    integrates POLISH_POINTS - 1 interior energies of every open bracket and
    two probes around an interpolated root, in one kernel call, and keeps a
    subinterval whose ends differ in sign. No scan energy is integrated
    again. The residual is continuous in E, so each kept subinterval still
    holds a root, and the polish converges whatever the shape of the
    residual. A level search takes the scan, the probe pass and at most P
    later passes, the plain multisection's count from the widest scan step
    (P = 5 from the default window at unit masses): 2 + P kernel calls at
    worst, each serving all brackets at once. Most searches end after the
    probe pass, whose ladders close every bracket, and a scan without a sign
    change ends the search after the scan. The scan grid (theta, E and
    sin theta) is built once per window and m_tilde (`_scan_grid`).
    The window must lie inside (-2 m_tilde, 0), where g0 < 0 and the tail
    decays. x_max is the matching point, by default `matching_point(params,
    masses, h)`: the step end nearest the origin where the Jost series
    provably converges on the whole window, from about 1.2/alpha in shallow
    wells to at most (5 + max(0, ln|q|))/alpha. An explicit x_max is
    honoured; the residual is taken where the fixed steps stop, within h/2
    of it. Raises NonConvergentError where the Jost series has not
    converged there, which a forced x_max with |q| exp(-alpha x_max) near 1
    can cause. Returns the roots in ascending order.
    """
    mt = masses.m_tilde
    if window is None:
        edge = min(masses.total, 2.0 * mt)
        delta = 1e-8 * max(1.0, edge)
        window = (-edge + delta, -delta)
    lo, hi = window
    if not -2.0 * mt < lo < hi < 0.0:
        raise ValidationError("window must satisfy -2 m_tilde < lo < hi < 0")
    if x_max <= 0.0:
        x_max = matching_point(params, masses, h)
    problem = EffectiveProblem(params, masses, x_max=x_max, h=h)
    thetas, energies, sines = _scan_grid(lo, hi, mt)
    values = _jost_residual(problem, energies)
    signs = np.sign(values)
    i = np.flatnonzero((values[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0))
    if not i.size:
        return []
    jost = values * np.exp(-math.sqrt(masses.mu * mt) * sines * problem.steps()[2])
    # the brackets' ends: energies, Jost values and residuals at i and i + 1
    (e_lo, e_hi), (j_lo, j_hi), (f_lo, f_hi) = np.array((energies, jost, values))[
        :, (i, i + 1)].tolist()
    centre = _aim(thetas[None], jost[None], i, SCAN_STENCIL, e_lo, e_hi, j_lo, j_hi,
                  lambda theta: -2.0 * mt * np.sin(0.5 * theta) ** 2)
    # a scan value of exactly zero is a root: a bracket of zero width
    e_hi = [a if f == 0.0 else z for a, z, f in zip(e_lo, e_hi, f_lo)]
    return _polish(lambda e: _jost_residual(problem, e), e_lo, e_hi, f_lo, f_hi,
                   centre).tolist()


def mismatch_sweep(params: PotentialParams, masses: MassConfig, energies,
                   h: float = 0.0, x_max: float = 0.0):
    """Dirichlet mismatch psi(x_max)/peak of the outward integration, in the shape of energies.

    A float energy gives a one-entry array. Most energies of a wide sweep
    end at exactly +-1: their growing tail has become its own running peak
    a few decay lengths out. The kernel's
    dirichlet mode drops each such energy from the batch once a certificate
    shows the rest of the integration cannot change that value
    (`_kernels.dirichlet_settled`), so the result is bitwise that of the
    full integration. Raises ValidationError for a non-finite energy.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.isfinite(energies).all():
        raise ValidationError("energies must be finite")
    problem = EffectiveProblem(params, masses, x_max=x_max, h=h)
    return _shoot(problem, energies, dirichlet=True)[1].reshape(energies.shape)
