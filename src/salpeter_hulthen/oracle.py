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
  the roots. Roots of the residual are bracketed by a scan and polished all
  at once by a batched multisection: each pass integrates POLISH_POINTS - 1
  interior energies of every open bracket in one kernel call and keeps a
  subinterval over which the residual changes sign. Each pass also
  integrates two probes either side of an inverse interpolation of the
  root, keeping the bracket as Brent's method does (Brent, Algorithms for
  Minimization without Derivatives, 1973): on the first pass from the scan
  values nearest the sign change, later from the last pass's uniform
  values. Where the probes straddle the root the bracket closes, so most
  roots take one or two passes.

Only the Real regime is handled here; complex regimes are checked through
algebraic identities instead (see the spectra tests).
"""

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
_PROBE_OFFSETS = np.array([-0.4, 0.4])                        # the probes' offsets in tol
_FOUR = np.arange(4)                                          # the polish's cubic stencil
for _row in (_JOST_K, _PROBE_OFFSETS, _FOUR):
    _row.flags.writeable = False
_FOUR_ULPS = 4.0 * np.finfo(float).eps


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
    construction: the steps, r and g2 r^2 on the step grid (`step_grid`)
    and, at q = 1, the Laurent rows of r and r^2 to FROBENIUS_ORDER
    (`laurent_rows_q1`).
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
        g2 = self.g_coefficients(0.0)[2]
        object.__setattr__(self, "_steps", (x0, nsteps, x0 + nsteps * self.h))
        object.__setattr__(self, "_grid", step_grid(g2, q, alpha, x0, self.h, nsteps))
        object.__setattr__(self, "_laurent", laurent_rows_q1(g2, alpha, FROBENIUS_ORDER)
                           if q == 1.0 else None)

    def g_coefficients(self, energy):
        """(g0, g1, g2) of g = g0 + g1 r + g2 r^2, r = s/(1 - q s); energy may be an array."""
        mu, mt = self.masses.mu, self.masses.m_tilde
        v0 = self.params.v0
        g0 = 2.0 * mu * (energy + energy * energy / (2.0 * mt))
        g1 = 2.0 * mu * v0 * (1.0 + energy / mt)
        g2 = mu * v0 * v0 / mt
        return g0, g1, g2

    def g_values(self, energy: float, xs):
        """g(x; E) composed through potentials.evaluate, for cross-checks."""
        v = potentials._values(self.params, xs).real
        mu, mt = self.masses.mu, self.masses.m_tilde
        w = v - energy
        return 2.0 * mu * (-w + w * w / (2.0 * mt))

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
    the two-grid difference exceeds 10x the accuracy target. x_max and h
    must be finite, and the grid must hold at least count interior points.
    """
    if params.regime is not Regime.REAL:
        raise ValidationError("the oracle handles the Real regime only")
    if count < 1:
        raise ValidationError("count must be >= 1")
    alpha = params.alpha
    if x_max <= 0.0:
        x_max = 25.0 / alpha
    if h <= 0.0:
        h = 0.01 / alpha
    if not (math.isfinite(x_max) and math.isfinite(h)):
        raise ValidationError("x_max and h must be finite")
    from scipy.linalg import eigvalsh_tridiagonal   # 0.2 s to import; used only here

    def eigs(step):
        npts = int(round(x_max / step))
        if npts - 1 < count:
            raise ValidationError(f"x_max = {x_max:.6g} at h = {step:.6g} leaves "
                                  f"{max(npts - 1, 0)} grid points for count = {count} levels")
        xs = step * np.arange(1, npts)
        v = potentials._values(params, xs)
        if np.max(np.abs(v.imag)) > 1e-12 * (1.0 + np.max(np.abs(v.real))):
            raise ValidationError("potential is not real on the grid")
        diag = 1.0 / (mu * step * step) + v.real
        off = np.full(npts - 2, -1.0 / (2.0 * mu * step * step))
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))

    coarse = eigs(h)
    fine = eigs(h / 2.0)
    # |fine - coarse|/3 is the classical error estimate of the fine grid;
    # the extrapolated value below is better still
    estimate = np.max(np.abs(fine - coarse)) / 3.0
    if estimate > 10.0 * max(target, 1e-12) * max(1.0, np.max(np.abs(fine))):
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
    if not (np.all(np.isfinite(u)) and (dirichlet or np.all(np.isfinite(v)))):
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
    k_alpha = _JOST_K * alpha
    den = k_alpha * (2.0 * kappa + k_alpha)           # row k is D_k, D_0 = 0
    # rows k - 1 and k - 2 of these multiply t_{k-1} and t_{k-2} for t_k
    near = (2.0 * q * den[:-1] - g1s) * s
    far = (q * q * den[:-2] - g1s * q + g2) * (s * s)
    t = np.empty((JOST_TERMS + 1,) + kappa.shape)
    t[0] = 1.0
    rows = list(t)                                    # views of t, written in place
    np.divide(near[0], den[1], out=rows[1])
    for k, near_k, far_k, den_k in zip(range(2, JOST_TERMS + 1), near[1:], far, den[2:]):
        np.divide(near_k * rows[k - 1] - far_k * rows[k - 2], den_k, out=rows[k])
    tail = JOST_TERMS * np.abs(t[-1])
    scale = np.abs(t).sum(axis=0)
    if not np.all(tail <= JOST_TOL * scale):
        with np.errstate(all="ignore"):
            worst = np.max(tail / scale)
        raise NonConvergentError(
            f"Jost series not converged at x = {x:.6g}: its last term K |t_K| is {worst:.3g} "
            f"of sum_k |t_k|, above {JOST_TOL:g}; the series ratio |q| exp(-alpha x) is "
            f"{abs(q * s):.3g} and the depth of the well adds to it")
    return kappa, t.sum(axis=0), (_JOST_K * t).sum(axis=0)


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
    return wronskian * np.exp(np.minimum(log_scale, SCALE_CAP))


def matching_point(params: PotentialParams, masses: MassConfig, h: float = 0.0) -> float:
    """First step end x0 + n h, n >= 1, where the Jost series provably converges on the window.

    The proof holds for every energy of (-2 m_tilde, 0) at once. There
    |1 + E/m_tilde| < 1, so |g1| <= 2 mu |V0|; D_k >= k^2 alpha^2 as kappa >= 0;
    and the coefficients G_j of g - g0 in powers of s obey |G_j| <= |g1| |q|^(j-1)
    + g2 (j-1) |q|^(j-2). The majorant k^2 alpha^2 C_k = sum_j |G_j| C_(k-j),
    C_0 = 1, then bounds |c_k|, and since sum_k |t_k| >= t_0 = 1, jost_sums'
    check passes wherever K C_K s^K <= JOST_TOL; the point asks for half that,
    leaving the recurrence's rounding room. The point is capped at
    (5 + max(0, ln|q|))/alpha, where |q| exp(-alpha x_m) <= e^-5, and is that
    cap where the majorant leaves the float range. h is the step,
    STEP_ALPHA/alpha by default as in EffectiveProblem.
    """
    alpha, q = params.alpha, params.q
    shift = max(0.0, math.log(abs(q))) if q != 0.0 else 0.0
    cap = (5.0 + shift) / alpha
    x0 = _start_point(params)
    h = h if h > 0.0 else STEP_ALPHA / alpha
    j = np.arange(JOST_TERMS, dtype=float)              # entry j bounds |G_(j+1)|
    with np.errstate(all="ignore"):
        # overflow gives inf or nan, never a finite wrong bound: every term is >= 0
        g1 = 2.0 * masses.mu * abs(params.v0)
        g2 = masses.mu * params.v0 * params.v0 / masses.m_tilde
        bound = ((g1 * abs(q) ** j + g2 * j * abs(q) ** np.maximum(j - 1.0, 0.0))
                 / (alpha * alpha)).tolist()
        # on plain floats, summed in the order of a dot product: c_k is
        # sum_i bound[i] c_(k-1-i) / k^2
        c = [1.0]
        for k in range(1, JOST_TERMS + 1):
            acc = 0.0
            for bound_i, c_i in zip(bound, reversed(c)):
                acc += bound_i * c_i
            c.append(acc / (k * k))
        x_need = np.log(2.0 * JOST_TERMS * c[-1] / JOST_TOL) / (JOST_TERMS * alpha)
        n = float(np.ceil((x_need - x0) / h))           # -inf where V0 = 0
    if not x0 + n * h < cap:                            # also where n is nan
        return cap
    return x0 + max(n, 1.0) * h


def _inverse_interpolation(xs, fs):
    """Value at f = 0 of the polynomial x(f) through the points (f, x) of each row.

    Lagrange's form, taken relative to each row's first x; where two values
    of f are equal the result is not finite, without a warning.
    """
    diag = np.arange(fs.shape[1])
    with np.errstate(all="ignore"):
        ratio = fs[:, None, :] / (fs[:, None, :] - fs[:, :, None])    # [i, j] = f_j/(f_j - f_i)
        ratio[:, diag, diag] = 1.0
        return xs[:, 0] + ((xs - xs[:, :1]) * ratio.prod(axis=2)).sum(axis=1)


def _probe_centres(est, lo, hi, f_lo, f_hi):
    """Root estimates inside the brackets [lo, hi] with end values f_lo, f_hi.

    est where it is finite and inside the bracket; otherwise the regula-falsi
    point of the ends; where that too is not finite, the midpoint.
    """
    with np.errstate(all="ignore"):
        falsi = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    est = np.where(np.isfinite(est) & (lo < est) & (est < hi), est, falsi)
    return np.where(np.isfinite(est), est, 0.5 * (lo + hi))


def _scan_centres(problem: EffectiveProblem, energies, values, i):
    """First-pass root estimates for the scan brackets [energies[i], energies[i + 1]].

    The Jost function F = residual exp(-kappa x_end) is analytic in
    kappa = sqrt(-g0(E)), where the residual's growth and E's threshold
    branch are not, so kappa is inverse-interpolated in F through the
    SCAN_STENCIL scan values nearest each sign change and mapped back to E
    on the bracket's side of E = -m_tilde, where g0 = (mu/m_tilde)((E +
    m_tilde)^2 - m_tilde^2) turns. `_probe_centres` replaces an estimate
    outside the bracket.
    """
    mu, mt = problem.masses.mu, problem.masses.m_tilde
    kappa = np.sqrt(-problem.g_coefficients(energies)[0])
    jost = values * np.exp(-kappa * problem.steps()[2])
    first = np.minimum(np.maximum(i - SCAN_STENCIL // 2 + 1, 0), energies.size - SCAN_STENCIL)
    cols = first[:, None] + np.arange(SCAN_STENCIL)
    lo, hi = energies[i], energies[i + 1]
    with np.errstate(all="ignore"):
        # E^2 + 2 m_tilde E + c = 0 with c = m_tilde kappa^2 / mu
        c = mt / mu * _inverse_interpolation(kappa[cols], jost[cols]) ** 2
        d = np.sqrt(mt * mt - c)
        est = np.where(lo + hi > -2.0 * mt, -c / (mt + d), -(mt + d))
    return _probe_centres(est, lo, hi, jost[i], jost[i + 1])


def _polish(residual, lo, hi, f_lo, f_hi, centre):
    """Midpoints of the brackets [lo, hi] of a continuous residual, narrowed together.

    residual maps an energy array to an array of values; each bracket holds
    a sign change between its end values f_lo and f_hi (or lo == hi, a
    known root), and centre is an estimate of its root. Every pass evaluates,
    in one call for all open brackets, the POLISH_POINTS - 1 uniform interior
    energies and two probes at e* -+ 0.4 tol, where tol is the bracket's
    closing width and e* the root estimate: centre on the first pass, and
    later the inverse cubic interpolation through the four uniform points of
    the last pass nearest the kept sign change (`_probe_centres`), the
    probes left out, as two points 0.8 tol apart spoil the cubic. It keeps,
    per bracket, the first subinterval of the sorted energies whose ends
    differ in sign; an interior value of exactly zero is the root itself.
    When the probes straddle the root the bracket is 0.8 tol wide and
    closes; otherwise the kept subinterval still lies inside a uniform one.
    A bracket closes at ROOT_XTOL wide, or at 4 eps |E| where that is wider
    (a few ulps: near |E| = 1e4 one ulp exceeds ROOT_XTOL, and rounding
    would stall the bracket); until then each pass shrinks it at least about
    POLISH_POINTS-fold, so the probes never cost a pass.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    centre = np.array(centre, dtype=float)
    inner = np.arange(1, POLISH_POINTS) / POLISH_POINTS
    while True:
        width = hi - lo
        tol = ROOT_XTOL + _FOUR_ULPS * np.maximum(np.abs(lo), np.abs(hi))
        todo = np.flatnonzero(width > tol)
        if todo.size == 0:
            return 0.5 * (lo + hi)
        rows = np.arange(todo.size)
        a, b, fa, fb = lo[todo, None], hi[todo, None], f_lo[todo, None], f_hi[todo, None]
        grid = a + width[todo, None] * inner
        probes = np.minimum(np.maximum(centre[todo, None] + _PROBE_OFFSETS * tol[todo, None], a), b)
        energies = np.concatenate((grid, probes), axis=1)
        values = residual(energies.ravel()).reshape(energies.shape)
        order = rows[:, None], np.argsort(energies, axis=1, kind="stable")
        edges = np.concatenate((a, energies[order], b), axis=1)
        fs = np.concatenate((fa, values[order], fb), axis=1)
        # an interior value leaving the lower end's sign ends the kept
        # subinterval; with none, the last subinterval is kept
        interior = fs[:, 1:-1]
        leaves = (interior == 0.0) | (np.sign(interior) != np.sign(fa))
        k = np.where(leaves.any(axis=1), leaves.argmax(axis=1), leaves.shape[1])
        new_hi, new_f_hi = edges[rows, k + 1], fs[rows, k + 1]
        zero = new_f_hi == 0.0
        new_lo = np.where(zero, new_hi, edges[rows, k])
        new_f_lo = np.where(zero, 0.0, fs[rows, k])
        lo[todo], hi[todo], f_lo[todo], f_hi[todo] = new_lo, new_hi, new_f_lo, new_f_hi
        # the uniform subinterval j holds the kept one; take its ends and one
        # more uniform point either side
        j = (grid <= new_lo[:, None]).sum(axis=1)
        cols = rows[:, None], np.minimum(np.maximum(j - 1, 0), POLISH_POINTS - 3)[:, None] + _FOUR
        uniform_e = np.concatenate((a, grid, b), axis=1)[cols]
        uniform_f = np.concatenate((fa, values[:, :-2], fb), axis=1)[cols]
        centre[todo] = _probe_centres(_inverse_interpolation(uniform_e, uniform_f),
                                      new_lo, new_hi, new_f_lo, new_f_hi)


def salpeter_levels(params: PotentialParams, masses: MassConfig, window=None,
                    h: float = 0.0, x_max: float = 0.0):
    """Eigenvalues of the energy-nonlinear reduced equation inside the window.

    Scans the Jost Wronskian psi_J psi' - psi_J' psi over SCAN_POINTS
    energies and polishes every sign change at once with a batched
    multisection (`_polish`): each pass integrates POLISH_POINTS - 1 interior
    energies of every bracket and two probes around an interpolated root,
    in one kernel call, and keeps a subinterval whose ends differ in sign.
    The bracket ends keep their scan values, and the first pass's probes
    aim at the root that the scan values nearest the sign change predict
    (`_scan_centres`). The residual is continuous in E, so each kept
    subinterval still holds a root, and the polish converges whatever the
    shape of the residual. From the default window a bracket closes after
    the first pass where the scan-predicted probes straddle its root, after
    two where the next pair does, and after at most five, the plain
    multisection's count, where none does; each pass serves all brackets at
    once.
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
    energies = np.linspace(lo, hi, SCAN_POINTS)
    values = _jost_residual(problem, energies)
    # a scan value of exactly zero is a root: a bracket of zero width
    zero = values[:-1] == 0.0
    i = np.flatnonzero(zero | (np.sign(values[:-1]) * np.sign(values[1:]) < 0))
    lo = energies[i]
    hi = np.where(zero[i], lo, energies[i + 1])
    return _polish(lambda e: _jost_residual(problem, e), lo, hi, values[i], values[i + 1],
                   _scan_centres(problem, energies, values, i)).tolist()


def mismatch_sweep(params: PotentialParams, masses: MassConfig, energies,
                   h: float = 0.0, x_max: float = 0.0):
    """Dirichlet mismatch psi(x_max)/peak of the outward integration, in the shape of energies.

    A float energy gives a one-entry array. Most energies of a wide sweep
    end at exactly +-1: their growing tail has become its own running peak
    a few decay lengths out. The kernel's
    dirichlet mode drops each such energy from the batch once a certificate
    shows the rest of the integration cannot change that value
    (`_kernels.dirichlet_settled`), so the result is bitwise that of the
    full integration.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    problem = EffectiveProblem(params, masses, x_max=x_max, h=h)
    return _shoot(problem, energies, dirichlet=True)[1].reshape(energies.shape)
