"""Closed-form bound-state spectra for every parameter regime.

Energy pairs are returned with a fixed convention: the underlying quadratic
in E has roots E = pref +/- sqrt(disc) (principal square root), labelled PLUS
and MINUS. The discriminant disc = pref^2 * radicand is built without
dividing by pref^2, so it stays finite where pref = V0/(2q) - m_tilde
vanishes (V0 = 4 m q at equal masses). For a negative real prefactor the
MINUS root is the deeper level, which is the branch the zero-coupling limit
values -3.73m belong to.

At equal masses m every regime has one form at its real parameters, E = pref
-/+ sqrt(pref^2 - (2 m V0)^2 (1 - u + u^2/4) / X) with u = X/(2 m q V0) and
pref = V0/(2q) - 2m (`_xi_pair`). The paper's i-factors only change X: xi for
Real and ComplexV0Q (and the default Woods-Saxon form), -varsigma for
ComplexAlpha and -varsigma_tilde for AllComplex.

Both branches are always computed; `physical` is a separate documented
verdict and never silently hides a branch. All formulas use hbar = c = 1.
"""

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ComplexSpectrumError, NoBoundStateError, ValidationError
from .potentials import MassConfig, PotentialParams, Regime

IM_TOL = 1e-10
GENUINE_TOL = 1e-8


class Branch(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"


class EnergyPair(NamedTuple):
    minus: complex
    plus: complex


_SMALLEST_SAFE_DIVISOR = 2.0 ** -1023   # numpy's 1/den cannot overflow where |den| exceeds it
# nor num/den where |num|/2, which cannot overflow, is below this times min(|den|, 1)
_LARGE_HALF_NUMERATOR = 2.0 ** 1020


def _csqrt(x):
    return np.sqrt(complex(x))


def _negative_radicand(pref, disc) -> bool:
    """Strict mode's test: the radicand disc/pref^2 is real to IM_TOL and negative.

    At pref = 0 the radicand is undefined (0/0) and the test is false.
    """
    scale = pref * pref
    if scale == 0:
        return False
    radicand = disc / scale
    return abs(radicand.imag) <= IM_TOL and radicand.real < 0


def _pair(pref, disc) -> EnergyPair:
    w = _csqrt(disc)
    return EnergyPair(minus=complex(pref - w), plus=complex(pref + w))


def _check_inputs(params, n, admitted, message):
    """Checks shared by the closed forms: admitted, nonzero V0 and q, and n >= 0."""
    if not admitted:
        raise ValidationError(message)
    if params.v0 == 0.0:
        raise NoBoundStateError("zero coupling admits no bound state")
    if params.q == 0.0:
        raise NoBoundStateError("q = 0 has no closed-form spectrum for real alpha")
    if n < 0:
        raise ValidationError("n must be nonnegative")


def _xi(v0, alpha, q, n, sign):
    """xi (sign = +1), or xi_tilde (q = 1, sign = -1)."""
    k = 2 * n + 1
    return q * alpha * (q * alpha + q * alpha * k ** 2
                        + 2 * sign * k * _csqrt(q * q * alpha * alpha - v0 * v0))


def _varsigma(v0, alpha, q, n, sign):
    """varsigma (sign = +1), or varsigma_tilde (sign = -1)."""
    k = 2 * n + 1
    return (q * q * alpha * alpha * (1 + k ** 2)
            + 2 * sign * q * alpha * k * _csqrt(q * q * alpha * alpha + v0 * v0))


def _b_c_d(eps2_sq, q, n):
    """(b, C, D) of the quantization condition eps1 + eps3 = D/4 + C eps."""
    b = _csqrt(q * q - 4.0 * eps2_sq)
    big_c = b + q * (2 * n + 1)
    return b, big_c, (big_c * big_c + 4.0 * eps2_sq) / q


def _quotient(num, den):
    """num/den as numpy divides, but with no overflow that the operands do not call for.

    numpy's complex division is Smith's: for den = c + d i with |c| >= |d|
    (c and d swap roles otherwise) and num = a + b i it forms r = d/c, then
    (a + b r, b - a r) times 1/(c + d r). So it overflows where 1/(c + d r)
    does (a subnormal den) or where a sum does (|a| or |b| near the float
    maximum), though the true quotient can be finite. There, and wherever
    else the direct quotient of finite operands would not be finite, the
    quotient is taken with both operands scaled by one exact power of two,
    2^min(-e, 1023) for |den| = f 2^e with f in [1/2, 1). Whether that is
    so is found before dividing, so no RuntimeWarning is raised: a |den| of
    at most 2^-1023, or a |num| of at least 2^1021 min(|den|, 1), calls for
    numpy's steps to be retraced in Python floats
    (`_numpy_quotient_is_finite`); any other pair is divided at once. A
    finite direct quotient keeps its bits.
    """
    size = abs(den)
    if (size <= _SMALLEST_SAFE_DIVISOR
            or abs(num * 0.5) >= _LARGE_HALF_NUMERATOR * (size if size < 1.0 else 1.0)) \
            and den != 0 and cmath.isfinite(num) and cmath.isfinite(den) \
            and not _numpy_quotient_is_finite(num, den):
        return _scaled_quotient(num, den)
    return num / den


def _scaled_quotient(num, den):
    """num/den with both scaled by 2^min(-e, 1023), |den| = f 2^e, f in [1/2, 1)."""
    scale = math.ldexp(1.0, min(-math.frexp(abs(den))[1], 1023))
    return (num * scale) / (den * scale)


def _numpy_quotient_is_finite(num, den):
    """Whether numpy's complex num/den is finite, found with its steps in Python floats.

    Python floats round alike and do not warn. Where |c| < |d| the roles
    swap; the real sum a r + b is then b + a r, and the imaginary one is
    negated, which keeps its finiteness. den is finite and nonzero.
    """
    a, b, c, d = float(num.real), float(num.imag), float(den.real), float(den.imag)
    if abs(c) < abs(d):
        a, b, c, d = b, a, d, c
    r = d / c
    scale = 1.0 / (c + d * r)
    return math.isfinite((a + b * r) * scale) and math.isfinite((b - a * r) * scale)


def _xi_pair(x, v0, q, m):
    """(pref, lift, disc) of the equal-mass form at X = x, with disc = pref^2 - lift/x.

    Both quotients, u = x/(2 m q V0) and lift/x, go through `_quotient`, so
    a subnormal V0 or x leaves a finite pair where the true one is finite.
    """
    try:
        u = _quotient(x, 2.0 * m * q * v0)
        pref = v0 / (2.0 * q) - 2.0 * m
        lift = (2.0 * m * v0) ** 2 * (1.0 - u + u * u / 4.0)
        return pref, lift, pref * pref - _quotient(lift, x)
    except ArithmeticError as exc:
        raise ValidationError(f"equal-mass closed form leaves the float range: {exc}") from exc


def dimensionless(params: PotentialParams, masses: MassConfig, energy):
    """(a, eps^2, eps1, eps2^2, eps3, q): the reduced equation's scale, couplings and q at energy.

    At the effective parameters, a = alpha^2/(2 mu) is the scale, eps^2 =
    -(E + E^2/(2 m_tilde))/a carries the energy, and eps1 = V0/a, eps2^2 =
    V0^2/(2 m_tilde a) and eps3 = V0 E/(m_tilde a) are the potential
    couplings (not independent: eps2^2 = eps1^2 alpha^2/(4 mu m_tilde)); q
    rides along so that the verdict path reads the parameters once. In
    Python complex arithmetic, which rounds as numpy's scalars do but does
    not warn where a quotient overflows (a subnormal a). A plain tuple, the
    cheapest record on the verdict path; each caller takes the square root
    of eps^2 itself.
    """
    v0, alpha, q = params.effective()
    mt = masses.m_tilde
    a = alpha * alpha / (2.0 * masses.mu)
    e = complex(energy)
    return a, -(e + e * e / (2.0 * mt)) / a, v0 / a, v0 * v0 / (2.0 * mt * a), v0 * e / (mt * a), q


@dataclass(frozen=True)
class SpectralAuxiliaries:
    """Derived quantities of the closed forms at a given level n."""

    b: complex
    big_c: complex
    big_d: complex
    xi: complex
    kappa: complex
    xi_tilde: complex
    varsigma: complex
    varsigma_tilde: complex
    chi_sq: tuple
    beta: complex
    c: complex
    d: complex


def spectral_auxiliaries(params: PotentialParams, masses: MassConfig, n: int) -> SpectralAuxiliaries:
    """Snapshot of every auxiliary combination (complex square roots allowed)."""
    v0, alpha, q = params.v0, params.alpha, params.q
    eps2_sq, beta, ratio = _aux_quotients(params, masses)
    b, big_c, big_d = _b_c_d(eps2_sq, q, n)
    return SpectralAuxiliaries(
        b=b, big_c=big_c, big_d=big_d, xi=_xi(v0, alpha, q, n, 1),
        kappa=_csqrt(q * q * alpha * alpha - v0 * v0) + q * alpha * (2 * n + 1),
        xi_tilde=_xi(v0, alpha, 1.0, n, -1), varsigma=_varsigma(v0, alpha, q, n, 1),
        varsigma_tilde=_varsigma(v0, alpha, q, n, -1),
        # m_tilde/2 equals the constituent mass for equal masses
        chi_sq=_chi_squared_pair(v0, q, masses.m_tilde / 2.0), beta=beta,
        c=_csqrt(q * q + ratio), d=_csqrt(q * q - ratio),
    )


def _aux_quotients(params, masses):
    """(eps2^2, beta, (V0/alpha)^2): the quotients of the snapshot whose divisor can underflow.

    Raises ValidationError where one does (a = alpha^2/(2 mu) or q alpha^2 is
    0, as at q = 0): the snapshot's only float-range failures, so
    classify_level runs this check up front and BoundState.aux builds the
    rest on demand.
    """
    v0, alpha, q = params.v0, params.alpha, params.q
    mu, mt = masses.mu, masses.m_tilde
    try:
        a = alpha * alpha / (2.0 * mu)
        eps2_sq = v0 * v0 / (2.0 * mt * a)
        beta = 2.0 * mu * v0 / (q * alpha * alpha)
        return eps2_sq, beta, v0 * v0 / (alpha * alpha)
    except ArithmeticError as exc:
        raise ValidationError(f"auxiliary quantities leave the float range: {exc}") from exc


def _chi_squared_pair(v0, q, m):
    pref = v0 / (2.0 * q) - 2.0 * m
    root = _csqrt(pref * pref + 4.0 * m * v0 / q)
    base = 2.0 * m * v0 / q + pref * pref
    return (complex(2.0 * q * q * (base + pref * root)),
            complex(2.0 * q * q * (base - pref * root)))


def salpeter_energy_general(params: PotentialParams, masses: MassConfig, n: int,
                            strict: bool = True) -> EnergyPair:
    """Both branches of the general-mass closed form.

    With strict=True the existence conditions are enforced: q^2 >= 4 eps2^2
    (real b) and a nonnegative radicand. strict=False evaluates through
    complex square roots, for diagnostics and findings tables.
    """
    _check_inputs(params, n, params.regime is Regime.REAL,
                  "general Salpeter spectrum is defined for the Real regime")
    v0, alpha, q = params.v0, params.alpha, params.q
    mu, mt = masses.mu, masses.m_tilde
    try:
        a = alpha * alpha / (2.0 * mu)
        eps2_sq = v0 * v0 / (2.0 * mt * a)
        if strict and q * q < 4.0 * eps2_sq:
            raise NoBoundStateError("condition q^2 >= V0^2 * (2 mu / m_tilde) / alpha^2 fails")
        big_d = _b_c_d(eps2_sq, q, n)[2]
        pref = v0 / (2.0 * q) - mt
        disc = pref * pref - (2.0 * mt * a / q) * ((v0 / a) ** 2 - (v0 / (2.0 * a)) * big_d
                                                   + big_d * big_d / 16.0) / big_d
    except ArithmeticError as exc:
        # (V0/a)^2 overflows, or a underflows to 0, at extreme accepted inputs
        raise ValidationError(f"general closed form leaves the float range: {exc}") from exc
    if strict and _negative_radicand(pref, disc):
        raise ComplexSpectrumError("energy radicand is negative")
    return _pair(pref, disc)


def _equal_mass_core(v0, alpha, q, m, n, strict):
    xi = _xi(v0, alpha, q, n, 1)
    if xi == 0:
        raise ComplexSpectrumError("xi vanishes; branch undefined")
    if strict and abs(xi.imag) > IM_TOL * (1.0 + abs(xi)):
        raise NoBoundStateError("condition q^2 >= (V0/alpha)^2 fails")
    pref, _, disc = _xi_pair(xi, v0, q, m)
    if strict and _negative_radicand(pref, disc):
        raise ComplexSpectrumError("energy radicand is negative")
    return _pair(pref, disc)


def salpeter_energy_equal_mass(params: PotentialParams, m: float, n: int,
                               strict: bool = True) -> EnergyPair:
    """Equal-mass rearrangement through X = xi = kappa^2 + V0^2."""
    _check_inputs(params, n, params.regime is Regime.REAL,
                  "equal-mass Salpeter spectrum is defined for the Real regime")
    return _equal_mass_core(params.v0, params.alpha, params.q, m, n, strict)


def woods_saxon_energy(params: PotentialParams, m: float, n: int,
                       strict: bool = True, verbatim: bool = False) -> EnergyPair:
    """Shifted Woods-Saxon spectrum (q = -1 degeneration).

    The default reproduces the equal-mass closed form at q = -1, X = xi, which
    is what the xi-identity algebra gives. verbatim=True instead uses xi_tilde
    and the literature prefactor -(V0/(2q) + 2m); the two disagree and the
    variant is kept only for the findings comparison against the oracle.
    """
    _check_inputs(params, n, params.q == -1.0, "woods_saxon_energy requires q = -1")
    v0, alpha = params.v0, params.alpha
    if strict and alpha * alpha < v0 * v0:
        raise NoBoundStateError("condition alpha^2 >= V0^2 fails")
    if not verbatim:
        return _equal_mass_core(v0, alpha, -1.0, m, n, strict)
    xi_t = _xi(v0, alpha, 1.0, n, -1)
    u = xi_t / (2.0 * m * v0)
    pref = -(v0 / (2.0 * -1.0) + 2.0 * m)   # literature prefactor at q = -1
    radicand = 1.0 - (2.0 * m * v0) ** 2 * (1.0 + u + u * u / 4.0) \
        / (xi_t * (v0 / 2.0 + 2.0 * m) ** 2)
    return _pair(pref, pref * pref * radicand)


def exponential_energy_imaginary_alpha(v0: float, alpha_i: float, m: float, n: int) -> float:
    """q = 0 spectrum for purely imaginary screening, alpha -> i*alpha_i.

    E_n = -m [2 + (2n+1) alpha_i / (2m) + 2m / ((2n+1) alpha_i)]; real and
    total for alpha_i > 0. The value does not depend on V0.
    """
    if alpha_i <= 0:
        raise ValidationError("alpha_i must be positive")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    k = 2 * n + 1
    return -m * (2.0 + k * alpha_i / (2.0 * m) + 2.0 * m / (k * alpha_i))


def complex_alpha_energy(params: PotentialParams, m: float, n: int,
                         strict: bool = True) -> EnergyPair:
    """Case alpha -> i*alpha: PT-symmetric spectrum, the equal-mass form at X = -varsigma."""
    _check_inputs(params, n, params.regime is Regime.COMPLEX_ALPHA,
                  "requires the ComplexAlpha regime")
    v0, q = params.v0, params.q
    vs = _varsigma(v0, params.alpha, q, n, 1)
    if vs == 0:
        raise ComplexSpectrumError("varsigma vanishes; branch undefined")
    pref, lift, disc = _xi_pair(-vs, v0, q, m)
    if strict and not (-lift).real <= (vs * pref * pref).real:
        raise ComplexSpectrumError("case-I reality inequality fails")
    return _pair(pref, disc)


def complex_v0q_energy(params: PotentialParams, m: float, n: int,
                       strict: bool = True) -> EnergyPair:
    """Case V0 -> i*V0, q -> i*q: the i-factors cancel, leaving the real-base form, X = xi."""
    _check_inputs(params, n, params.regime is Regime.COMPLEX_V0_Q,
                  "requires the ComplexV0Q regime")
    return _equal_mass_core(params.v0, params.alpha, params.q, m, n, strict)


def all_complex_energy(params: PotentialParams, m: float, n: int) -> EnergyPair:
    """Case with all three parameters imaginary: the equal-mass form at X = -varsigma_tilde.

    No structural errors: varsigma-tilde may be negative and the branches
    complex; physicality is judged afterwards by the imaginary-part test.
    """
    _check_inputs(params, n, params.regime is Regime.ALL_COMPLEX,
                  "requires the AllComplex regime")
    v0, q = params.v0, params.q
    vs_t = _varsigma(v0, params.alpha, q, n, -1)
    if vs_t == 0:
        raise ComplexSpectrumError("varsigma-tilde vanishes; branch undefined")
    pref, _, disc = _xi_pair(-vs_t, v0, q, m)
    return _pair(pref, disc)


def nonrelativistic_energy(params: PotentialParams, mu: float, n: int,
                           check_exists: bool = True) -> float:
    """Nonrelativistic limit spectra.

    Real regime: E_n = -(alpha^2/(8 mu)) [(n+1) - beta/(n+1)]^2 with
    beta = 2 mu V0 / (q alpha^2); a bound level needs n+1 < sqrt(beta)
    (set check_exists=False to evaluate the bare formula anyway).
    ComplexAlpha regime: the positive spectrum
    E_n = (1/(8 mu q^2 alpha^2)) [(2 mu V0 + q alpha^2 (n+1)^2)/(n+1)]^2.
    Raises ValidationError where beta or E_n is not finite.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if params.q == 0.0:
        raise NoBoundStateError("no closed nonrelativistic form at q = 0")
    v0, alpha, q = params.v0, params.alpha, params.q
    if params.regime not in (Regime.REAL, Regime.COMPLEX_ALPHA):
        raise ValidationError("nonrelativistic form exists for Real or ComplexAlpha only")
    try:
        if params.regime is Regime.COMPLEX_ALPHA:
            energy = float((2.0 * mu * v0 + q * alpha * alpha * (n + 1) ** 2) ** 2
                           / (8.0 * mu * q * q * alpha * alpha * (n + 1) ** 2))
        else:
            beta = 2.0 * mu * v0 / (q * alpha * alpha)
            if not math.isfinite(beta):
                raise OverflowError(f"beta = {beta}")
            if check_exists and not (beta > 0 and (n + 1) < np.sqrt(beta)):
                raise NoBoundStateError(f"level n = {n} fails n+1 < sqrt(beta) = {beta**0.5 if beta > 0 else float('nan'):.6g}")
            energy = float(-(alpha * alpha / (8.0 * mu)) * ((n + 1) - beta / (n + 1)) ** 2)
        if not math.isfinite(energy):
            raise OverflowError(f"E = {energy}")
        return energy
    except ArithmeticError as exc:
        # alpha^2 underflows to 0, or a quotient or a square overflows (a float
        # quotient or product to inf, without raising), at extreme accepted inputs
        raise ValidationError(f"nonrelativistic closed form leaves the float range: {exc}") from exc


def level_count(params: PotentialParams, m: float) -> int:
    """Number of levels admitted by the critical-coupling bound.

    Counts n <= (sqrt(chi^2 - V0^2) - sqrt(q^2 alpha^2 - V0^2))/(2 q alpha) - 1/2
    using the chi^2 variant that keeps chi^2 - V0^2 real and nonnegative
    (the larger admissible root). Returns 0 when the one-level inequality
    fails. Note this bounds where the energy radicand stays real, which can
    exceed the number of true eigenstates; the oracle is authoritative.
    Raises ValidationError where the bound is not a finite number.
    """
    if params.regime is not Regime.REAL:
        raise ValidationError("level_count is defined for the Real regime")
    if params.v0 == 0.0:
        return 0
    v0, alpha, q = params.v0, params.alpha, params.q
    if q == 0.0:
        raise NoBoundStateError("q = 0 has no closed-form count")
    if q * q * alpha * alpha < v0 * v0:
        raise NoBoundStateError("condition q^2 >= (V0/alpha)^2 fails")
    chi_pair = _chi_squared_pair(v0, q, m)
    admissible = [c.real for c in chi_pair
                  if abs(c.imag) <= IM_TOL * (1.0 + abs(c)) and c.real >= v0 * v0]
    if not admissible:
        return 0
    chi_sq = max(admissible)
    edge = math.sqrt(chi_sq - v0 * v0)
    low = math.sqrt(q * q * alpha * alpha - v0 * v0)
    if q * alpha + low > edge:    # one-level inequality
        return 0
    # 2 q alpha underflows to 0 (a 0/0 bound) or near it (an infinite one)
    n_max = (edge - low) / (2.0 * q * alpha) - 0.5 if q * alpha else math.nan
    if not math.isfinite(n_max):
        raise ValidationError(f"the level-count bound leaves the float range: {n_max}")
    return max(0, math.floor(n_max) + 1)


def quantization_residual(params: PotentialParams, masses: MassConfig, n: int, energy):
    """Residual of the unsquared quantization eps1 + eps3 = D/4 + C*eps.

    The closed-form branches solve the squared relation; only the branch
    with a vanishing unsquared residual (principal eps) carries a genuine
    polynomial solution. Returns (residual, eps).
    """
    _, eps_sq, eps1, eps2_sq, eps3, q = dimensionless(params, masses, energy)
    eps = complex(_csqrt(eps_sq))
    # in Python complex arithmetic, which rounds as numpy's scalars do but
    # does not warn where eps overflows (a subnormal a)
    big_c, big_d = (complex(z) for z in _b_c_d(eps2_sq, q, n)[1:])
    residual = abs(eps1 + eps3 - big_d / 4.0 - big_c * eps)
    return residual, eps


@dataclass(frozen=True, init=False)
class BoundState:
    """One labelled branch of an energy pair plus its physicality verdict.

    aux, the spectral_auxiliaries snapshot of params, masses and n, is built
    when it is first read.
    """

    n: int
    energy: complex
    branch: Branch
    physical: bool
    energy_pair: EnergyPair
    regime: Regime
    params: PotentialParams
    masses: MassConfig
    kinematics: str = "salpeter"

    def __init__(self, n, energy, branch, physical, energy_pair, regime, params, masses,
                 kinematics="salpeter"):
        # one write to the instance dict: the frozen dataclass's own __init__
        # sets each field through object.__setattr__, three times the cost
        self.__dict__.update(n=n, energy=energy, branch=branch, physical=physical,
                             energy_pair=energy_pair, regime=regime, params=params,
                             masses=masses, kinematics=kinematics)

    @functools.cached_property
    def aux(self) -> SpectralAuxiliaries:
        return spectral_auxiliaries(self.params, self.masses, self.n)


def _physical_real(params, masses, n, energy) -> bool:
    e = complex(energy)
    if abs(e.imag) > IM_TOL * (1.0 + abs(e)):
        return False
    if not (-masses.total < e.real < 0.0):
        return False
    residual, eps = quantization_residual(params, masses, n, e)
    scale = 1.0 + abs(e) + abs(eps)
    # a finite residual: where eps overflows (a subnormal a) residual and
    # scale are both inf, and inf <= inf would pass
    return bool(eps.real >= -GENUINE_TOL and residual <= GENUINE_TOL * scale
                and math.isfinite(residual))


def _physical_complex(energy) -> bool:
    """A complex regime's verdict: a finite energy, real to IM_TOL."""
    # cmath, not np.isfinite: the ufunc would cost ~1 us a branch
    return cmath.isfinite(energy) and abs(energy.imag) <= IM_TOL * (1.0 + abs(energy))


def classify_level(params: PotentialParams, masses: MassConfig, n: int):
    """Level n as (EnergyPair, (physical_minus, physical_plus)): both branches and their verdicts.

    The regime picks the closed form, evaluated without strict existence
    checks, so both branches are always returned; the float-range check of
    the spectral_auxiliaries snapshot runs as well, and its ValidationError
    outranks a closed form's ComplexSpectrumError.
    """
    regime = params.regime
    try:
        if regime is Regime.REAL:
            if masses.is_equal:
                pair = salpeter_energy_equal_mass(params, masses.m1, n, strict=False)
            else:
                pair = salpeter_energy_general(params, masses, n, strict=False)
        else:
            if not masses.is_equal:
                raise ValidationError("complex regimes are defined for equal masses only")
            m = masses.m1
            if regime is Regime.COMPLEX_ALPHA:
                pair = complex_alpha_energy(params, m, n, strict=False)
            elif regime is Regime.COMPLEX_V0_Q:
                pair = complex_v0q_energy(params, m, n, strict=False)
            else:
                pair = all_complex_energy(params, m, n)
    except ComplexSpectrumError:
        # a vanishing xi or varsigma can be an underflow, which the snapshot's
        # float-range check names (a ValidationError) and then outranks
        _aux_quotients(params, masses)
        raise
    _aux_quotients(params, masses)     # the snapshot's float-range check; .aux builds it
    if regime is Regime.REAL:
        return pair, (_physical_real(params, masses, n, pair.minus),
                      _physical_real(params, masses, n, pair.plus))
    return pair, (_physical_complex(pair.minus), _physical_complex(pair.plus))


def bound_states(params: PotentialParams, masses: MassConfig, n: int):
    """Both branches as (minus, plus) BoundState records of classify_level, never hidden."""
    pair, (physical_minus, physical_plus) = classify_level(params, masses, n)
    regime = params.regime
    return (BoundState(n, pair.minus, Branch.MINUS, physical_minus, pair, regime, params, masses),
            BoundState(n, pair.plus, Branch.PLUS, physical_plus, pair, regime, params, masses))
