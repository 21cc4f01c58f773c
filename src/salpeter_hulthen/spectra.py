"""Closed-form bound-state spectra for every parameter regime.

Energy pairs are returned with a fixed convention: the underlying quadratic
in E has roots E = pref +/- sqrt(disc) (principal square root), labelled PLUS
and MINUS. The discriminant disc = pref^2 * radicand is built without
dividing by pref^2, so it stays finite where pref = V0/(2q) - m_tilde
vanishes (V0 = 4 m q at equal masses). For a negative real prefactor the
MINUS root is the deeper level, which is the branch the zero-coupling limit
values -3.73m belong to.

Both branches are always computed; `physical` is a separate documented
verdict and never silently hides a branch. All formulas use hbar = c = 1.
"""

import enum
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


def _require_coupling(params):
    if params.v0 == 0.0:
        raise NoBoundStateError("zero coupling admits no bound state")
    if params.q == 0.0:
        raise NoBoundStateError("q = 0 has no closed-form spectrum for real alpha")


@dataclass(frozen=True)
class DimensionlessParams:
    """The coupling combinations entering the reduced equation.

    eps carries the energy; eps1, eps2_sq, eps3 the three potential
    couplings (not independent: eps2_sq = eps1^2 * alpha^2 / (4 mu m_tilde)).
    The _nr pair belongs to the nonrelativistic reduction.
    """

    eps: complex
    eps1: complex
    eps2_sq: complex
    eps3: complex
    eps_nr_sq: complex
    eps1_nr: complex


def dimensionless(params: PotentialParams, masses: MassConfig, energy) -> DimensionlessParams:
    v0, alpha, _ = params.effective()
    mu, mt = masses.mu, masses.m_tilde
    pref = 2.0 * mu / (alpha * alpha)
    e = complex(energy)
    eps_sq = -pref * (e + e * e / (2.0 * mt))
    eps1 = pref * v0
    eps2_sq = pref * v0 * v0 / (2.0 * mt)
    eps3 = pref * v0 * e / mt
    check = eps1 * eps1 * alpha * alpha / (4.0 * mu * mt)
    if abs(check - eps2_sq) > 1e-12 * (1.0 + abs(eps2_sq)):
        raise ValidationError("inconsistent dimensionless couplings")
    return DimensionlessParams(
        eps=_csqrt(eps_sq), eps1=eps1, eps2_sq=eps2_sq, eps3=eps3,
        eps_nr_sq=pref * e, eps1_nr=eps1,
    )


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
    mu, mt = masses.mu, masses.m_tilde
    a = alpha * alpha / (2.0 * mu)
    eps2_sq = v0 * v0 / (2.0 * mt * a)
    b = _csqrt(q * q - 4.0 * eps2_sq)
    big_c = b + q * (2 * n + 1)
    big_d = (big_c * big_c + 4.0 * eps2_sq) / q if q != 0 else complex("nan")
    root_m = _csqrt(q * q * alpha * alpha - v0 * v0)
    kappa = root_m + q * alpha * (2 * n + 1)
    xi = q * alpha * (q * alpha + q * alpha * (2 * n + 1) ** 2 + 2 * (2 * n + 1) * root_m)
    xi_tilde = alpha * (alpha + alpha * (2 * n + 1) ** 2
                        - 2 * (2 * n + 1) * _csqrt(alpha * alpha - v0 * v0))
    root_p = _csqrt(q * q * alpha * alpha + v0 * v0)
    varsigma = q * q * alpha * alpha * (1 + (2 * n + 1) ** 2) + 2 * q * alpha * (2 * n + 1) * root_p
    varsigma_tilde = (q * q * alpha * alpha * (1 + (2 * n + 1) ** 2)
                      - 2 * q * alpha * (2 * n + 1) * root_p)
    m_half = mt / 2.0  # equals the constituent mass for equal masses
    chi_sq = _chi_squared_pair(v0, q, m_half)
    beta = 2.0 * mu * v0 / (q * alpha * alpha) if q != 0 else complex("nan")
    return SpectralAuxiliaries(
        b=b, big_c=big_c, big_d=big_d, xi=xi, kappa=kappa, xi_tilde=xi_tilde,
        varsigma=varsigma, varsigma_tilde=varsigma_tilde, chi_sq=chi_sq, beta=beta,
        c=_csqrt(q * q + v0 * v0 / (alpha * alpha)),
        d=_csqrt(q * q - v0 * v0 / (alpha * alpha)),
    )


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
    if params.regime is not Regime.REAL:
        raise ValidationError("general Salpeter spectrum is defined for the Real regime")
    _require_coupling(params)
    if n < 0:
        raise ValidationError("n must be nonnegative")
    v0, alpha, q = params.v0, params.alpha, params.q
    mu, mt = masses.mu, masses.m_tilde
    try:
        a = alpha * alpha / (2.0 * mu)
        eps2_sq = v0 * v0 / (2.0 * mt * a)
        if strict and q * q < 4.0 * eps2_sq:
            raise NoBoundStateError("condition q^2 >= V0^2 * (2 mu / m_tilde) / alpha^2 fails")
        b = _csqrt(q * q - 4.0 * eps2_sq)
        big_c = b + q * (2 * n + 1)
        big_d = (big_c * big_c + 4.0 * eps2_sq) / q
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
    xi = q * alpha * (q * alpha + q * alpha * (2 * n + 1) ** 2
                      + 2 * (2 * n + 1) * _csqrt(q * q * alpha * alpha - v0 * v0))
    if strict and abs(xi.imag) > IM_TOL * (1.0 + abs(xi)):
        raise NoBoundStateError("condition q^2 >= (V0/alpha)^2 fails")
    u = xi / (2.0 * m * q * v0)
    pref = v0 / (2.0 * q) - 2.0 * m
    disc = pref * pref - (2.0 * m * v0) ** 2 * (1.0 - u + u * u / 4.0) / xi
    if strict and _negative_radicand(pref, disc):
        raise ComplexSpectrumError("energy radicand is negative")
    return _pair(pref, disc)


def salpeter_energy_equal_mass(params: PotentialParams, m: float, n: int,
                               strict: bool = True) -> EnergyPair:
    """Equal-mass rearrangement through xi = kappa^2 + V0^2."""
    if params.regime is not Regime.REAL:
        raise ValidationError("equal-mass Salpeter spectrum is defined for the Real regime")
    _require_coupling(params)
    if n < 0:
        raise ValidationError("n must be nonnegative")
    return _equal_mass_core(params.v0, params.alpha, params.q, m, n, strict)


def woods_saxon_energy(params: PotentialParams, m: float, n: int,
                       strict: bool = True, verbatim: bool = False) -> EnergyPair:
    """Shifted Woods-Saxon spectrum (q = -1 degeneration).

    The default reproduces the equal-mass closed form evaluated at q = -1,
    which is what the xi-identity algebra gives. verbatim=True instead uses
    the alternate literature prefactor -(V0/(2q) + 2m); the two disagree and
    the variant is kept only for the findings comparison against the oracle.
    """
    if params.q != -1.0:
        raise ValidationError("woods_saxon_energy requires q = -1")
    _require_coupling(params)
    v0, alpha = params.v0, params.alpha
    if strict and alpha * alpha < v0 * v0:
        raise NoBoundStateError("condition alpha^2 >= V0^2 fails")
    if not verbatim:
        return _equal_mass_core(v0, alpha, -1.0, m, n, strict)
    xi_t = alpha * (alpha + alpha * (2 * n + 1) ** 2
                    - 2 * (2 * n + 1) * _csqrt(alpha * alpha - v0 * v0))
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
    """Case alpha -> i*alpha: PT-symmetric spectrum via varsigma."""
    if params.regime is not Regime.COMPLEX_ALPHA:
        raise ValidationError("requires the ComplexAlpha regime")
    _require_coupling(params)
    v0, alpha, q = params.v0, params.alpha, params.q
    vs = q * q * alpha * alpha * (1 + (2 * n + 1) ** 2) \
        + 2 * q * alpha * (2 * n + 1) * _csqrt(q * q * alpha * alpha + v0 * v0)
    u = vs / (2.0 * m * q * v0)
    pref = v0 / (2.0 * q) - 2.0 * m
    bracket = 1.0 + u + u * u / 4.0
    if strict and not (-((2.0 * m * v0) ** 2) * bracket).real <= (vs * pref * pref).real:
        raise ComplexSpectrumError("case-I reality inequality fails")
    return _pair(pref, pref * pref + (2.0 * m * v0) ** 2 * bracket / vs)


def complex_v0q_energy(params: PotentialParams, m: float, n: int,
                       strict: bool = True) -> EnergyPair:
    """Case V0 -> i*V0, q -> i*q: the i-factors cancel, leaving the real-base form."""
    if params.regime is not Regime.COMPLEX_V0_Q:
        raise ValidationError("requires the ComplexV0Q regime")
    _require_coupling(params)
    return _equal_mass_core(params.v0, params.alpha, params.q, m, n, strict)


def all_complex_energy(params: PotentialParams, m: float, n: int) -> EnergyPair:
    """Case with all three parameters imaginary, via varsigma-tilde.

    No structural errors: varsigma-tilde may be negative and the branches
    complex; physicality is judged afterwards by the imaginary-part test.
    """
    if params.regime is not Regime.ALL_COMPLEX:
        raise ValidationError("requires the AllComplex regime")
    _require_coupling(params)
    v0, alpha, q = params.v0, params.alpha, params.q
    vs_t = q * q * alpha * alpha * (1 + (2 * n + 1) ** 2) \
        - 2 * q * alpha * (2 * n + 1) * _csqrt(q * q * alpha * alpha + v0 * v0)
    if vs_t == 0:
        raise ComplexSpectrumError("varsigma-tilde vanishes; branch undefined")
    u = vs_t / (2.0 * m * q * v0)
    pref = v0 / (2.0 * q) - 2.0 * m
    return _pair(pref, pref * pref + (2.0 * m * v0) ** 2 * (1.0 + u + u * u / 4.0) / vs_t)


def nonrelativistic_energy(params: PotentialParams, mu: float, n: int,
                           check_exists: bool = True) -> float:
    """Nonrelativistic limit spectra.

    Real regime: E_n = -(alpha^2/(8 mu)) [(n+1) - beta/(n+1)]^2 with
    beta = 2 mu V0 / (q alpha^2); a bound level needs n+1 < sqrt(beta)
    (set check_exists=False to evaluate the bare formula anyway).
    ComplexAlpha regime: the positive spectrum
    E_n = (1/(8 mu q^2 alpha^2)) [(2 mu V0 + q alpha^2 (n+1)^2)/(n+1)]^2.
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
            return float((2.0 * mu * v0 + q * alpha * alpha * (n + 1) ** 2) ** 2
                         / (8.0 * mu * q * q * alpha * alpha * (n + 1) ** 2))
        beta = 2.0 * mu * v0 / (q * alpha * alpha)
        if check_exists and not (beta > 0 and (n + 1) < np.sqrt(beta)):
            raise NoBoundStateError(f"level n = {n} fails n+1 < sqrt(beta) = {beta**0.5 if beta > 0 else float('nan'):.6g}")
        return float(-(alpha * alpha / (8.0 * mu)) * ((n + 1) - beta / (n + 1)) ** 2)
    except ArithmeticError as exc:
        # alpha^2 underflows to 0, or a square overflows, at extreme accepted inputs
        raise ValidationError(f"nonrelativistic closed form leaves the float range: {exc}") from exc


def level_count(params: PotentialParams, m: float) -> int:
    """Number of levels admitted by the critical-coupling bound.

    Counts n <= (sqrt(chi^2 - V0^2) - sqrt(q^2 alpha^2 - V0^2))/(2 q alpha) - 1/2
    using the chi^2 variant that keeps chi^2 - V0^2 real and nonnegative
    (the larger admissible root). Returns 0 when the one-level inequality
    fails. Note this bounds where the energy radicand stays real, which can
    exceed the number of true eigenstates; the oracle is authoritative.
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
    edge = np.sqrt(chi_sq - v0 * v0)
    low = np.sqrt(q * q * alpha * alpha - v0 * v0)
    if q * alpha + low > edge:    # one-level inequality
        return 0
    n_max = (edge - low) / (2.0 * q * alpha) - 0.5
    return max(0, int(np.floor(n_max)) + 1)


def quantization_residual(params: PotentialParams, masses: MassConfig, n: int, energy):
    """Residual of the unsquared quantization eps1 + eps3 = D/4 + C*eps.

    The closed-form branches solve the squared relation; only the branch
    with a vanishing unsquared residual (principal eps) carries a genuine
    polynomial solution. Returns (residual, eps).
    """
    v0, alpha, q = params.effective()
    mu, mt = masses.mu, masses.m_tilde
    a = alpha * alpha / (2.0 * mu)
    e = complex(energy)
    eps = _csqrt(-(e + e * e / (2.0 * mt)) / a)
    eps1 = v0 / a
    eps2_sq = v0 * v0 / (2.0 * mt * a)
    eps3 = v0 * e / (mt * a)
    b = _csqrt(q * q - 4.0 * eps2_sq)
    big_c = b + q * (2 * n + 1)
    big_d = (big_c * big_c + 4.0 * eps2_sq) / q
    residual = abs(eps1 + eps3 - big_d / 4.0 - big_c * eps)
    return residual, eps


@dataclass(frozen=True)
class BoundState:
    """One labelled branch of an energy pair plus its physicality verdict."""

    n: int
    energy: complex
    branch: Branch
    physical: bool
    aux: SpectralAuxiliaries
    energy_pair: EnergyPair
    regime: Regime
    kinematics: str = "salpeter"


def _physical_real(params, masses, n, energy) -> bool:
    e = complex(energy)
    if abs(e.imag) > IM_TOL * (1.0 + abs(e)):
        return False
    if not (-masses.total < e.real < 0.0):
        return False
    residual, eps = quantization_residual(params, masses, n, e)
    scale = 1.0 + abs(e) + abs(eps)
    return bool(eps.real >= -GENUINE_TOL and residual <= GENUINE_TOL * scale)


def bound_states(params: PotentialParams, masses: MassConfig, n: int):
    """Both branches as BoundState records, classified but never hidden."""
    regime = params.regime
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
    aux = spectral_auxiliaries(params, masses, n)
    states = []
    for branch, e in ((Branch.MINUS, pair.minus), (Branch.PLUS, pair.plus)):
        if regime is Regime.REAL:
            phys = _physical_real(params, masses, n, e)
        else:
            phys = abs(e.imag) <= IM_TOL * (1.0 + abs(e))
        states.append(BoundState(n=n, energy=complex(e), branch=branch, physical=phys,
                                 aux=aux, energy_pair=pair, regime=regime))
    return tuple(states)
