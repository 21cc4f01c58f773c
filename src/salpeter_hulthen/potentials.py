"""Generalized Hulthen potential family and its symmetry classification.

The family is V(x) = -V0 * exp(-a*x) / (1 - q * exp(-a*x)) on the half line,
with coupling V0, screening parameter a and dimensionless deformation q.
Complex variants are encoded by a regime tag that multiplies selected
parameters by i; the stored numbers are always the real base values, which
keeps every downstream formula input real and the branch decisions auditable.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleAtXError, PoleOnGridError, DegenerateShiftError, ValidationError

POLE_TOL = 1e-10


class Regime(enum.Enum):
    """Which parameters carry a factor i."""

    REAL = "Real"
    COMPLEX_ALPHA = "ComplexAlpha"      # alpha -> i*alpha
    COMPLEX_V0_Q = "ComplexV0Q"         # V0 -> i*V0, q -> i*q
    ALL_COMPLEX = "AllComplex"          # all three imaginary


class DegenerateForm(enum.Enum):
    EXPONENTIAL = "Exponential"         # q = 0
    STANDARD_HULTHEN = "StandardHulthen"  # q = 1
    WOODS_SAXON = "WoodsSaxon"          # q = -1
    GENERIC = "Generic"


class SymmetryVerdict(enum.Enum):
    HERMITIAN = "Hermitian"
    PT_SYMMETRIC = "PTSymmetric"
    P_PSEUDO_HERMITIAN = "PPseudoHermitian"
    NONE = "None"


@dataclass(frozen=True)
class PotentialParams:
    """Real base values (V0, alpha, q) plus the regime that applies i-factors.

    Parameters
    ----------
    v0 : float
        Coupling constant (energy units, hbar = c = 1).
    alpha : float
        Screening (range) parameter, inverse length. Must be nonzero, and
        positive in the Real regime, where the well decays with x.
    q : float
        Deformation parameter. q = 0 is allowed only in the real regime.
    regime : Regime
        Which parameters are multiplied by i before evaluation.
    """

    v0: float
    alpha: float
    q: float
    regime: Regime = Regime.REAL

    def __post_init__(self):
        if not (math.isfinite(self.v0) and math.isfinite(self.alpha) and math.isfinite(self.q)):
            raise ValidationError("V0, alpha and q must be finite")
        if self.alpha == 0.0:
            raise ValidationError("alpha must be nonzero")
        if self.alpha < 0.0 and self.regime is Regime.REAL:
            raise ValidationError("alpha must be positive in the Real regime")
        if self.q == 0.0 and self.regime is not Regime.REAL:
            raise ValidationError("q = 0 is only allowed in the Real regime")

    def effective(self):
        """Return (V0_eff, alpha_eff, q_eff) with the regime's i-factors applied."""
        if self.regime is Regime.REAL:
            return complex(self.v0), complex(self.alpha), complex(self.q)
        if self.regime is Regime.COMPLEX_ALPHA:
            return complex(self.v0), 1j * self.alpha, complex(self.q)
        if self.regime is Regime.COMPLEX_V0_Q:
            return 1j * self.v0, complex(self.alpha), 1j * self.q
        return 1j * self.v0, 1j * self.alpha, 1j * self.q


@dataclass(frozen=True)
class MassConfig:
    """Constituent masses and the derived kinematic parameters.

    mu is the reduced mass, m_tilde the mass scale of the quadratic
    correction term, and eta the auxiliary parameter with eta^3 = mu^2 * m_tilde.
    """

    m1: float
    m2: float

    def __post_init__(self):
        if not (0 < self.m1 < np.inf and 0 < self.m2 < np.inf):
            raise ValidationError("masses must be positive and finite")

    @classmethod
    def equal(cls, m):
        return cls(m, m)

    @property
    def mu(self):
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @property
    def m_tilde(self):
        mu = self.mu
        return self.m1 * self.m2 * mu / (self.m1 * self.m2 - 3.0 * mu * mu)

    @property
    def eta(self):
        mu = self.mu
        return mu * (self.m1 * self.m2 / (self.m1 * self.m2 - 3.0 * mu * mu)) ** (1.0 / 3.0)

    @property
    def total(self):
        return self.m1 + self.m2

    @property
    def is_equal(self):
        return self.m1 == self.m2


# the keys of a parameter document, which params_from_json and the CLI accept
JSON_FIELDS = ("V0", "alpha", "q", "regime", "m1", "m2")


def params_from_json(doc: dict):
    """Ingest {"V0":..,"alpha":..,"q":..,"regime":..,"m1":..,"m2":..}.

    Field names are fixed; unknown fields are rejected.
    """
    unknown = set(doc) - set(JSON_FIELDS)
    if unknown:
        raise ValidationError(f"unknown fields: {sorted(unknown)}")
    missing = set(JSON_FIELDS) - set(doc)
    if missing:
        raise ValidationError(f"missing fields: {sorted(missing)}")
    try:
        regime = Regime(doc["regime"])
    except ValueError:
        raise ValidationError(f"unknown regime {doc['regime']!r}") from None
    for key in ("V0", "alpha", "q", "m1", "m2"):
        if not isinstance(doc[key], (int, float)) or isinstance(doc[key], bool):
            raise ValidationError(f"field {key} must be a real number")
    params = PotentialParams(float(doc["V0"]), float(doc["alpha"]), float(doc["q"]), regime)
    masses = MassConfig(float(doc["m1"]), float(doc["m2"]))
    return params, masses


def _values(params: PotentialParams, xs, pole_error=PoleOnGridError):
    """Potential values on an array of sample points (no domain restriction)."""
    v0, alpha, q = params.effective()
    s = np.exp(-alpha * np.asarray(xs, dtype=complex))
    den = 1.0 - q * s
    if np.any(np.abs(den) < POLE_TOL * (1.0 + abs(q))):
        raise pole_error("potential pole on the sampled grid")
    return -v0 * s / den


def evaluate(params: PotentialParams, x: float) -> complex:
    """Evaluate V(x) with the regime's complex substitutions applied."""
    return complex(_values(params, [x], pole_error=PoleAtXError)[0])


def degenerate_form(params: PotentialParams, snap_tol: float = 0.0) -> DegenerateForm:
    """Classify the real-regime shape by q against its named special values.

    Classification is by exact equality after snapping q to {0, 1, -1}
    within `snap_tol` (default 0: the special shapes are exact values,
    not neighborhoods).
    """
    if params.regime is not Regime.REAL:
        raise ValidationError("degenerate_form is defined for the Real regime only")
    q = params.q
    for target, form in ((0.0, DegenerateForm.EXPONENTIAL),
                         (1.0, DegenerateForm.STANDARD_HULTHEN),
                         (-1.0, DegenerateForm.WOODS_SAXON)):
        if q == target or abs(q - target) <= snap_tol:
            return form
    return DegenerateForm.GENERIC


def short_range_expansion(params: PotentialParams, x: float, order: int) -> float:
    """Shifted-linear small-x form: V0/(q-1) + V0*a*x/(q-1)^2.

    Valid for the real regime with q != 1; the caller is responsible for
    alpha*x being small.
    """
    if params.regime is not Regime.REAL:
        raise ValidationError("short_range_expansion is defined for the Real regime only")
    if order not in (0, 1):
        raise ValidationError("order must be 0 or 1")
    if params.q == 1.0:
        raise DegenerateShiftError("shift term diverges at q = 1")
    shift = params.v0 / (params.q - 1.0)
    if order == 0:
        return shift
    return shift + params.v0 * params.alpha * x / (params.q - 1.0) ** 2


def check_pt_symmetry(params: PotentialParams, grid, tol: float) -> SymmetryVerdict:
    """Strongest symmetry verdict whose residual max-norm is below tol.

    Checks, in order of strength: Hermiticity max|Im V(x)|, PT symmetry
    max|V(x) - conj(V(-x))|, and P-pseudo-Hermiticity for the reflection
    about x0 = pi/(2*alpha), i.e. max|V(x) - conj(V(pi/alpha - x))|.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValidationError("grid must be nonempty")
    v = _values(params, xs)
    if np.max(np.abs(v.imag)) <= tol:
        return SymmetryVerdict.HERMITIAN
    v_neg = _values(params, -xs)
    if np.max(np.abs(v - np.conjugate(v_neg))) <= tol:
        return SymmetryVerdict.PT_SYMMETRIC
    v_ref = _values(params, np.pi / params.alpha - xs)
    if np.max(np.abs(v - np.conjugate(v_ref))) <= tol:
        return SymmetryVerdict.P_PSEUDO_HERMITIAN
    return SymmetryVerdict.NONE
