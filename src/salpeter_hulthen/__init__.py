"""Exact bound states of the 1D spinless Salpeter equation for the
generalized Hulthen potential family, cross-validated against an
independent numerical eigenvalue oracle."""

from . import errors, nu_engine, oracle, potentials, special_functions, spectra, wavefunctions
from .potentials import (
    DegenerateForm,
    MassConfig,
    PotentialParams,
    Regime,
    SymmetryVerdict,
    check_pt_symmetry,
    degenerate_form,
    evaluate,
    params_from_json,
    short_range_expansion,
)
from .spectra import (
    BoundState,
    Branch,
    EnergyPair,
    all_complex_energy,
    bound_states,
    complex_alpha_energy,
    complex_v0q_energy,
    exponential_energy_imaginary_alpha,
    level_count,
    nonrelativistic_energy,
    salpeter_energy_equal_mass,
    salpeter_energy_general,
    woods_saxon_energy,
)
from .wavefunctions import WaveFunction, assemble, evaluate_on_grid, normalization_constant

__version__ = "0.1.0"

__all__ = [
    "errors", "nu_engine", "oracle", "potentials", "special_functions",
    "spectra", "wavefunctions",
    "DegenerateForm", "MassConfig", "PotentialParams", "Regime", "SymmetryVerdict",
    "check_pt_symmetry", "degenerate_form", "evaluate", "params_from_json",
    "short_range_expansion",
    "BoundState", "Branch", "EnergyPair", "all_complex_energy", "bound_states",
    "complex_alpha_energy", "complex_v0q_energy", "exponential_energy_imaginary_alpha",
    "level_count", "nonrelativistic_energy", "salpeter_energy_equal_mass",
    "salpeter_energy_general", "woods_saxon_energy",
    "WaveFunction", "assemble", "evaluate_on_grid", "normalization_constant",
    "__version__",
]
