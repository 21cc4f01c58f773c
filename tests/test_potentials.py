import numpy as np
import pytest

from salpeter_hulthen import (
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
from salpeter_hulthen.errors import (
    DegenerateShiftError,
    PoleAtXError,
    PoleOnGridError,
    ValidationError,
)
from salpeter_hulthen.potentials import _values


def test_evaluate_zero_coupling():
    p = PotentialParams(0.0, 1.0, 1.0)
    assert evaluate(p, 2.0) == 0.0


def test_evaluate_exponential_at_origin():
    p = PotentialParams(1.0, 1.0, 0.0)
    assert evaluate(p, 0.0) == pytest.approx(-1.0)


def test_evaluate_pole():
    p = PotentialParams(1.0, 1.0, 2.0)
    with pytest.raises(PoleAtXError):
        evaluate(p, np.log(2.0))


def test_evaluate_q0_is_plain_exponential():
    p = PotentialParams(1.3, 0.7, 0.0)
    xs = np.linspace(0.0, 5.0, 11)
    vals = _values(p, xs)
    np.testing.assert_allclose(vals, -1.3 * np.exp(-0.7 * xs), rtol=5e-16)
    assert np.all(vals.imag == 0.0)


def test_complex_alpha_matches_trig_closed_form():
    # direct substitution alpha -> i*alpha against the cos/sin representation
    p = PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_ALPHA)
    xs = np.linspace(0.05, 3.0, 60)
    direct = _values(p, xs)
    trig = 1.0 * (2.0 - np.cos(xs) + 1j * np.sin(xs)) / (4.0 - 4.0 * np.cos(xs) + 1.0)
    np.testing.assert_allclose(direct, trig, atol=1e-12)


def test_all_complex_matches_trig_closed_form_and_reflection():
    p = PotentialParams(1.0, 1.0, 2.0, Regime.ALL_COMPLEX)
    xs = np.linspace(0.05, 3.0, 60)
    direct = _values(p, xs)
    trig = 1.0 * (2.0 - np.sin(xs) - 1j * np.cos(xs)) / (4.0 - 4.0 * np.sin(xs) + 1.0)
    np.testing.assert_allclose(direct, trig, atol=1e-12)
    reflected = np.conj(_values(p, np.pi / 1.0 - xs))
    np.testing.assert_allclose(direct, reflected, atol=1e-12)


def test_degenerate_form():
    assert degenerate_form(PotentialParams(1.0, 1.0, -1.0)) is DegenerateForm.WOODS_SAXON
    assert degenerate_form(PotentialParams(1.0, 1.0, 1.0)) is DegenerateForm.STANDARD_HULTHEN
    assert degenerate_form(PotentialParams(1.0, 1.0, 0.5)) is DegenerateForm.GENERIC
    assert degenerate_form(PotentialParams(1.0, 1.0, 0.0)) is DegenerateForm.EXPONENTIAL
    # snapping is opt-in; default classification is exact
    assert degenerate_form(PotentialParams(1.0, 1.0, 1.0 + 1e-12)) is DegenerateForm.GENERIC
    assert degenerate_form(PotentialParams(1.0, 1.0, 1.0 + 1e-12), snap_tol=1e-9) \
        is DegenerateForm.STANDARD_HULTHEN
    with pytest.raises(ValidationError):
        degenerate_form(PotentialParams(1.0, 1.0, 1.0, Regime.COMPLEX_ALPHA))


def test_short_range_expansion():
    p = PotentialParams(1.0, 1.0, 2.0)
    assert short_range_expansion(p, 0.0, 0) == pytest.approx(1.0)
    assert short_range_expansion(p, 0.1, 1) == pytest.approx(1.1)
    with pytest.raises(DegenerateShiftError):
        short_range_expansion(PotentialParams(1.0, 1.0, 1.0), 0.1, 1)
    # first-order form tracks the true potential to O((alpha x)^2)
    x = 1e-3
    err = abs(evaluate(p, x) - short_range_expansion(p, x, 1))
    assert err < 5.0 * x * x


def test_symmetry_verdicts():
    grid = np.linspace(0.05, 1.5, 100)
    assert check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0), grid, 1e-12) \
        is SymmetryVerdict.HERMITIAN
    assert check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_ALPHA),
                             grid, 1e-12) is SymmetryVerdict.PT_SYMMETRIC
    assert check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0, Regime.ALL_COMPLEX),
                             grid, 1e-12) is SymmetryVerdict.P_PSEUDO_HERMITIAN
    assert check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0, Regime.COMPLEX_V0_Q),
                             grid, 1e-12) is SymmetryVerdict.NONE


def test_symmetry_pole_on_grid():
    # real q = 2 has a pole at x = ln 2
    grid = np.array([0.1, np.log(2.0), 1.0])
    with pytest.raises(PoleOnGridError):
        check_pt_symmetry(PotentialParams(1.0, 1.0, 2.0), grid, 1e-12)


def test_mass_config_identities(rng):
    for _ in range(20):
        m1, m2 = rng.uniform(0.2, 5.0, size=2)
        mc = MassConfig(m1, m2)
        assert mc.mu == pytest.approx(m1 * m2 / (m1 + m2), rel=1e-15)
        assert mc.m_tilde == pytest.approx(m1 * m2 * mc.mu / (m1 * m2 - 3 * mc.mu**2),
                                           rel=1e-15)
        assert mc.eta**3 == pytest.approx(mc.mu**2 * mc.m_tilde, rel=1e-12)
    eq = MassConfig.equal(2.0)
    assert eq.mu == 1.0
    assert eq.m_tilde == 4.0


def test_params_from_json():
    doc = {"V0": 1.0, "alpha": 2.0, "q": -1.0, "regime": "Real", "m1": 1.0, "m2": 3.0}
    params, masses = params_from_json(doc)
    assert params == PotentialParams(1.0, 2.0, -1.0, Regime.REAL)
    assert masses == MassConfig(1.0, 3.0)
    with pytest.raises(ValidationError):
        params_from_json({**doc, "extra": 1})
    with pytest.raises(ValidationError):
        params_from_json({k: v for k, v in doc.items() if k != "q"})
    with pytest.raises(ValidationError):
        params_from_json({**doc, "regime": "Bogus"})
    with pytest.raises(ValidationError):
        params_from_json({**doc, "V0": "1.0"})


def test_param_invariants():
    with pytest.raises(ValidationError):
        PotentialParams(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PotentialParams(0.9, -1.0, 1.0)          # a Real well decays only for alpha > 0
    PotentialParams(0.9, -1.0, 1.0, Regime.COMPLEX_ALPHA)
    with pytest.raises(ValidationError):
        PotentialParams(1.0, 1.0, 0.0, Regime.COMPLEX_ALPHA)
    with pytest.raises(ValidationError):
        MassConfig(1.0, -1.0)
