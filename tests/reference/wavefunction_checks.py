"""Checks on closed-form wavefunctions that the package itself never runs.

`pt_norm_phase` integrates the PT inner product by adaptive quadrature;
`count_nodes` counts the sign changes of a sampled state.
"""

import numpy as np
from scipy.integrate import quad

from salpeter_hulthen.wavefunctions import WaveFunction, psi_of_s


def pt_norm_phase(wf: WaveFunction, tol: float = 1e-10):
    """PT inner product int_0^1 conj(psi(-s)) psi(s) ds and its sign nu.

    Powers of -s use the principal branch. On the real s-segment the literal
    integrand generally keeps a residual imaginary part; nu is read from the
    sign of the real part and the full complex integral is returned alongside
    for inspection.
    """
    def integrand(s):
        return np.conj(psi_of_s(wf, -s)) * psi_of_s(wf, s)

    re = quad(lambda s: integrand(s).real, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)[0]
    im = quad(lambda s: integrand(s).imag, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)[0]
    value = complex(re, im)
    if value.real == 0.0:
        return None, value
    return (1 if value.real > 0 else -1), value


def count_nodes(values) -> int:
    """Interior sign changes of Re(psi), with a noise floor."""
    re = np.asarray(values).real
    floor = 1e-9 * np.max(np.abs(re)) if np.max(np.abs(re)) > 0 else 0.0
    kept = re[np.abs(re) > floor]
    return int(np.sum(np.sign(kept[1:]) * np.sign(kept[:-1]) < 0))
