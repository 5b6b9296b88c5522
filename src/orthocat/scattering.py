"""Transmission and reflection coefficients for compactly supported
potentials, the 2x2 S-matrix, and the two scattering-side routes to the
orthogonality exponent gamma(nu).

Conventions (Deift-Trubowitz): for incidence from the left the wave is
e^{ikx} + r1 e^{-ikx} on the left of the support and t e^{ikx} on the right;
for incidence from the right, e^{-ikx} + r2 e^{ikx} on the right and
t e^{-ikx} on the left.  The transfer matrix M comes from the sixth-order
Magnus pass of ``perturbed`` at mu = k^2, which is exact on constant pieces,
and t, r1, r2 follow from its entries in closed form, using det M = 1.  A
failed check raises ``core.SolverFailure``; on square barriers at k = pi the
only failure is M overflowing, from v0 = 1.3e5 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import Potential, SolverFailure
from .perturbed import _magnus, _mesh

__all__ = [
    "ScatteringData",
    "scattering_coefficients",
    "s_matrix",
    "gamma_scattering",
    "gamma_gkm",
]

_PI2 = math.pi**2
# Tolerance of ``perturbed._mesh``: it sets the step width where V is not constant.
_TOL = 1e-12


@dataclass(frozen=True)
class ScatteringData:
    k: float
    t: complex
    r1: complex
    r2: complex
    unitarity_defect: float

    @property
    def matrix(self) -> np.ndarray:
        """S-matrix [[t, r2], [r1, t]]."""
        return np.array([[self.t, self.r2], [self.r1, self.t]])


def adaptive_ivp(V: Potential, k: float):
    """Propagate the two unit states (u, u') = (1, 0) and (0, 1) at -a to +a
    for -u'' + V u = k^2 u, as two energies of one Magnus pass.

    Returns the final states as ``y``, shape (2, 2), and the number of
    potential evaluations, three per step (its Gauss points), as ``nfev``.
    The pass is not adaptive; the name stays because perfbench's tracer hooks
    ``scattering.adaptive_ivp`` and reads ``nfev`` for its ``odes.*`` counts.
    """
    mu = k * k
    points, steps = _mesh(V, V.a, mu, mu, _TOL)
    *_, states = _magnus(steps, np.full(2, mu), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return SimpleNamespace(y=states[:, -1], nfev=3 * (points.size - 1))


def _transfer_matrix(V: Potential, k: float) -> np.ndarray:
    """Map (u, u') at -a to (u, u') at +a for -u'' + V u = k^2 u; its columns
    start from u(-a) = 1, u'(-a) = 0 and from u(-a) = 0, u'(-a) = 1."""
    return adaptive_ivp(V, k).y


def scattering_coefficients(V: Potential, k: float) -> ScatteringData:
    """Scattering data at wavenumber k > 0 from the transfer matrix M across
    the support: with e = e^{-2ika} and D = m11 + m22 + i (m21/k - k m12),
    t = 2e / D, r1 = -e (m11 - m22 + i (m21/k + k m12)) / D and
    r2 = e (m11 - m22 - i (m21/k + k m12)) / D, all of which use det M = 1.
    Every term of D has the size of M, so a barrier's tiny t keeps its
    relative accuracy: on square_well(v0, 1) at k = pi it matches the exact t
    to 5.2e-15 relative from v0 = -3 up to 1e5.

    The unitarity defect is the larger of ||t|^2 + |r_i|^2 - 1|.  Raises
    SolverFailure, without floating-point warnings, if the defect exceeds
    1e-8, which keeps gamma = (1 - Re t) / pi^2 within 1e-9, or if M
    overflows: at k = pi the barrier's growth e^{2 a sqrt(v0)} passes the
    float range from v0 = 1.3e5 on, where the failure names the overflow.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        M = _transfer_matrix(V, k)
        if not np.all(np.isfinite(M)):
            raise SolverFailure(f"transfer matrix overflowed: not finite at k = {k}")
        (m11, m12), (m21, m22) = M
        e = complex(np.exp(-2j * k * V.a))
        D = m11 + m22 + 1j * (m21 / k - k * m12)
        t = 2.0 * e / D
        r1 = -e * (m11 - m22 + 1j * (m21 / k + k * m12)) / D
        r2 = e * (m11 - m22 - 1j * (m21 / k + k * m12)) / D
        defect = max(abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) for r in (r1, r2))
    if not defect <= 1e-8:
        raise SolverFailure(f"unitarity defect {defect:.3e} above 1e-8 at k = {k}")
    return ScatteringData(k, complex(t), complex(r1), complex(r2), float(defect))


def s_matrix(V: Potential, nu: float) -> np.ndarray:
    """S-matrix at energy nu (wavenumber sqrt(nu))."""
    return scattering_coefficients(V, math.sqrt(nu)).matrix


def gamma_scattering(V: Potential, nu: float) -> float:
    """gamma(nu) = (1 - Re t(sqrt(nu))) / pi^2; nonnegative since |t| <= 1."""
    if nu <= 0:
        raise ValueError("energy must be positive")
    t = scattering_coefficients(V, math.sqrt(nu)).t
    g = (1.0 - t.real) / _PI2
    if g < -1e-10:
        raise SolverFailure(f"transmission coefficient above unit modulus: t = {t}")
    return max(g, 0.0)


def gamma_gkm(V: Potential, nu: float) -> float:
    """gamma through the S-matrix trace, tr[(S-1)^*(S-1)] / (2 pi)^2; equal to
    the transmission form by unitarity."""
    if nu <= 0:
        raise ValueError("energy must be positive")
    S = s_matrix(V, nu)
    E = S - np.eye(2)
    g = float(np.trace(E.conj().T @ E).real) / (4.0 * _PI2)
    return max(g, 0.0)
