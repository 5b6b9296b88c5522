"""Transmission and reflection coefficients for compactly supported
potentials, the 2x2 S-matrix, and the two scattering-side routes to the
orthogonality exponent gamma(nu).

Conventions (Deift-Trubowitz): for incidence from the left the wave is
e^{ikx} + r1 e^{-ikx} on the left of the support and t e^{ikx} on the right;
for incidence from the right, e^{-ikx} + r2 e^{ikx} on the right and
t e^{-ikx} on the left.  The transfer matrix M comes from DOP853, the
8(5,3) Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10),
and t, r1, r2 follow from its entries in closed form, using det M = 1.  A
failed integration or check raises ``core.SolverFailure``; on square
barriers at k = pi the only failure is M overflowing, from v0 = 1.3e5 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import Potential, SolverFailure

__all__ = [
    "ScatteringData",
    "scattering_coefficients",
    "s_matrix",
    "gamma_scattering",
    "gamma_gkm",
]

_PI2 = math.pi**2
# Relative and absolute tolerance of the DOP853 integration of each piece.
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


def adaptive_ivp(rhs, x0, x1, y0, *, rtol, atol):
    """Integrate y' = rhs(x, y) from x0 to x1 with DOP853.  Callers pass one
    piece on which rhs is smooth: a kink inside caps the order of the error
    estimate and multiplies the steps.

    Returns the scipy solution object, successful or not; the caller checks
    ``sol.success``.
    """
    return solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=rtol, atol=atol)


def _transfer_matrix(V: Potential, k: float) -> np.ndarray:
    """Map (u, u') at -a to (u, u') at +a for -u'' + V u = k^2 u, one smooth
    piece between consecutive breaks of V at a time."""

    def rhs(x, y):
        q = V(x) - k * k
        return (y[2], y[3], q * y[0], q * y[1])

    # columns: solution with u(-a)=1, u'(-a)=0 and with u(-a)=0, u'(-a)=1
    y = [1.0, 0.0, 0.0, 1.0]
    for lo, hi in zip(V.breaks[:-1], V.breaks[1:]):
        sol = adaptive_ivp(rhs, lo, hi, y, rtol=_TOL, atol=_TOL)
        y = sol.y[:, -1]
        if not sol.success:
            # on this linear RHS DOP853 stalls only where q y nears the float range
            grown = np.abs(y).max() > 1e300 / (V.sup_abs + k * k)
            why = "transfer matrix overflowed" if grown else f"DOP853 failed ({sol.message})"
            raise SolverFailure(f"{why} on [{lo}, {hi}] at k = {k}")
    return np.reshape(y, (2, 2))


def scattering_coefficients(V: Potential, k: float) -> ScatteringData:
    """Scattering data at wavenumber k > 0 from the transfer matrix M across
    the support: with e = e^{-2ika} and D = m11 + m22 + i (m21/k - k m12),
    t = 2e / D, r1 = -e (m11 - m22 + i (m21/k + k m12)) / D and
    r2 = e (m11 - m22 - i (m21/k + k m12)) / D, all of which use det M = 1.
    Every term of D has the size of M, so a barrier's tiny t keeps its
    relative accuracy: on square_well(v0, 1) at k = pi it matches the exact t
    to 2.3e-12 relative up to v0 = 200, 7e-12 at 2000 and 5e-11 at 1e5.

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
            raise SolverFailure(f"transfer matrix not finite at k = {k}")
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
