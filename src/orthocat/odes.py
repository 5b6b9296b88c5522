"""Adaptive Runge-Kutta core of the scattering solver, DOP853 (the 8(5,3)
Dormand-Prince pair; Hairer, Norsett & Wanner, Solving ODEs I, II.10), and
the error that the scattering and eigenvalue solvers raise when they fail."""

from __future__ import annotations

from scipy.integrate import solve_ivp

__all__ = ["SolverFailure", "adaptive_ivp"]


class SolverFailure(RuntimeError):
    """A solver failed: the adaptive integrator could not meet its tolerance,
    a scattering result failed its unitarity check, or an eigenvalue could
    not be bracketed or did not converge."""


def adaptive_ivp(rhs, x0, x1, y0, *, rtol, atol):
    """Integrate y' = rhs(x, y) from x0 to x1 with DOP853.  Callers pass one
    piece on which rhs is smooth: a kink inside caps the order of the error
    estimate and multiplies the steps.

    Returns the scipy solution object; raises SolverFailure instead of
    returning silently unsuccessful results.
    """
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise SolverFailure(f"adaptive RK failed on [{x0}, {x1}]: {sol.message}")
    return sol
