"""Adaptive Runge-Kutta core of the scattering solver, and the error that
the scattering and eigenvalue solvers raise when they fail."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["SolverFailure", "adaptive_ivp"]


class SolverFailure(RuntimeError):
    """A solver failed: the adaptive integrator could not meet its tolerance,
    a scattering result failed its unitarity check, or an eigenvalue could
    not be bracketed or did not converge."""


def adaptive_ivp(rhs, x0, x1, y0, *, rtol=1e-10, atol=1e-12, t_eval=None):
    """Integrate y' = rhs(x, y) from x0 to x1 with an embedded 4(5) pair.

    Returns the scipy solution object; raises SolverFailure instead of
    returning silently unsuccessful results.
    """
    sol = solve_ivp(
        rhs,
        (x0, x1),
        np.atleast_1d(np.asarray(y0, dtype=float)),
        method="RK45",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise SolverFailure(f"adaptive RK failed on [{x0}, {x1}]: {sol.message}")
    return sol
