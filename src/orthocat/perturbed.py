"""Dirichlet eigenproblem for -psi'' + V psi = mu psi on [-L, L] via the
modified Pruefer phase, plus the eigenvalue-counting bounds.

The phase angle theta is defined through (psi'/sigma, psi) = r (cos, sin)
with a positive frequency scale sigma.  For mu > 0 we take sigma = sqrt(mu),
which makes theta advance exactly at rate sqrt(mu) wherever V vanishes; the
eigenvalue condition is theta(L, mu_k) = k pi and theta(L, .) is strictly
increasing, so each eigenvalue is a bracketed scalar root.  For mu <= 0
(attractive wells push the lowest levels below zero once L is large) we keep
sigma = 1 and advance the phase across the force-free outer intervals with the
exact hyperbolic update, which never overflows because only tanh factors
appear.  Zero counting, and hence the root condition, is independent of the
sigma convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import Grid, Potential, potential_norms
from .free import free_eigenvalue
from .odes import SolverFailure, adaptive_ivp

__all__ = [
    "AmbiguousEnergyError",
    "prufer_phase",
    "perturbed_eigenvalue",
    "PerturbedEigenpair",
    "perturbed_eigenfunction",
    "eigenpairs",
    "count_below",
    "bargmann_upper_bound",
    "counting_lower_bound",
]


class AmbiguousEnergyError(ValueError):
    """The probe energy sits within tolerance of an eigenvalue."""


def _phase_free_advance(theta: float, mu: float, sigma: float, dx: float) -> float:
    """Exact phase update over an interval of length dx where V = 0.

    For mu > 0 with sigma = sqrt(mu) the update is linear.  Otherwise the
    hyperbolic solution is propagated in tanh form and the branch is fixed by
    the facts that the phase never crosses a multiple of pi downward and the
    solution has at most one zero on a force-free interval.
    """
    if dx <= 0.0:
        return theta
    if mu > 0.0:
        return theta + math.sqrt(mu) * dx

    kap2 = -mu
    if kap2 * dx * dx < 1e-16:
        t_over_k = dx
    else:
        kap = math.sqrt(kap2)
        t_over_k = math.tanh(kap * dx) / kap
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    num = sigma * (sin_t + sigma * cos_t * t_over_k)
    den = kap2 * t_over_k * sin_t + sigma * cos_t
    alpha = math.atan2(num, den)
    base = math.floor(theta / math.pi) * math.pi
    return base + (alpha - base) % (2.0 * math.pi)


def prufer_phase(mu: float, V: Potential, L: float, tol: float = 1e-10) -> float:
    """Phase theta(L, mu) of the shooting solution with theta(-L, mu) = 0."""
    a = min(V.a, L)
    sigma = math.sqrt(mu) if mu > 0.0 else 1.0
    theta = _phase_free_advance(0.0, mu, sigma, L - a)
    if a > 0.0:
        def rhs(x, y):
            s2 = math.sin(y[0]) ** 2
            return ((mu - V(x)) * s2 / sigma + sigma * (1.0 - s2),)

        sol = adaptive_ivp(rhs, -a, a, [theta], rtol=tol, atol=0.01 * tol)
        theta = float(sol.y[0, -1])
    return _phase_free_advance(theta, mu, sigma, L - a)


def perturbed_eigenvalue(k: int, V: Potential, L: float, tol: float = 1e-10) -> float:
    """k-th Dirichlet eigenvalue of -d^2/dx^2 + V as the root of
    theta(L, mu) = k pi, bracketed around the free eigenvalue.

    By min-max the root lies within ||V||_inf of the free eigenvalue; the
    bracket widens geometrically if a sign change is not found at once.
    """
    if k < 1:
        raise ValueError("eigenvalue index starts at 1")
    lam = free_eigenvalue(k, L)
    ode_tol = max(1e-13, 0.01 * tol)
    target = k * math.pi

    def f(mu):
        return prufer_phase(mu, V, L, tol=ode_tol) - target

    pad = V.sup_abs + 1e-3 * max(1.0, lam)
    lo, hi = lam - pad, lam + pad
    for _ in range(60):
        if f(lo) < 0.0:
            break
        lo = lam - 2.0 * (lam - lo)
    else:
        raise SolverFailure(f"no lower bracket for eigenvalue {k}")
    for _ in range(60):
        if f(hi) > 0.0:
            break
        hi = lam + 2.0 * (hi - lam)
    else:
        raise SolverFailure(f"no upper bracket for eigenvalue {k}")

    xtol = max(1e-14, tol * 1e-2) * max(1.0, abs(lam))
    return float(brentq(f, lo, hi, xtol=xtol, rtol=max(4e-16, tol), maxiter=200))


@dataclass(frozen=True)
class PerturbedEigenpair:
    k: int
    mu: float
    psi: np.ndarray
    boundary_sign: int        # sign of psi'(-L)
    endpoint_residual: float  # |psi(L)| after normalization; eigenvalue error proxy


def _free_boundary_sign(k: int) -> int:
    """Sign of the k-th free eigenfunction's derivative at -L.

    Fixing the perturbed sign to the same value keeps eigenfunctions
    continuous in the coupling, so the V = 0 overlap matrix is the identity
    rather than a diagonal of mixed signs."""
    return 1 if k % 4 in (0, 1) else -1


def _left_tail(x, mu, L, a):
    """Shooting solution on [-L, -a], scaled so its size at -a is order one.

    mu > 0:  sin(sqrt(mu)(x+L)), value/derivative (sin, sqrt(mu) cos) at -a.
    mu <= 0: exp(-kappa(L-a)) sinh(kappa(x+L)) written with decaying
             exponentials only.
    """
    if mu > 1e-14:
        rm = math.sqrt(mu)
        return np.sin(rm * (x + L)), math.sin(rm * (L - a)), rm * math.cos(rm * (L - a))
    if mu < -1e-14:
        kap = math.sqrt(-mu)
        vals = 0.5 * (np.exp(kap * (x + a)) - np.exp(-kap * (x + 2.0 * L - a)))
        e2 = math.exp(-2.0 * kap * (L - a))
        return vals, 0.5 * (1.0 - e2), 0.5 * kap * (1.0 + e2)
    return x + L, L - a, 1.0


def _right_tail(x, mu, L, a, psi_a, dpsi_a):
    """Continuation on [a, L]; for mu <= 0 the Dirichlet end is enforced
    through the decaying sinh ratio so the growing branch cannot amplify
    eigenvalue roundoff across a long box."""
    if mu > 1e-14:
        rm = math.sqrt(mu)
        return psi_a * np.cos(rm * (x - a)) + dpsi_a * np.sin(rm * (x - a)) / rm
    if mu < -1e-14:
        kap = math.sqrt(-mu)
        num = -np.expm1(-2.0 * kap * (L - x))
        den = -math.expm1(-2.0 * kap * (L - a))
        return psi_a * np.exp(-kap * (x - a)) * num / den
    return psi_a * (L - x) / (L - a)


def perturbed_eigenfunction(k: int, mu: float, V: Potential, grid: Grid,
                            ode_tol: float = 1e-10) -> PerturbedEigenpair:
    """Normalized eigenfunction samples on the grid for an accepted eigenvalue.

    The solution is analytic outside the support of V and integrated through
    it; the overall sign of psi'(-L) copies the free eigenfunction's, so the
    family deforms continuously from the V = 0 basis.
    """
    L = grid.half_length
    a = min(V.a, L)
    x = grid.nodes
    psi = np.empty_like(x)

    left = x < -a
    mid = (x >= -a) & (x <= a)
    right = x > a

    vals, psi_ma, dpsi_ma = _left_tail(x[left], mu, L, a)
    psi[left] = vals

    mid_nodes = x[mid]
    t_eval = np.append(mid_nodes, a)

    def rhs(t, y):
        return (y[1], (V(t) - mu) * y[0])

    sol = adaptive_ivp(rhs, -a, a, [psi_ma, dpsi_ma], rtol=ode_tol,
                       atol=0.01 * ode_tol, t_eval=t_eval)
    psi[mid] = sol.y[0, :-1]
    psi_a, dpsi_a = sol.y[0, -1], sol.y[1, -1]

    psi[right] = _right_tail(x[right], mu, L, a, psi_a, dpsi_a)
    end_val = float(_right_tail(np.asarray([L]), mu, L, a, psi_a, dpsi_a)[0])

    sign = _free_boundary_sign(k)
    norm2 = float(grid.weights @ psi**2)
    psi *= sign / math.sqrt(norm2)
    return PerturbedEigenpair(k, mu, psi, sign, abs(end_val) / math.sqrt(norm2))


def eigenpairs(n: int, V: Potential, L: float, grid: Grid, tol: float = 1e-10):
    """Eigenvalues and normalized eigenfunction samples for k = 1..n.

    Returns (mus, Psi) with Psi of shape (n, grid.size); rows are independent
    solves, safe to distribute over workers.
    """
    mus = np.empty(n)
    Psi = np.empty((n, grid.size))
    for k in range(1, n + 1):
        mu = perturbed_eigenvalue(k, V, L, tol=tol)
        mus[k - 1] = mu
        Psi[k - 1] = perturbed_eigenfunction(k, mu, V, grid, ode_tol=tol).psi
    return mus, Psi


def count_below(E: float, V: Potential, L: float, phase_tol: float = 1e-8) -> int:
    """Number of eigenvalues below E, read off as floor(theta(L, E)/pi)."""
    theta = prufer_phase(E, V, L)
    q = theta / math.pi
    if abs(q - round(q)) * math.pi < phase_tol:
        raise AmbiguousEnergyError(f"E = {E} is within tolerance of an eigenvalue")
    return int(math.floor(q))


def bargmann_upper_bound(E: float, V: Potential, alpha: float, c_alpha: float,
                         L: float) -> float:
    """Upper bound (2L/pi) sqrt(E) + C_E on the count below E, valid when the
    negative part of V is dominated by c_alpha / (1+|x|)^(alpha+1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    xs = np.linspace(-V.a, V.a, 4097)
    v_minus = -np.clip(V(xs), None, 0.0)
    majorant = c_alpha / (1.0 + np.abs(xs)) ** (alpha + 1.0)
    if np.any(v_minus > majorant + 1e-12):
        raise ValueError("negative part of V exceeds the stated majorant")
    linf_minus = potential_norms(V).linf_minus
    c_e = 0.5 / E * (2.0 * c_alpha / (alpha * math.pi) * math.sqrt(linf_minus + E)
                     + linf_minus)
    return 2.0 * L / math.pi * math.sqrt(E) + c_e


def counting_lower_bound(E: float, V: Potential, L: float) -> float:
    """Lower bound (2L/pi) sqrt(E) - (2 ||V_+||_1 / pi)/sqrt(E) - 1 on the
    count below E; requires E >= (2/L) ||V_+||_1."""
    l1_plus = potential_norms(V).l1_plus
    if E < 2.0 * l1_plus / L:
        raise ValueError("E below the validity threshold of the lower bound")
    return 2.0 * L / math.pi * math.sqrt(E) - 2.0 * l1_plus / (math.pi * math.sqrt(E)) - 1.0
