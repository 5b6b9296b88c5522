"""Reference implementations that only the tests call: independent
checks on the library's fast routes, and the paper's lemmas, which no route
of the library runs.

* ``squared_resolvent_apply``: the squared resolvent applied by prefix sums,
  the reference for ``free._squared_resolvent_form``.
* ``omega_operator``: the dense resolvent inverse of the Birman-Schwinger
  operator, with its Neumann-bound check.
* The truncated resolvent, its Laplace decomposition, the constants
  ``kappa_n`` and ``kappa_tilde_n``, and the unimodular factor ``tau``.
* ``v_transform`` and ``scale_potential``.
* ``born_gamma``: gamma to second order in V, from the Fourier transform of V
  alone; it shares no code with the Magnus pass, the roots or the operator
  routes.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orthocat.core import Grid, Potential, SolverFailure, _panelize, smallness_report, support_quadrature
from orthocat.free import _squared_resolvent_generators, free_eigenfunction_matrix, free_eigenvalues
from orthocat.operators import birman_schwinger, sign_operator


def scale_potential(V: Potential, c: float) -> Potential:
    """The potential c*V with the same support."""
    return Potential(V.a, V.profile, c * V.amplitude, V.knots)


def v_transform(V: Potential, L: float, s: float, grid: Grid) -> float:
    """Exponentially weighted absolute integral of V over [-L, L],
    integral of |V(x)| e^{s |x|} dx."""
    if s < 0:
        raise ValueError("the transform is defined for s >= 0")
    x, w = grid.nodes, grid.weights
    mask = np.abs(x) <= L
    return float(np.sum(w[mask] * np.abs(V(x[mask])) * np.exp(s * np.abs(x[mask]))))


def _semiseparable_apply(a, b, Y):
    """sum_j a(min(t_i, t_j)) b(max(t_i, t_j)) Y_j at sorted points t, from
    a prefix sum over j <= i and a suffix sum over j > i."""
    head = np.cumsum(a[:, None] * Y, axis=0)
    tail = np.cumsum((b[:, None] * Y)[:0:-1], axis=0)[::-1]
    return b[:, None] * head + a[:, None] * np.concatenate([tail, np.zeros_like(head[:1])])


def squared_resolvent_apply(z, x, Y, L: float):
    """sum_j R(z)^2(x_i, x_j) Y[j] at the points x, for Y of shape (n, r).
    The kernel sum_j phi_j(x) phi_j(y) / (z - lambda_j)^2 is rank-two
    semi-separable plus rank-two separable (``_squared_resolvent_generators``),
    so the product takes prefix sums over the sorted points, O(n r), and the
    kernel is never formed."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    t, Y = x[order], np.asarray(Y)[order]
    pairs, deltas = _squared_resolvent_generators(z, t, L)
    out = sum(_semiseparable_apply(a, b, Y) for a, b in pairs) + sum(np.outer(f, f @ Y) for f in deltas)
    result = np.empty_like(out)
    result[order] = out
    return result


@dataclass(frozen=True)
class OmegaOperator:
    """Inverse (1 - sqrt(|V|) R(z) sqrt(|V|) J)^{-1} with its norm."""

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    sign: np.ndarray
    norm: float


def omega_operator(z, V: Potential, grid: Grid, L: float | None = None,
                   nu: float | None = None) -> OmegaOperator:
    """Resolvent inverse of the Birman-Schwinger operator at z.

    When the coupling measure q_omega is below one the returned norm is
    checked against its Neumann bound 1/(1 - q_omega); a violation would
    indicate a corrupted discretization rather than an unlucky potential.
    """
    bs = birman_schwinger(z, V, grid, L)
    J = sign_operator(V, bs.nodes)
    system = np.eye(bs.nodes.size, dtype=complex) - bs.matrix * J[None, :]
    try:
        omega = np.linalg.solve(system, np.eye(bs.nodes.size, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"Birman-Schwinger system singular at z = {z}; "
                            "z may coincide with a perturbed eigenvalue") from exc
    sw = np.sqrt(bs.weights)
    norm = float(np.linalg.norm(sw[:, None] * omega / sw[None, :], 2))
    if nu is None:
        nu = abs(complex(z))
    rep = smallness_report(V, nu)
    if rep.q_omega < 1.0 and norm > rep.c_omega * (1.0 + 1e-8):
        raise SolverFailure(f"Neumann bound violated: |Omega| = {norm} > {rep.c_omega}")
    return OmegaOperator(bs.nodes, bs.weights, omega, J, norm)


def truncated_resolvent_direct(n: int, z, x, y, L: float):
    """Spectral sum over the first n modes, sum_j phi_j(x) phi_j(y)/(z - lambda_j);
    broadcasts (x, y) elementwise like the kernel routines."""
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = xb.shape
    if n == 0:
        out = np.zeros(shape, dtype=complex)
        return out if shape else 0j
    lam = free_eigenvalues(L, n)
    px = free_eigenfunction_matrix(n, L, xb.ravel())
    py = free_eigenfunction_matrix(n, L, yb.ravel())
    vals = np.einsum("j,jp,jp->p", 1.0 / (complex(z) - lam), px, py)
    return vals.reshape(shape) if shape else complex(vals[0])


def _kappa_integral(zeta: float, M: float, tilde: bool = False) -> float:
    """Laplace integral over v in [0, inf) on graded Gauss panels: the first
    0.25 / (zeta + M + 1/2) wide, where the fastest exponential varies, then
    doubling out to 40 / (zeta - M + 1/2), where the slowest has fallen to
    e^{-40}.  Both integrands use only decaying exponentials, so they stay
    finite for any v."""
    slow, fast = zeta - M + 0.5, zeta + M + 0.5
    edges = [0.0, 0.25 / fast]
    while edges[-1] < 40.0 / slow:
        edges.append(2.0 * edges[-1])
    v, w, _ = _panelize(edges, np.diff(edges))  # one panel per interval
    if tilde:
        f = (np.exp(-slow * v) + np.exp(-fast * v)) / (1.0 + np.exp(-v))
    else:
        f = np.exp(-slow * v) * np.expm1(-2.0 * M * v) / np.expm1(-v)
    return float(np.dot(w, f))


def kappa_n(N: int) -> float:
    """Laplace constant integral_0^inf e^{-(N+1/2)t} sinh((N+1/2)t)/sinh(t/2) dt;
    grows like log(4N+3) with a remainder in [0, 2]."""
    if N < 1:
        raise ValueError("index starts at 1")
    M = N + 0.5
    return _kappa_integral(M, M, tilde=False)


def kappa_tilde_n(N: int) -> float:
    """Companion constant with cosh ratios; bounded by 4 for all N."""
    if N < 1:
        raise ValueError("index starts at 1")
    M = N + 0.5
    return _kappa_integral(M, M, tilde=True)


def _sine_ratio(u, M: float):
    """sin(M u)/sin(u/2), analytic on |u| < 2 pi (value 2M at u = 0)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-150
    safe = np.where(small, 1.0, u)
    out = np.sin(M * safe) / np.sin(0.5 * safe)
    return np.where(small, 2.0 * M, out)


def _cosine_ratio(u, M: float, sin_Mpi: float):
    """cos(M u)/cos(u/2) through its sine form around u = pi, which stays
    well-conditioned at the removable point u = pi (M half-integer)."""
    d = np.asarray(u, dtype=float) - math.pi
    small = np.abs(d) < 1e-150
    safe = np.where(small, 1.0, d)
    out = sin_Mpi * np.sin(M * safe) / np.sin(0.5 * safe)
    return np.where(small, sin_Mpi * 2.0 * M, out)


def _oscillatory_panel_integral(f, A: float, max_freq: float):
    """Oriented integral of f over [0, A] on panels short enough that the
    fastest oscillation covers at most half a period per panel."""
    if A == 0.0:
        return 0.0
    width = math.pi / (2.0 * max(max_freq, 1.0))
    u, w, _ = _panelize([min(0.0, A), max(0.0, A)], [width])
    return math.copysign(1.0, A) * np.dot(w, f(u))


@dataclass(frozen=True)
class TruncatedResolventParts:
    """Pieces of the Laplace decomposition of the truncated resolvent kernel at
    real energy above the retained modes."""

    kappa: float
    kappa_tilde: float
    s0: float
    s0_tilde: float
    s1: float
    s1_tilde: float
    value: float


def truncated_resolvent_decomposed(n: int, z: float, x: float, y: float, L: float) -> TruncatedResolventParts:
    """Closed-form decomposition of the truncated resolvent kernel: constants
    from Laplace integrals times plane-wave kernels, minus finite oscillatory
    corrections.  Requires real z with sqrt(z) > pi n / 2L."""
    z = float(z)
    if not (z > 0 and math.sqrt(z) > math.pi * n / (2.0 * L)):
        raise ValueError("decomposition needs real z with sqrt(z) > pi n / 2L")
    rz = math.sqrt(z)
    zeta = 2.0 * L * rz / math.pi
    M = n + 0.5
    sin_Mpi = math.sin(M * math.pi)

    kappa = _kappa_integral(zeta, M, tilde=False)
    kappa_t = _kappa_integral(zeta, M, tilde=True)
    s0 = math.cos(rz * (x - y)) / (2.0 * math.pi * rz)
    s0_t = math.cos(rz * (x + y)) / (2.0 * math.pi * rz)

    a_minus = math.pi * (x - y) / (2.0 * L)
    a_plus = math.pi * (x + y) / (2.0 * L)
    max_freq = zeta + M

    def f_minus(u):
        return np.sin(zeta * (u - a_minus)) * _sine_ratio(u, M)

    def f_plus(u):
        return np.sin(zeta * (u - a_plus)) * _cosine_ratio(u, M, sin_Mpi)

    s1 = _oscillatory_panel_integral(f_minus, a_minus, max_freq) / (2.0 * math.pi * rz)
    s1_t = _oscillatory_panel_integral(f_plus, a_plus, max_freq) / (2.0 * math.pi * rz)

    sign = -1.0 if n % 2 else 1.0
    value = kappa * s0 - s1 - sign * (kappa_t * s0_t - s1_t)
    return TruncatedResolventParts(kappa, kappa_t, s0, s0_t, s1, s1_t, value)


def tau(s):
    """Unimodular factor (cosh s - i sinh s)/(cosh s + i sinh s); equals 1 at
    s = 0 and tends to -i as s -> +inf."""
    s_arr = np.asarray(s, dtype=float)
    th = np.tanh(s_arr)
    out = (1.0 - 1j * th) / (1.0 + 1j * th)
    return np.asarray(out) if s_arr.ndim else complex(out)


def born_gamma(V: Potential, nu: float) -> float:
    """gamma to second order in V, (|V^(0)|^2 + |V^(2k)|^2) / (8 pi^2 nu) with
    k = sqrt(nu) and V^(q) = int V(x) e^{iqx} dx on ``support_quadrature``."""
    grid = support_quadrature(V)
    v = grid.weights * V(grid.nodes)
    forward, backward = np.sum(v), v @ np.exp(2j * math.sqrt(nu) * grid.nodes)
    return float((forward**2 + abs(backward) ** 2) / (8.0 * math.pi**2 * nu))
