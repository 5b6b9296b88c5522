"""Nystrom discretization of the sandwiched operator calculus: the
Birman-Schwinger operator, its resolvent inverse, the 2x2 reduction that
yields the matrix route to gamma(nu), the contour representation of the
Anderson integral, and a numerical audit of the operator-norm inequalities.

All integral operators are sandwiched between sqrt(|V|) factors, so every
matrix lives on the quadrature nodes inside the support of V.  Matrices are
stored unweighted (kernel values times the sqrt(|V|) factors); composition
with the quadrature is explicit.  Operator norms in L^2 are spectral norms of
the symmetrized matrix D_sqrt(w) K D_sqrt(w).  A singular system or a failed
consistency check raises ``core.SolverFailure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Grid, Potential, SolverFailure, _panelize, _support, potential_norms, smallness_report
from .free import (
    _green_kernel_solve,
    _helmholtz_solve,
    _squared_resolvent_form,
    fermi_contour_point,
    fermi_energy,
    free_eigenfunction_matrix,
    free_eigenvalues,
    green_kernel,
)
from .perturbed import count_below

__all__ = [
    "NystromOperator",
    "sign_operator",
    "birman_schwinger",
    "OmegaOperator",
    "omega_operator",
    "phi_hat",
    "gamma_matrix",
    "contour_anderson",
    "AuditItem",
    "bounds_audit",
]


@dataclass(frozen=True)
class NystromOperator:
    """Dense sandwiched integral operator sqrt(|V|) K sqrt(|V|) on the
    support nodes; ``kernel`` excludes quadrature weights."""

    nodes: np.ndarray
    weights: np.ndarray
    kernel: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Collocation matrix kernel * w_j, the discrete action on samples."""
        return self.kernel * self.weights[None, :]

    @property
    def symmetrized(self) -> np.ndarray:
        sw = np.sqrt(self.weights)
        return sw[:, None] * self.kernel * sw[None, :]

    def norm(self) -> float:
        """L^2 operator norm (largest singular value of the symmetrization)."""
        return float(np.linalg.norm(self.symmetrized, 2))


def sign_operator(V: Potential, nodes: np.ndarray) -> np.ndarray:
    """Diagonal of the unitary J = sign(V) on the nodes, with sign(0) := +1."""
    return np.where(V(nodes) < 0.0, -1.0, 1.0)


def birman_schwinger(z, V: Potential, grid: Grid, L: float | None = None) -> NystromOperator:
    """sqrt(|V|) R(z) sqrt(|V|) on the support nodes."""
    if L is None:
        L = grid.half_length
    x, w = _support(V, grid)
    sq = np.sqrt(np.abs(V(x)))
    kern = green_kernel(z, x[:, None], x[None, :], L)
    return NystromOperator(x, w, sq[:, None] * kern * sq[None, :])


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


def phi_hat(nu: float, V: Potential, grid: Grid) -> np.ndarray:
    """Symmetric 2x2 reduction of the whole-line comparison operator onto
    the sine and cosine directions, the only input to the matrix route for
    gamma: the weighted inner products (omega_a, J Phi omega_b), where Phi
    inverts 1 - sqrt(|V|) K sqrt(|V|) J and K has the kernel sin(k|x-y|) / 2k,
    k = sqrt(nu).

    K = -i e^{ik|x-y|} / 2k + (i/2k) (cos kx cos ky + sin kx sin ky) is solved
    in O(n) by ``free._helmholtz_solve``; the system is real, so the solution
    is its real part, and an imaginary part above 1e-10 of it raises
    SolverFailure.  Everything lives on the support of V, so the result does
    not depend on the box size.
    """
    if nu <= 0:
        raise ValueError("energy must be positive")
    x, w = _support(V, grid)
    root = math.sqrt(nu)
    sq = np.sqrt(np.abs(V(x)))
    wj = w * sign_operator(V, x)
    sn, cs = np.sin(root * x), np.cos(root * x)
    omega = np.column_stack([sq * sn, sq * cs])
    sols = _helmholtz_solve(root, x, sq, sq * wj, np.column_stack([cs, sn]), (0.5j / root) * np.eye(2), omega)
    if np.abs(sols.imag).max() > 1e-10 * np.abs(sols.real).max():
        raise SolverFailure("complex solution of the real comparison system")
    mat = omega.T @ (wj[:, None] * sols.real)
    asym = np.abs(mat - mat.T).max()
    if asym > 1e-8 * max(1.0, np.abs(mat).max()):
        raise SolverFailure(f"lost self-adjointness of the 2x2 reduction: {asym}")
    return 0.5 * (mat + mat.T)


def gamma_matrix(nu: float, V: Potential, grid: Grid) -> float:
    """Orthogonality exponent from the 2x2 reduction,
    gamma = tr[(1 + F^2/4nu)^{-1} F^2] / (4 pi^2 nu) with F the phi_hat
    matrix, summed over the eigenvalues f of the symmetric F as
    sum f^2 / (1 + f^2/4nu): non-negative by construction."""
    f2 = np.linalg.eigvalsh(phi_hat(nu, V, grid)) ** 2
    return float(np.sum(f2 / (1.0 + f2 / (4.0 * nu)))) / (4.0 * math.pi**2 * nu)


def contour_anderson(N: int, V: Potential, L: float, grid: Grid) -> float:
    """Anderson integral through its contour representation,
    (1/2 pi i) * integral over the Fermi parabola of tr[P_N R T R^2 T] dz.

    Each contour node makes one O(n) solve in the n support nodes,
    u_j = A^{-1} sqrt|V| phi_j with A = 1 - sqrt|V| R sqrt|V| J
    (``free._green_kernel_solve``: the Green kernel is an outgoing wave plus a
    rank-two reflection, and no n x n matrix is formed).  diag(w J) A is
    complex-symmetric, so by reciprocity the trace term
    (sqrt|V| phi_j)^T w J A^{-1} sqrt|V| R^2 Y_j is the quadratic form
    Y_j^T R^2 Y_j, Y_j = sqrt|V| w J u_j, and needs no second solve; R^2 =
    -dR/dz is rank-two semi-separable plus rank-two separable, so the form
    takes prefix sums.  The s >= 0 half suffices by conjugation symmetry.

    The integrand has poles where (sqrt(nu) + i s)^2 meets a free or a
    perturbed level mu, on the imaginary s axis at the pole gap
    |sqrt(mu) - sqrt(nu)|.  Levels of channel c sit at
    sqrt(mu) = (pi/2L)(j - delta_c/pi), so the gap is at least
    (pi/2L)(1/2 - |delta_c|/pi).  A Gauss panel (``core.NODES_PER_PANEL``
    nodes) converges fast while its width is at most a few times its
    distance to the nearest pole: one panel on [0, w/8],
    w = 1/max(L - a, L/2), no wider than the gap, then panels tripling in
    width, each twice as wide as its distance from s = 0, out to the cut.
    For L >> a, w/8 ~ 1/8L, so the rule covers |delta_c| <= 0.42 pi.  The
    integrand decays like s^-6: the part beyond s = 128 measured 1-2e-8 of I
    (wells, a table, a Gaussian; N = 10, 40), 30 times less per doubling.
    The cut is s = 128, or 690 / a past a = 5.4, where the kernels' domain
    ends.

    The parabola encloses the M perturbed levels below nu, so the integral is
    the Anderson integral only when M = N; otherwise ConfigurationError.
    """
    nu = fermi_energy(N, L)
    m = count_below(nu, V, L)
    if m != N:
        raise ConfigurationError(f"contour route needs M = N, but M = {m} perturbed levels "
                                 f"lie below nu for N = {N}")
    root = math.sqrt(nu)
    s_cut = min(128.0, 690.0 / V.a)

    x, w = _support(V, grid)
    sq = np.sqrt(np.abs(V(x)))
    d = sq * w * sign_operator(V, x)  # sqrt|V| w J
    lam_low = free_eigenvalues(L, N)
    v_mat = sq[:, None] * free_eigenfunction_matrix(N, L, x).T  # (n, N)

    edges = [0.0, min(0.125 / max(L - V.a, 0.5 * L), s_cut)]
    while edges[-1] < s_cut:
        edges.append(min(3.0 * edges[-1], s_cut))
    s_nodes, s_weights, _ = _panelize(edges, np.diff(edges))  # one panel per interval

    total = 0.0
    for s, ws in zip(s_nodes, s_weights):
        z = fermi_contour_point(nu, s)
        u = _green_kernel_solve(z, x, sq, d, L, v_mat)  # Omega sqrt|V| phi_j
        trace = np.sum(_squared_resolvent_form(z, x, d[:, None] * u, L) / (z - lam_low))
        total += ws * (2.0 / math.pi) * ((root + 1j * s) * trace).real
    return float(total)


@dataclass(frozen=True)
class AuditItem:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-12) + 1e-12

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def bounds_audit(V: Potential, N: int, L: float, grid: Grid, result) -> list[AuditItem]:
    """Numerical check of the operator-norm inequalities at the contour points
    s = 0, 0.1, 1 and 5, plus the overlap-determinant inequality of the row
    ``result`` (an ``AndersonResult``) and the discrete sum estimate.  Only the
    grid's support nodes are read.  Violations are reported, not raised."""
    nu = fermi_energy(N, L)
    root = math.sqrt(nu)
    norms = potential_norms(V)
    x, w = _support(V, grid)
    sq = np.sqrt(np.abs(V(x)))
    lam = free_eigenvalues(L, N)
    phi = free_eigenfunction_matrix(N, L, x)
    items: list[AuditItem] = []

    for s in (0.0, 0.1, 1.0, 5.0):
        z = fermi_contour_point(nu, s)
        arg = L * (root + 1j * s)
        envelope = 4.0 * math.exp(-2.0 * L * abs(s))
        sin2 = abs(np.sin(arg)) ** 2 if L * abs(s) < 300 else math.inf
        cos2 = abs(np.cos(arg)) ** 2 if L * abs(s) < 300 else math.inf
        items.append(AuditItem(f"inverse_sine_bound[s={s}]", 1.0 / sin2, envelope))
        items.append(AuditItem(f"inverse_cosine_bound[s={s}]", 1.0 / cos2, envelope))

        bs_norm = birman_schwinger(z, V, grid, L).norm()
        items.append(
            AuditItem(
                f"birman_schwinger_norm[s={s}]",
                bs_norm,
                4.0 * norms.l1 / math.sqrt(nu + s * s),
            )
        )

        kern_sn = (phi.T / (z - lam)) @ phi
        items.append(
            AuditItem(
                f"truncated_resolvent_norm[s={s}]",
                NystromOperator(x, w, sq[:, None] * kern_sn * sq[None, :]).norm(),
                8.0 / math.pi * norms.l1 * math.log(N + 1.0) / math.sqrt(nu + s * s),
            )
        )

    kern_g = np.sin(root * np.abs(x[:, None] - x[None, :]))
    items.append(AuditItem("plane_wave_kernel_norm",
                           NystromOperator(x, w, sq[:, None] * kern_g * sq[None, :]).norm(), norms.l1))

    items.append(
        AuditItem(
            "overlap_vs_anderson_exponential",
            result.log_transition,
            -result.anderson_integral + 1e-10,
        )
    )

    # sum_{j<=n} 1/(n + 1/2 - j) = sum_{m<n} 1/(m + 1/2), for n = 1..500
    n = np.arange(1, 501)
    lhs = np.cumsum(1.0 / (n - 0.5))
    worst = float(np.max(lhs - 4.0 * np.log(n + 1.0)))
    items.append(AuditItem("half_integer_sum_estimate", worst, 0.0))
    return items
