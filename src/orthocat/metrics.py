"""Ground-state overlap matrix between the free and perturbed Dirichlet
problems, the Anderson integral, the transition probability, and the
determinant sandwich bounds.

Three reads of the N x N overlap block A give the three numbers, none an SVD: I = N - |A|_F^2,
ln D = 2 ln |det A| from one LU, and the projection defect max |1 - s^2| over the singular values
s of A from a block iteration.  Since ln s^2 <= s^2 - 1 the Anderson inequality ln D <= -I holds
term by term.  The transition probability decays like a power of N and underflows quickly, so it
is carried in log space and all inequalities are compared on logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Potential, _support, smallness_report
from .free import fermi_energy, free_eigenfunction_matrix
from .perturbed import _free_boundary_sign, _wall_integrals, count_below, eigenpairs

__all__ = [
    "OverlapMatrix",
    "overlap_matrix",
    "anderson_integral",
    "log_transition_probability",
    "defect_norm",
    "AndersonResult",
    "anderson_result",
    "DetBoundsReport",
    "det_bounds",
]

_DEFECT_ITERATIONS = 50  # the iteration cap of defect_norm


@dataclass(frozen=True)
class OverlapMatrix:
    """Entries A[j, k] = (phi_j, psi_k) for the first n modes of each basis."""

    n: int
    matrix: np.ndarray


def overlap_matrix(n: int, V: Potential, L: float, grid: Grid) -> OverlapMatrix:
    """Overlap matrix (phi_j, psi_k) in the box [-L, L] as the quadrature of
    phi_j psi_k on the grid's support nodes plus the exact integrals over the
    two field-free ends; the grid gives only its support nodes, all that a row's
    ``row_quadrature`` has.  There phi_j is +-sin(p_j u)/sqrt(L), p_j = pi j / 2L,
    with sign s_j = ``_free_boundary_sign(j)`` at the left wall and (-1)^(j+1) s_j
    at the right one, and psi_k is its wall amplitude times w_k(u), so each end
    adds the amplitudes' product times int sin(p_j u) w_k of ``_wall_integrals``."""
    mus, psi, walls = eigenpairs(n, V, L, grid)
    x, w = _support(V, grid)
    j = np.arange(1, n + 1)
    tails = _free_boundary_sign(j) * np.array([np.ones(n), (-1.0) ** (j + 1)]) / math.sqrt(L)
    cross = _wall_integrals(mus, L - min(V.a, L), (math.pi / (2.0 * L)) * j)[1]
    return OverlapMatrix(n, (free_eigenfunction_matrix(n, L, x) * w) @ psi.T + (tails.T @ walls) * cross)


def anderson_integral(overlap: OverlapMatrix) -> float:
    """N - |A|_F^2 over the N x N overlap block A, summed as sum_k (1 - |A e_k|^2);
    completeness of the perturbed basis removes the tail over unoccupied modes."""
    a = overlap.matrix[:, : overlap.n]
    return float(np.sum(1.0 - np.sum(a * a, axis=0)))


def log_transition_probability(overlap: OverlapMatrix) -> float:
    """log |det A|^2 = 2 log |det A| from one LU (``numpy.linalg.slogdet``);
    -inf if a pivot is zero."""
    sign, log_det = np.linalg.slogdet(overlap.matrix[:, : overlap.n])
    return -math.inf if sign == 0 else 2.0 * float(log_det)


def defect_norm(overlap: OverlapMatrix) -> float:
    """Spectral norm of 1 - A^T A, max |1 - s^2|: the top |Ritz value| theta of subspace iteration
    on B = 1 - A^T A (min(8, N) columns, fixed seed, Rayleigh-Ritz each step), a lower bound, once
    its Ritz vector u has |B u - theta u| <= 1e-12 |theta| + N eps, so an eigenvalue of B lies that
    close.  A top cluster (a strong barrier's) may not settle: past ``_DEFECT_ITERATIONS`` the
    dense eigenvalues of B answer, formed from E = A - 1 as -(E + E^T + E^T E)."""
    a, n = overlap.matrix[:, : overlap.n], overlap.n
    y = np.random.default_rng(0).standard_normal((n, min(8, n)))
    for _ in range(_DEFECT_ITERATIONS):
        q = np.linalg.qr(y)[0]
        y = q - a.T @ (a @ q)
        theta, u = np.linalg.eigh(q.T @ y)
        i = int(np.argmax(np.abs(theta)))
        if np.linalg.norm((y - theta[i] * q) @ u[:, i]) <= 1e-12 * abs(theta[i]) + n * np.finfo(float).eps:
            return float(abs(theta[i]))
    e = a - np.eye(n)
    return float(np.max(np.abs(np.linalg.eigvalsh(-(e + e.T + e.T @ e)))))


@dataclass(frozen=True)
class AndersonResult:
    """One (N, rho) instance: the Anderson integral, the overlap determinant
    in linear and log form, the projection defect, and the perturbed count
    below the Fermi energy."""

    n: int
    m: int
    anderson_integral: float
    log_transition: float
    transition: float
    defect_norm: float


def anderson_result(n: int, V: Potential, L: float, grid: Grid) -> AndersonResult:
    """The (N, rho) instance of N particles in the box [-L, L], from one
    overlap matrix and no SVD; the grid gives only its support nodes."""
    ov = overlap_matrix(n, V, L, grid)
    log_d = log_transition_probability(ov)
    return AndersonResult(
        n=n,
        m=count_below(fermi_energy(n, L), V, L),
        anderson_integral=anderson_integral(ov),
        log_transition=log_d,
        transition=math.exp(log_d) if log_d > -700 else 0.0,
        defect_norm=defect_norm(ov),
    )


@dataclass(frozen=True)
class DetBoundsReport:
    """Sandwich exp[-(1-defect)^{-1} I] <= D <= exp(-I) in log space, plus the
    a-priori bound on the projection defect for weak coupling."""

    log_value: float
    log_upper: float
    log_lower: float          # -inf when the defect reaches 1
    defect: float
    weak_coupling_bound: float      # 4 q_Omega C_Omega; inf unless q_Omega < 1
    q_omega: float

    @property
    def lower_defined(self) -> bool:
        return self.defect < 1.0

    @property
    def sandwich_holds(self) -> bool:
        upper_ok = self.log_value <= self.log_upper + 1e-10
        lower_ok = (not self.lower_defined) or (self.log_lower <= self.log_value + 1e-10)
        return upper_ok and lower_ok

    @property
    def defect_bound_holds(self) -> bool:
        return not math.isfinite(self.weak_coupling_bound) or self.defect <= self.weak_coupling_bound


def det_bounds(n: int, V: Potential, L: float, grid: Grid,
               result: AndersonResult | None = None) -> DetBoundsReport:
    if result is None:
        result = anderson_result(n, V, L, grid)
    coupling = smallness_report(V, fermi_energy(n, L))
    defect = result.defect_norm
    log_lower = (
        -result.anderson_integral / (1.0 - defect) if defect < 1.0 else -math.inf
    )
    return DetBoundsReport(
        log_value=result.log_transition,
        log_upper=-result.anderson_integral,
        log_lower=log_lower,
        defect=defect,
        weak_coupling_bound=4.0 * coupling.q_omega * coupling.c_omega,
        q_omega=coupling.q_omega,
    )
