"""Ground-state overlap matrix between the free and perturbed Dirichlet
problems, the Anderson integral, the transition probability, and the
determinant sandwich bounds.

One singular value decomposition of the N x N overlap block gives all three
numbers: with s the singular values, I = sum(1 - s^2), ln D = sum ln s^2 and
the projection defect is max |1 - s^2|.  Since ln s^2 <= s^2 - 1 the
Anderson inequality ln D <= -I holds term by term.  The transition
probability decays like a power of N and underflows quickly, so it is
carried in log space and all inequalities are compared on logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Grid, Potential, _support, smallness_report
from .free import fermi_energy, free_eigenfunction_matrix
from .perturbed import _free_boundary_sign, _wall_integrals, count_below, eigenpairs

__all__ = [
    "OverlapMatrix",
    "overlap_matrix",
    "anderson_integral",
    "log_transition_probability",
    "transition_probability",
    "defect_norm",
    "AndersonResult",
    "anderson_result",
    "DetBoundsReport",
    "det_bounds",
]


@dataclass(frozen=True)
class OverlapMatrix:
    """Entries A[j, k] = (phi_j, psi_k) for the first n modes of each basis."""

    n: int
    matrix: np.ndarray

    @cached_property
    def squared_singular_values(self) -> np.ndarray:
        """s^2 for the singular values s of the n x n block."""
        return np.linalg.svd(self.matrix[:, : self.n], compute_uv=False) ** 2


def overlap_matrix(n: int, V: Potential, L: float, grid: Grid,
                   tol: float = 1e-10) -> OverlapMatrix:
    """Overlap matrix (phi_j, psi_k) as the quadrature of phi_j psi_k on the
    grid's support nodes plus the exact integrals over the two field-free
    ends.  There phi_j is +-sin(p_j u)/sqrt(L), p_j = pi j / 2L, with sign
    s_j = ``_free_boundary_sign(j)`` at the left wall and (-1)^(j+1) s_j at
    the right one, and psi_k is its wall amplitude times w_k(u), so each end
    adds the amplitudes' product times int sin(p_j u) w_k of
    ``_wall_integrals``."""
    mus, psi, walls = eigenpairs(n, V, L, grid, tol=tol)
    x, w = _support(V, grid)
    j = np.arange(1, n + 1)
    tails = _free_boundary_sign(j) * np.array([np.ones(n), (-1.0) ** (j + 1)]) / math.sqrt(L)
    cross = _wall_integrals(mus, L - min(V.a, L), (math.pi / (2.0 * L)) * j)[1]
    return OverlapMatrix(n, (free_eigenfunction_matrix(n, L, x) * w) @ psi.T + (tails.T @ walls) * cross)


def anderson_integral(overlap: OverlapMatrix) -> float:
    """sum(1 - s^2) = N - |A|_F^2 over the N x N overlap block; the infinite
    tail over unoccupied perturbed modes is eliminated by completeness of the
    perturbed basis."""
    return float(np.sum(1.0 - overlap.squared_singular_values))


def log_transition_probability(overlap: OverlapMatrix) -> float:
    """log |det A|^2 = sum ln s^2; -inf if the matrix is numerically
    singular."""
    s2 = overlap.squared_singular_values
    if np.any(s2 == 0.0):
        return -math.inf
    return float(np.sum(np.log(s2)))


def transition_probability(overlap: OverlapMatrix) -> float:
    """|det A|^2; may underflow to zero for large N, in which case the log
    form remains meaningful."""
    return math.exp(log_transition_probability(overlap))


def defect_norm(overlap: OverlapMatrix) -> float:
    """Spectral norm of 1 - A A^T, max |1 - s^2|."""
    return float(np.max(np.abs(1.0 - overlap.squared_singular_values)))


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


def anderson_result(n: int, V: Potential, L: float, grid: Grid,
                    tol: float = 1e-10) -> AndersonResult:
    ov = overlap_matrix(n, V, L, grid, tol=tol)
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
