"""Shared domain objects and decisions: compactly supported potentials, the
Gauss-Legendre panels of every quadrature (``_panelize``; the library's own
lie on the support of V, broken at its knots, by ``_break_panels``), the nodes
of a grid on the support of V (``_support``), thermodynamic system configuration,
potential norms and the weak-coupling measures, and the errors
(``ConfigurationError``, ``SolverFailure``).

All quantities use natural units (hbar = 2m = 1), so the kinetic operator is
-d^2/dx^2, energies are squared wavenumbers, and lengths are inverse
wavenumbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "ConfigurationError",
    "SolverFailure",
    "Potential",
    "square_well",
    "gaussian_truncated",
    "table_potential",
    "PotentialNorms",
    "potential_norms",
    "SmallnessReport",
    "smallness_report",
    "Grid",
    "build_grid",
    "support_quadrature",
    "SystemConfig",
]


class ConfigurationError(ValueError):
    """Requested parameters violate a documented precondition."""


class SolverFailure(RuntimeError):
    """A numerical method failed: it did not converge, met a singular system,
    or returned a result that failed its own consistency check."""


def _table(xs, x, values):
    return np.interp(x, xs, values, 0.0, 0.0)


def _gaussian(sigma, a, x, v0):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= a, v0 * np.exp(-0.5 * (x / sigma) ** 2), 0.0)


@dataclass(frozen=True, eq=False)
class Potential:
    """Real-valued potential that vanishes identically outside [-a, a].

    ``profile(x, amplitude)`` evaluates V anywhere on the real line and is
    linear in ``amplitude``, so scaling V scales only the amplitude.  Two
    profiles exist:

    * ``table_potential``:      linear interpolation through (xs, values),
      zero outside [xs[0], xs[-1]]; amplitude = values.  The square well is
      the two-knot table ([-a, a], [v0, v0]).
    * ``gaussian_truncated``:   v0 exp(-x^2/2 sigma^2) cut off at |x| = a;
      amplitude = v0.

    ``knots`` are the interior abscissae where V is not smooth.  V is smooth
    and monotone between consecutive ``breaks``, the sorted points of
    {-a, 0, a} and the knots, so the extremes ``vmin`` and ``vmax`` over
    [-a, a] are fixed once, here.

    Instances are immutable and safe to share between parallel workers.
    """

    a: float
    profile: Callable
    amplitude: np.ndarray | float
    knots: np.ndarray
    breaks: np.ndarray = field(init=False)
    vmin: float = field(init=False)
    vmax: float = field(init=False)

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ConfigurationError("support half-width must be positive and finite")
        self.knots.flags.writeable = False
        breaks = np.unique(np.concatenate([[-self.a, 0.0, self.a], self.knots]))
        breaks.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)
        extremes = self(breaks)
        object.__setattr__(self, "vmin", float(np.min(extremes)))
        object.__setattr__(self, "vmax", float(np.max(extremes)))
        if not (math.isfinite(self.vmin) and math.isfinite(self.vmax)):
            raise ConfigurationError("potential values must be finite")

    def __call__(self, x):
        """Evaluate V(x); exact zero for |x| > a."""
        values = self.profile(x, self.amplitude)
        return values if values.ndim else float(values)

    @property
    def sup_abs(self) -> float:
        """Exact sup |V|."""
        return max(self.vmax, -self.vmin)


def square_well(v0: float, a: float) -> Potential:
    """Constant well/barrier of height v0 on [-a, a]: the two-knot table
    through (-a, v0) and (a, v0)."""
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise ConfigurationError("support half-width must be positive and finite")
    return table_potential([-a, a], [v0, v0])


def gaussian_truncated(v0: float, sigma: float, a: float) -> Potential:
    """Gaussian bump v0 exp(-x^2 / 2 sigma^2) cut off at |x| = a."""
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    return Potential(float(a), partial(_gaussian, float(sigma), float(a)),
                     float(v0), np.empty(0))


def table_potential(xs, values) -> Potential:
    """Piecewise-linear potential through the given (x, V) samples."""
    xs = np.array(xs, dtype=float)
    values = np.array(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
        raise ConfigurationError("table potential needs matching 1-d abscissae/values")
    if np.any(np.diff(xs) <= 0):
        raise ConfigurationError("table abscissae must be strictly increasing")
    a = float(max(abs(xs[0]), abs(xs[-1])))
    xs.flags.writeable = False
    values.flags.writeable = False
    return Potential(a, partial(_table, xs), values, xs[(xs > -a) & (xs < a)])


@dataclass(frozen=True)
class Grid:
    """Composite Gauss-Legendre quadrature on [-L, L].

    ``nodes`` are strictly increasing and interior to their panels, so no node
    coincides with a panel boundary (in particular not with the box endpoints
    or the support edges of a potential).
    """

    nodes: np.ndarray
    weights: np.ndarray
    panel_boundaries: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.panel_boundaries):
            arr.flags.writeable = False
        if np.any(np.diff(self.nodes) <= 0):
            raise ConfigurationError("grid nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ConfigurationError("grid weights must be positive")

    @property
    def half_length(self) -> float:
        return float(self.panel_boundaries[-1])

    @property
    def size(self) -> int:
        return self.nodes.size


# Gauss-Legendre order of every quadrature panel in the package, and its rule
# on [-1, 1].
NODES_PER_PANEL = 12
_GAUSS_RULE = np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def _panelize(breaks, widths):
    """Fill each region between consecutive breakpoints with Gauss panels."""
    t, wt = _GAUSS_RULE
    nodes, weights, bounds = [], [], [breaks[0]]
    for lo, hi, width in zip(breaks[:-1], breaks[1:], widths):
        n_panels = max(1, int(math.ceil((hi - lo) / width - 1e-12)))
        edges = np.linspace(lo, hi, n_panels + 1)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (p_hi - p_lo)
            nodes.append(0.5 * (p_lo + p_hi) + half * t)
            weights.append(half * wt)
            bounds.append(p_hi)
    return (
        np.concatenate(nodes),
        np.concatenate(weights),
        np.asarray(bounds, dtype=float),
    )


def _box_support(L, wavenumber_hint, support, nodes_per_wavelength):
    """Check a grid's parameters; the support (lo, hi) clipped to [-L, L]."""
    if L <= 0:
        raise ConfigurationError("box half-length must be positive")
    if wavenumber_hint <= 0:
        raise ConfigurationError("wavenumber hint must be positive")
    if nodes_per_wavelength < 8:
        raise ConfigurationError("need at least 8 nodes per wavelength")
    lo, hi = float(support[0]), float(support[1])
    if lo < -L - 1e-12 or hi > L + 1e-12 or lo >= hi:
        raise ConfigurationError(f"support [{lo}, {hi}] not inside [-{L}, {L}]")
    return max(lo, -L), min(hi, L)


def build_grid(L: float, wavenumber_hint: float, support,
               nodes_per_wavelength: int = 16) -> Grid:
    """Composite Gauss-Legendre grid on [-L, L] resolving oscillations at the
    given wavenumber, with panel breaks at the ends of ``support = (lo, hi)``.

    Panel boundaries always include the support endpoints and the origin.  On
    the support the panel width is half of one nodes_per_wavelength-th of the
    hint wavelength: kernels restricted there carry |x-y| kinks and potential
    jumps, and the extra subdivision keeps Nystrom norms stable to 1e-6 under
    density doubling.  Outside, where every integrand is smooth trigonometry,
    panels are NODES_PER_PANEL times the base width, which still places
    nodes_per_wavelength quadrature nodes on each oscillation.
    """
    lo, hi = _box_support(L, wavenumber_hint, support, nodes_per_wavelength)
    wavelength = 2.0 * math.pi / wavenumber_hint
    fine = 0.5 * wavelength / nodes_per_wavelength
    coarse = NODES_PER_PANEL * wavelength / nodes_per_wavelength

    breaks = np.array(sorted({-L, lo, 0.0, hi, L}))
    breaks = breaks[np.r_[True, np.diff(breaks) > 1e-12 * max(1.0, L)]]
    widths = [
        fine if (b0 >= lo - 1e-12 and b1 <= hi + 1e-12) else coarse
        for b0, b1 in zip(breaks[:-1], breaks[1:])
    ]
    nodes, weights, bounds = _panelize(breaks, widths)
    return Grid(nodes, weights, bounds)


def _support(V: Potential, grid: Grid):
    """The nodes of ``grid`` on the support of V, |x| <= a, and their weights."""
    mask = np.abs(grid.nodes) <= V.a
    return grid.nodes[mask], grid.weights[mask]


def _break_panels(V: Potential, width: float) -> Grid:
    """Gauss panels no wider than ``width`` on the support of V, broken at ``V.breaks``."""
    return Grid(*_panelize(V.breaks, [width] * (len(V.breaks) - 1)))


def support_quadrature(V: Potential) -> Grid:
    """``_break_panels`` no wider than a sixteenth of the support."""
    return _break_panels(V, 2.0 * V.a / 16)


def kernel_quadrature(V: Potential, nu: float, nodes_per_wavelength: int) -> Grid:
    """The operator routes' quadrature: ``_break_panels`` at ``build_grid``'s support width, half of
    one nodes_per_wavelength-th of the Fermi wavelength 2 pi / sqrt(nu), since their kernels carry a
    kink at x = y inside every panel.  Raises ``ConfigurationError`` below 8 nodes per wavelength."""
    if nodes_per_wavelength < 8:
        raise ConfigurationError("need at least 8 nodes per wavelength")
    return _break_panels(V, 0.5 * (2.0 * math.pi / math.sqrt(nu)) / nodes_per_wavelength)


def row_quadrature(V: Potential, L: float, nu: float) -> Grid:
    """A row's support quadrature in the box [-L, L]: ``_break_panels`` at 16 nodes per wavelength of
    the largest local wavenumber or decay rate sqrt(nu + sup |V|), one panel of ``NODES_PER_PANEL``
    nodes per 3/4 of that wavelength.  The density reads only V and nu.  Raises ``build_grid``'s
    ``ConfigurationError`` unless [-a, a] lies in [-L, L]."""
    k = math.sqrt(nu + V.sup_abs)
    _box_support(L, k, (-V.a, V.a), 16)
    return _break_panels(V, NODES_PER_PANEL * 2.0 * math.pi / (k * 16))


@dataclass(frozen=True)
class PotentialNorms:
    """Integral and sup norms of a potential used by the operator bounds."""

    l1: float        # ||V||_1
    linf: float      # ||V||_inf
    x1_l1: float     # ||X V||_1
    x2_l1: float     # ||X^2 V||_1
    l1_plus: float   # ||max(V, 0)||_1
    linf_minus: float  # ||min(V, 0)||_inf


def potential_norms(V: Potential) -> PotentialNorms:
    """Norms of V by ``support_quadrature``; the sup norms are read off V's exact extremes."""
    grid = support_quadrature(V)
    x, w = grid.nodes, grid.weights
    v = V(x)
    av = np.abs(v)
    l1 = float(w @ av)
    x1 = float(w @ (np.abs(x) * av))
    x2 = float(w @ (x * x * av))
    l1p = float(w @ np.clip(v, 0.0, None))
    return PotentialNorms(l1, V.sup_abs, x1, x2, l1p, max(0.0, -V.vmin))


@dataclass(frozen=True)
class SmallnessReport:
    """Dimensionless coupling measures controlling the Neumann-series
    invertibility guarantees; each must be < 1 for the associated bound."""

    q_omega: float   # 4 ||V||_1 / sqrt(nu)
    q_inf: float     # (3/2) ||V||_1 / sqrt(nu)
    q_phi: float     # (1/2) ||V||_1 / sqrt(nu)
    z_cond: float    # ||V||_1 C_phi / sqrt(nu)

    @property
    def c_omega(self) -> float:
        return 1.0 / (1.0 - self.q_omega) if self.q_omega < 1.0 else math.inf

    def as_dict(self) -> dict:
        return asdict(self)


def smallness_report(V: Potential, nu: float) -> SmallnessReport:
    l1 = potential_norms(V).l1
    root = math.sqrt(nu)
    q_phi = 0.5 * l1 / root
    c_phi = 1.0 / (1.0 - q_phi) if q_phi < 1.0 else math.inf
    return SmallnessReport(4.0 * l1 / root, 1.5 * l1 / root, q_phi, l1 * c_phi / root)


@dataclass(frozen=True)
class SystemConfig:
    """Thermodynamic-limit bookkeeping at fixed density.

    The box half-length is tied to the particle count through
    L = (N + 1/2) / (2 rho), which keeps the Fermi energy nu = pi^2 rho^2
    constant along a sweep.
    """

    rho: float
    N: int

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ConfigurationError("density must be positive and finite")
        if self.N < 1:
            raise ConfigurationError("particle count must be at least 1")

    @property
    def L(self) -> float:
        return (self.N + 0.5) / (2.0 * self.rho)

    @property
    def nu(self) -> float:
        return (math.pi * self.rho) ** 2
