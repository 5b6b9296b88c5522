import math

import numpy as np
import pytest
from hypothesis import settings

from orthocat.core import build_grid, gaussian_truncated, square_well, table_potential

NU_UNIT_DENSITY = math.pi**2


@pytest.fixture(scope="session")
def well_attractive():
    return square_well(-0.5, 1.0)


@pytest.fixture(scope="session")
def well_repulsive():
    return square_well(0.5, 1.0)


@pytest.fixture(scope="session")
def well_weak():
    return square_well(0.1, 1.0)


@pytest.fixture(scope="session")
def gauss_bump():
    return gaussian_truncated(0.3, 0.5, 1.5)


@pytest.fixture(scope="session")
def table_mixed():
    # sign-changing piecewise-linear potential
    return table_potential([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.3, -0.2, 0.3, 0.0])


def grid_for(L, nu=NU_UNIT_DENSITY, a=1.0, npw=16):
    return build_grid(L, math.sqrt(nu), support=(-a, a), nodes_per_wavelength=npw)


def box_samples(psi, walls, mus, V, grid):
    """Eigenfunction samples at every node of a box grid, rows following
    ``mus``, from the samples at its support nodes (|x| <= a) and the
    amplitudes of the left and right wall solutions.  Off the support psi is
    its amplitude times sin(r u) for mu = r^2 > 0, u for mu = 0 and
    e^{-kappa d} sinh(kappa u) for mu = -kappa^2 < 0, with u the distance
    to the nearer wall and d = L - a."""
    mus = np.atleast_1d(mus)[:, None]
    walls = np.reshape(walls, (2, -1, 1))
    L = grid.half_length
    d = L - min(V.a, L)
    u = L - np.abs(grid.nodes)
    r = np.sqrt(np.abs(mus))
    with np.errstate(over="ignore", invalid="ignore"):
        tails = np.where(mus > 0.0, np.sin(r * u),
                         np.where(mus < 0.0, np.exp(-r * d) * np.sinh(r * u), u))
    out = np.where(grid.nodes < 0.0, walls[0], walls[1]) * tails
    out[:, np.abs(grid.nodes) <= V.a] = psi
    return out


@pytest.fixture(scope="session")
def grid_L1():
    return build_grid(1.0, math.pi / 2.0, support=(-1.0, 1.0))


# Property tests draw the same examples on every run, with no per-example
# deadline, so host load can neither change nor fail them.
settings.register_profile("orthocat", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("orthocat")
