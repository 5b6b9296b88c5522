import math

import numpy as np
import pytest
from scipy.integrate import quad

from orthocat.core import (
    ConfigurationError,
    _support,
    build_grid,
    gaussian_truncated,
    kernel_quadrature,
    potential_norms,
    square_well,
    support_quadrature,
    SystemConfig,
)
from orthocat.free import free_eigenfunction_matrix

from conftest import grid_for
from reference import scale_potential, v_transform


class TestBuildGrid:
    def test_weights_integrate_constants(self, grid_L1):
        assert abs(np.sum(grid_L1.weights) - 2.0) < 1e-12 * 2.0

    def test_odd_function_integrates_to_zero(self, grid_L1):
        assert abs(grid_L1.weights @ grid_L1.nodes) < 1e-12

    def test_sin_squared_integral(self, grid_L1):
        # antiderivative x/2 - sin(pi x)/(2 pi) on [-1, 1] gives exactly 1
        val = grid_L1.weights @ np.sin(0.5 * math.pi * grid_L1.nodes) ** 2
        assert abs(val - 1.0) < 1e-12

    def test_polynomial_exactness(self):
        grid = grid_for(2.0)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(18)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.0) - poly.integ()(-2.0)
        val = grid.weights @ poly(grid.nodes)
        assert abs(val - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_panel_boundaries_include_support_and_origin(self):
        grid = build_grid(3.0, math.pi, support=(-1.5, 1.5))
        for point in (-1.5, 0.0, 1.5, -3.0, 3.0):
            assert np.min(np.abs(grid.panel_boundaries - point)) < 1e-12

    def test_nodes_strictly_increasing(self, grid_L1):
        assert np.all(np.diff(grid_L1.nodes) > 0)

    def test_support_outside_box_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1.0, math.pi, support=(-2.0, 2.0))

    def test_sum_of_weights_large_box(self):
        L = 400.25
        grid = grid_for(L)
        assert abs(np.sum(grid.weights) - 2 * L) < 1e-12 * 2 * L

    @pytest.mark.parametrize("npw", [8, 16, 32])
    @pytest.mark.parametrize("nu", [math.pi**2 / 4.0, 2.0, math.pi**2, 4.0 * math.pi**2])
    def test_kernel_quadrature_is_the_box_grid_on_the_support(self, npw, nu, gauss_bump):
        # where V breaks only at -a, 0 and a, the operator routes read the
        # nodes and weights they read off a box grid, bit for bit
        for V in (square_well(-0.5, 1.0), gauss_bump, square_well(20.0, 1.0)):
            panels = kernel_quadrature(V, nu, npw)
            for L in (V.a, 5.25, 400.25):
                x, w = _support(V, build_grid(L, math.sqrt(nu), (-V.a, V.a), npw))
                assert np.array_equal(panels.nodes, x) and np.array_equal(panels.weights, w)

    def test_kernel_quadrature_rejects_sparse_panels(self, gauss_bump):
        with pytest.raises(ConfigurationError, match="at least 8 nodes"):
            kernel_quadrature(gauss_bump, math.pi**2, 4)


class TestPotentials:
    def test_square_well_norms(self):
        V = square_well(-0.5, 1.0)
        norms = potential_norms(V)
        assert abs(norms.l1 - 1.0) < 1e-12
        assert norms.linf == 0.5
        assert norms.l1_plus == 0.0
        assert abs(norms.x2_l1 - 1.0 / 3.0) < 1e-12
        assert norms.linf_minus == 0.5

    def test_sup_norms_match_dense_samples(self, well_attractive, well_repulsive, well_weak,
                                           gauss_bump, table_mixed):
        for V in (well_attractive, well_repulsive, well_weak, gauss_bump, table_mixed,
                  gaussian_truncated(-0.3, 0.5, 1.5), scale_potential(table_mixed, -2.0)):
            vs = V(np.linspace(-V.a, V.a, 4097))
            norms = potential_norms(V)
            assert norms.linf == np.max(np.abs(vs))
            assert norms.linf_minus == np.max(-np.clip(vs, None, 0.0))

    def test_square_well_exact_at_support_edges(self):
        V = square_well(-0.37, 1.3)
        assert V(1.3) == -0.37
        assert V(-1.3) == -0.37

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_square_well_rejects_bad_support(self, a):
        with pytest.raises(ConfigurationError):
            square_well(-0.5, a)

    def test_gaussian_l1_against_adaptive_quadrature(self):
        V = gaussian_truncated(0.7, 0.4, 1.2)
        ref, _ = quad(lambda x: abs(V(x)), -1.2, 1.2, epsabs=1e-12)
        norms = potential_norms(V)
        assert abs(norms.l1 - ref) < 1e-8

    def test_zero_outside_support(self, table_mixed):
        for V in (square_well(2.0, 0.7), gaussian_truncated(1.0, 1.0, 0.5), table_mixed):
            assert V(V.a + 1e-9) == 0.0
            assert V(-V.a - 5.0) == 0.0

    @pytest.mark.parametrize("c", [0.25, -3.0, 10.0])
    def test_norms_scale_linearly(self, c, gauss_bump):
        base = potential_norms(gauss_bump)
        scaled = potential_norms(scale_potential(gauss_bump, c))
        assert abs(scaled.l1 - abs(c) * base.l1) < 1e-12 * max(1.0, abs(c))
        assert abs(scaled.x2_l1 - abs(c) * base.x2_l1) < 1e-12 * max(1.0, abs(c))
        assert abs(scaled.linf - abs(c) * base.linf) < 1e-12 * max(1.0, abs(c))

    def test_table_interpolation(self, table_mixed):
        assert table_mixed(-0.5) == pytest.approx(0.3)
        assert table_mixed(0.25) == pytest.approx(0.05)

    def test_breaks_are_support_ends_origin_and_knots(self, table_mixed, gauss_bump):
        assert table_mixed.breaks.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert gauss_bump.breaks.tolist() == [-1.5, 0.0, 1.5]
        with pytest.raises(ValueError):
            table_mixed.breaks[0] = 0.0

    def test_support_quadrature_breaks_at_knots(self, table_mixed):
        grid = support_quadrature(table_mixed)
        for knot in (-0.5, 0.0, 0.5):
            assert np.min(np.abs(grid.panel_boundaries - knot)) < 1e-12


class TestVTransform:
    def test_s_zero_gives_l1(self, gauss_bump):
        grid = grid_for(2.0, a=1.5)
        norms = potential_norms(gauss_bump)
        assert abs(v_transform(gauss_bump, 2.0, 0.0, grid) - norms.l1) < 1e-12

    def test_square_well_closed_form(self, grid_L1):
        # 0.5 * integral e^{|x|} over [-1,1] = e - 1
        V = square_well(-0.5, 1.0)
        val = v_transform(V, 1.0, 1.0, grid_L1)
        assert abs(val - (math.e - 1.0)) < 1e-12

    def test_zero_potential(self, grid_L1):
        V = square_well(0.0, 1.0)
        assert v_transform(V, 1.0, 3.0, grid_L1) == 0.0

    def test_nondecreasing_in_s(self, well_attractive, grid_L1):
        vals = [v_transform(well_attractive, 1.0, s, grid_L1) for s in np.linspace(0, 4, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestInnerProduct:
    def test_ground_state_normalized(self, grid_L1):
        phi1 = free_eigenfunction_matrix(1, 1.0, grid_L1.nodes)[0]
        assert abs(grid_L1.weights @ (phi1 * phi1) - 1.0) < 1e-10

    def test_distinct_modes_orthogonal(self, grid_L1):
        phi1, phi2 = free_eigenfunction_matrix(2, 1.0, grid_L1.nodes)
        assert abs(grid_L1.weights @ (phi1 * phi2)) < 1e-10

    def test_parity_orthogonality(self, grid_L1):
        assert abs(grid_L1.weights @ (np.cos(grid_L1.nodes) * np.sin(grid_L1.nodes))) < 1e-12

    def test_antilinear_first_slot(self, grid_L1):
        # (i f, f) = -i (f, f) = -i * 2 on [-1, 1] for f = e^{ix}
        f = np.exp(1j * grid_L1.nodes)
        val = grid_L1.weights @ (np.conj(1j * f) * f)
        assert val.imag == pytest.approx(-2.0, rel=1e-12)


class TestSystemConfig:
    def test_thermodynamic_convention(self):
        cfg = SystemConfig(rho=1.0, N=20)
        assert cfg.L == (20 + 0.5) / 2.0
        assert cfg.nu == pytest.approx(math.pi**2, rel=1e-15)
        # nu equals the Fermi energy of the box for every N at this density
        assert cfg.nu == pytest.approx((math.pi * (cfg.N + 0.5) / (2 * cfg.L)) ** 2, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(rho=-1.0, N=5)
        with pytest.raises(ConfigurationError):
            SystemConfig(rho=1.0, N=0)
