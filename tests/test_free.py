import math

import numpy as np
import pytest

from orthocat.core import build_grid
from orthocat.free import (
    NearSpectrumError,
    fermi_contour_point,
    fermi_energy,
    free_eigenfunction_matrix,
    free_eigenvalue,
    free_eigenvalues,
    green_kernel,
)

from conftest import grid_for
from reference import (
    kappa_n,
    kappa_tilde_n,
    squared_resolvent_apply,
    tau,
    truncated_resolvent_decomposed,
    truncated_resolvent_direct,
)


# Pointwise reference kernels: every entry evaluated from its own exponentials
# at min(x, y) and max(x, y), independently of the factor form in the library.
def _ref_scaled_sin(w):
    wr, wi = np.real(w), np.imag(w)
    m = np.abs(wi)
    return (np.exp(1j * wr - (m + wi)) - np.exp(-1j * wr - (m - wi))) / 2j


def _ref_scaled_cos(w):
    wr, wi = np.real(w), np.imag(w)
    m = np.abs(wi)
    return (np.exp(1j * wr - (m + wi)) + np.exp(-1j * wr - (m - wi))) / 2.0


def _ref_green(z, x, y, L):
    rz = complex(np.sqrt(complex(z)))
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    num = _ref_scaled_sin(rz * (lo + L)) * _ref_scaled_sin(rz * (hi - L))
    den = rz * _ref_scaled_sin(2.0 * L * rz)
    expo = abs(rz.imag) * ((lo + L) + (L - hi) - 2.0 * L)
    return num / den * np.exp(expo)


def _ref_commutator(z, x, y, L):
    rz = complex(np.sqrt(complex(z)))
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    term = (hi * _ref_scaled_cos(rz * (hi - L)) * _ref_scaled_sin(rz * (lo + L))
            + lo * _ref_scaled_sin(rz * (hi - L)) * _ref_scaled_cos(rz * (lo + L)))
    expo = abs(rz.imag) * ((lo + L) + (L - hi) - 2.0 * L)
    return term / (2.0 * _ref_scaled_sin(2.0 * L * rz)) * np.exp(expo)


def _ref_delta(z, x, y, L):
    rz = complex(np.sqrt(complex(z)))
    sL, cL = _ref_scaled_sin(L * rz), _ref_scaled_cos(L * rz)
    expo = abs(rz.imag) * (np.abs(x) + np.abs(y) - 2.0 * L)
    p_s = _ref_scaled_sin(rz * x) * _ref_scaled_sin(rz * y)
    p_c = _ref_scaled_cos(rz * x) * _ref_scaled_cos(rz * y)
    return 0.25 * L * (p_s / sL**2 + p_c / cL**2) * np.exp(expo)


def _squared_resolvent_kernel(z, x, y, L):
    """(D - C + G/2) / z from the library's Green kernel and the pointwise
    references of the other two."""
    return (_ref_delta(z, x, y, L) - _ref_commutator(z, x, y, L)
            + 0.5 * green_kernel(z, x, y, L)) / z


class TestFreeSpectrum:
    def test_ground_state_energy(self):
        assert free_eigenvalue(1, 1.0) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)
        assert free_eigenvalue(1, 1.0) == pytest.approx(2.4674011002723395, rel=1e-12)

    def test_exact_integer_case(self):
        assert free_eigenvalue(2, math.pi / 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_monotone(self):
        lam = free_eigenvalues(3.7, 101)
        assert np.all(np.diff(lam) > 0)

    def test_dirichlet_boundary(self):
        for j in (1, 2, 7, 12):
            assert abs(free_eigenfunction_matrix(j, 2.5, 2.5)[-1, 0]) < 1e-12
            assert abs(free_eigenfunction_matrix(j, 2.5, -2.5)[-1, 0]) < 1e-12

    def test_center_value(self):
        assert free_eigenfunction_matrix(1, 1.0, 0.0)[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_normalization_on_grid(self):
        grid = build_grid(1.0, math.pi / 2.0, support=(-1.0, 1.0))
        for j in range(1, 21):
            phi = free_eigenfunction_matrix(j, 1.0, grid.nodes)[-1]
            assert abs(grid.weights @ (phi * phi) - 1.0) < 1e-10

    def test_fermi_midpoint_in_wavenumber(self):
        # sqrt(nu_N) sits exactly halfway between sqrt(lambda_N) and sqrt(lambda_{N+1})
        for N, L in ((3, 1.0), (10, 5.25), (100, 50.25)):
            nu = fermi_energy(N, L)
            gap = math.pi / (4.0 * L)
            assert math.sqrt(nu) - math.sqrt(free_eigenvalue(N, L)) == pytest.approx(gap, rel=1e-12)
            assert math.sqrt(free_eigenvalue(N + 1, L)) - math.sqrt(nu) == pytest.approx(gap, rel=1e-12)

    def test_half_squares_at_fermi_energy(self):
        for N, L in ((4, 2.0), (11, 3.5)):
            arg = L * math.sqrt(fermi_energy(N, L))
            assert math.sin(arg) ** 2 == pytest.approx(0.5, rel=1e-12)
            assert math.cos(arg) ** 2 == pytest.approx(0.5, rel=1e-12)


class TestGreenKernel:
    def test_boundary_vanishes(self):
        z = 1.3 + 0.7j
        assert abs(green_kernel(z, 1.0, 0.2, 1.0)) < 1e-13
        assert abs(green_kernel(z, -0.3, -1.0, 1.0)) < 1e-13

    def test_spectral_sum_oracle_negative_energy(self):
        # sum over modes phi_j(0)^2/(z - lambda_j) at z = -1, L = 1; only odd
        # modes contribute and the series sums to -tanh(1)/2
        L, z = 1.0, -1.0
        j = np.arange(1, 400001)
        lam = (math.pi * j / 2.0) ** 2
        phi0_sq = np.where(j % 2 == 1, 1.0, 0.0)
        partial = np.sum(phi0_sq / (z - lam))
        tail_bound = np.sum(1.0 / lam[-1]) * 10  # grossly safe remainder
        val = green_kernel(z, 0.0, 0.0, L)
        assert abs(val - partial) < 2e-6
        assert val == pytest.approx(-math.tanh(1.0) / 2.0, abs=1e-10)
        assert abs(partial - (-math.tanh(1.0) / 2.0)) < tail_bound + 2e-6

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        z = 2.0 + 1.5j
        for _ in range(5):
            x, y = rng.uniform(-1, 1, 2)
            assert green_kernel(z, x, y, 1.0) == pytest.approx(green_kernel(z, y, x, 1.0), rel=1e-12)

    def test_contour_envelope_bound(self):
        # |R(z; x, y)| <= 2 exp(-|s||x-y|)/sqrt(nu + s^2) on the contour
        N, L = 8, 3.0
        nu = fermi_energy(N, L)
        rng = np.random.default_rng(11)
        for s in (-4.0, -0.5, 0.1, 1.0, 6.0):
            z = fermi_contour_point(nu, s)
            for _ in range(4):
                x, y = rng.uniform(-L, L, 2)
                bound = 2.0 * math.exp(-abs(s) * abs(x - y)) / math.sqrt(nu + s * s)
                assert abs(green_kernel(z, x, y, L)) <= bound * (1 + 1e-9)

    def test_large_box_large_s_finite(self):
        z = fermi_contour_point(math.pi**2, 30.0)
        val = green_kernel(z, 0.3, -0.2, 400.0)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_near_spectrum_rejected(self):
        with pytest.raises(NearSpectrumError):
            green_kernel(free_eigenvalue(3, 1.0) * (1 + 1e-16), 0.3, 0.1, 1.0)


class TestCommutatorKernel:
    def test_zero_at_origin(self):
        assert _ref_commutator(2.0 + 1j, 0.0, 0.0, 1.0) == 0.0

    def test_contour_bound(self):
        N, L = 6, 2.0
        nu = fermi_energy(N, L)
        rng = np.random.default_rng(5)
        for s in (0.0, 0.3, -1.2, 2.5):
            z = fermi_contour_point(nu, s)
            for _ in range(4):
                x, y = rng.uniform(-L, L, 2)
                bound = 2.0 * (abs(x) + abs(y)) * math.exp(-abs(s) * abs(x - y))
                assert abs(_ref_commutator(z, x, y, L)) <= bound * (1 + 1e-9) + 1e-300

    def test_symmetry(self):
        z = -0.7 + 0.2j
        assert _ref_commutator(z, 0.4, -0.9, 1.5) == pytest.approx(
            _ref_commutator(z, -0.9, 0.4, 1.5), rel=1e-12
        )


class TestDeltaTermKernel:
    def test_fermi_energy_closed_form(self):
        # at nu_N both squared trig factors are 1/2, collapsing the kernel to
        # (L/2) cos(sqrt(nu)(x - y))
        N, L = 6, 2.0
        nu = fermi_energy(N, L)
        rng = np.random.default_rng(9)
        for _ in range(6):
            x, y = rng.uniform(-L, L, 2)
            expected = 0.5 * L * math.cos(math.sqrt(nu) * (x - y))
            assert _ref_delta(nu, x, y, L) == pytest.approx(expected, rel=1e-11, abs=1e-11)

    def test_symmetry(self):
        z = 3.1 + 0.4j
        assert _ref_delta(z, 0.7, -0.2, 1.2) == pytest.approx(
            _ref_delta(z, -0.2, 0.7, 1.2), rel=1e-12
        )

    def test_annihilated_by_helmholtz_operator(self):
        # (z + d^2/dx^2) D(z; x, y) = 0, checked by central differences
        z, L, y0 = complex(-2.5), 1.3, -0.47
        h = 1e-4
        for x0 in (-0.6, 0.21, 0.8):
            f = lambda x: _ref_delta(z, x, y0, L)
            resid = z * f(x0) + (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
            assert abs(resid) < 1e-6 * abs(f(x0))


class TestKernelsFromFactors:
    @pytest.mark.parametrize("L", [1.0, 5.25, 40.0])
    def test_match_pointwise_reference(self, L):
        # 301 nodes across the box, or across [-5.25, 5.25] in the long box
        h = min(L, 5.25)
        x = np.linspace(-h, h, 301)
        for N in (3, 10, 50):
            nu = fermi_energy(N, L)
            for s in (0.0, 0.5, 5.0, 30.0):
                z = fermi_contour_point(nu, s)
                got = green_kernel(z, x[:, None], x[None, :], L)
                want = _ref_green(z, x[:, None], x[None, :], L)
                assert got.shape == (301, 301)
                err = np.abs(got - want).max()
                assert err <= 1e-12 * np.abs(want).max(), (N, s, err)

    def test_finite_to_far_end_of_contour(self):
        # support of half-width 1.5, s out to the contour's far end 128 and
        # on to 400, where |Im sqrt(z)| * span / 2 = 600 is near the domain
        # limit: factors picked the wrong way round, at max(x, y) for the left
        # one, would reach e^{400 * 3} and overflow
        L = 5.25
        x = grid_for(L, a=1.5).nodes
        x = x[np.abs(x) <= 1.5]
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(x.size, 3)) + 1j * rng.normal(size=(x.size, 3))
        nu = fermi_energy(10, L)
        with np.errstate(over="raise", invalid="raise"):
            for s in (64.0, 128.0, 400.0):
                z = fermi_contour_point(nu, s)
                assert np.all(np.isfinite(green_kernel(z, x[:, None], x[None, :], L)))
                assert np.all(np.isfinite(squared_resolvent_apply(z, x, Y, L)))

    def test_domain_limit_raises(self):
        # |Im sqrt(z)| * span / 2 = 400 * 2 = 800 >= 700
        L = 5.25
        z = fermi_contour_point(fermi_energy(10, L), 400.0)
        x = np.linspace(-2.0, 2.0, 11)
        with pytest.raises(ValueError, match="domain"):
            green_kernel(z, x[:, None], x[None, :], L)
        with pytest.raises(ValueError, match="domain"):
            squared_resolvent_apply(z, x, np.ones(11), L)
        # inside the domain at the same s
        assert np.isfinite(green_kernel(z, 0.3, -0.3, L))

    def test_scalar_and_elementwise_inputs(self):
        z, L = 2.0 + 1.5j, 1.3
        x = np.array([-0.9, 0.1, 0.7])
        y = np.array([0.4, 0.1, -1.2])
        assert green_kernel(z, x, y, L) == pytest.approx(_ref_green(z, x, y, L), rel=1e-13)
        assert isinstance(green_kernel(z, 0.2, -0.5, L), complex)


class TestSquaredResolvent:
    @pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
    def test_closed_form_against_mode_sum(self, s):
        # sum_j phi_j(x) phi_j(y) / (z - lambda_j)^2 over 20,000 modes; with
        # c = (pi / 2L)^2 and |phi_j|^2 <= 1/L, the rest is at most
        # sum_{j > J} 1 / (L (lambda_j - |z|)^2)
        #   <= 1 / (3 L c^2 J^3 (1 - |z| / lambda_{J+1})^2)
        L, J = 5.25, 20_000
        z = fermi_contour_point(fermi_energy(10, L), s)
        x = np.linspace(-1.0, 1.0, 41)
        lam = free_eigenvalues(L, J)
        phi = free_eigenfunction_matrix(J, L, x)
        modes = (phi.T / (z - lam) ** 2) @ phi
        c = (math.pi / (2.0 * L)) ** 2
        lam_next = c * (J + 1) ** 2
        tail = 1.0 / (3.0 * L * c * c * J**3 * (1.0 - abs(z) / lam_next) ** 2)
        closed = _squared_resolvent_kernel(z, x[:, None], x[None, :], L)
        assert np.abs(closed - modes).max() <= tail + 1e-12 * np.abs(closed).max()

    @pytest.mark.parametrize("s", [0.0, 1.0, 5.0, 64.0])
    def test_prefix_sum_apply_matches_dense_product(self, s):
        L = 5.25
        x = grid_for(L).nodes
        x = x[np.abs(x) <= 1.0]
        rng = np.random.default_rng(int(s) + 1)
        x = rng.permutation(x)  # the apply sorts its points itself
        Y = rng.normal(size=(x.size, 7)) + 1j * rng.normal(size=(x.size, 7))
        z = fermi_contour_point(fermi_energy(10, L), s)
        dense = _squared_resolvent_kernel(z, x[:, None], x[None, :], L) @ Y
        got = squared_resolvent_apply(z, x, Y, L)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


class TestTruncatedResolvent:
    def test_empty_sum(self):
        assert truncated_resolvent_direct(0, 2.0 + 1j, 0.3, 0.1, 1.0) == 0.0

    def test_boundary_zero(self):
        assert abs(truncated_resolvent_direct(5, 2.0 + 1j, 1.0, 0.1, 1.0)) < 1e-13

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_decomposition_matches_direct(self, n):
        L = 1.0
        nu = fermi_energy(n, L)
        xs = np.linspace(-0.9, 0.9, 5)
        ys = np.linspace(-0.85, 0.95, 5)
        for x in xs:
            for y in ys:
                direct = truncated_resolvent_direct(n, nu, x, y, L)
                parts = truncated_resolvent_decomposed(n, nu, x, y, L)
                assert abs(parts.value - direct) < 1e-8

    def test_coincident_points_kill_oscillatory_term(self):
        parts = truncated_resolvent_decomposed(4, fermi_energy(4, 1.0), 0.3, 0.3, 1.0)
        assert parts.s1 == 0.0

    def test_component_bounds(self):
        n, L = 7, 1.5
        z = fermi_energy(n, L)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = rng.uniform(-L, L, 2)
            parts = truncated_resolvent_decomposed(n, z, x, y, L)
            cap0 = 1.0 / (2.0 * math.pi * math.sqrt(z))
            cap1 = (n + 0.5) * abs(x - y) / (2.0 * L * math.sqrt(z))
            cap1t = (n + 0.5) * abs(x + y) / (2.0 * L * math.sqrt(z))
            assert abs(parts.s0) <= cap0 * (1 + 1e-12)
            assert abs(parts.s0_tilde) <= cap0 * (1 + 1e-12)
            assert abs(parts.s1) <= cap1 * (1 + 1e-9) + 1e-15
            assert abs(parts.s1_tilde) <= cap1t * (1 + 1e-9) + 1e-15

    def test_domain_error_below_threshold(self):
        with pytest.raises(ValueError):
            truncated_resolvent_decomposed(5, free_eigenvalue(4, 1.0), 0.1, 0.2, 1.0)


class TestKappa:
    def test_log_window(self):
        for n in (1, 10, 100, 200):
            excess = kappa_n(n) - math.log(4 * n + 3)
            assert 0.0 <= excess <= 2.0

    def test_tilde_bounded_by_four(self):
        assert all(kappa_tilde_n(n) <= 4.0 for n in range(1, 101))

    @pytest.mark.parametrize("n", [1, 4, 25])
    def test_series_oracle(self, n):
        # termwise Laplace transform turns the integral into
        # sum_j 2M / ((M + 1/2 + j)^2 - M^2) with M = n + 1/2
        M = n + 0.5
        j = np.arange(0, 4_000_000)
        series = float(np.sum(2.0 * M / ((M + 0.5 + j) ** 2 - M * M)))
        tail = 2.0 * M / (M + 0.5 + 4_000_000)  # integral comparison remainder
        assert abs(kappa_n(n) - series) < tail + 1e-8


class TestTau:
    def test_at_zero(self):
        assert tau(0.0) == 1.0 + 0.0j

    def test_unimodular(self):
        s = np.linspace(-30, 30, 41)
        assert np.max(np.abs(np.abs(tau(s)) - 1.0)) < 1e-12

    def test_limit_minus_i(self):
        assert abs(tau(20.0) + 1j) < 1e-10

    def test_conjugation_symmetry(self):
        for s in (0.3, 1.7, 5.0):
            assert tau(-s) == pytest.approx(np.conj(tau(s)), rel=1e-14)
