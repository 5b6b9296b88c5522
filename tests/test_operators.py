import math

import numpy as np
import pytest

from orthocat import free, operators
from orthocat.core import (
    NODES_PER_PANEL,
    ConfigurationError,
    SolverFailure,
    build_grid,
    gaussian_truncated,
    kernel_quadrature,
    potential_norms,
    row_quadrature,
    smallness_report,
    square_well,
    table_potential,
)
from orthocat.free import (
    NearSpectrumError,
    _green_kernel_solve,
    _helmholtz_solve,
    _squared_resolvent_form,
    fermi_contour_point,
    fermi_energy,
    green_kernel,
)
from orthocat.metrics import anderson_result
from orthocat.operators import (
    _support,
    birman_schwinger,
    bounds_audit,
    contour_anderson,
    gamma_matrix,
    phi_hat,
    sign_operator,
)
from orthocat.scattering import gamma_scattering

from conftest import grid_for
from reference import omega_operator, scale_potential, squared_resolvent_apply

NU = math.pi**2

# sqrt|V| has kinks at -0.77 and 0.31, which no panel edge of a box grid meets
KNOT_TABLE = table_potential([-1.5, -0.77, 0.31, 1.5], [0.0, 0.6, -0.4, 0.0])

STRUCTURED_POTENTIALS = {
    "well(-0.5)": square_well(-0.5, 1.0),
    "well(+0.5)": square_well(0.5, 1.0),
    "well(-20)": square_well(-20.0, 1.0),
    "well(+20)": square_well(20.0, 1.0),
    "gauss(-0.5)": gaussian_truncated(-0.5, 0.5, 1.5),
    "table": table_potential([-1.5, -0.5, 0.5, 1.5], [0.0, 0.3, -0.2, 0.0]),
}


def _contour_system(V, N=10):
    """Box, Fermi energy and the support data of the contour route at 8 nodes
    per wavelength: nodes, weights, sqrt|V| and sign(V)."""
    L = (N + 0.5) / 2.0
    nu = fermi_energy(N, L)
    x, w = _support(V, grid_for(L, nu=nu, a=V.a, npw=8))
    return L, nu, x, w, np.sqrt(np.abs(V(x))), sign_operator(V, x)


class TestBirmanSchwinger:
    def test_zero_potential_gives_zero_operator(self):
        V = square_well(0.0, 1.0)
        grid = grid_for(2.0)
        op = birman_schwinger(-1.0, V, grid)
        assert op.norm() == 0.0

    def test_contour_norm_bound(self, well_attractive):
        # |sqrt|V| R(z) sqrt|V|| <= 4 ||V||_1 / sqrt(nu + s^2) on the contour
        N, L = 10, 5.25
        nu = fermi_energy(N, L)
        grid = grid_for(L)
        l1 = potential_norms(well_attractive).l1
        for s in (0.0, 0.3, 1.0, 5.0):
            z = fermi_contour_point(nu, s)
            norm = birman_schwinger(z, well_attractive, grid, L).norm()
            assert norm <= 4.0 * l1 / math.sqrt(nu + s * s)

    def test_nystrom_self_convergence(self, well_attractive):
        L = 5.25
        z = fermi_contour_point(fermi_energy(10, L), 0.5)
        norms = []
        for npw in (16, 32):
            grid = grid_for(L, npw=npw)
            norms.append(birman_schwinger(z, well_attractive, grid, L).norm())
        assert abs(norms[1] - norms[0]) < 1e-6

    def test_resolvent_identity(self, well_attractive):
        # B(z1) - B(z2) = (z2 - z1) sqrt|V| R(z1) R(z2) sqrt|V|; the product
        # kernel is composed in the spectral representation, where it is a
        # smooth mode sum with an explicit tail bound
        L = 2.0
        grid = build_grid(L, math.pi, support=(-1.0, 1.0))
        z1, z2 = 1.7 + 0.9j, -0.8 + 0.3j
        b1 = birman_schwinger(z1, well_attractive, grid, L)
        b2 = birman_schwinger(z2, well_attractive, grid, L)
        xs = b1.nodes
        sq = np.sqrt(np.abs(well_attractive(xs)))

        from orthocat.free import free_eigenfunction_matrix, free_eigenvalues

        j_max = 4000
        lam = free_eigenvalues(L, j_max)
        # |phi phi| <= 1/L and lambda_m dominates both energies beyond j_max
        tail = 2.0 * (2 * L / math.pi) ** 4 / (3 * j_max**3) / L
        phi = free_eigenfunction_matrix(j_max, L, xs)
        coef = 1.0 / ((z1 - lam) * (z2 - lam))
        composed = (phi.T * coef) @ phi
        lhs = b1.kernel - b2.kernel
        rhs = (z2 - z1) * sq[:, None] * composed * sq[None, :]
        assert np.max(np.abs(lhs - rhs)) < 1e-8 + abs(z2 - z1) * tail


class TestOmegaOperator:
    def test_zero_potential_identity(self):
        V = square_well(0.0, 1.0)
        grid = grid_for(2.0)
        om = omega_operator(-1.0, V, grid)
        assert np.max(np.abs(om.matrix - np.eye(om.nodes.size))) < 1e-14

    def test_neumann_norm_bound_on_contour(self, well_weak):
        N, L = 10, 5.25
        nu = fermi_energy(N, L)
        grid = grid_for(L)
        rep = smallness_report(well_weak, nu)
        assert rep.q_omega < 1.0
        for s in (0.0, 1.0, 4.0):
            om = omega_operator(fermi_contour_point(nu, s), well_weak, grid, L, nu=nu)
            assert om.norm <= rep.c_omega * (1 + 1e-8)

    def test_krein_formula_against_direct_solve(self, well_attractive):
        # (z - H_V)^{-1} f from Krein's formula versus a dense finite
        # difference boundary-value solve.  Both resolvent applications use
        # mode sums, which are free of the |x-y| kink of the closed-form
        # kernel; f is a two-mode combination so the first one is exact.
        from orthocat.free import free_eigenfunction_matrix, free_eigenvalues
        from orthocat.operators import birman_schwinger, sign_operator

        L = 2.0
        V = well_attractive
        z = 3.0 + 2.0j
        grid = build_grid(L, math.pi, support=(-1.0, 1.0), nodes_per_wavelength=96)
        x_all = grid.nodes
        lam = free_eigenvalues(L, 8)
        phi_all = free_eigenfunction_matrix(8, L, x_all)
        f = phi_all[2] + 0.7 * phi_all[7]
        r_f = phi_all[2] / (z - lam[2]) + 0.7 * phi_all[7] / (z - lam[7])

        bs = birman_schwinger(z, V, grid, L)
        xs, ws = bs.nodes, bs.weights
        J = sign_operator(V, xs)
        sq = np.sqrt(np.abs(V(xs)))
        mask = np.abs(x_all) <= V.a
        system = np.eye(xs.size, dtype=complex) - bs.matrix * J[None, :]
        u_om = np.linalg.solve(system, sq * r_f[mask])
        t_rf = sq * (J * u_om)

        # spectral application of R(z) to the support-localized density
        j_max = 1600
        lam_s = free_eigenvalues(L, j_max)
        phi_nodes = free_eigenfunction_matrix(j_max, L, xs)
        coeffs = phi_nodes @ (ws * t_rf)
        phi_eval = free_eigenfunction_matrix(j_max, L, x_all)
        r_trf = (coeffs / (z - lam_s)) @ phi_eval
        # mode-doubling stability of the spectral tail
        r_trf_half = (coeffs[:800] / (z - lam_s[:800])) @ phi_eval[:800]
        assert np.max(np.abs(r_trf - r_trf_half)) < 5e-8
        u_krein = r_f + r_trf

        # oracle: second-order finite differences on a fine uniform mesh
        n_fd = 16001
        xs_fd = np.linspace(-L, L, n_fd)
        h = xs_fd[1] - xs_fd[0]
        interior = xs_fd[1:-1]
        # average one-sided limits so mesh nodes on the potential jump do not
        # smear the well edge by half a cell
        v_fd = 0.5 * (V(interior - 0.25 * h) + V(interior + 0.25 * h))
        main = z + (-2.0 / h**2) * np.ones(n_fd - 2) - v_fd
        off = np.ones(n_fd - 3) / h**2
        ab = np.zeros((3, n_fd - 2), dtype=complex)
        ab[0, 1:] = off
        ab[1] = main
        ab[2, :-1] = off
        from scipy.linalg import solve_banded

        lam_fd = free_eigenvalues(L, 8)
        phi_fd = free_eigenfunction_matrix(8, L, interior)
        f_fd = phi_fd[2] + 0.7 * phi_fd[7]
        u_fd = solve_banded((1, 1), ab, f_fd)
        u_interp = np.interp(x_all, interior, u_fd.real) + 1j * np.interp(
            x_all, interior, u_fd.imag
        )
        assert np.max(np.abs(u_krein - u_interp)) < 1e-6

    def test_transition_operator_two_forms(self, well_attractive):
        # weak equality of T = sqrt|V| J Omega sqrt|V| and V (1 - R V)^{-1}
        L = 2.0
        V = well_attractive
        z = 1.3 + 0.6j
        grid = build_grid(L, math.pi, support=(-1.0, 1.0))
        x_all, w_all = grid.nodes, grid.weights
        om = omega_operator(z, V, grid, L)
        xs, ws = om.nodes, om.weights
        sq = np.sqrt(np.abs(V(xs)))

        rng = np.random.default_rng(4)
        for _ in range(3):
            fc = rng.standard_normal(3)
            f = fc[0] * np.sin(x_all) + fc[1] * np.cos(2 * x_all) + fc[2] * x_all**2
            g = np.cos(fc[1] * x_all)
            mask = np.abs(x_all) <= V.a

            t_g = sq * (om.sign * (om.matrix @ (sq * g[mask])))
            form1 = np.sum(w_all[mask] * f[mask] * t_g)

            # V (1 - R V)^{-1} g on the full grid
            r_full = green_kernel(z, x_all[:, None], x_all[None, :], L)
            sys_full = np.eye(x_all.size, dtype=complex) - r_full * (w_all * V(x_all))[None, :]
            x_sol = np.linalg.solve(sys_full, g)
            form2 = np.sum(w_all * f * V(x_all) * x_sol)
            assert abs(form1 - form2) < 1e-8 * max(1.0, abs(form2))

    def test_sign_operator_square(self, table_mixed):
        grid = grid_for(2.0, a=1.0)
        xs = grid.nodes[np.abs(grid.nodes) <= 1.0]
        J = sign_operator(table_mixed, xs)
        assert np.all(J * J == 1.0)


class TestPhiHat:
    def test_zero_potential(self):
        V = square_well(0.0, 1.0)
        grid = grid_for(2.0)
        assert np.max(np.abs(phi_hat(NU, V, grid))) == 0.0

    def test_self_adjoint(self, well_attractive, table_mixed):
        grid = grid_for(5.25)
        for V in (well_attractive, table_mixed):
            mat = phi_hat(NU, V, grid)
            assert np.max(np.abs(mat - mat.T)) < 1e-8

    def test_entry_bound(self, well_weak):
        grid = grid_for(5.25)
        rep = smallness_report(well_weak, NU)
        l1 = potential_norms(well_weak).l1
        c_phi = 1.0 / (1.0 - rep.q_phi)
        mat = phi_hat(NU, well_weak, grid)
        assert np.max(np.abs(mat)) <= l1 * c_phi

    def test_box_size_independent(self, well_attractive):
        vals = []
        for L in (2.0, 5.25):
            grid = grid_for(L)
            vals.append(phi_hat(NU, well_attractive, grid))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-10

    def test_entries_stable_under_density_doubling(self, well_attractive):
        mats = [phi_hat(NU, well_attractive, grid_for(5.25, npw=npw)) for npw in (16, 32)]
        assert np.max(np.abs(mats[0] - mats[1])) < 1e-6


class TestGammaMatrix:
    def test_zero_potential(self):
        V = square_well(0.0, 1.0)
        assert gamma_matrix(NU, V, grid_for(2.0)) == 0.0

    @pytest.mark.parametrize("v0", [-0.5, 0.5])
    def test_matches_scattering_and_refines(self, v0):
        V = square_well(v0, 1.0)
        g_s = gamma_scattering(V, NU)
        errors = []
        for npw in (16, 32, 64):
            grid = grid_for(5.25, npw=npw)
            errors.append(abs(gamma_matrix(NU, V, grid) - g_s))
        assert errors[0] <= 1e-4
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    @pytest.mark.parametrize("nu", [NU / 4.0, NU])
    def test_table_panels_break_at_knots(self, nu):
        # broken at the knots, npw 16 misses by 9.3e-6 and 1.6e-5 relative;
        # panels across them missed by 9.5e-5 and 1.2e-4
        g = gamma_matrix(nu, KNOT_TABLE, kernel_quadrature(KNOT_TABLE, nu, 16))
        assert g == pytest.approx(gamma_scattering(KNOT_TABLE, nu), rel=3e-5)

    def test_born_quadratic_coefficient(self, well_attractive):
        # to leading order the 2x2 reduction is linear in V, so gamma scales
        # like c^2 with the explicit first-order matrix
        grid = grid_for(2.0)
        nu = NU
        root = math.sqrt(nu)
        xs = grid.nodes[np.abs(grid.nodes) <= 1.0]
        ws = grid.weights[np.abs(grid.nodes) <= 1.0]
        v = well_attractive(xs)
        f0 = np.array(
            [
                [np.sum(ws * v * np.sin(root * xs) ** 2), np.sum(ws * v * np.sin(root * xs) * np.cos(root * xs))],
                [np.sum(ws * v * np.sin(root * xs) * np.cos(root * xs)), np.sum(ws * v * np.cos(root * xs) ** 2)],
            ]
        )
        born = np.trace(f0 @ f0) / (4.0 * math.pi**2 * nu)
        ratios = []
        for c in (0.1, 0.05, 0.025):
            g = gamma_matrix(nu, scale_potential(well_attractive, c), grid)
            ratios.append(g / c**2)
        assert abs(ratios[-1] - born) < 0.02 * born
        assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])

    def test_positive_definite_denominator(self, well_repulsive):
        mat = phi_hat(NU, well_repulsive, grid_for(5.25))
        eigs = np.linalg.eigvalsh(np.eye(2) + mat @ mat / (4.0 * NU))
        assert np.all(eigs >= 1.0 - 1e-12)


class TestContourAnderson:
    def test_zero_potential(self):
        V = square_well(0.0, 1.0)
        L = 2.75
        grid = grid_for(L)
        assert abs(contour_anderson(5, V, L, grid)) < 1e-12

    def test_matches_direct_route(self, well_weak):
        N = 10
        L = (N + 0.5) / 2.0
        grid = grid_for(L)
        res = anderson_result(N, well_weak, L, grid)
        assert res.m == N  # projections comparable
        ci = contour_anderson(N, well_weak, L, grid)
        assert abs(ci - res.anderson_integral) <= 1e-3

    @pytest.mark.parametrize("v0", [0.1, -0.3])
    @pytest.mark.parametrize("N", [10, 40])
    def test_matches_direct_route_relative(self, v0, N):
        # the contour runs out to s = 128, where the algebraic tail is 2e-8
        # of I; at 8 nodes per wavelength the two routes differ by under 1e-5
        V = square_well(v0, 1.0)
        L = (N + 0.5) / 2.0
        grid = grid_for(L, nu=fermi_energy(N, L), npw=8)
        res = anderson_result(N, V, L, grid)
        assert res.m == N
        ci = contour_anderson(N, V, L, grid)
        assert abs(ci / res.anderson_integral - 1.0) <= 1e-4

    def test_table_matches_direct_row(self):
        # broken at the knots, npw 16 misses the row by 1.3e-9; panels across
        # them missed by 2.4e-8
        N = 10
        L = (N + 0.5) / 2.0
        nu = fermi_energy(N, L)
        res = anderson_result(N, KNOT_TABLE, L, row_quadrature(KNOT_TABLE, L, nu))
        assert res.m == N
        ci = contour_anderson(N, KNOT_TABLE, L, kernel_quadrature(KNOT_TABLE, nu, 16))
        assert abs(ci - res.anderson_integral) <= 5e-9

    @pytest.mark.parametrize("N", [10, 40])
    def test_repulsive_well_matches_direct_route(self, N):
        # square_well(3, 1): channel phases -0.14 pi and -0.19 pi put the
        # nearest poles closest to the contour of all the wells checked here
        V = square_well(3.0, 1.0)
        L = (N + 0.5) / 2.0
        grid = grid_for(L, nu=fermi_energy(N, L), npw=16)
        res = anderson_result(N, V, L, grid)
        assert res.m == N
        ci = contour_anderson(N, V, L, grid)
        assert abs(ci / res.anderson_integral - 1.0) <= 1e-4

    @pytest.mark.parametrize("name, N", [
        ("weak well", 10),
        ("well(+3)", 10),
        ("well(-3)", 10),
        ("gauss(-0.5)", 10),
        ("table", 10),
        ("well(+3)", 40),
    ])
    def test_s_layout_is_converged(self, monkeypatch, name, N):
        # splitting every s-interval of the layout into four panels moves
        # the integral by rounding only
        V = {
            "weak well": square_well(0.1, 1.0),
            "well(+3)": square_well(3.0, 1.0),
            "well(-3)": square_well(-3.0, 1.0),
            "gauss(-0.5)": gaussian_truncated(-0.5, 0.5, 1.5),
            "table": table_potential([-1.5, -0.77, 0.31, 1.5], [0.0, 0.6, -0.4, 0.0]),
        }[name]
        L = (N + 0.5) / 2.0
        grid = grid_for(L, nu=fermi_energy(N, L), a=V.a, npw=8)
        ci = contour_anderson(N, V, L, grid)
        panelize = operators._panelize
        monkeypatch.setattr(operators, "_panelize", lambda breaks, widths: panelize(breaks, np.asarray(widths) / 4.0))
        fine = contour_anderson(N, V, L, grid)
        assert abs(ci / fine - 1.0) <= 1e-11

    def test_one_banded_factorization_and_solve_per_node(self, monkeypatch):
        calls = {"nodes": 0, "zgbtrf": 0, "zgbtrs": 0}

        def counted(name, target):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return target(*args, **kwargs)
            return wrapper

        for name in ("zgbtrf", "zgbtrs"):
            monkeypatch.setattr(free, name, counted(name, getattr(free, name)))
        monkeypatch.setattr(operators, "fermi_contour_point", counted("nodes", fermi_contour_point))
        V, N, L = square_well(0.1, 1.0), 10, 5.25
        contour_anderson(N, V, L, grid_for(L, nu=fermi_energy(N, L), npw=8))
        assert calls["nodes"] == 9 * NODES_PER_PANEL  # [0, w/8] and eight tripling panels
        assert calls["zgbtrf"] == calls["zgbtrs"] == calls["nodes"]

    def test_refuses_more_levels_than_particles(self):
        # square_well(-20, 1) binds two extra levels below nu: M = 12, N = 10
        V, N, L = square_well(-20.0, 1.0), 10, 5.25
        with pytest.raises(ConfigurationError, match="M = 12.*N = 10"):
            contour_anderson(N, V, L, grid_for(L, nu=fermi_energy(N, L), npw=8))

    def test_integrand_envelope_decay(self, well_weak):
        # the envelope exp(-2 L s) V_L(2s) / sqrt(nu + s^2) controls the
        # delta-term part; check the full integrand at least decays with s
        from orthocat.operators import _support, sign_operator
        from orthocat.free import free_eigenvalues, free_eigenfunction_matrix

        N, L = 10, 5.25
        nu = fermi_energy(N, L)
        grid = grid_for(L)
        x, w = _support(well_weak, grid)
        sq = np.sqrt(np.abs(well_weak(x)))
        J = sign_operator(well_weak, x)
        lam_low = free_eigenvalues(L, N)
        v_mat = sq[:, None] * free_eigenfunction_matrix(N, L, x).T
        lam_all = free_eigenvalues(L, 400)
        phi_v = sq[None, :] * free_eigenfunction_matrix(400, L, x)

        def integrand(s):
            z = fermi_contour_point(nu, s)
            kern = green_kernel(z, x[:, None], x[None, :], L)
            k_v = sq[:, None] * kern * sq[None, :]
            system = np.eye(x.size, dtype=complex) - k_v * (w * J)[None, :]
            u = np.linalg.solve(system, v_mat)
            g = J[:, None] * u
            k2_v = (phi_v.T * (1.0 / (z - lam_all) ** 2)) @ phi_v
            p = np.linalg.solve(system, k2_v @ (w[:, None] * g))
            qf = np.einsum("ij,i,ij->j", v_mat, w * J, p)
            tr = np.sum(qf / (z - lam_low))
            return abs((math.sqrt(nu) + 1j * s) * tr)

        vals = [integrand(s) for s in (0.5, 2.0, 8.0)]
        assert vals[0] > vals[1] > vals[2]


class TestStructuredSolve:
    """The O(n) Birman-Schwinger solves against dense solves of the n x n
    systems they replace, each built here from its kernel."""

    @pytest.mark.parametrize("name", STRUCTURED_POTENTIALS)
    def test_green_kernel_system_matches_dense_solve(self, name):
        L, nu, x, w, sq, J = _contour_system(STRUCTURED_POTENTIALS[name])
        d = sq * w * J
        rng = np.random.default_rng(7)
        B = rng.standard_normal((x.size, 3)) + 1j * rng.standard_normal((x.size, 3))
        for s in (0.0, 1.0, 10.0, 128.0):
            z = fermi_contour_point(nu, s)
            dense = np.eye(x.size) - sq[:, None] * green_kernel(z, x[:, None], x[None, :], L) * d[None, :]
            ref = np.linalg.solve(dense, B)
            X = _green_kernel_solve(z, x, sq, d, L, B)
            assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max(), s

    @pytest.mark.parametrize("v0", [20.0, -20.0, -3.0])
    def test_green_kernel_system_near_real_axis(self, v0):
        # s = 0.01 and 0 put z next to and on the real axis, where the
        # outgoing-wave couplings e^{ik h} have modulus near one
        L, nu, x, w, sq, J = _contour_system(square_well(v0, 1.0))
        d = sq * w * J
        rng = np.random.default_rng(11)
        B = rng.standard_normal((x.size, 2)) + 1j * rng.standard_normal((x.size, 2))
        for s in (0.0, 0.01, 1.0):
            z = fermi_contour_point(nu, s)
            dense = np.eye(x.size) - sq[:, None] * green_kernel(z, x[:, None], x[None, :], L) * d[None, :]
            ref = np.linalg.solve(dense, B)
            X = _green_kernel_solve(z, x, sq, d, L, B)
            assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max(), s

    @pytest.mark.parametrize("name", STRUCTURED_POTENTIALS)
    def test_squared_resolvent_form_matches_apply(self, name):
        L, nu, x, w, sq, J = _contour_system(STRUCTURED_POTENTIALS[name])
        rng = np.random.default_rng(5)
        Y = (sq * w * J)[:, None] * (rng.standard_normal((x.size, 4)) + 1j * rng.standard_normal((x.size, 4)))
        for s in (0.0, 1.0, 10.0, 128.0):
            z = fermi_contour_point(nu, s)
            ref = np.sum(Y * squared_resolvent_apply(z, x, Y, L), axis=0)
            got = _squared_resolvent_form(z, x, Y, L)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), s
        with pytest.raises(ValueError, match="sorted"):
            _squared_resolvent_form(z, x[::-1], Y, L)

    @pytest.mark.parametrize("name", STRUCTURED_POTENTIALS)
    def test_phi_hat_matches_dense_solve(self, name):
        # real k: the whole-line kernel sin(k|x-y|) / 2k at the Fermi energy
        V = STRUCTURED_POTENTIALS[name]
        grid = kernel_quadrature(V, NU, 16)
        x, w = _support(V, grid)
        k = math.sqrt(NU)
        sq = np.sqrt(np.abs(V(x)))
        wj = w * sign_operator(V, x)
        kern = np.sin(k * np.abs(x[:, None] - x[None, :])) / (2.0 * k)
        omega = np.column_stack([sq * np.sin(k * x), sq * np.cos(k * x)])
        sols = np.linalg.solve(np.eye(x.size) - sq[:, None] * kern * (sq * wj)[None, :], omega)
        ref = omega.T @ (wj[:, None] * sols)
        ref = 0.5 * (ref + ref.T)
        got = phi_hat(NU, V, grid)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dirichlet_spectrum_raises(self, well_attractive):
        # z = (pi / 2L)^2 makes 1 + q = 1 + e^{2ikL} vanish
        L, _, x, w, sq, J = _contour_system(well_attractive)
        z = (math.pi / (2.0 * L)) ** 2
        with pytest.raises(NearSpectrumError):
            green_kernel(z, x[:, None], x[None, :], L)
        with pytest.raises(NearSpectrumError):
            _green_kernel_solve(z, x, sq, sq * w * J, L, sq[:, None])

    def test_singular_band_raises(self):
        # one node: 1 - a (-i / 2k) d = 1 + a d vanishes at k = i/2, a = 1, d = -1
        one = np.ones(1)
        with pytest.raises(SolverFailure, match="banded"):
            _helmholtz_solve(0.5j, np.zeros(1), one, -one, np.zeros((1, 2)), np.zeros((2, 2)), one[:, None])

    def test_singular_capacitance_raises(self, well_attractive):
        # C = (U^T diag(d) Y)^{-1}, Y the outgoing-part solution for diag(a) U,
        # makes the capacitance 1 - C U^T diag(d) Y vanish
        _, nu, x, w, sq, J = _contour_system(well_attractive)
        k, d = math.sqrt(nu), sq * w * J
        U = np.column_stack([np.cos(k * x), np.sin(k * x)])
        Y = _helmholtz_solve(k, x, sq, d, U, np.zeros((2, 2)), sq[:, None] * U)
        C = np.linalg.inv(U.T @ (d[:, None] * Y))
        with pytest.raises(SolverFailure, match="capacitance"):
            _helmholtz_solve(k, x, sq, d, U, C, sq[:, None])

    def test_unsorted_points_rejected(self):
        one = np.ones(2)
        with pytest.raises(ValueError, match="sorted"):
            _helmholtz_solve(1.0, np.array([1.0, 0.0]), one, one, np.zeros((2, 2)), np.zeros((2, 2)), one[:, None])

    def test_phi_hat_rejects_complex_solution(self, monkeypatch, well_attractive):
        solve = operators._helmholtz_solve
        monkeypatch.setattr(operators, "_helmholtz_solve", lambda *args: solve(*args) * (1.0 + 1e-8j))
        with pytest.raises(SolverFailure, match="complex"):
            phi_hat(NU, well_attractive, grid_for(2.0))

    def test_phi_hat_rejects_asymmetric_reduction(self, monkeypatch, well_attractive):
        solve = operators._helmholtz_solve
        monkeypatch.setattr(operators, "_helmholtz_solve", lambda *args: solve(*args) @ [[1.0, 0.0], [0.1, 1.0]])
        with pytest.raises(SolverFailure, match="self-adjointness"):
            phi_hat(NU, well_attractive, grid_for(2.0))

    def test_routes_form_no_dense_system_and_keep_values(self, monkeypatch):
        # values of the dense-LU routes they replace, to 1e-12 relative
        def dense(*args, **kwargs):
            raise AssertionError("dense kernel or dense solve called")

        monkeypatch.setattr(operators, "green_kernel", dense)
        monkeypatch.setattr(np.linalg, "solve", dense)
        V, N, L = square_well(0.1, 1.0), 10, 5.25
        ci = contour_anderson(N, V, L, grid_for(L, nu=fermi_energy(N, L), npw=8))
        assert abs(ci / 6.34933095728265e-05 - 1.0) <= 1e-12
        W = square_well(-0.5, 1.0)
        g = gamma_matrix(NU, W, kernel_quadrature(W, NU, 16))
        assert abs(g / 1.250663341054007e-03 - 1.0) <= 1e-12


class TestBoundsAudit:
    def test_zero_potential_trivial(self):
        V = square_well(0.0, 1.0)
        L = 5.25
        items = bounds_audit(V, 10, L, grid_for(L), anderson_result(10, V, L, grid_for(L)))
        assert all(item.passed for item in items)

    @pytest.mark.parametrize("v0", [-0.5, 0.5])
    def test_square_well_corpus(self, v0):
        V = square_well(v0, 1.0)
        N = 20
        L = (N + 0.5) / 2.0
        items = bounds_audit(V, N, L, grid_for(L), anderson_result(N, V, L, grid_for(L)))
        for item in items:
            assert item.passed, f"{item.name}: lhs={item.lhs} rhs={item.rhs}"

    def test_sum_estimate_item_present(self, well_weak):
        L = 5.25
        items = bounds_audit(well_weak, 10, L, grid_for(L), anderson_result(10, well_weak, L, grid_for(L)))
        names = [item.name for item in items]
        assert "half_integer_sum_estimate" in names
