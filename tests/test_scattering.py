import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from orthocat.cli import cli_main
from orthocat.core import SolverFailure, scale_potential, square_well, table_potential
from orthocat import scattering
from orthocat.scattering import (
    gamma_gkm,
    gamma_scattering,
    s_matrix,
    scattering_coefficients,
)

NU = math.pi**2


def closed_form_transmission(v0, a, k):
    """Textbook transfer-matrix result for a rectangular well/barrier."""
    kappa = cmath.sqrt(k * k - v0)
    return cmath.exp(-2j * k * a) / (
        cmath.cos(2 * kappa * a) - 0.5j * (kappa / k + k / kappa) * cmath.sin(2 * kappa * a)
    )


def exact_transfer_matrix(xs, values, k):
    """Transfer matrix of -u'' + V u = k^2 u from xs[0] to xs[-1], V the
    linear interpolant of (xs, values), and the transmission coefficient for
    the support [xs[0], xs[-1]] = [-a, a], both in mpmath at 40 digits.

    On a sloped piece q = V - k^2 = c^2 z with z = c (x - x0) + q(x0) / c^2
    and c^3 the slope, so Ai(z) and Bi(z) are a fundamental pair; on a flat
    piece cos and sin of sqrt(-q) h, whose imaginary parts vanish.
    """
    with mpmath.workdps(40):
        kk = mpmath.mpf(k)
        M = mpmath.eye(2)
        for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], values[:-1], values[1:]):
            h = mpmath.mpf(x1) - mpmath.mpf(x0)
            q0 = mpmath.mpf(v0) - kk**2
            if v0 == v1:
                w = mpmath.sqrt(-q0)
                c, s = mpmath.cos(w * h), mpmath.sin(w * h)
                step = mpmath.matrix([[c, s / w], [-w * s, c]]).apply(mpmath.re)
            else:
                slope = (mpmath.mpf(v1) - mpmath.mpf(v0)) / h
                c = mpmath.sign(slope) * mpmath.cbrt(abs(slope))

                def fundamental(z):
                    return mpmath.matrix([[mpmath.airyai(z), mpmath.airybi(z)],
                                          [c * mpmath.airyai(z, 1), c * mpmath.airybi(z, 1)]])

                z0 = q0 / c**2
                step = fundamental(z0 + c * h) * fundamental(z0) ** -1
            M = step * M
        # (1, r) e^{ikx} amplitudes on the left map to (t, 0) on the right
        a = mpmath.mpf(xs[-1])
        t = 2 * mpmath.exp(-2j * kk * a) / (M[0, 0] + M[1, 1] + 1j * (M[1, 0] / kk - kk * M[0, 1]))
        return np.array(M.tolist(), dtype=float), complex(t)


def table_case(case):
    """conftest's table_mixed, or the benchmark's seeded table: 13 equally
    spaced knots on [-1.5, 1.5] with zero ends and uniform interior values."""
    if case == "mixed":
        return [-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.3, -0.2, 0.3, 0.0]
    values = np.zeros(13)
    values[1:-1] = np.random.default_rng(case).uniform(-0.3, 0.3, 11)
    return np.linspace(-1.5, 1.5, 13).tolist(), values.tolist()


class TestExactOracle:
    # the Magnus pass is off by at most 3.1e-11 on M (case 2 at nu = 4 pi^2)
    # and 9.8e-13 on t (case 1 at nu = pi^2/4) over these cases; the gate
    # leaves a threefold margin and still rejects one RK45 solve across the
    # whole support, off by 2.0e-10 and 4.1e-10
    @pytest.mark.parametrize("nu", [NU / 4.0, NU, 4.0 * NU])
    @pytest.mark.parametrize("case", ["mixed", 0, 1, 2])
    def test_piecewise_linear_table(self, case, nu):
        xs, values = table_case(case)
        V = table_potential(xs, values)
        k = math.sqrt(nu)
        M_exact, t_exact = exact_transfer_matrix(xs, values, k)
        M = scattering._transfer_matrix(V, k)
        assert np.abs(M - M_exact).max() <= 1e-10 * np.abs(M_exact).max()
        t = scattering_coefficients(V, k).t
        assert abs(t - t_exact) <= 1e-10 * abs(t_exact)

    def test_flat_pieces_match_closed_form(self):
        # the oracle's cos/sin branch on the square well
        _, t_exact = exact_transfer_matrix([-1.0, 1.0], [-0.5, -0.5], math.pi)
        assert abs(t_exact - closed_form_transmission(-0.5, 1.0, math.pi)) <= 1e-14


class TestScatteringCoefficients:
    def test_no_scatterer(self):
        sd = scattering_coefficients(square_well(0.0, 1.0), math.pi)
        assert abs(sd.t - 1.0) < 1e-10
        assert abs(sd.r1) < 1e-10
        assert abs(sd.r2) < 1e-10

    @pytest.mark.parametrize("v0", [-0.5, 0.5, -2.0, 3.0])
    def test_square_well_transmission_probability(self, v0):
        k = math.pi
        sd = scattering_coefficients(square_well(v0, 1.0), k)
        kappa = math.sqrt(k * k - v0)
        expected = 1.0 / (1.0 + v0**2 * math.sin(2 * kappa) ** 2 / (4 * k * k * kappa * kappa))
        assert abs(abs(sd.t) ** 2 - expected) < 1e-8

    @pytest.mark.parametrize("v0", [-0.5, 0.5])
    def test_square_well_complex_amplitude(self, v0):
        k = math.pi
        sd = scattering_coefficients(square_well(v0, 1.0), k)
        assert abs(sd.t - closed_form_transmission(v0, 1.0, k)) < 1e-8

    def test_unitarity_gaussian(self, gauss_bump):
        for k in (1.0, math.pi, 5.5):
            sd = scattering_coefficients(gauss_bump, k)
            assert sd.unitarity_defect <= 1e-10

    def test_transmission_below_unity(self, table_mixed):
        for k in (0.7, 2.0, math.pi):
            sd = scattering_coefficients(table_mixed, k)
            assert abs(sd.t) <= 1.0 + 1e-10

    def test_wavenumber_continuity(self, well_attractive):
        ks = np.linspace(2.5, 3.5, 21)
        ts = np.array([scattering_coefficients(well_attractive, k).t for k in ks])
        diffs = np.abs(np.diff(ts)) / np.diff(ks)
        assert np.max(diffs) < 2.0  # derivative stays bounded on the mesh

    def test_invalid_wavenumber(self, well_attractive):
        with pytest.raises(ValueError):
            scattering_coefficients(well_attractive, 0.0)

    @pytest.mark.parametrize("v0", [100.0, 200.0, 500.0, 2000.0, 1e5])
    def test_barrier_matches_closed_form(self, v0):
        # the exact |t| falls from 7e-9 to 9e-277 while |M| grows to 1e274;
        # t is 2 e^{-2ika} over a sum of M's entries, so no digit cancels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sd = scattering_coefficients(square_well(v0, 1.0), math.pi)
        t_exact = closed_form_transmission(v0, 1.0, math.pi)
        assert abs(sd.t - t_exact) <= 1e-10 * abs(t_exact)
        for r in (sd.r1, sd.r2):
            assert abs(abs(sd.t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("v0", [-3.0, -0.5, 3.0, 50.0, 100.0, 200.0, 2000.0, 1e5])
    def test_square_well_exact_to_rounding(self, v0):
        # every Magnus step on a flat piece is exact, so only rounding is
        # left: at most 5.2e-15 on t and 1.2e-15 on the unitarity defect
        sd = scattering_coefficients(square_well(v0, 1.0), math.pi)
        t_exact = closed_form_transmission(v0, 1.0, math.pi)
        assert abs(sd.t - t_exact) <= 1e-13 * abs(t_exact)
        assert sd.unitarity_defect <= 1e-14

    @pytest.mark.parametrize("v0", [3e5])
    def test_overflowing_barrier_raises_without_warnings(self, v0):
        # the integration overflows at 3e5; no floating-point warning may leak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="transfer matrix overflowed"):
                scattering_coefficients(square_well(v0, 1.0), math.pi)

    def test_non_finite_propagation_raises_without_warnings(self, monkeypatch):
        # an infinite state at the end of the Magnus pass is an overflow
        monkeypatch.setattr(scattering, "_magnus", lambda *args: iter([np.full((2, 1, 2), np.inf)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="transfer matrix overflowed"):
                scattering_coefficients(square_well(1.0, 1.0), math.pi)

    def test_unitarity_defect_raises(self, monkeypatch):
        # det M = 2 breaks the closed form's premise: |t|^2 + |r|^2 = 5/9
        monkeypatch.setattr(scattering, "_transfer_matrix",
                            lambda V, k: np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(SolverFailure, match="unitarity defect"):
            scattering_coefficients(square_well(1.0, 1.0), math.pi)

    def test_non_finite_transfer_matrix_raises(self, monkeypatch):
        monkeypatch.setattr(scattering, "_transfer_matrix",
                            lambda V, k: np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(SolverFailure, match="not finite"):
            scattering_coefficients(square_well(1.0, 1.0), math.pi)

    def test_barrier_within_defect_bound_returns(self):
        V = square_well(50.0, 1.0)
        sd = scattering_coefficients(V, math.pi)
        assert sd.unitarity_defect <= 1e-8
        assert abs(sd.t - closed_form_transmission(50.0, 1.0, math.pi)) <= 1e-10

    def test_gamma_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(scattering, "_transfer_matrix",
                            lambda V, k: np.array([[2.0, 0.0], [0.0, 1.0]]))
        code = cli_main(["gamma", "--potential", "square_well", "--v0", "1", "--a", "1",
                         "--nu", str(NU)])
        assert "unitarity defect" in capsys.readouterr().err
        assert code == 1


class TestGammaRoutes:
    def test_zero_potential(self):
        V = square_well(0.0, 1.0)
        assert gamma_scattering(V, NU) < 1e-12
        assert gamma_gkm(V, NU) < 1e-12

    def test_nonnegative_on_corpus(self, well_attractive, well_repulsive, gauss_bump, table_mixed):
        for V in (well_attractive, well_repulsive, gauss_bump, table_mixed):
            assert gamma_scattering(V, NU) >= 0.0

    def test_gkm_equals_scattering(self, well_attractive, well_repulsive, gauss_bump, table_mixed):
        # unitarity identity: tr[(S-1)*(S-1)] = 4(1 - Re t)
        for V in (well_attractive, well_repulsive, gauss_bump, table_mixed):
            assert abs(gamma_gkm(V, NU) - gamma_scattering(V, NU)) <= 1e-10

    def test_square_well_value_against_closed_form(self):
        V = square_well(-0.5, 1.0)
        t = closed_form_transmission(-0.5, 1.0, math.pi)
        expected = (1.0 - t.real) / math.pi**2
        assert abs(gamma_scattering(V, NU) - expected) < 1e-8

    def test_symmetric_potential_trace_expansion(self, gauss_bump):
        # symmetric V: r1 = r2 and the trace reduces to
        # (|1 - t|^2 + |r1|^2) / (2 pi^2)
        sd = scattering_coefficients(gauss_bump, math.sqrt(NU))
        assert abs(sd.r1 - sd.r2) < 1e-9
        expanded = (abs(1.0 - sd.t) ** 2 + abs(sd.r1) ** 2) / (2.0 * math.pi**2)
        assert gamma_gkm(gauss_bump, NU) == pytest.approx(expanded, abs=1e-11)

    def test_born_scaling(self, well_attractive):
        # gamma(cV) = O(c^2): the ratio gamma/c^2 converges as c halves
        ratios = []
        for c in (0.2, 0.1, 0.05):
            ratios.append(gamma_scattering(scale_potential(well_attractive, c), NU) / c**2)
        assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
        assert abs(ratios[1] - ratios[0]) < 0.05 * ratios[0]


class TestSMatrix:
    def test_structure(self, well_attractive):
        S = s_matrix(well_attractive, NU)
        sd = scattering_coefficients(well_attractive, math.sqrt(NU))
        assert S[0, 0] == S[1, 1] == sd.t
        assert S[0, 1] == sd.r2
        assert S[1, 0] == sd.r1

    def test_unitary(self, well_repulsive, table_mixed):
        for V in (well_repulsive, table_mixed):
            S = s_matrix(V, NU)
            assert np.max(np.abs(S.conj().T @ S - np.eye(2))) < 1e-10
