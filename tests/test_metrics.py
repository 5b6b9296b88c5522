import functools
import math

import numpy as np
import pytest

from orthocat import metrics
from orthocat.core import (gaussian_truncated, potential_norms, row_quadrature,
                           scale_potential, square_well, table_potential)
from orthocat.free import free_eigenvalues
from orthocat.metrics import (
    anderson_integral,
    anderson_result,
    defect_norm,
    det_bounds,
    log_transition_probability,
    overlap_matrix,
    transition_probability,
)
from orthocat.perturbed import eigenpairs

from conftest import box_samples, grid_for

V_FREE = square_well(0.0, 1.0)


@pytest.fixture(scope="module")
def weak_instance(well_weak):
    N = 10
    L = (N + 0.5) / 2.0
    grid = grid_for(L)
    ov = overlap_matrix(N, well_weak, L, grid)
    return N, L, grid, ov


class TestOverlapMatrix:
    def test_free_case_identity(self):
        N, L = 12, 6.25
        grid = grid_for(L)
        ov = overlap_matrix(N, V_FREE, L, grid)
        assert np.max(np.abs(ov.matrix - np.eye(N))) < 1e-8

    def test_bessel_row_sums(self, weak_instance):
        _, _, _, ov = weak_instance
        row_sums = np.sum(ov.matrix**2, axis=1)
        assert np.all(row_sums <= 1.0 + 1e-8)

    def test_entries_bounded(self, weak_instance):
        _, _, _, ov = weak_instance
        assert np.max(np.abs(ov.matrix)) <= 1.0 + 1e-8

    def test_free_modes_sampled_on_the_support_only(self, well_attractive, monkeypatch):
        # the field-free ends enter in closed form, so no box-wide samples
        counts = []
        sample = metrics.free_eigenfunction_matrix
        monkeypatch.setattr(metrics, "free_eigenfunction_matrix",
                            lambda n, L, x: counts.append(np.size(x)) or sample(n, L, x))
        N, L = 10, 5.25
        grid = grid_for(L)
        overlap_matrix(N, well_attractive, L, grid)
        assert counts == [int(np.sum(np.abs(grid.nodes) <= well_attractive.a))]
        assert counts[0] < grid.size

    def test_grid_refinement_stability(self, well_attractive):
        N, L = 6, 3.25
        vals = []
        for npw in (16, 32):
            ov = overlap_matrix(N, well_attractive, L, grid_for(L, npw=npw))
            vals.append(ov.matrix)
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-6


class TestAndersonIntegral:
    def test_free_case_zero(self):
        N, L = 20, 10.25
        ov = overlap_matrix(N, V_FREE, L, grid_for(L))
        assert abs(anderson_integral(ov)) < 1e-10

    def test_nonnegative(self, weak_instance, well_attractive):
        _, _, _, ov = weak_instance
        assert anderson_integral(ov) >= 0.0
        N, L = 8, 4.25
        ov2 = overlap_matrix(N, well_attractive, L, grid_for(L))
        assert anderson_integral(ov2) >= 0.0

    def test_against_extended_tail_sum(self, well_attractive):
        # I = sum_{j<=N} sum_{k>N} |A_jk|^2; compare the completeness form
        # against the explicit tail up to K = N + 200 plus a remainder bound
        N, K = 10, 210
        L = (N + 0.5) / 2.0
        # the grid must resolve the fastest retained mode, k = K
        from orthocat.core import build_grid
        from orthocat.free import free_eigenfunction_matrix
        from orthocat.metrics import OverlapMatrix

        grid = build_grid(L, math.pi * (K + 1) / (2 * L), support=(-1.0, 1.0))
        mus, psi, walls = eigenpairs(K, well_attractive, L, grid)
        psi = box_samples(psi, walls, mus, well_attractive, grid)
        phi = free_eigenfunction_matrix(N, L, grid.nodes)
        wide = (phi * grid.weights) @ psi.T  # N x K overlaps
        i_completeness = anderson_integral(OverlapMatrix(N, wide))
        tail = float(np.sum(wide[:, N:] ** 2))

        # remainder over k > K: the k-th coefficient of V phi_j divided by
        # mu_k - lambda_j, so sum_j ||V phi_j||^2 / (mu_{K+1} - lambda_N)^2
        v_phi_sq = (phi**2 * well_attractive(grid.nodes) ** 2) @ grid.weights
        lam = free_eigenvalues(L, K + 1)
        linf = potential_norms(well_attractive).linf
        gap = lam[K] - linf - lam[N - 1]
        remainder = float(np.sum(v_phi_sq)) / gap**2
        assert tail <= i_completeness + 1e-10
        assert i_completeness <= tail + remainder + 1e-9

    def test_monotone_in_coupling(self, well_attractive):
        N = 10
        L = (N + 0.5) / 2.0
        grid = grid_for(L)
        vals = []
        for c in (0.1, 0.2, 0.4):
            ov = overlap_matrix(N, scale_potential(well_attractive, c), L, grid)
            vals.append(anderson_integral(ov))
        assert vals[0] < vals[1] < vals[2]

    def test_equals_defect_trace(self, weak_instance):
        # N - |A|_F^2 agrees with tr(1 - A A^T)
        _, _, _, ov = weak_instance
        a = ov.matrix
        tr_form = float(np.trace(np.eye(ov.n) - a @ a.T))
        assert anderson_integral(ov) == pytest.approx(tr_form, abs=1e-10)


class TestTransitionProbability:
    def test_free_case_unity(self):
        N, L = 20, 10.25
        ov = overlap_matrix(N, V_FREE, L, grid_for(L))
        assert transition_probability(ov) == pytest.approx(1.0, abs=1e-10)

    def test_in_unit_interval(self, weak_instance, table_mixed):
        _, _, _, ov = weak_instance
        assert 0.0 <= transition_probability(ov) <= 1.0 + 1e-12
        N, L = 8, 4.25
        ov2 = overlap_matrix(N, table_mixed, L, grid_for(L))
        assert 0.0 <= transition_probability(ov2) <= 1.0 + 1e-12

    def test_lu_vs_gram_determinant(self, weak_instance):
        _, _, _, ov = weak_instance
        a = ov.matrix
        sign, logdet = np.linalg.slogdet(a @ a.T)
        assert sign > 0
        assert log_transition_probability(ov) == pytest.approx(logdet, rel=1e-10)

    def test_spectral_route_consistency(self, weak_instance):
        # det(A A^T) = prod(1 - s_i) with s_i the eigenvalues of 1 - A A^T
        _, _, _, ov = weak_instance
        gap_eigs = np.linalg.eigvalsh(np.eye(ov.n) - ov.matrix @ ov.matrix.T)
        log_spectral = float(np.sum(np.log1p(-gap_eigs)))
        assert log_transition_probability(ov) == pytest.approx(log_spectral, rel=1e-8)

    def test_anderson_inequality(self, weak_instance):
        _, _, _, ov = weak_instance
        assert log_transition_probability(ov) <= -anderson_integral(ov) + 1e-10


class TestAndersonResult:
    def test_free_summary(self):
        res = anderson_result(20, V_FREE, 10.25, grid_for(10.25))
        assert abs(res.anderson_integral) < 1e-10
        assert res.transition == pytest.approx(1.0, abs=1e-10)
        assert res.defect_norm < 1e-8
        assert res.m == 20

    def test_count_matches_projection_rank(self, weak_instance, well_weak):
        N, L, grid, _ = weak_instance
        res = anderson_result(N, well_weak, L, grid)
        assert res.m == N

    def test_box_comes_from_L_not_the_grid(self, well_attractive):
        # the grid gives only its support nodes, so a grid built for a wider
        # box changes nothing; eigenfunctions in the grid's box would give
        # I = 4.90 and a defect of 2.16
        N, L = 10, 5.25
        wide = anderson_result(N, well_attractive, L, grid_for(10.0))
        assert wide == anderson_result(N, well_attractive, L, grid_for(L))
        assert wide.anderson_integral == pytest.approx(1.5748e-3, rel=1e-4)


class TestDetBounds:
    def test_free_case_degenerate(self):
        rep = det_bounds(10, V_FREE, 5.25, grid_for(5.25))
        assert rep.log_value == pytest.approx(0.0, abs=1e-10)
        assert rep.log_upper == pytest.approx(0.0, abs=1e-10)
        assert rep.log_lower == pytest.approx(0.0, abs=1e-10)
        assert rep.sandwich_holds

    def test_sandwich_strict_for_weak_coupling(self, weak_instance, well_weak):
        N, L, grid, _ = weak_instance
        rep = det_bounds(N, well_weak, L, grid)
        assert rep.defect < 1.0
        assert rep.log_lower < rep.log_value < rep.log_upper < 0.0
        assert rep.sandwich_holds

    def test_defect_weak_coupling_bound(self, well_weak):
        for N in (10, 20):
            L = (N + 0.5) / 2.0
            rep = det_bounds(N, well_weak, L, grid_for(L))
            assert rep.q_omega < 1.0
            assert rep.defect <= rep.weak_coupling_bound
            assert rep.defect_bound_holds

    def test_defect_equals_gap_norm(self, weak_instance):
        _, _, _, ov = weak_instance
        gap = np.eye(ov.n) - ov.matrix @ ov.matrix.T
        assert defect_norm(ov) == pytest.approx(float(np.linalg.norm(gap, 2)), rel=1e-10)


FACTOR_POTENTIALS = {
    "well": square_well(-0.5, 1.0),
    "gaussian": gaussian_truncated(-0.5, 0.5, 1.5),
    "table": table_potential([-1.5, -0.77, 0.31, 1.5], [0.0, 0.6, -0.4, 0.0]),
    "barrier20": square_well(20.0, 1.0),
    "well20": square_well(-20.0, 1.0),
}


@functools.lru_cache(maxsize=None)
def _row_overlap(name, n):
    """A row's overlap at unit density in a box that holds the support at every N."""
    V = FACTOR_POTENTIALS[name]
    L = (n + 0.5) / 2.0 + V.a
    return overlap_matrix(n, V, L, row_quadrature(V, L, math.pi**2))


def _gaps(a):
    """1 - s^2 over the singular values s of A, as the eigenvalues of
    1 - A^T A formed from E = A - 1, -(E + E^T + E^T E), so that no entry
    loses digits to 1 - (A^T A)_kk.  The singular values of numpy's SVD of A
    miss I by 1.3-1.9e-10 relative on the table at N = 800, against an
    extended-precision N - |A|_F^2; these agree with it to 6e-13."""
    e = a - np.eye(len(a))
    return np.linalg.eigvalsh(-(e + e.T + e.T @ e))


class TestFactorization:
    """I, ln D and the defect from |A|_F^2, one LU and a block iteration,
    against the same three numbers from the singular values."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 200, 800])
    @pytest.mark.parametrize("name", list(FACTOR_POTENTIALS))
    def test_matches_singular_values(self, name, n):
        ov = _row_overlap(name, n)
        gaps = _gaps(ov.matrix)
        assert log_transition_probability(ov) == pytest.approx(np.sum(np.log1p(-gaps)), rel=1e-10)
        assert anderson_integral(ov) == pytest.approx(np.sum(gaps), rel=1e-10)
        ref = np.max(np.abs(gaps))
        assert abs(defect_norm(ov) - ref) <= 1e-12 * ref + 1e-15

    @pytest.mark.parametrize("n", [1, 9, 200, 800])
    def test_free_case_settles(self, n):
        L = (n + 0.5) / 2.0 + 1.0
        ov = overlap_matrix(n, V_FREE, L, row_quadrature(V_FREE, L, math.pi**2))
        assert defect_norm(ov) < 1e-12

    def test_reruns_are_bit_identical(self):
        ov = _row_overlap("gaussian", 200)
        reads = (anderson_integral, log_transition_probability, defect_norm)
        assert [f(ov).hex() for f in reads] == [f(ov).hex() for f in reads]

    def test_clustered_top_falls_back_to_dense(self, monkeypatch):
        # A = Q diag(s) with twelve 1 - s^2 within 1e-9 of 0.5 on top: lambda_9 / lambda_1
        # is 1 - 8e-9, so no 8-column iteration settles, and the dense eigenvalues answer
        rng = np.random.default_rng(7)
        gaps = np.concatenate([0.5 * (1.0 - 1e-9 * np.arange(12)), 1e-3 * rng.random(28)])
        q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        ov = metrics.OverlapMatrix(40, q * np.sqrt(1.0 - gaps))
        assert defect_norm(ov) == pytest.approx(0.5, rel=1e-12)
        monkeypatch.setattr(metrics, "_DEFECT_ITERATIONS", 1)
        assert defect_norm(ov) == pytest.approx(0.5, rel=1e-12)

    def test_iteration_cap_falls_back_to_dense(self, monkeypatch):
        ov = _row_overlap("well", 8)
        settled = defect_norm(ov)
        monkeypatch.setattr(metrics, "_DEFECT_ITERATIONS", 1)
        assert defect_norm(ov) == pytest.approx(settled, rel=1e-12)
