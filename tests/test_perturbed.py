import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from orthocat import perturbed
from orthocat.core import (Potential, SolverFailure, SystemConfig, fermi_grid, gaussian_truncated,
                           potential_norms, row_quadrature, square_well, table_potential)
from orthocat.free import fermi_energy, free_eigenfunction_matrix, free_eigenvalue
from orthocat.metrics import anderson_result
from orthocat.perturbed import (
    AmbiguousEnergyError,
    bargmann_upper_bound,
    count_below,
    counting_lower_bound,
    eigenpairs,
    perturbed_eigenfunction,
    perturbed_eigenvalue,
    perturbed_eigenvalues,
    prufer_phase,
)

from conftest import box_samples, grid_for

V_FREE = square_well(0.0, 1.0)


class TestPruferPhase:
    def test_free_phase_linear(self):
        L = 10.25
        for mu in (0.5, 2.0, 9.87):
            assert prufer_phase(mu, V_FREE, L) == pytest.approx(2 * L * math.sqrt(mu), rel=1e-12)

    def test_free_eigenvalue_condition(self):
        L = 3.0
        for k in (1, 2, 5, 9):
            theta = prufer_phase(free_eigenvalue(k, L), V_FREE, L)
            assert theta == pytest.approx(k * math.pi, rel=1e-12)

    def test_monotone_in_energy(self, well_attractive):
        L = 4.0
        mus = np.linspace(0.3, 8.0, 12)
        thetas = [prufer_phase(mu, well_attractive, L) for mu in mus]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    def test_negative_energy_phase_bounded(self, well_attractive):
        # below the spectrum the phase stays in (0, pi): no zeros of psi
        theta = prufer_phase(-1.0, well_attractive, 12.0)
        assert 0.0 < theta < math.pi


def _reference_phase(mu, V, L):
    """theta(L, mu) by DOP853 on the Pruefer equation, split at the support
    edges and the knots of V; shares no code with the solver."""
    sigma = math.sqrt(mu)

    def rhs(x, y):
        s2 = math.sin(y[0]) ** 2
        return [(mu - V(x)) * s2 / sigma + sigma * (1.0 - s2)]

    breaks = np.unique(np.concatenate([[-L, -V.a, V.a, L], V.knots]))
    theta = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        theta = solve_ivp(rhs, (lo, hi), [theta], method="DOP853",
                          rtol=1e-13, atol=1e-14).y[0, -1]
    return theta


def _seeded_table(seed):
    # 13 equally spaced knots on [-1.5, 1.5], zero ends, interior values
    # uniform in [-0.3, 0.3]
    values = np.zeros(13)
    values[1:-1] = np.random.default_rng(seed).uniform(-0.3, 0.3, 11)
    return table_potential(np.linspace(-1.5, 1.5, 13), values)


class TestPhaseReference:
    @pytest.mark.parametrize("V", [
        gaussian_truncated(0.3, 0.5, 1.5),
        gaussian_truncated(-0.4, 0.7, 2.0),
        table_potential([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.3, -0.2, 0.3, 0.0]),
        _seeded_table(0),
        _seeded_table(1),
    ], ids=["gauss+0.3", "gauss-0.4", "table_mixed", "table_seed0", "table_seed1"])
    def test_phase_matches_dop853(self, V):
        L = 5.25
        for mu in (0.05, 0.5, 2.0, math.pi**2, 40.0, 400.0):
            err = abs(prufer_phase(mu, V, L) - _reference_phase(mu, V, L))
            assert err <= 1e-8, (mu, err)


def _well_endpoint(mu, v0, a, L):
    """u(L) for u(-L) = 0, u'(-L) = 1, shot exactly through the three
    constant pieces of the square well, in mpmath."""
    u, p = mpmath.mpf(0), mpmath.mpf(1)
    for e, length in ((mu, L - a), (mu - v0, 2 * a), (mu, L - a)):
        if e > 0:
            k = mpmath.sqrt(e)
            c, s = mpmath.cos(k * length), mpmath.sin(k * length)
            u, p = u * c + p * s / k, -u * k * s + p * c
        elif e < 0:
            k = mpmath.sqrt(-e)
            c, s = mpmath.cosh(k * length), mpmath.sinh(k * length)
            u, p = u * c + p * s / k, u * k * s + p * c
        else:
            u = u + p * length
    return u


class TestSquareWellOracle:
    @pytest.mark.parametrize("v0", [-0.5, 0.5])
    def test_eigenvalues_match_30_digit_oracle(self, v0):
        L, a = 25.25, 1.0
        V = square_well(v0, a)
        mus = [perturbed_eigenvalue(k, V, L, tol=1e-12) for k in range(1, 51)]
        with mpmath.workdps(30):
            v0_mp, L_mp = mpmath.mpf(v0), mpmath.mpf(L)
            oracle = []
            for mu in mus:
                d = 1e-9 * max(1.0, abs(mu))
                oracle.append(mpmath.findroot(lambda m: _well_endpoint(m, v0_mp, a, L_mp),
                                              (mpmath.mpf(mu - d), mpmath.mpf(mu + d))))
            # u(L; mu) changes sign at each eigenvalue, so its sign between
            # consecutive oracle roots proves that no eigenvalue was skipped
            probes = [oracle[0] - 1] + [(x + y) / 2 for x, y in zip(oracle, oracle[1:])]
            signs = [mpmath.sign(_well_endpoint(m, v0_mp, a, L_mp)) for m in probes]
        assert signs == [(-1) ** k for k in range(50)]
        for k, (mu, ref) in enumerate(zip(mus, oracle), start=1):
            assert abs(mu - float(ref)) <= 1e-10 * abs(float(ref)), (k, mu, ref)


def _piece(e, h, u, p):
    """State (u, u') after length h of -u'' = e u from (u, p), and the
    integral of u^2 over the piece, in closed form in mpmath.  With
    c = cos(kh), s = sin(kh)/k and k = sqrt(e) every expression is even in
    k, so an imaginary k (e < 0) gives the hyperbolic forms."""
    k = mpmath.sqrt(e)
    c, s = mpmath.cos(k * h), mpmath.sin(k * h) / k
    square = u * u * (h + c * s) / 2 + u * p * s * s + p * p * (h - c * s) / (2 * e)
    return mpmath.re(u * c + p * s), mpmath.re(p * c - e * s * u), mpmath.re(square)


def _well_overlap_oracle(v0, N):
    """I_N = N - |A|_F^2 and ln D_N = ln det(A)^2 for square_well(v0, 1) at
    unit density, in mpmath at 30 digits.

    The roots of ``_well_endpoint`` start from the solver's eigenvalues, and
    the sign of u(L) between consecutive roots proves that none is skipped.
    With the shooting solution u (u(-L) = 0, u'(-L) = 1) and the unnormalized
    free sin(q_j (x + L)) of norm^2 L, the Green identity gives
    A_jk = v0 (phi_j, psi_k)_[-a,a] / (mu_k - lambda_j), and on [-a, a]
    (phi_j, u) = [phi_j' u - phi_j u']_-a^a / (mu_k - v0 - lambda_j).  The
    norm of u is closed form piece by piece; the right piece mirrors the left
    since the well is even.  Signs of A drop out of I and ln D."""
    L, a = (N + 0.5) / 2.0, 1.0
    mus = perturbed_eigenvalues(range(1, N + 1), square_well(v0, a), L, tol=1e-12)
    with mpmath.workdps(30):
        v0, L, a = mpmath.mpf(v0), mpmath.mpf(L), mpmath.mpf(a)
        roots = []
        for mu in mus:
            d = 1e-9 * max(1.0, abs(mu))
            roots.append(mpmath.findroot(lambda m: _well_endpoint(m, v0, a, L),
                                         (mpmath.mpf(mu - d), mpmath.mpf(mu + d))))
        probes = [roots[0] - 1] + [(x + y) / 2 for x, y in zip(roots, roots[1:])]
        signs = [mpmath.sign(_well_endpoint(m, v0, a, L)) for m in probes]
        assert signs == [(-1) ** k for k in range(N)]
        A = mpmath.matrix(N, N)
        for k, mu in enumerate(roots):
            u_lo, p_lo, left = _piece(mu, L - a, mpmath.mpf(0), mpmath.mpf(1))
            u_hi, p_hi, middle = _piece(mu - v0, 2 * a, u_lo, p_lo)
            norm = mpmath.sqrt(L * (2 * left + middle))
            for j in range(N):
                q = (j + 1) * mpmath.pi / (2 * L)
                green = ((q * mpmath.cos(q * (a + L)) * u_hi - mpmath.sin(q * (a + L)) * p_hi)
                         - (q * mpmath.cos(q * (L - a)) * u_lo - mpmath.sin(q * (L - a)) * p_lo))
                A[j, k] = v0 * green / ((mu - v0 - q * q) * (mu - q * q) * norm)
        return float(N - mpmath.mnorm(A, "f") ** 2), float(mpmath.log(mpmath.det(A) ** 2))


class TestSquareWellOverlapOracle:
    @pytest.mark.parametrize("v0, N", [(-0.5, 10), (-0.5, 25), (0.5, 10), (0.5, 25),
                                       (-3.0, 10), (-3.0, 25), (20.0, 10), (-20.0, 10)])
    def test_anderson_integral_and_log_d_match_oracle(self, v0, N):
        I_ref, log_d_ref = _well_overlap_oracle(v0, N)
        system = SystemConfig(1.0, N)
        V = square_well(v0, 1.0)
        res = anderson_result(N, V, system.L, fermi_grid(V, system.L, system.nu))
        for got, ref in ((res.anderson_integral, I_ref), (res.log_transition, log_d_ref)):
            assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)
            assert abs(got - ref) <= 1e-12, (got, ref)


BOUND_STATE_POTENTIALS = pytest.mark.parametrize(
    "V", [square_well(-0.5, 1.0), gaussian_truncated(-0.5, 0.5, 1.5)], ids=["well", "gauss"])


class TestMinMaxBracket:
    """Every root lies in its Courant-Fischer bracket, which is checked once
    and never widened."""

    L = 20.25
    KS = np.arange(1, 41)

    @pytest.mark.parametrize("v0", [0.5, 20.0, -0.5, -20.0])
    def test_sign_definite_potential_shifts_roots_one_way(self, v0):
        mus = perturbed_eigenvalues(self.KS, square_well(v0, 1.0), self.L)
        lam = np.array([free_eigenvalue(int(k), self.L) for k in self.KS])
        shift = mus - lam
        assert np.all(shift >= 0.0) if v0 > 0.0 else np.all(shift <= 0.0)
        assert np.all(np.abs(shift) <= abs(v0))

    def test_wrong_sign_at_bracket_names_the_roots(self, monkeypatch):
        # in a box of L = 2 the levels are over 1.8 apart, so each bracket
        # (0.5 wide plus pads) holds one root and a phase off by pi fails it
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases", lambda *args: phases(*args) + math.pi)
        with pytest.raises(SolverFailure, match=r"eigenvalues \[2, 5\]"):
            perturbed_eigenvalues([2, 5], square_well(-0.5, 1.0), 2.0)

    @pytest.mark.parametrize("shift", [math.pi, -math.pi], ids=["+pi", "-pi"])
    def test_phase_off_by_pi_raises(self, shift, monkeypatch):
        # at L = 20.25 each bracket holds several levels, so the bracket signs
        # miss a shift of +pi (mu_1 and mu_4 come back); the phase below the
        # lowest level, which must lie in (0, pi), catches it
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases", lambda *args: phases(*args) + shift)
        with pytest.raises(SolverFailure):
            perturbed_eigenvalues([2, 5], square_well(-0.5, 1.0), self.L)

    def test_batched_well_phase_passes(self, monkeypatch):
        # N = 200 acceptance-sweep row: one bracket pass, then Illinois
        calls = []
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases",
                            lambda *args: calls.append(1) or phases(*args))
        perturbed_eigenvalues(np.arange(1, 201), square_well(-0.5, 1.0), 100.25)
        assert len(calls) <= 20


class TestWallMatching:
    """Bound states in a long box, where theta(L, .) would jump by pi across
    an exponentially thin window around the root."""

    L = 100.25

    @BOUND_STATE_POTENTIALS
    def test_bound_state_root_takes_few_phase_passes(self, V, monkeypatch):
        calls = []
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases",
                            lambda *args: calls.append(1) or phases(*args))
        mu = perturbed_eigenvalue(1, V, self.L)
        assert mu < 0.0
        assert len(calls) <= 20

    def test_seeded_table_phase_passes(self, monkeypatch):
        # the spectrum's ten roots take 74 phase passes; a cheaper pass must
        # not be bought with more Illinois iterations
        calls = []
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases",
                            lambda *args: calls.append(1) or phases(*args))
        for k in range(1, 11):
            perturbed_eigenvalue(k, _seeded_table(1), 5.25)
        assert len(calls) <= 74

    @BOUND_STATE_POTENTIALS
    def test_bound_state_residual_measures_eigenvalue_error(self, V):
        grid = fermi_grid(V, self.L, math.pi**2)
        mu = perturbed_eigenvalue(1, V, self.L)
        assert perturbed_eigenfunction(1, mu, V, self.L, grid).endpoint_residual < 1e-12
        off = perturbed_eigenfunction(1, mu * (1 + 1e-8), V, self.L, grid).endpoint_residual
        assert off > 1e-10


def _wall_integrals_reference(mu, d, ps):
    """int_0^d w^2 and int_0^d sin(p u) w of the wall solution, by mpmath's
    30-digit Gauss-Legendre quadrature over eight panels."""
    with mpmath.workdps(30):
        mu, d = mpmath.mpf(mu), mpmath.mpf(d)
        if mu > 0:
            w = lambda u: mpmath.sin(mpmath.sqrt(mu) * u)
        elif mu < 0:
            kappa = mpmath.sqrt(-mu)
            w = lambda u: mpmath.exp(-kappa * d) * mpmath.sinh(kappa * u)
        else:
            w = lambda u: u
        panels = mpmath.linspace(0, d, 9)
        square = mpmath.quad(lambda u: w(u) ** 2, panels, method="gauss-legendre")
        cross = [mpmath.quad(lambda u: mpmath.sin(mpmath.mpf(p) * u) * w(u), panels, method="gauss-legendre")
                 for p in ps]
        return np.array([float(square)] + [float(c) for c in cross])


class TestWallIntegrals:
    """The closed forms and series of ``_wall_integrals`` on both sides of
    mu = 0, where the plain closed forms lose digits."""

    @pytest.mark.parametrize("mu", [s * m for m in (1e-14, 1e-10, 1e-6, 1e-2, 0.3) for s in (1, -1)] + [0.0])
    @pytest.mark.parametrize("d", [20.0, 0.5])
    def test_against_quadrature(self, mu, d):
        # p = r, p within 1e-9 of r, and free wavenumbers of the box L = d + 1
        r = math.sqrt(abs(mu))
        ps = np.array([r, r + 1e-9] + [math.pi * j / (2.0 * (d + 1.0)) for j in (1, 2, 7, 40)])
        square, cross = perturbed._wall_integrals(np.array([mu]), d, ps)
        got = np.concatenate([square, cross[:, 0]])
        ref = _wall_integrals_reference(mu, d, ps)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), (got, ref)

    def test_column_blocks_are_bit_identical(self, monkeypatch):
        # energies on both sides of mu = 0 (0 itself included) and wavenumbers
        # on both sides of p d = 1, so closed forms and series meet in every
        # block of 7 columns, the last one partial
        mus, p, d = np.linspace(-2.0, 3.0, 41), np.linspace(0.0, 3.0, 13), 2.0
        whole = perturbed._wall_integrals(mus, d, p)
        monkeypatch.setattr(perturbed, "_COLUMNS", 7)
        blocked = perturbed._wall_integrals(mus, d, p)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    def test_empty_end(self):
        mus = np.array([-0.3, -1e-10, 0.0, 1e-10, 0.3])
        square, cross = perturbed._wall_integrals(mus, 0.0, np.array([0.0, 1e-9, 1.0]))
        assert np.all(square == 0.0) and np.all(cross == 0.0)


def _reference_states(points, V, mus, u, p):
    """(psi, psi') at every later point, one Magnus step at a time.

    Same step as the solver (sixth order, three Gauss-Legendre points), but
    its Omega is the commutator form of Blanes, Casas & Ros (BIT 40, 2000)
    taken with 2x2 matrix products, its exponential comes from complex cosh
    and sinh instead of the real branches, and the steps are applied one
    after another."""
    h = np.diff(points)
    mid = 0.5 * (points[1:] + points[:-1])

    def generator(x):
        # A = [[0, 1], [V - mu, 0]] at every step and energy, shape (steps, energies, 2, 2)
        a = np.zeros((x.size, mus.size, 2, 2))
        a[..., 0, 1] = 1.0
        a[..., 1, 0] = V(x)[:, None] - mus
        return a

    def bracket(x, y):
        return x @ y - y @ x

    a1, a2, a3 = (generator(mid + s * math.sqrt(15) / 10 * h) for s in (-1, 0, 1))
    hs = h[:, None, None, None]
    alpha1, alpha2 = hs * a2, math.sqrt(15) / 3 * hs * (a3 - a1)
    alpha3 = 10 / 3 * hs * (a3 - 2 * a2 + a1)
    c1 = bracket(alpha1, alpha2)
    c2 = -bracket(alpha1, 2 * alpha3 + c1) / 60
    omega = alpha1 + alpha3 / 12 + bracket(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240
    w = np.sqrt(omega[..., 0, 0] ** 2 + omega[..., 0, 1] * omega[..., 1, 0] + 0j)
    cosh = np.cosh(w).real
    sinhc = np.where(w == 0, 1.0, np.sinh(w) / np.where(w == 0, 1.0, w)).real
    steps = cosh[..., None, None] * np.eye(2) + sinhc[..., None, None] * omega
    states, x = [], np.array([u, p]).T
    for m in steps:
        x = np.einsum("eij,ej->ei", m, x)
        states.append(x.T)
    return np.transpose(states, (1, 0, 2))


class TestMagnusScan:
    """The block prefix products of ``_magnus`` against plain step-by-step
    propagation, in allowed and forbidden regions, across block boundaries."""

    POTENTIALS = {
        "table": (_seeded_table(1), (-0.2, 50.0)),
        "barrier": (square_well(20.0, 1.0), (0.5, 19.0)),
        "gauss_barrier": (gaussian_truncated(20.0, 0.5, 1.5), (0.5, 19.0)),
    }

    @pytest.mark.parametrize("name", list(POTENTIALS))
    @pytest.mark.parametrize("width", [1, 2, 200])
    @pytest.mark.parametrize("steps", [1, 2, 3, 1001, "past_block"])
    def test_matches_step_by_step_propagation(self, name, width, steps):
        V, (lo, hi) = self.POTENTIALS[name]
        if steps == "past_block":
            steps = perturbed._BLOCK // width + 5
        points = np.linspace(-V.a, V.a, steps + 1)
        mus = np.linspace(lo, hi, width)
        u, p = np.random.default_rng(steps + width).normal(size=(2, width))
        states = np.concatenate(list(perturbed._magnus(perturbed._steps(points, V), mus, u, p)), axis=1)
        ref = _reference_states(points, V, mus, u, p)
        assert states.shape == ref.shape == (2, steps, width)
        err = np.abs(states - ref).max(axis=0)
        assert np.all(err <= 1e-12 * np.hypot(*ref)), err.max()


def _uniform_phases(V, steps, mus, L=5.25):
    """The matching phase at ``mus`` with every piece between V's breaks cut
    into ``steps`` equal steps."""
    b = V.breaks
    points = np.append(np.concatenate([np.linspace(lo, hi, steps + 1)[:-1] for lo, hi in zip(b[:-1], b[1:])]), b[-1])
    return perturbed._phases(mus, L, (points, perturbed._steps(points, V)))


class TestSixthOrderStep:
    """The order of the Magnus step, its exactness on constant pieces, and
    the step set it buys."""

    THREE_KNOT = table_potential([-1.5, -0.77, 0.31, 1.5], [0.0, 0.6, -0.4, 0.0])

    @pytest.mark.parametrize("V, steps", [(_seeded_table(1), [2, 4, 8, 16, 32]),
                                          (gaussian_truncated(-0.5, 0.5, 1.5), [16, 32, 64, 128]),
                                          (gaussian_truncated(20.0, 0.5, 1.5), [16, 32, 64, 128])],
                             ids=["table", "gaussian", "gauss_barrier"])
    def test_phase_error_falls_sixth_order(self, V, steps):
        # h sqrt(40) < 1 on the coarsest step; the reference takes 8x the
        # finest count, and errors below 5e-13 are left to rounding
        mus = np.linspace(0.05, 40.0, 60)
        ref = _uniform_phases(V, 8 * steps[-1], mus)
        errs = [np.abs(_uniform_phases(V, n, mus) - ref).max() for n in steps]
        ratios = [coarse / fine for coarse, fine in zip(errs, errs[1:]) if fine > 5e-13]
        assert len(ratios) >= 2 and min(ratios) >= 40.0, errs

    @pytest.mark.parametrize("v0", [20.0, -20.0])
    def test_constant_pieces_take_the_closed_form_step(self, v0):
        # exp [[0, h], [h q, 0]] in its cosh/sinh form, bit for bit, below and
        # above the barrier's top
        V = square_well(v0, 1.0)
        mus = np.linspace(0.5, 40.0, 7)
        points, steps = perturbed._mesh(V, 1.0, mus[0], mus[-1], 1e-12)
        h = np.diff(points)[:, None]
        assert np.all(steps[[1, 2, 4]] == 0.0) and np.all(steps[[3, 5]] == h.T)
        q = v0 - mus
        w2 = h * (h * q)
        w = np.sqrt(np.abs(w2))
        cosine = np.where(w2 > 0.0, np.cosh(w), np.cos(w))
        sine = np.where(np.abs(w2) < 1e-8, 1.0 + w2 / 6.0, np.where(w2 > 0.0, np.sinh(w), np.sin(w)) / w)
        u, p = np.random.default_rng(7).normal(size=(2, mus.size))
        ref = perturbed._advance(np.array([[cosine, sine * h], [sine * (h * q), cosine]]), np.array([u, p])[:, None])
        states = np.concatenate(list(perturbed._magnus(steps, mus, u, p)), axis=1)
        assert np.array_equal(states, ref)

    def test_potential_read_once_per_mesh(self, monkeypatch):
        # the breaks and the Gauss points of the one step set, however many
        # Illinois passes reuse it
        gauss = gaussian_truncated(-0.5, 0.5, 1.5)
        calls, passes = [], []
        V = Potential(gauss.a, lambda x, amplitude: calls.append(1) or gauss.profile(x, amplitude),
                      gauss.amplitude, gauss.knots)
        phases = perturbed._phases
        monkeypatch.setattr(perturbed, "_phases", lambda *args: passes.append(1) or phases(*args))
        calls.clear()
        perturbed_eigenvalues(np.arange(1, 201), V, 100.25)
        assert len(passes) > 2 and len(calls) == 2

    def test_step_counts(self):
        # at the root tolerance, about 250 steps across the smooth supports
        # (1,000 at fourth order), and 8 across the README well
        for V in (gaussian_truncated(-0.5, 0.5, 1.5), _seeded_table(1), self.THREE_KNOT):
            assert perturbed._mesh(V, V.a, 0.0, math.pi**2, 1e-12)[0].size <= 260
        assert perturbed._mesh(square_well(-0.5, 1.0), 1.0, 0.0, math.pi**2, 1e-12)[0].size == 9


class TestBatchConsistency:
    def test_batch_mixing_bound_and_box_states(self, well_attractive):
        L = 20.0
        mus, _, _ = eigenpairs(12, well_attractive, L, grid_for(L))
        assert mus[0] < 0.0 < mus[1]
        for k, mu in enumerate(mus, start=1):
            single = perturbed_eigenvalue(k, well_attractive, L)
            assert abs(mu - single) <= 1e-10 * max(1.0, abs(free_eigenvalue(k, L)))

    def test_count_at_midpoints_between_roots(self, well_attractive):
        L = 20.0
        mus, _, _ = eigenpairs(12, well_attractive, L, grid_for(L))
        for k, (lo, hi) in enumerate(zip(mus, mus[1:]), start=1):
            assert count_below(0.5 * (lo + hi), well_attractive, L) == k

    def test_index_zero_rejected(self, well_attractive):
        with pytest.raises(ValueError):
            perturbed_eigenvalue(0, well_attractive, 5.25)

    @pytest.mark.parametrize("name", ["well_attractive", "table_mixed", "gauss_bump"])
    def test_public_batch_matches_single_calls(self, name, request):
        V = request.getfixturevalue(name)
        L = 5.25
        mus = perturbed_eigenvalues(np.arange(1, 11), V, L)
        assert mus.shape == (10,)
        for k, mu in enumerate(mus, start=1):
            single = perturbed_eigenvalue(k, V, L)
            assert abs(mu - single) <= 1e-12 * max(1.0, abs(single)), (k, mu, single)
        assert perturbed_eigenvalues(3, V, L) == pytest.approx([mus[2]], rel=1e-14)
        with pytest.raises(ValueError):
            perturbed_eigenvalues([0, 1], V, L)


class TestPerturbedEigenvalue:
    def test_free_case_reproduces_spectrum(self):
        L = 10.25
        for k in range(1, 21):
            mu = perturbed_eigenvalue(k, V_FREE, L)
            lam = free_eigenvalue(k, L)
            assert abs(mu - lam) <= 1e-9 * lam

    def test_repulsive_raises_levels(self, well_repulsive):
        L = 5.25
        for k in (1, 2, 5, 10):
            lam = free_eigenvalue(k, L)
            mu = perturbed_eigenvalue(k, well_repulsive, L)
            assert lam - 1e-12 <= mu <= lam + 0.5 + 1e-12

    def test_wavenumber_upper_bound(self, well_repulsive):
        # sqrt(mu_k) <= k pi / 2L + ||V_+||_1 / (k pi)
        L = 5.25
        l1p = potential_norms(well_repulsive).l1_plus
        for k in range(1, 11):
            mu = perturbed_eigenvalue(k, well_repulsive, L)
            assert math.sqrt(mu) <= k * math.pi / (2 * L) + l1p / (k * math.pi) + 1e-12

    def test_attractive_ground_state_against_half_line_oracle(self, well_attractive):
        # for L >> a the lowest level converges to the bound state of the well
        # on the whole line: q tan(q a) = kappa, q^2 + kappa^2 = 0.5
        L = 20.0
        mu1 = perturbed_eigenvalue(1, well_attractive, L)
        q = brentq(lambda q: q * math.tan(q) - math.sqrt(0.5 - q * q), 1e-9,
                   math.sqrt(0.5) - 1e-12)
        oracle = q * q - 0.5
        assert mu1 == pytest.approx(oracle, abs=5e-7)


class TestPerturbedEigenfunction:
    def test_free_case_matches_closed_form(self):
        # the boundary-sign convention reproduces the free family exactly,
        # not just up to sign
        L = 4.0
        grid = grid_for(L)
        mus, psi, walls = eigenpairs(6, V_FREE, L, grid)
        psi = box_samples(psi, walls, mus, V_FREE, grid)
        ref = free_eigenfunction_matrix(6, L, grid.nodes)
        assert np.max(np.abs(psi - ref)) < 1e-8

    def test_right_boundary_small(self, well_attractive):
        L = 5.25
        grid = grid_for(L)
        for k in (2, 7, 10):
            mu = perturbed_eigenvalue(k, well_attractive, L)
            pair = perturbed_eigenfunction(k, mu, well_attractive, L, grid)
            assert pair.endpoint_residual < 1e-6 * np.max(np.abs(pair.psi))

    def test_orthonormal_family(self, well_attractive):
        L = 5.25
        grid = grid_for(L)
        mus, psi, walls = eigenpairs(10, well_attractive, L, grid)
        psi = box_samples(psi, walls, mus, well_attractive, grid)
        gram = (psi * grid.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-7

    def test_normalization(self, gauss_bump):
        L = 3.0
        grid = grid_for(L, a=1.5)
        mu = perturbed_eigenvalue(3, gauss_bump, L)
        pair = perturbed_eigenfunction(3, mu, gauss_bump, L, grid)
        psi = box_samples(pair.psi, pair.walls, mu, gauss_bump, grid)[0]
        assert grid.integrate(psi**2) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("V", [square_well(-0.5, 1.0), gaussian_truncated(0.3, 0.5, 1.5)],
                             ids=["well", "gaussian"])
    def test_support_only_grid_gives_the_box_grid_state(self, V):
        # the box comes from L, not from the grid: a grid on the support alone
        # (half_length = a) gives the state that a grid on [-L, L] gives
        L = 20.25
        box, support = fermi_grid(V, L, math.pi**2), row_quadrature(V, L, math.pi**2, 16)
        assert support.half_length == V.a
        for k in (1, 2, 7, 20):
            mu = perturbed_eigenvalue(k, V, L)
            on_box, on_support = (perturbed_eigenfunction(k, mu, V, L, g) for g in (box, support))
            assert on_support.mu == on_box.mu
            np.testing.assert_allclose(on_support.walls, on_box.walls, rtol=1e-12, atol=0)
            assert on_support.endpoint_residual == pytest.approx(on_box.endpoint_residual, abs=1e-12)

    def test_negative_energy_mode_normalizable(self, well_attractive):
        L = 20.0
        grid = grid_for(L)
        mu = perturbed_eigenvalue(1, well_attractive, L)
        assert mu < 0
        pair = perturbed_eigenfunction(1, mu, well_attractive, L, grid)
        psi = box_samples(pair.psi, pair.walls, mu, well_attractive, grid)[0]
        assert grid.integrate(psi**2) == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.isfinite(psi))


class TestCounting:
    def test_free_count_at_fermi_energy(self):
        for N, L in ((5, 2.75), (20, 10.25)):
            assert count_below(fermi_energy(N, L), V_FREE, L) == N

    def test_monotone_in_potential_sign(self, well_attractive, well_repulsive):
        L, E = 5.25, fermi_energy(10, 5.25)
        m_minus = count_below(E, well_attractive, L)
        m_zero = count_below(E, V_FREE, L)
        m_plus = count_below(E, well_repulsive, L)
        assert m_minus >= m_zero >= m_plus

    def test_phase_floor_equals_root_count(self, well_attractive):
        # floor(theta/pi) agrees with counting roots of the eigenvalue
        # condition theta(L, mu) = k pi below E
        L, E = 3.0, 7.3
        m = count_below(E, well_attractive, L)
        count = 0
        k = 1
        while perturbed_eigenvalue(k, well_attractive, L) < E:
            count += 1
            k += 1
        assert m == count

    def test_ambiguous_energy_rejected(self, well_attractive):
        L = 3.0
        mu3 = perturbed_eigenvalue(3, well_attractive, L)
        with pytest.raises(AmbiguousEnergyError):
            count_below(mu3, well_attractive, L)

    def test_fermi_energy_spectral_gap(self, well_weak):
        # weak coupling: the Fermi energy is never an eigenvalue, with margin
        L, N = 5.25, 10
        nu = fermi_energy(N, L)
        margin = min(abs(perturbed_eigenvalue(k, well_weak, L) - nu) for k in range(8, 14))
        assert margin > 0.1


class TestCountingBounds:
    def test_bargmann_reduces_to_weyl_term(self, well_repulsive):
        # no negative part: C_E = 0
        L, E = 5.25, 9.0
        assert bargmann_upper_bound(E, well_repulsive, 1.0, 0.0, L) == pytest.approx(
            2 * L / math.pi * math.sqrt(E), rel=1e-14
        )

    def test_fermi_energy_form(self, well_attractive):
        # at E = nu_N the Weyl term is exactly N + 1/2
        N, L = 10, 5.25
        nu = fermi_energy(N, L)
        c_alpha = 0.5 * 4.0  # |V_-| <= 2/(1+|x|)^2 on [-1, 1]
        bound = bargmann_upper_bound(nu, well_attractive, 1.0, c_alpha, L)
        c_e = bound - 2 * L / math.pi * math.sqrt(nu)
        assert bound == pytest.approx(N + 0.5 + c_e, rel=1e-12)
        assert c_e > 0

    def test_majorant_violation_rejected(self, well_attractive):
        with pytest.raises(ValueError, match="majorant"):
            bargmann_upper_bound(9.0, well_attractive, 1.0, 0.0, 5.25)

    def test_count_within_bounds(self, well_attractive, well_repulsive):
        for V, c_alpha in ((well_attractive, 2.0), (well_repulsive, 0.0)):
            for N in (10, 50):
                L = (N + 0.5) / 2.0
                nu = fermi_energy(N, L)
                m = count_below(nu, V, L)
                assert m <= bargmann_upper_bound(nu, V, 1.0, c_alpha, L)
                assert m >= counting_lower_bound(nu, V, L)

    def test_lower_bound_forms(self, well_repulsive):
        # V_+ = 0 gives the pure Weyl form; at nu_N it reads N - 1/2 - shift
        L, E = 5.25, 9.0
        assert counting_lower_bound(E, V_FREE, L) == pytest.approx(
            2 * L / math.pi * math.sqrt(E) - 1.0, rel=1e-14
        )
        N = 10
        nu = fermi_energy(N, L)
        l1p = potential_norms(well_repulsive).l1_plus
        expected = N - 0.5 - 2.0 * l1p / (math.pi * math.sqrt(nu))
        assert counting_lower_bound(nu, well_repulsive, L) == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_domain_error(self, well_repulsive):
        with pytest.raises(ValueError):
            counting_lower_bound(1e-4, well_repulsive, 5.25)

    def test_projection_count_gap(self, well_weak):
        # |M - N| stays within the larger of the two counting corrections
        N, L = 20, 10.25
        nu = fermi_energy(N, L)
        m = count_below(nu, well_weak, L)
        norms = potential_norms(well_weak)
        gap_bound = max(0.5, 0.5 + 2.0 * norms.l1_plus / (math.pi * math.sqrt(nu)))
        assert abs(m - N) <= gap_bound
