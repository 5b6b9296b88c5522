"""Dirichlet eigenproblem for -psi'' + V psi = mu psi on [-L, L] by a batched
Magnus propagator, plus the eigenvalue-counting bounds.

The modified Pruefer phase theta is defined through (psi'/sigma, psi) =
r (cos, sin) with sigma = sqrt(mu) for mu > 0 and sigma = 1 otherwise.
Zero counting, and hence the root condition, is independent of the sigma
convention.

Outside the support [-a, a] of V every state is the V = 0 solution that
vanishes at its wall, sin(sqrt(mu) u) for mu > 0, u at mu = 0, and
e^{-kappa d} sinh(kappa u) for mu = -kappa^2 < 0 (attractive wells push the
lowest levels below zero once L is large), where u is the distance from the
wall and d = L - a; only decaying exponentials appear, so nothing overflows.
The shooting solution therefore enters the support at -a with the wall
solution's phase phi_wall(d), and the root function is the matching phase
theta_left(a) + phi_wall(d), with the same wall phase at the right end.  For
mu > 0 this is theta(L, mu); for mu <= 0 it is the phase matched at a, which
stays smooth where theta(L, .) would jump by pi across an exponentially thin
window.  Either way it is strictly increasing and equals k pi at mu_k.

Across the support, (psi, psi') is advanced for many energies at once by the
fourth-order Magnus step with two Gauss-Legendre points (Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 2009), whose exponential of a traceless 2x2 matrix is
closed form; the step is exact where V is constant.  Steps break at -a, 0, a
and every knot of V.  A block of steps is applied by prefix products of its
step matrices in log2(steps) array rounds, not one step at a time; each step
turns the phase by less than pi, so it is unwrapped from atan2(sigma psi,
psi') at every step end.

All eigenvalues of a row come from one vectorized Illinois iteration inside
the min-max brackets, and all eigenfunctions from one more pass that also
steps through the support nodes of the grid and samples psi there; the right
tail is matched to the wall solution at a.  A perturbed eigenstate is thus
its samples at the support nodes plus the amplitudes of its two wall
solutions, and every integral over the field-free ends, its norm and its
overlaps with the free modes, is taken in closed form (``_wall_integrals``).
Failures raise ``core.SolverFailure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Potential, SolverFailure, _support, potential_norms
from .free import free_eigenvalue

__all__ = [
    "AmbiguousEnergyError",
    "prufer_phase",
    "perturbed_eigenvalue",
    "perturbed_eigenvalues",
    "PerturbedEigenpair",
    "perturbed_eigenfunction",
    "eigenpairs",
    "count_below",
    "bargmann_upper_bound",
    "counting_lower_bound",
]

_SQRT3 = math.sqrt(3.0)
_TWO_PI = 2.0 * math.pi
# Largest h * sqrt(max |V - mu|) of a step.  The angle atan2(k psi, psi')
# with k^2 >= |V - mu| turns at rate at most k, so a step crosses at most one
# quadrant boundary, which every sigma convention shares; the Pruefer phase
# therefore moves by less than pi per step.
_STEP_PHASE = 1.0
# Where V is not constant the step is also at most _STEP_SCALE * tol^(1/4),
# the fourth-order rate.
_STEP_SCALE = 3.0
# Step-by-energy entries of a block, whose step matrices are held at once.
_BLOCK = 1 << 12
# count_below refuses E when theta(L, E) is this close to a multiple of pi.
_PHASE_TOL = 1e-8
# Powers of the series in _wall_integrals, which converge to rounding for
# arguments up to 1; (2n+1)! and 1/(2m+2n+3) for each power.
_SERIES = np.arange(12)
_ODD_FACTORIALS = np.array([math.factorial(2 * n + 1) for n in _SERIES], dtype=float)
_SERIES_WEIGHTS = 1.0 / (2 * _SERIES[:, None] + 2 * _SERIES + 3)


class AmbiguousEnergyError(ValueError):
    """The probe energy sits within tolerance of an eigenvalue."""


def _wall(mus, d: float):
    """Values and slopes at distance d from a wall of the V = 0 solutions
    that vanish there, as an array of shape (2, mus.size):

    mu > 0:  sin(sqrt(mu) u).
    mu = 0:  u.
    mu < 0:  e^{-kappa d} sinh(kappa u), kappa = sqrt(-mu), written with
             decaying exponentials only, so sizes at u = d are of order one.
    """
    r = np.sqrt(np.abs(mus))
    return np.where(mus > 0.0, (np.sin(r * d), r * np.cos(r * d)),
                    np.where(mus < 0.0, (-0.5 * np.expm1(-2.0 * r * d), 0.5 * r * (1.0 + np.exp(-2.0 * r * d))),
                             ([d], [1.0])))


def _wall_integrals(mus, d: float, p):
    """Integrals over a field-free end, 0 <= u <= d, of the wall solutions w
    of ``_wall``: int w^2 for every energy, shape (mus.size,), and
    int sin(p_j u) w for every wavenumber p_j >= 0 and energy, shape
    (p.size, mus.size).

    With r = sqrt|mu|, w = c S for S(u) = sin(r u)/r (u at mu = 0, and
    sinh(r u)/r for mu < 0) and c = w'(0).  Where r d <= 1 (and p d <= 1
    for a cross term) both come from the Taylor series of S,
        int S^2 = d^3 sum_{m,n} (-mu d^2)^{m+n} / ((2m+1)! (2n+1)! (2m+2n+3)),
        int sin(p u) S = d^2 sum_{m,n} (-1)^m (p d)^{2m+1} (-mu d^2)^n
                         / ((2m+1)! (2n+1)! (2m+2n+3)).
    Elsewhere they are closed forms, which cancel by a few ulps at most
    there.  For mu > 0, int w^2 = (d/2)(1 - sin(2rd)/2rd) and the cross term
    is (q d sinc((p - r) d) - cos(P d) sin(q d)) / (p + r) with q = min(p, r),
    P = max(p, r) and sinc x = sin x / x, exact at p = r.  For mu < 0,
    int w^2 = (d/2)((1 - e^{-4rd})/4rd - e^{-2rd}), and for mu <= 0 the
    cross term is the Green identity (sin(pd) w'(d) - p cos(pd) w(d)) /
    (p^2 - mu), whose denominator is at least p^2.
    """
    (w, dw), r = _wall(mus, d), np.sqrt(np.abs(mus))
    x, pos, pc = 2.0 * r * d, mus > 0.0, p[:, None]
    sin_p, cos_p, sin_r, cos_r = np.sin(p * d), np.cos(p * d), np.sin(r * d), np.cos(r * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = 0.5 * d * np.where(pos, 1.0 - np.sinc(x / np.pi), -np.expm1(-2.0 * x) / (2.0 * x) - np.exp(-x))
        cross = np.where(pos, (np.minimum(pc, r) * d * np.sinc((pc - r) * (d / np.pi))
                               - np.where(pc > r, np.outer(cos_p, sin_r), np.outer(sin_p, cos_r))) / (pc + r),
                         (np.outer(sin_p, dw) - np.outer(p * cos_p, w)) / (pc * pc - mus))
    c2, small = np.where(pos, mus, np.where(mus < 0.0, -mus * np.exp(-x), 1.0)), r * d <= 1.0
    even = np.where(small, -mus * d * d, 0.0)[:, None] ** _SERIES / _ODD_FACTORIALS
    sq[small] = (d**3 * c2 * np.einsum("km,mn,kn->k", even, _SERIES_WEIGHTS, even))[small]
    j, k = np.nonzero((p * d <= 1.0)[:, None] & small)
    odd = (-1.0) ** _SERIES * (p[j, None] * d) ** (2 * _SERIES + 1) / _ODD_FACTORIALS
    cross[j, k] = d * d * np.sqrt(c2[k]) * np.einsum("em,mn,en->e", odd, _SERIES_WEIGHTS, even[k])
    return sq, cross


def _mesh(V: Potential, a: float, emin: float, emax: float, tol: float, extra=None):
    """Step points from -a to a for energies in [emin, emax], plus ``extra``.

    The breaks of V inside (-a, a), with -a and a, split the support into
    pieces on which V is smooth and monotone (see ``Potential``), so a piece
    whose ends carry the same value is constant and its steps are exact.
    """
    breaks = np.concatenate([[-a], V.breaks[np.abs(V.breaks) < a], [a]])
    flat = np.diff(V(breaks)) == 0.0
    spread = max(abs(V.vmax - emin), abs(V.vmin - emax))
    h_flat = _STEP_PHASE / math.sqrt(spread) if spread > 0.0 else math.inf
    h_smooth = min(h_flat, _STEP_SCALE * tol**0.25)
    pieces = []
    for lo, hi, f in zip(breaks[:-1], breaks[1:], flat):
        steps = max(1, math.ceil((hi - lo) / (h_flat if f else h_smooth)))
        pieces.append(np.linspace(lo, hi, steps + 1)[:-1])
    points = np.append(np.concatenate(pieces), a)
    return points if extra is None else np.union1d(points, extra)


def _magnus(points, V: Potential, mus, u, p):
    """Advance (psi, psi') of -psi'' + V psi = mu psi from points[0] to each
    later point, for every energy in ``mus`` at once.

    V is evaluated once, at the two Gauss-Legendre points of every step.
    With q = V - mu the step is exp(Omega), Omega = [[c, h], [h qbar, -c]],
    where qbar is the mean of q at the two points and c = sqrt(3)/12 h^2
    (V1 - V2) does not depend on mu; exp(Omega) = C I + S Omega with
    (C, S) = (cosh w, sinh w / w) for w^2 = c^2 + h^2 qbar >= 0 and the
    trigonometric forms otherwise.  Yields the states (psi, psi') at the step
    ends, a block of steps at a time, as arrays of shape (2, steps, energies).
    """
    h = np.diff(points)
    mid = 0.5 * (points[1:] + points[:-1])
    offset = (_SQRT3 / 6.0) * h
    v1, v2 = np.split(V(np.concatenate([mid - offset, mid + offset])), 2)
    c = (_SQRT3 / 12.0) * h * h * (v1 - v2)
    block = max(1, _BLOCK // mus.size)
    x = np.array([u, p])[:, None]
    for s in range(0, h.size, block):
        hb, cb = h[s:s + block, None], c[s:s + block, None]
        hq = hb * (0.5 * (v1[s:s + block] + v2[s:s + block])[:, None] - mus)
        w2 = cb * cb + hb * hq
        w = np.sqrt(np.abs(w2))
        grows = w2 > 0.0
        small = np.abs(w2) < 1e-8
        cosine, sine = np.cos(w), np.sin(w)
        np.cosh(w, out=cosine, where=grows)
        np.sinh(w, out=sine, where=grows)
        sine = np.where(small, 1.0 + w2 / 6.0, sine / np.where(small, 1.0, w))
        states = _advance(np.array([[cosine + sine * cb, sine * hb],
                                    [sine * hq, cosine - sine * cb]]), x)
        x = states[:, -1:]
        yield states


def _advance(m, x):
    """States m_i ... m_0 x at every step i of step matrices m (2, 2, steps,
    energies) from x (2, 1, energies): the products of adjacent pairs advance x
    recursively to every odd step, and one step more reaches every even one."""
    n = m.shape[2]
    if n == 1:
        return np.einsum("ikse,kse->ise", m, x)
    out = np.empty((2,) + m.shape[2:])
    out[:, 1::2] = _advance(np.einsum("ikse,kjse->ijse", m[:, :, 1::2], m[:, :, :n - 1:2]), x)
    prev = np.concatenate([x, out[:, 1:n - 1:2]], axis=1)
    out[:, ::2] = np.einsum("ikse,kse->ise", m[:, :, ::2], prev)
    return out


def _phases(mus, V: Potential, L: float, points):
    """theta_left(a, mu) + phi_wall(L - a, mu) for every energy in ``mus``,
    stepping through ``points`` across the support; it equals k pi exactly
    at mu_k.  Only the running state and phase are kept."""
    a = points[-1]
    d = L - a
    sigma = np.where(mus > 0.0, np.sqrt(np.abs(mus)), 1.0)
    w, dw = _wall(mus, d)
    wall = np.where(mus > 0.0, sigma * d, np.arctan2(w, dw))
    theta = last = wall
    for us, ps in _magnus(points, V, mus, w, dw):
        angles = np.arctan2(sigma * us, ps)
        turns = np.diff(angles, axis=0, prepend=last[None])
        theta = theta + np.sum(turns - _TWO_PI * np.round(turns / _TWO_PI), axis=0)
        last = angles[-1]
    if not np.all(np.isfinite(theta)):
        raise SolverFailure("Magnus propagation across the support overflowed")
    return theta + wall


def prufer_phase(mu: float, V: Potential, L: float, tol: float = 1e-10) -> float:
    """Root function of the eigenvalue condition: theta(L, mu) of the shooting
    solution with theta(-L, mu) = 0 for mu > 0, and the phase
    theta_left(a) + phi_wall(L - a) matched at the support edge for mu <= 0.
    It is strictly increasing in mu and equals k pi at mu_k.

    ``tol`` sets the step width where V is not constant."""
    mu = float(mu)
    points = _mesh(V, min(V.a, L), mu, mu, tol)
    return float(_phases(np.array([mu]), V, L, points)[0])


def _eigenvalues(ks, V: Potential, L: float, tol: float) -> np.ndarray:
    """Eigenvalues mu_k for an array of indices k >= 1.

    By min-max (Courant-Fischer), lambda_k + inf V <= mu_k <= lambda_k +
    sup V for the free eigenvalue lambda_k, with inf and sup over the box.
    V vanishes off its support, so over a box wider than the support they
    are min(vmin, 0) and max(vmax, 0); over a narrower box these still bound
    them.  Each end is moved out by 1e-3 max(1, lambda_k), so a root on the
    bound itself (V = 0, or a constant V that fills the box) still sees a
    sign change.  One phase pass over the 2n ends checks every bracket; a
    wrong sign there means the phase is wrong, and raises SolverFailure.
    It also takes the phase at the lower end of the ground state's bracket,
    below every level, where it lies in (0, pi) (it tends to 0+ as mu -> -inf);
    else it is off by a multiple of pi, which brackets holding several levels
    miss, and SolverFailure is raised.
    One Illinois iteration then refines every root on the same step set.
    As in brentq, an iterate keeps half the tolerance xtol + rtol |mu| away
    from both ends, a root is done once its bracket is narrower than that
    tolerance, and the secant root of its final bracket is returned.
    """
    lam = np.array([free_eigenvalue(int(k), L) for k in ks])
    target = math.pi * ks
    pad = 1e-3 * np.maximum(1.0, lam)
    lo, hi = lam + min(V.vmin, 0.0) - pad, lam + max(V.vmax, 0.0) + pad
    lam1 = free_eigenvalue(1, L)
    floor = lam1 + min(V.vmin, 0.0) - 1e-3 * max(1.0, lam1)
    points = _mesh(V, min(V.a, L), floor, hi.max(), max(1e-13, 0.01 * tol))
    ends = _phases(np.concatenate([lo, hi, [floor]]), V, L, points)
    f_lo, f_hi = np.split(ends[:-1] - np.tile(target, 2), 2)
    bad = (f_lo >= 0.0) | (f_hi <= 0.0)
    if bad.any():
        raise SolverFailure(f"phase has the wrong sign at the min-max bracket of eigenvalues {ks[bad].tolist()}")
    if not 0.0 < ends[-1] < math.pi:
        raise SolverFailure(f"phase {ends[-1]:.6g} below the lowest level lies outside (0, pi)")

    xtol = max(1e-14, tol * 1e-2) * np.maximum(1.0, np.abs(lam))
    rtol = max(4e-16, tol)
    mus = np.empty_like(lam)
    todo = np.arange(lam.size)
    g_lo, g_hi = f_lo, f_hi    # residuals at the ends; f_lo, f_hi carry the weights
    side = np.zeros_like(lam)  # -1 (+1): the last iterate replaced lo (hi)
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        xtol_x = xtol + rtol * np.abs(x)
        x = np.clip(x, lo + 0.5 * xtol_x, hi - 0.5 * xtol_x)
        fx = _phases(x, V, L, points) - target
        below = fx < 0.0
        # Illinois: halve the weight of an end that survives twice
        f_hi = np.where(below & (side < 0.0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~below & (side > 0.0), 0.5 * f_lo, f_lo)
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        f_lo, g_lo = np.where(below, fx, f_lo), np.where(below, fx, g_lo)
        f_hi, g_hi = np.where(below, f_hi, fx), np.where(below, g_hi, fx)
        side = np.where(below, -1.0, 1.0)
        done = (fx == 0.0) | (hi - lo <= xtol_x)
        mus[todo[done]] = (hi - g_hi * (hi - lo) / (g_hi - g_lo))[done]
        left = ~done
        if not left.any():
            return mus
        todo, target, xtol, lo, hi, f_lo, f_hi, g_lo, g_hi, side = (
            arr[left] for arr in (todo, target, xtol, lo, hi, f_lo, f_hi, g_lo, g_hi, side))
    raise SolverFailure(f"eigenvalues {ks[todo].tolist()} did not converge")


def perturbed_eigenvalue(k: int, V: Potential, L: float, tol: float = 1e-10) -> float:
    """k-th Dirichlet eigenvalue of -d^2/dx^2 + V as the root of
    theta(L, mu) = k pi, bracketed around the free eigenvalue."""
    return float(_eigenvalues(np.array([k]), V, L, tol)[0])


def perturbed_eigenvalues(ks, V: Potential, L: float, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues mu_k for every index k >= 1 in ks, in one batched solve."""
    return _eigenvalues(np.atleast_1d(np.asarray(ks, dtype=int)), V, L, tol)


@dataclass(frozen=True)
class PerturbedEigenpair:
    k: int
    mu: float
    psi: np.ndarray           # samples at the grid's support nodes
    walls: np.ndarray         # amplitudes of the left and right wall solutions
    # Normalized mismatch at the support edge between psi and the wall
    # solution of the right end (|psi(L)| of the continued solution for
    # mu > 0); an eigenvalue error proxy for bound states too.
    endpoint_residual: float


def _free_boundary_sign(k):
    """Sign of the k-th free eigenfunction's derivative at -L, for an index
    or an array of them.

    Fixing the perturbed sign to the same value keeps eigenfunctions
    continuous in the coupling, so the V = 0 overlap matrix is the identity
    rather than a diagonal of mixed signs."""
    return np.where(np.asarray(k) % 4 <= 1, 1, -1)


def _eigenfunctions(ks, mus, V: Potential, L: float, grid: Grid):
    """Normalized eigenfunctions for accepted eigenvalues in the box [-L, L]:
    their samples at the grid's support nodes (rows), their wall amplitudes,
    shape (2, n), and their endpoint residuals.  Only the support nodes of
    ``grid`` are read; steps where V is not constant are ``_mesh``'s at 1e-12.

    Left of the support psi is the wall solution ``_wall`` in x + L; it is
    propagated through the support in one pass, whose step points include
    the support nodes; right of it psi is beta times the wall solution in
    L - x, with beta the least-squares match of (psi, psi'/sqrt(s2)) at a
    (s2 = mu for mu > 0, else 1).  The residual is the normalized mismatch
    left over at a; for mu > 0 it equals |psi(L)| of the solution continued
    from a.  The norm is the support quadrature plus (1 + beta^2) times the
    exact int w^2 of ``_wall_integrals``, and the wall amplitudes are
    (1, beta) times sign / norm.  The sign of psi'(-L) copies the free
    eigenfunction's, so the family deforms continuously from the V = 0 basis.
    """
    a = min(V.a, L)
    x, weights = _support(V, grid)
    u, p = _wall(mus, L - a)
    points = _mesh(V, a, mus.min(), mus.max(), 1e-12, x)
    blocks = list(_magnus(points, V, mus, u, p))
    psi_a, dpsi_a = blocks[-1][:, -1]
    s2 = np.where(mus > 0.0, mus, 1.0)
    beta = (psi_a * u - dpsi_a * p / s2) / (u * u + p * p / s2)
    mismatch = np.abs(psi_a * p + dpsi_a * u) / np.sqrt(s2 * u * u + p * p)

    psi = np.concatenate([u[None]] + [us for us, _ in blocks])[np.searchsorted(points, x)].T
    norms = np.sqrt(psi**2 @ weights + (1.0 + beta**2) * _wall_integrals(mus, L - a, np.empty(0))[0])
    walls = np.array([np.ones_like(beta), beta]) * (_free_boundary_sign(ks) / norms)
    return psi * walls[0][:, None], walls, mismatch / norms


def perturbed_eigenfunction(k: int, mu: float, V: Potential, L: float, grid: Grid) -> PerturbedEigenpair:
    """Normalized eigenfunction of an accepted eigenvalue in the box [-L, L]: samples
    at the grid's support nodes and the amplitudes of its two wall solutions."""
    psi, walls, res = _eigenfunctions(np.array([k]), np.array([float(mu)]), V, L, grid)
    return PerturbedEigenpair(k, mu, psi[0], walls[:, 0], float(res[0]))


def eigenpairs(n: int, V: Potential, L: float, grid: Grid):
    """Eigenvalues and normalized eigenfunctions for k = 1..n in the box
    [-L, L], the eigenvalues to tolerance 1e-10.

    Returns (mus, Psi, walls): Psi of shape (n, support nodes) holds the
    samples at the grid's support nodes, and walls of shape (2, n) the
    amplitudes of the left and right wall solutions (see ``_eigenfunctions``).
    The grid gives only its support nodes.  One root solve gives all n
    eigenvalues, then one propagation pass all eigenfunctions.
    """
    ks = np.arange(1, n + 1)
    mus = _eigenvalues(ks, V, L, 1e-10)
    return (mus,) + _eigenfunctions(ks, mus, V, L, grid)[:2]


def count_below(E: float, V: Potential, L: float) -> int:
    """Number of eigenvalues below E, read off as floor(theta/pi) of the
    root function ``prufer_phase`` (the matching phase for E <= 0)."""
    q = prufer_phase(E, V, L) / math.pi
    if abs(q - round(q)) * math.pi < _PHASE_TOL:
        raise AmbiguousEnergyError(f"E = {E} is within tolerance of an eigenvalue")
    return int(math.floor(q))


def bargmann_upper_bound(E: float, V: Potential, alpha: float, c_alpha: float,
                         L: float) -> float:
    """Upper bound (2L/pi) sqrt(E) + C_E on the count below E, valid when the
    negative part of V is dominated by c_alpha / (1+|x|)^(alpha+1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    xs = np.linspace(-V.a, V.a, 4097)
    v_minus = -np.clip(V(xs), None, 0.0)
    majorant = c_alpha / (1.0 + np.abs(xs)) ** (alpha + 1.0)
    if np.any(v_minus > majorant + 1e-12):
        raise ValueError("negative part of V exceeds the stated majorant")
    linf_minus = potential_norms(V).linf_minus
    c_e = 0.5 / E * (2.0 * c_alpha / (alpha * math.pi) * math.sqrt(linf_minus + E)
                     + linf_minus)
    return 2.0 * L / math.pi * math.sqrt(E) + c_e


def counting_lower_bound(E: float, V: Potential, L: float) -> float:
    """Lower bound (2L/pi) sqrt(E) - (2 ||V_+||_1 / pi)/sqrt(E) - 1 on the
    count below E; requires E >= (2/L) ||V_+||_1."""
    l1_plus = potential_norms(V).l1_plus
    if E < 2.0 * l1_plus / L:
        raise ValueError("E below the validity threshold of the lower bound")
    return 2.0 * L / math.pi * math.sqrt(E) - 2.0 * l1_plus / (math.pi * math.sqrt(E)) - 1.0
