"""Exact objects of the free Dirichlet problem -u'' = z u on [-L, L]: the
spectrum and its eigenfunctions, the Fermi energy and contour, the Green
function, the quadratic form of the squared resolvent, and an O(n) solver for
systems in the Green kernel.

Everything here is closed form; no potential enters.  On a set of n points the
Green kernel and the squared resolvent are built from O(n) rescaled sine and
cosine factors (semi-separable in min(x, y) and max(x, y), or separable), so
they remain finite for complex energies far from the real axis even when L is
large, and the quadratic form of the squared resolvent is taken through prefix
sums without forming it.  Systems 1 - diag(a) K diag(d) in an outgoing wave
kernel plus a rank-two separable part, the Green kernel among them, are
solved in O(n) through a (2, 2)-banded system in 2n unknowns
(``_helmholtz_solve``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .core import SolverFailure

__all__ = [
    "NearSpectrumError",
    "free_eigenvalue",
    "free_eigenvalues",
    "free_eigenfunction_matrix",
    "fermi_energy",
    "fermi_contour_point",
    "green_kernel",
]


class NearSpectrumError(ValueError):
    """The requested energy is too close to a Dirichlet eigenvalue."""


def free_eigenvalue(j: int, L: float) -> float:
    """j-th Dirichlet eigenvalue (pi j / 2L)^2, j >= 1."""
    if j < 1:
        raise ValueError("eigenvalue index starts at 1")
    return (math.pi * j / (2.0 * L)) ** 2


def free_eigenvalues(L: float, jmax: int) -> np.ndarray:
    j = np.arange(1, jmax + 1)
    return (math.pi * j / (2.0 * L)) ** 2


def free_eigenfunction_matrix(n: int, L: float, x) -> np.ndarray:
    """Rows j = 1..n of the eigenfunctions sampled at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.arange(1, n + 1)
    arg = (math.pi / (2.0 * L)) * np.outer(j, x)
    out = np.where((j % 2 == 0)[:, None], np.sin(arg), np.cos(arg))
    return out / math.sqrt(L)


def fermi_energy(N: int, L: float) -> float:
    """Separating energy [pi (N + 1/2) / 2L]^2, halfway in wavenumber between
    the N-th and (N+1)-st eigenvalue."""
    return (math.pi * (N + 0.5) / (2.0 * L)) ** 2


def fermi_contour_point(nu: float, s: float) -> complex:
    """Point z = (sqrt(nu) + i s)^2 on the parabola separating occupied from
    unoccupied spectrum."""
    root = math.sqrt(nu) + 1j * s
    return root * root


def _sqrt_energy(z) -> complex:
    """Principal square root; on the contour this matches sqrt(nu) + i s, and
    every kernel below is an even function of the root, so the branch is
    inert."""
    return np.sqrt(np.asarray(z, dtype=complex))


def _trig(w, shift):
    """sin(w) e^{-shift} and cos(w) e^{-shift}, finite while |Im w| - shift is."""
    ep, em = np.exp(1j * w - shift), np.exp(-1j * w - shift)
    return (ep - em) / 2j, (ep + em) / 2.0


def _wronskian(rz: complex, L: float) -> complex:
    """W(z) / sqrt(z) = sin(2 L sqrt(z)) e^{-2mL}, m = |Im sqrt(z)|; raises
    NearSpectrumError where it vanishes on the real axis."""
    m = abs(rz.imag)
    w = _trig(2.0 * L * rz, 2.0 * L * m)[0]
    if 2.0 * L * m < 1.0 and abs(w) < 1e-14:
        raise NearSpectrumError(f"energy too close to the Dirichlet spectrum (|sin 2L sqrt(z)| ~ {abs(w)})")
    return w


def _factors(z, L: float, *points):
    """sqrt(z), W(z) / sqrt(z) = sin(2 L sqrt(z)) e^{-2mL}, and at each array of
    points ((sin, cos) of sqrt(z)(t + L) e^{-m(L + c)}, (sin, cos) of
    sqrt(z)(t - L) e^{-m(L - c)}), m = |Im sqrt(z)|, c the points' midpoint:
    finite while m span / 2 < 700, and a left factor at min(x, y) times a right
    one at max(x, y) is at most 1."""
    rz = complex(_sqrt_energy(z))
    m = abs(rz.imag)
    w = _wronskian(rz, L)
    points = [np.asarray(t, dtype=float) for t in points]
    lo, hi = min(t.min(initial=np.inf) for t in points), max(t.max(initial=-np.inf) for t in points)
    if m * 0.5 * (hi - lo) >= 700.0:  # e^700 ~ 1e304, the largest factor scale
        raise ValueError(f"|Im sqrt(z)| * span / 2 = {m * 0.5 * (hi - lo):.4g} is beyond the kernels' domain (< 700)")
    c = 0.5 * (lo + hi) if lo <= hi else 0.0
    return rz, w, [(_trig(rz * (t + L), m * (L + c)), _trig(rz * (t - L), m * (L - c)))
                   for t in points]


def green_kernel(z, x, y, L: float):
    """Dirichlet Green function u(min(x, y)) v(max(x, y)) / W(z) with
    u(t) = sin(sqrt(z)(t + L)), v(t) = sin(sqrt(z)(t - L)) and
    W(z) = sqrt(z) sin(2 L sqrt(z)); symmetric.  u, v are scaled about the
    points' midpoint and multiplied only once picked at min and max, so
    x[:, None], y[None, :] cost O(n) transcendentals and nothing overflows.
    Domain: |Im sqrt(z)| * span / 2 < 700, else ValueError."""
    rz, w, [(ux, vx), (uy, vy)] = _factors(z, L, x, y)
    first = np.asarray(x) <= np.asarray(y)
    out = np.where(first, ux[0], uy[0]) * np.where(first, vy[0], vx[0]) / (rz * w)
    return out if out.ndim else complex(out)


def _delta_factors(rz: complex, L: float, t):
    """sin(sqrt(z) t) / sin(sqrt(z) L) and cos(sqrt(z) t) / cos(sqrt(z) L),
    both computed at the scale e^{-|Im sqrt(z)| L}, finite for |t| <= L."""
    shift = abs(rz.imag) * L
    sL, cL = _trig(L * rz, shift)
    if shift < 1.0 and min(abs(sL), abs(cL)) < 1e-14:
        raise NearSpectrumError("sin(L sqrt(z)) or cos(L sqrt(z)) vanishes")
    s, c = _trig(rz * np.asarray(t, dtype=float), shift)
    return s / sL, c / cL


def _semiseparable_form(a, b, Y):
    """sum_ij Y_i a(min(t_i, t_j)) b(max(t_i, t_j)) Y_j per column of Y at
    sorted points t: by symmetry twice the j < i part plus the diagonal, from
    one prefix sum."""
    head = np.cumsum(a[:, None] * Y, axis=0)
    return np.sum(b[:, None] * Y * (2.0 * head - a[:, None] * Y), axis=0)


def _helmholtz_solve(k: complex, x, a, d, U, C, B):
    """Solve (1 - diag(a) K diag(d)) X = B on sorted points x in O(n) for the
    kernel K(x, y) = -i e^{ik|x-y|} / 2k + U(x) C U(y)^T, Im k >= 0, U of
    shape (n, 2).

    The outgoing part is carried by the 2n unknowns
    P_i = sum_{j<=i} e^{ik(x_i - x_j)} d_j g_j and
    Q_i = sum_{j>i} e^{ik(x_j - x_i)} d_j g_j of a solution g; then
    g = b - (i/2k) a (P + Q), and substituting it into the recurrences
    P_i = e_i P_{i-1} + d_i g_i and Q_i = e_{i+1} (Q_{i+1} + d_{i+1} g_{i+1})
    gives a (2, 2)-banded system in (P_0, Q_0, P_1, Q_1, ...), coupled only
    through e_i = e^{ik(x_i - x_{i-1})}, of modulus at most one; the min/max
    generators of ``green_kernel`` grow and shrink exponentially and make the
    elimination unstable.  The rank-two part enters by Woodbury, its two
    columns solved with B.  A singular band or capacitance raises
    SolverFailure."""
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("points must be sorted")
    n, kl, c = x.size, 2, 0.5j / k
    e, cad = np.exp(1j * k * np.diff(x)), c * a * d
    ip, iq = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    ab = np.zeros((3 * kl + 1, 2 * n), dtype=complex)  # LAPACK band storage, kl = ku

    def put(rows, cols, values):
        ab[2 * kl + rows - cols, cols] = values

    # with c = i/2k: P_i - e_i P_{i-1} + c a_i d_i (P_i + Q_i) = d_i b_i and
    # Q_i - e_{i+1} Q_{i+1} + e_{i+1} c a_{i+1} d_{i+1} (P + Q)_{i+1} = e_{i+1} d_{i+1} b_{i+1}
    put(ip, ip, 1.0 + cad)
    put(ip, iq, cad)
    put(ip[1:], ip[:-1], -e)
    put(iq, iq, 1.0)
    put(iq[:-1], iq[1:], -e * (1.0 - cad[1:]))
    put(iq[:-1], ip[1:], e * cad[1:])
    lu, piv, info = zgbtrf(ab, kl, kl, overwrite_ab=1)
    if info != 0:
        raise SolverFailure(f"banded Helmholtz system singular (zgbtrf info = {info})")

    rhs = np.column_stack([B, a[:, None] * U])
    full = np.zeros((2 * n, rhs.shape[1]), dtype=complex)
    full[ip] = d[:, None] * rhs
    full[iq[:-1]] = (e * d[1:])[:, None] * rhs[1:]
    pq = zgbtrs(lu, kl, kl, full, piv, overwrite_b=1)[0]
    sol = rhs - (c * a)[:, None] * (pq[ip] + pq[iq])
    X0, Y, dU = sol[:, :-2], sol[:, -2:], d[:, None] * U
    CM = C @ (dU.T @ Y)
    S = np.eye(2) - CM                        # capacitance, entries known to eps (1 + |CM|)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    if not abs(det) > np.finfo(float).eps * (1.0 + np.abs(CM).max()) ** 2:
        raise SolverFailure(f"rank-two capacitance singular (det = {det})")
    gain = Y @ (np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det @ C)
    return X0 + gain @ (dU.T @ X0)


def _green_kernel_solve(z, x, a, d, L: float, B):
    """``_helmholtz_solve`` for the Dirichlet kernel ``green_kernel``,
    G = -i e^{ik|x-y|} / 2k - (i/k) [-q/(1+q) cos kx cos ky + q/(1-q) sin kx sin ky]
    with k = sqrt(z), Im k >= 0, q = e^{2ikL}; the columns sqrt(q) (cos kx, sin kx)
    are at most e^{-m(L - |x|)} <= 1 in modulus.  Raises NearSpectrumError
    where 1 + q or 1 - q vanishes, as ``green_kernel`` does."""
    k = complex(_sqrt_energy(z))
    k = -k if k.imag < 0 else k
    _wronskian(k, L)
    q = np.exp(2j * k * L)
    ep, em = np.exp(1j * k * (L + x)), np.exp(1j * k * (L - x))
    U = np.column_stack([(ep + em) / 2.0, (ep - em) / 2j])
    C = np.diag([1.0 / (1.0 + q), -1.0 / (1.0 - q)]) * (1j / k)
    return _helmholtz_solve(k, x, a, d, U, C, B)


def _squared_resolvent_generators(z, t, L: float):
    """Generators of the squared resolvent kernel R(z)^2 = -dG/dz =
    (D - C + G/2) / z (delta-term, commutator and Green kernels) at sorted
    points t: semi-separable (a, b) pairs, each standing for
    a(min(x, y)) b(max(x, y)), and delta vectors f, each standing for
    f(x) f(y)."""
    rz, w, [((us, uc), (vs, vc))] = _factors(z, L, t)
    # G/2 - C = [u(lo) (v(hi)/sqrt(z) - hi v'(hi)) - lo u'(lo) v(hi)] / (2 sin 2L sqrt(z))
    scale = 1.0 / (2.0 * w * complex(z))
    ds, dc = _delta_factors(rz, L, t)
    root = np.sqrt(0.25 * L / complex(z))
    return [(scale * us, vs / rz - t * vc), (-scale * t * uc, vs)], [root * ds, root * dc]


def _squared_resolvent_form(z, x, Y, L: float):
    """Y[:, j]^T R(z)^2 Y[:, j] for every column of Y (no conjugation) at
    sorted points x, in O(n r): one prefix sum per semi-separable generator
    and (f . Y)^2 per delta vector.  Unsorted points raise ValueError."""
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("points must be sorted")
    pairs, deltas = _squared_resolvent_generators(z, x, L)
    return sum(_semiseparable_form(a, b, Y) for a, b in pairs) + sum((f @ Y) ** 2 for f in deltas)
