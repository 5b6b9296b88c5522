"""Acceptance gate: every numbered check prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
logged margins.  The inequality audit (number 11), the contour
cross-validation (number 10), the gamma triple (number 2) and the sweep up to
N = 800 (number 4) take one to a few seconds each; everything else is less.
"""

import math
import time

import numpy as np
import pytest

from orthocat.core import (
    gaussian_truncated,
    potential_norms,
    square_well,
    table_potential,
)
from orthocat.free import fermi_energy, free_eigenvalue
from orthocat.metrics import anderson_result, det_bounds, overlap_matrix
from orthocat.operators import bounds_audit, contour_anderson, gamma_matrix
from orthocat.perturbed import (
    bargmann_upper_bound,
    count_below,
    counting_lower_bound,
    perturbed_eigenvalue,
)
from orthocat.scattering import gamma_gkm, gamma_scattering, scattering_coefficients
from orthocat.sweep import CSV_HEADER, SweepConfig, run_sweep, write_csv

from conftest import grid_for
from reference import kappa_n, kappa_tilde_n, truncated_resolvent_decomposed, truncated_resolvent_direct

NU = math.pi**2


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


CORPUS = [
    (square_well(-0.5, 1.0), "well(-0.5)"),
    (square_well(0.5, 1.0), "well(+0.5)"),
    (square_well(-0.25, 1.0), "well(-0.25)"),
    (square_well(0.25, 1.0), "well(+0.25)"),
    (square_well(0.1, 1.0), "well(+0.1)"),
    (gaussian_truncated(0.3, 0.5, 1.5), "gauss(+0.3)"),
    (table_potential([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.3, -0.2, 0.3, 0.0]), "table(mixed)"),
]


@pytest.fixture(scope="module")
def corpus_results():
    """AndersonResult for each corpus potential at N = 10 and N = 20."""
    out = []
    for V, name in CORPUS:
        for n in (10, 20):
            L = (n + 0.5) / 2.0
            grid = grid_for(L, a=V.a)
            out.append((V, name, n, L, grid, anderson_result(n, V, L, grid)))
    return out


def test_criterion_01_free_problem_exactness():
    t0 = time.perf_counter()
    V = square_well(0.0, 1.0)
    L = 10.25  # N = 20 at unit density
    eig_err = max(
        abs(perturbed_eigenvalue(j, V, L) - free_eigenvalue(j, L)) / free_eigenvalue(j, L)
        for j in range(1, 21)
    )
    grid = grid_for(L)
    ov = overlap_matrix(20, V, L, grid)
    id_err = float(np.max(np.abs(ov.matrix - np.eye(20))))
    res = anderson_result(20, V, L, grid)
    elapsed = time.perf_counter() - t0
    ok = (
        eig_err <= 1e-9
        and id_err <= 1e-8
        and abs(res.anderson_integral) <= 1e-10
        and abs(res.transition - 1.0) <= 1e-10
        and elapsed < 1.0
    )
    _report(1, ok, f"eig {eig_err:.2e}, overlap {id_err:.2e}, I {res.anderson_integral:.2e}, "
                   f"D-1 {res.transition - 1:.2e}, {elapsed:.2f}s")


def test_criterion_02_gamma_triple_agreement():
    t0 = time.perf_counter()
    ok = True
    details = []
    for v0 in (-0.5, 0.5):
        V = square_well(v0, 1.0)
        g_s = gamma_scattering(V, NU)
        g_g = gamma_gkm(V, NU)
        gkm_gap = abs(g_g - g_s)
        errs = [abs(gamma_matrix(NU, V, grid_for(5.25, npw=npw)) - g_s) for npw in (16, 32, 64)]
        ok &= gkm_gap <= 1e-10 and errs[0] <= 1e-4 and errs[1] < errs[0] and errs[2] < errs[1]
        details.append(f"v0={v0}: gkm {gkm_gap:.1e}, matrix {errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(2, ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_03_scattering_oracle():
    worst_t2, worst_defect = 0.0, 0.0
    for v0 in (-0.5, 0.5, -1.5, 2.0):
        V = square_well(v0, 1.0)
        k = math.sqrt(NU)
        sd = scattering_coefficients(V, k)
        kappa = math.sqrt(k * k - v0)
        formula = 1.0 / (1.0 + v0**2 * math.sin(2 * kappa) ** 2 / (4 * k * k * kappa**2))
        worst_t2 = max(worst_t2, abs(abs(sd.t) ** 2 - formula))
        worst_defect = max(worst_defect, sd.unitarity_defect)
    for V in (gaussian_truncated(0.3, 0.5, 1.5), gaussian_truncated(-0.4, 0.7, 2.0)):
        worst_defect = max(worst_defect, scattering_coefficients(V, math.sqrt(NU)).unitarity_defect)
    ok = worst_t2 <= 1e-8 and worst_defect <= 1e-10
    _report(3, ok, f"|t|^2 error {worst_t2:.2e}, unitarity defect {worst_defect:.2e}")


def test_criterion_04_thermodynamic_slope():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        potential={"family": "square_well", "v0": -0.5, "a": 1.0},
        rho=1.0,
        n_list=(50, 100, 200, 400, 800),
    )
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    rel = abs(result.gamma_fit - result.gamma_scattering) / result.gamma_scattering
    residuals = np.array(result.residuals)
    spread = float(residuals.max() - residuals.min())
    # bounded residuals: the spread over the window stays far below the
    # per-step slope increment gamma * ln 2
    bounded = spread < result.gamma_scattering * math.log(2.0)
    ok = rel <= 0.15 and bounded and elapsed < 600.0
    _report(4, ok, f"gamma_fit {result.gamma_fit:.6e} vs {result.gamma_scattering:.6e} "
                   f"(rel {rel:.3f}), residual spread {spread:.2e}, {elapsed:.0f}s")


def test_criterion_05_anderson_inequality_corpus(corpus_results):
    ok = True
    margins = []
    for _V, name, n, _L, _grid, res in corpus_results:
        margin = -res.anderson_integral - res.log_transition
        ok &= res.log_transition <= -res.anderson_integral + 1e-10
        margins.append(margin)
        print(f"  anderson margin {name} N={n}: -I - lnD = {margin:.3e}")
    ok &= len(corpus_results) >= 12
    _report(5, ok, f"{len(corpus_results)} instances, all lnD <= -I; "
                   f"smallest margin {min(margins):.2e}")


def test_criterion_06_determinant_sandwich(corpus_results):
    ok = True
    checked = 0
    for V, name, n, L, grid, res in corpus_results:
        rep = det_bounds(n, V, L, grid, result=res)
        if rep.defect < 1.0:
            strict = rep.log_lower < rep.log_value < rep.log_upper
            ok &= strict
            if not strict:
                print(f"  sandwich violated for {name} N={n}")
        if rep.q_omega < 1.0:
            checked += 1
            ok &= rep.defect <= rep.weak_coupling_bound
    _report(6, ok, f"sandwich strict on all defect<1 instances; defect bound checked on "
                   f"{checked} weak-coupling instances")


def test_criterion_07_counting_bounds():
    ok = True
    details = []
    for v0 in (-0.5, 0.5):
        V = square_well(v0, 1.0)
        c_alpha = 2.0 if v0 < 0 else 0.0
        l1p = potential_norms(V).l1_plus
        for n in (10, 50):
            L = (n + 0.5) / 2.0
            nu = fermi_energy(n, L)
            m = count_below(nu, V, L)
            lo = counting_lower_bound(nu, V, L)
            hi = bargmann_upper_bound(nu, V, 1.0, c_alpha, L)
            ok &= lo <= m <= hi
            details.append(f"v0={v0},N={n}: M={m} in [{lo:.2f},{hi:.2f}]")
            for k in range(1, n + 1):
                mu = perturbed_eigenvalue(k, V, L)
                # compare energies so negative levels (attractive wells)
                # satisfy the wavenumber bound trivially
                cap = k * math.pi / (2 * L) + l1p / (k * math.pi)
                ok &= mu <= cap * cap + 1e-12
    _report(7, ok, "; ".join(details))


def test_criterion_08_kappa_asymptotics():
    t0 = time.perf_counter()
    excesses = [kappa_n(n) - math.log(4 * n + 3) for n in range(1, 201)]
    tildes = [kappa_tilde_n(n) for n in range(1, 201)]
    elapsed = time.perf_counter() - t0
    ok = all(0.0 <= e <= 2.0 for e in excesses) and all(t <= 4.0 for t in tildes) and elapsed < 1.0
    _report(8, ok, f"excess in [{min(excesses):.4f}, {max(excesses):.4f}], "
                   f"max tilde {max(tildes):.4f}, {elapsed:.2f}s")


def test_criterion_09_truncated_resolvent_decomposition():
    worst = 0.0
    for n in (3, 5, 10):
        L = 1.0
        nu = fermi_energy(n, L)
        for x in np.linspace(-0.9, 0.9, 5):
            for y in np.linspace(-0.85, 0.95, 5):
                direct = truncated_resolvent_direct(n, nu, x, y, L)
                parts = truncated_resolvent_decomposed(n, nu, x, y, L)
                worst = max(worst, abs(parts.value - direct))
    ok = worst <= 1e-8
    _report(9, ok, f"max |decomposed - direct| = {worst:.2e} over 75 points")


def test_criterion_10_contour_route():
    t0 = time.perf_counter()
    V = square_well(0.1, 1.0)
    n = 10
    L = (n + 0.5) / 2.0
    grid = grid_for(L)
    res = anderson_result(n, V, L, grid)
    same_rank = res.m == n
    ci = contour_anderson(n, V, L, grid)
    gap = abs(ci - res.anderson_integral)
    elapsed = time.perf_counter() - t0
    ok = same_rank and gap <= 1e-3 and elapsed < 120.0
    _report(10, ok, f"M=N={res.m}, |contour - direct| = {gap:.2e}, {elapsed:.0f}s")


def test_criterion_11_inequality_audit(corpus_results):
    ok = True
    failures = []
    for V, name, n, L, grid, res in corpus_results:
        if n != 20:
            continue
        for item in bounds_audit(V, n, L, grid, result=res):
            if not item.passed:
                ok = False
                failures.append(f"{name}: {item.name}")
    _report(11, ok, "all audit items pass" if ok else f"failures: {failures}")


def test_criterion_12_csv_determinism(tmp_path):
    cfg = SweepConfig(
        potential={"family": "square_well", "v0": -0.5, "a": 1.0},
        rho=1.0,
        n_list=(5, 8, 12),
    )
    write_csv(run_sweep(cfg), str(tmp_path / "r1.csv"))
    write_csv(run_sweep(cfg), str(tmp_path / "r2.csv"))
    b1 = (tmp_path / "r1.csv").read_bytes()
    b2 = (tmp_path / "r2.csv").read_bytes()
    ok = b1 == b2 and b1.decode().splitlines()[0] == CSV_HEADER
    _report(12, ok, f"two identical runs, {len(b1)} bytes, schema '{CSV_HEADER}'")
