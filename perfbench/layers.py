"""Per-layer metrics of a traced run, computed from the tracer's spans.

Times and counts are per pass.  Grid construction is the exception: the
workloads build their grids once, in set-up, so ``core.grid_*`` add the
set-up grids to the grids one pass builds.  A ``*_s`` metric named after a
function is the wall time inside calls to it, including what it calls;
``<layer>.self_s`` and ``operators.contour_s`` exclude the time of traced
calls made from inside.  A metric whose hook is missing is left out.
"""

from __future__ import annotations

import statistics
import time

from tracer import LAYERS


def per_layer(tracer, setup_end, setup_counts, times, traced_times, workload, out):
    n = len(traced_times)
    self_s, incl_s = tracer.self_times(setup_end)
    _, setup_incl = tracer.self_times(0, setup_end)
    counts = tracer.counts - setup_counts
    hooked = tracer.hooked

    def span(table, name):
        return table.get(name, 0.0) / n if name in hooked else None

    def count(name, hook):
        return counts.get(name, 0) / n if hook in hooked else None

    def total(*values):
        return None if any(v is None for v in values) else sum(values)

    def ratio(a, b, scale=1.0):
        return None if a is None or b is None else (scale * a / b if b else 0.0)

    grid_hooks = "core.build_grid" in hooked and "core.support_quadrature" in hooked
    roots = count("perturbed.eigenvalue.calls", "perturbed.eigenvalue")
    eigenvalue_s = span(incl_s, "perturbed.eigenvalue")
    calls = count("core.potential_calls", "core.potential_calls")
    traced_wall = statistics.median(traced_times)
    m = {
        "perturbed.eigenvalue_s": eigenvalue_s,
        "perturbed.ms_per_root": ratio(eigenvalue_s, roots, 1e3),
        "perturbed.roots": roots,
        "perturbed.phase_evals": count("perturbed.phase_evals", "perturbed.phase_evals"),
        "perturbed.phase_evals_per_root": ratio(
            count("perturbed.phase_evals@perturbed.eigenvalue", "perturbed.phase_evals"), roots),
        "perturbed.eigenfunction_s": span(incl_s, "perturbed.eigenfunction"),
        "perturbed.count_s": span(incl_s, "perturbed.count"),
        "core.potential_calls": calls,
        "core.potential_points": count("core.potential_points", "core.potential_calls"),
        "core.points_per_call": ratio(count("core.potential_points", "core.potential_calls"), calls),
        "core.potential_est_s": None if calls is None else potential_seconds(tracer.potentials) / n,
        "core.grid_s": None if not grid_hooks else (
            setup_incl.get("core.build_grid", 0.0) + setup_incl.get("core.support_quadrature", 0.0)
            + (incl_s.get("core.build_grid", 0.0) + incl_s.get("core.support_quadrature", 0.0)) / n),
        "core.grid_nodes": None if not grid_hooks else (
            setup_counts.get("core.grid_nodes", 0) + counts.get("core.grid_nodes", 0) / n),
        "core.support_nodes": None if not grid_hooks else (
            setup_counts.get("core.support_nodes", 0) + counts.get("core.support_nodes", 0) / n),
        "odes.solves": count("odes.solves", "odes.adaptive_ivp"),
        "odes.steps": count("odes.steps", "odes.adaptive_ivp"),
        "odes.rhs_evals": count("odes.rhs_evals", "odes.adaptive_ivp"),
        "metrics.overlap_s": span(self_s, "metrics.overlap_matrix"),
        "metrics.overlap_gflop": ratio(count("metrics.overlap_flop", "metrics.overlap_matrix"), 1e9),
        "metrics.factor_s": span(incl_s, "metrics.factor"),
        "free.green_kernel_s": span(incl_s, "free.green_kernel"),
        "free.green_kernel_calls": count("free.green_kernel.calls", "free.green_kernel"),
        "free.eigenfunction_matrix_s": span(incl_s, "free.eigenfunction_matrix"),
        "operators.contour_s": span(self_s, "operators.contour"),
        "operators.phi_hat_s": span(incl_s, "operators.phi_hat"),
        "operators.gamma_matrix_s": span(incl_s, "operators.gamma_matrix"),
        "linalg.calls": total(count("linalg.solve.calls", "linalg.solve"),
                              count("linalg.cond.calls", "linalg.cond")),
        "linalg.s": total(span(incl_s, "linalg.solve"), span(incl_s, "linalg.cond")),
        "linalg.gflop": ratio(count("linalg.flop", "linalg.solve"), 1e9),
        "scattering.coefficients_s": span(incl_s, "scattering.coefficients"),
        "scattering.calls": count("scattering.coefficients.calls", "scattering.coefficients"),
        "sweep.rows_ok": sum(r.status == "ok" for r in out[0].rows) if workload == "sweep" else 0,
        "sweep.rows_failed": sum(r.status != "ok" for r in out[0].rows) if workload == "sweep" else 0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(times),
        "bench.unattributed_s": self_s.get("bench.pass", 0.0) / n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer) / n
    return {k: v for k, v in m.items() if v is not None}


def potential_seconds(potentials, reps=2000):
    """Estimated seconds inside ``Potential.__call__``: the calls made to each
    potential times the median cost of one scalar call, timed here with the
    tracer removed.  Almost every call the solvers make is scalar."""
    total = 0.0
    for potential, calls in potentials.values():
        x = 0.5 * potential.a
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                potential(x)
            batches.append((time.perf_counter() - t0) / reps)
        total += calls * statistics.median(batches)
    return total


def sweep_rows(tracer, setup_end):
    """Inclusive seconds and call counts below each sweep row, keyed by N."""
    rows = tracer.rows(setup_end)
    return {str(n): dict(sorted(row.items())) for n, row in sorted(rows.items())}
