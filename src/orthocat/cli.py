"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalue tables with counting bounds), ``gamma``
(the three routes to the decay exponent), ``anderson`` (a single (N, rho)
instance with optional contour cross-check), ``sweep`` (config-driven
thermodynamic-limit runs), and ``audit`` (numerical inequality checks).

Exit codes: 0 success, 1 computation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .core import ConfigurationError, SystemConfig, kernel_quadrature, potential_norms, row_quadrature, smallness_report
from .free import fermi_energy, free_eigenvalues
from .metrics import anderson_result, det_bounds
from .operators import bounds_audit, contour_anderson, gamma_matrix
from .perturbed import bargmann_upper_bound, count_below, counting_lower_bound, perturbed_eigenvalues
from .scattering import gamma_gkm, gamma_scattering
from . import sweep as sweep_mod

__all__ = ["main", "cli_main"]


def _add_potential_args(p: argparse.ArgumentParser):
    p.add_argument("--potential", required=True, choices=list(sweep_mod.POTENTIAL_SPECS))
    p.add_argument("--v0", type=float, help="well/bump amplitude")
    p.add_argument("--a", type=float, help="support half-width")
    p.add_argument("--sigma", type=float, help="gaussian width")
    p.add_argument("--abscissae", type=str, help="comma-separated table x values")
    p.add_argument("--values", type=str, help="comma-separated table V values")


def _potential_spec(args) -> dict:
    spec = {"family": args.potential}
    for key in ("v0", "a", "sigma", "abscissae", "values"):
        val = getattr(args, key, None)
        if val is not None:
            spec[key] = val
    return spec


def _cmd_spectrum(args) -> int:
    V = sweep_mod.potential_from_spec(_potential_spec(args))
    L = args.L if args.L is not None else SystemConfig(args.rho, args.N).L
    count = args.count if args.count is not None else args.N
    if not (L > 0 and math.isfinite(L)):
        raise ConfigurationError(f"--L must be positive and finite, got {L!r}")
    if count < 1:
        raise ConfigurationError(f"the eigenvalue count must be at least 1, got {count}")
    lams = free_eigenvalues(L, count)
    print(f"# spectrum  L={L!r}  count={count}")
    print("j,lambda_free,mu_perturbed")
    mus = perturbed_eigenvalues(range(1, count + 1), V, L)
    for j, (lam, mu) in enumerate(zip(lams, mus), start=1):
        print(f"{j},{float(lam)!r},{float(mu)!r}")
    nu = fermi_energy(count, L)
    m = count_below(nu, V, L)
    lower = counting_lower_bound(nu, V, L)
    norms = potential_norms(V)
    c_alpha = norms.linf_minus * (1.0 + V.a) ** 2
    upper = bargmann_upper_bound(nu, V, alpha=1.0, c_alpha=c_alpha, L=L)
    print(f"# count_below(nu_{count}) = {m}; bounds: [{lower!r}, {upper!r}]")
    return 0


def _cmd_gamma(args) -> int:
    V = sweep_mod.potential_from_spec(_potential_spec(args))
    nu = args.nu
    if not (nu > 0 and math.isfinite(nu)):
        raise ConfigurationError(f"--nu must be positive and finite, got {nu!r}")
    grid = kernel_quadrature(V, nu, args.nodes_per_wavelength)
    g_s = gamma_scattering(V, nu)
    g_m = gamma_matrix(nu, V, grid)
    g_g = gamma_gkm(V, nu)
    print(f"gamma_scattering = {g_s!r}")
    print(f"gamma_matrix     = {g_m!r}")
    print(f"gamma_gkm        = {g_g!r}")
    print(f"|matrix - scattering| = {abs(g_m - g_s)!r}")
    print(f"|gkm - scattering|    = {abs(g_g - g_s)!r}")
    print(f"|matrix - gkm|        = {abs(g_m - g_g)!r}")
    if args.json:
        payload = {
            "nu": nu,
            "gamma_scattering": g_s,
            "gamma_matrix": g_m,
            "gamma_gkm": g_g,
            "smallness": smallness_report(V, nu).as_dict(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


def _cmd_anderson(args) -> int:
    V = sweep_mod.potential_from_spec(_potential_spec(args))
    L = SystemConfig(args.rho, args.N).L
    nu = fermi_energy(args.N, L)
    kernel = kernel_quadrature(V, nu, args.nodes_per_wavelength)  # checks the flag without --contour too
    res = anderson_result(args.N, V, L, row_quadrature(V, L, nu))
    print(f"N = {args.N}, L = {L!r}, nu = {nu!r}")
    print(f"anderson_integral I = {res.anderson_integral!r}")
    print(f"ln D = {res.log_transition!r}")
    print(f"D = {res.transition!r}")
    print(f"defect_norm = {res.defect_norm!r}")
    print(f"M = count_below(nu) = {res.m}")
    print(f"anderson inequality ln D <= -I: {res.log_transition <= -res.anderson_integral + 1e-10}")
    if args.contour:
        ci = contour_anderson(args.N, V, L, kernel)
        print(f"contour I = {ci!r}")
        print(f"|contour - direct| = {abs(ci - res.anderson_integral)!r}")
    return 0


# SweepConfig fields that a `sweep` flag of the same dest overrides.
_SWEEP_OVERRIDES = ("rho", "n_list", "csv_path", "json_path", "workers")


def _cmd_sweep(args) -> int:
    overrides = {field: getattr(args, field) for field in _SWEEP_OVERRIDES
                 if getattr(args, field) is not None}
    cfg = dataclasses.replace(sweep_mod.load_config(args.config), **overrides)
    result = sweep_mod.run_sweep(cfg)
    if cfg.csv_path:
        sweep_mod.write_csv(result, cfg.csv_path)
        print(f"wrote {cfg.csv_path}")
    if cfg.json_path:
        sweep_mod.write_json(result, cfg.json_path)
        print(f"wrote {cfg.json_path}")
    print(f"gamma_fit = {result.gamma_fit!r} (window N = {list(result.fit_window)})")
    print(f"gamma_scattering = {result.gamma_scattering!r}")
    print(f"gamma_matrix = {result.gamma_matrix!r}")
    print(f"gamma_gkm = {result.gamma_gkm!r}")
    return 0


def _cmd_audit(args) -> int:
    V = sweep_mod.potential_from_spec(_potential_spec(args))
    L = SystemConfig(args.rho, args.N).L
    nu = fermi_energy(args.N, L)
    grid = kernel_quadrature(V, nu, args.nodes_per_wavelength)
    res = anderson_result(args.N, V, L, row_quadrature(V, L, nu))
    items = bounds_audit(V, args.N, L, grid, res)
    report = det_bounds(args.N, V, L, None, result=res)
    all_ok = True
    for item in items:
        status = "PASS" if item.passed else "FAIL"
        all_ok &= item.passed
        print(f"{status} {item.name}: lhs={item.lhs:.6e} rhs={item.rhs:.6e} margin={item.margin:.3e}")
    status = "PASS" if report.sandwich_holds else "FAIL"
    print(f"{status} determinant_sandwich: lnD={report.log_value:.6e} in "
          f"[{report.log_lower:.6e}, {report.log_upper:.6e}]")
    if math.isfinite(report.weak_coupling_bound):
        status = "PASS" if report.defect_bound_holds else "FAIL"
        print(f"{status} defect_vs_weak_coupling_bound: {report.defect:.6e} <= {report.weak_coupling_bound:.6e}")
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orthocat",
        description="Numerical laboratory for the 1-d orthogonality catastrophe",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="free and perturbed eigenvalue tables")
    _add_potential_args(p_spec)
    p_spec.add_argument("--L", type=float)
    p_spec.add_argument("--rho", type=float, default=1.0)
    p_spec.add_argument("--N", type=int, default=10)
    p_spec.add_argument("--count", type=int)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_gamma = sub.add_parser("gamma", help="decay exponent by three routes")
    _add_potential_args(p_gamma)
    p_gamma.add_argument("--nu", type=float, required=True)
    p_gamma.add_argument("--nodes-per-wavelength", type=int, default=16)
    p_gamma.add_argument("--json", type=str)
    p_gamma.set_defaults(func=_cmd_gamma)

    p_and = sub.add_parser("anderson", help="single (N, rho) overlap metrics")
    _add_potential_args(p_and)
    p_and.add_argument("--N", type=int, required=True)
    p_and.add_argument("--rho", type=float, required=True)
    p_and.add_argument("--nodes-per-wavelength", type=int, default=16)
    p_and.add_argument("--contour", action="store_true",
                       help="also evaluate the contour representation")
    p_and.set_defaults(func=_cmd_anderson)

    p_sweep = sub.add_parser("sweep", help="config-driven thermodynamic sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--rho", type=float)
    p_sweep.add_argument("--n-list", dest="n_list", type=sweep_mod._ints)
    p_sweep.add_argument("--csv", dest="csv_path", type=str)
    p_sweep.add_argument("--json", dest="json_path", type=str)
    p_sweep.add_argument("--workers", type=int)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="numerical inequality audit")
    _add_potential_args(p_audit)
    p_audit.add_argument("--N", type=int, required=True)
    p_audit.add_argument("--rho", type=float, required=True)
    p_audit.add_argument("--nodes-per-wavelength", type=int, default=16)
    p_audit.set_defaults(func=_cmd_audit)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failures
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
