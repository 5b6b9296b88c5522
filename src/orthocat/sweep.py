"""Configuration-driven thermodynamic-limit sweeps: per-N Anderson metrics at
fixed density, a least-squares slope against log N, and machine-readable CSV
and JSON outputs.

Per-N computations are pure functions of the configuration, so rows can be
distributed over a process pool; collection is keyed by N and the output
order is fixed regardless of scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    NODES_PER_PANEL,
    ConfigurationError,
    Potential,
    SolverFailure,
    SystemConfig,
    fermi_grid,
    gaussian_truncated,
    smallness_report,
    square_well,
    table_potential,
)
from .free import NearSpectrumError
from .metrics import anderson_result
from .operators import gamma_matrix
from .perturbed import AmbiguousEnergyError
from .scattering import gamma_gkm, gamma_scattering

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "potential_from_spec",
    "load_config",
    "config_digest",
    "run_sweep",
    "write_csv",
    "write_json",
    "CSV_HEADER",
]

CSV_HEADER = "N,L,I,lnD,defect_norm,M,status"

# The keys a config file may set, by section.
CONFIG_KEYS = {"potential": ("family", "v0", "a", "sigma", "abscissae", "values"),
               "sweep": ("rho", "n_list", "workers"), "grid": ("nodes_per_wavelength",),
               "output": ("csv", "json")}

# Failures that mark one row as failed: a box smaller than the support, or a
# numerical failure.  Any other exception is a fault in the program and
# propagates.
_ROW_FAILURES = (ConfigurationError, SolverFailure, AmbiguousEnergyError,
                 NearSpectrumError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class SweepConfig:
    potential: dict
    rho: float
    n_list: tuple
    nodes_per_wavelength: int = 16
    workers: int = 1
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        if len(self.n_list) == 0 or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigurationError("N list must be non-empty and strictly increasing")
        SystemConfig(self.rho, self.n_list[0])  # a finite positive density, and N >= 1
        if self.workers < 1:
            raise ConfigurationError("workers must be a positive integer")


def _floats(text) -> list:
    return [float(t) for t in str(text).split(",")]


def _ints(text) -> tuple:
    return tuple(int(t) for t in str(text).split(","))


# Potential families by their config and command-line names.
POTENTIAL_SPECS = {
    "square_well": lambda s: square_well(float(s["v0"]), float(s["a"])),
    "gaussian_truncated": lambda s: gaussian_truncated(
        float(s["v0"]), float(s["sigma"]), float(s["a"])),
    "table": lambda s: table_potential(_floats(s["abscissae"]), _floats(s["values"])),
}


def potential_from_spec(spec: dict) -> Potential:
    """Build a potential from a flat key-value mapping (config file or CLI)."""
    family = spec.get("family")
    if family not in POTENTIAL_SPECS:
        raise ConfigurationError(f"unknown potential family {family!r}")
    try:
        return POTENTIAL_SPECS[family](spec)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"bad potential spec {spec}: {exc}") from exc


def load_config(path: str) -> SweepConfig:
    """Parse a sectioned key-value config file ([potential], [sweep], [grid],
    [output]); a section or key outside CONFIG_KEYS is an error."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise ConfigurationError(f"config file not found: {path}")
    if "potential" not in parser or "sweep" not in parser:
        raise ConfigurationError("config needs [potential] and [sweep] sections")
    unknown = [f"[{name}]" for name in parser.sections() if name not in CONFIG_KEYS]
    unknown += [f"[{name}] {key}" for name, keys in CONFIG_KEYS.items() if name in parser
                for key in parser[name] if key not in keys]
    if unknown:
        raise ConfigurationError(f"unknown config entries in {path}: {', '.join(unknown)}")

    pot, sweep, grid, out = (dict(parser[name]) if name in parser else {}
                             for name in CONFIG_KEYS)
    try:
        cfg = SweepConfig(
            potential=pot,
            rho=float(sweep["rho"]),
            n_list=_ints(sweep["n_list"]),
            nodes_per_wavelength=int(grid.get("nodes_per_wavelength", 16)),
            workers=int(sweep.get("workers", 1)),
            csv_path=out.get("csv"),
            json_path=out.get("json"),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    potential_from_spec(cfg.potential)  # validate eagerly
    return cfg


def config_digest(config: SweepConfig) -> str:
    """Stable hash of the resolved configuration for output stamping."""
    payload = {
        "potential": {k: str(v) for k, v in sorted(config.potential.items())},
        "rho": config.rho,
        "n_list": list(config.n_list),
        "nodes_per_wavelength": config.nodes_per_wavelength,
        "nodes_per_panel": NODES_PER_PANEL,
        # the fixed eigenvalue tolerance and fit fraction, kept in the payload so
        # that hashes of outputs written when both were settings still match
        "eigen_tol": 1e-10,
        "fit_fraction": 0.5,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepRow:
    n: int
    L: float
    anderson: float
    log_transition: float
    defect: float
    m: int
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    gamma_fit: float
    intercept: float
    gamma_scattering: float
    gamma_matrix: float
    gamma_gkm: float
    gamma_matrix_convergence: float
    smallness: dict
    digest: str
    grid_params: dict
    residuals: tuple
    fit_window: tuple


def _run_row(config: SweepConfig, n: int) -> SweepRow:
    V = potential_from_spec(config.potential)
    system = SystemConfig(config.rho, n)
    grid = fermi_grid(V, system.L, system.nu, config.nodes_per_wavelength)
    res = anderson_result(n, V, system.L, grid)
    return SweepRow(n, system.L, res.anderson_integral, res.log_transition, res.defect_norm, res.m, "ok")


def _safe_row(config: SweepConfig, n: int) -> SweepRow:
    try:
        return _run_row(config, n)
    except _ROW_FAILURES:
        return SweepRow(n, SystemConfig(config.rho, n).L, math.nan, math.nan, math.nan, -1, "failed")


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute the sweep, fit the Anderson integral against log N over the
    upper half of the good rows (at least three), and add the three gammas."""
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, len(config.n_list))) as pool:
            futures = {n: pool.submit(_safe_row, config, n) for n in config.n_list}
            rows = [futures[n].result() for n in config.n_list]
    else:
        rows = [_safe_row(config, n) for n in config.n_list]

    good = [r for r in rows if r.status == "ok"]
    if len(good) < 3:
        raise RuntimeError(f"fit needs at least 3 successful rows, got {len(good)}")
    n_window = max(3, (len(good) + 1) // 2)
    window = good[-n_window:]
    logs = np.log([r.n for r in window])
    vals = np.array([r.anderson for r in window])
    slope, intercept = np.polyfit(logs, vals, 1)

    V = potential_from_spec(config.potential)
    nu = SystemConfig(config.rho, config.n_list[0]).nu  # the same at every N
    g_scatter = gamma_scattering(V, nu)
    g_gkm = gamma_gkm(V, nu)

    npw = config.nodes_per_wavelength
    g_matrix = gamma_matrix(nu, V, fermi_grid(V, V.a, nu, npw))
    g_matrix_fine = gamma_matrix(nu, V, fermi_grid(V, V.a, nu, 2 * npw))
    residuals = tuple(r.anderson - g_scatter * math.log(r.n) for r in good)

    return SweepResult(
        rows=tuple(rows),
        gamma_fit=float(slope),
        intercept=float(intercept),
        gamma_scattering=g_scatter,
        gamma_matrix=g_matrix,
        gamma_gkm=g_gkm,
        gamma_matrix_convergence=abs(g_matrix - g_matrix_fine),
        smallness=smallness_report(V, nu).as_dict(),
        digest=config_digest(config),
        grid_params={
            "nodes_per_wavelength": config.nodes_per_wavelength,
            "nodes_per_panel": NODES_PER_PANEL,
        },
        residuals=residuals,
        fit_window=tuple(r.n for r in window),
    )


def write_csv(result: SweepResult, path: str):
    """Rows ordered by N under the fixed header; floats as shortest
    round-trip decimals so reruns are byte-identical."""
    lines = [CSV_HEADER]
    for r in sorted(result.rows, key=lambda r: r.n):
        lines.append(
            f"{r.n},{r.L!r},{r.anderson!r},{r.log_transition!r},{r.defect!r},{r.m},{r.status}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(result: SweepResult, path: str):
    payload = summary_dict(result)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_dict(result: SweepResult) -> dict:
    flagged = result.gamma_matrix_convergence > 0 and (
        abs(result.gamma_matrix - result.gamma_scattering)
        > 10.0 * result.gamma_matrix_convergence
    )
    return {
        "config_hash": result.digest,
        "grid": result.grid_params,
        "smallness": result.smallness,
        "gamma_fit": result.gamma_fit,
        "intercept": result.intercept,
        "gamma_scattering": result.gamma_scattering,
        "gamma_matrix": result.gamma_matrix,
        "gamma_gkm": result.gamma_gkm,
        "gamma_route_discrepancy": {
            "matrix_vs_scattering": abs(result.gamma_matrix - result.gamma_scattering),
            "gkm_vs_scattering": abs(result.gamma_gkm - result.gamma_scattering),
            "matrix_route_flagged": bool(flagged),
        },
        "fit_window": list(result.fit_window),
        "residuals_vs_gamma_scattering": list(result.residuals),
        "rows": [
            {
                "N": r.n,
                "L": r.L,
                "I": r.anderson,
                "lnD": r.log_transition,
                "defect_norm": r.defect,
                "M": r.m,
                "status": r.status,
            }
            for r in result.rows
        ],
    }
