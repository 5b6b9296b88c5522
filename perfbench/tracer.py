"""Spans and counters recorded around calls into the orthocat modules.

The tracer wraps module attributes from outside the library: each hook
replaces ``module.attr`` by a wrapper and ``uninstall`` puts the original
back.  A hook wraps the attribute the package calls through (for example
``orthocat.metrics.eigenpairs``, which is what ``overlap_matrix`` looks up),
so one function reached through several modules gets one hook per module.

Spans are kept in memory as ``[name, start, end, parent, tag]`` lists and
written out at the end.  The two hottest entry points, ``Potential.__call__``
and the per-evaluation Pruefer phase, only bump counters.

A hook whose target no longer exists is skipped and listed in ``missing``;
the metrics that depend on it are then absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("core", "free", "perturbed", "odes", "metrics", "scattering",
          "operators", "linalg", "sweep")

# Spans of this name are tagged with their first argument, the sweep row's N.
ROW_SPAN = "metrics.anderson_result"


def _complex_factor(*arrays) -> float:
    """Real flops per complex multiply-add, relative to real arithmetic."""
    return 4.0 if any(a.dtype.kind == "c" for a in arrays) else 1.0


def _grid_counts(counts, args, kwargs, grid):
    counts["core.grid_nodes"] += grid.size
    support = kwargs.get("support", args[2] if len(args) > 2 else None)
    if support is not None:
        lo, hi = support
        counts["core.support_nodes"] += int(((grid.nodes >= lo) & (grid.nodes <= hi)).sum())


def _quadrature_counts(counts, args, kwargs, grid):
    counts["core.grid_nodes"] += grid.size
    counts["core.support_nodes"] += grid.size


def _ivp_counts(counts, args, kwargs, sol):
    # RK45 makes two evaluations to start and six per attempted step
    counts["odes.solves"] += 1
    counts["odes.rhs_evals"] += sol.nfev
    counts["odes.steps"] += max(sol.nfev - 2, 0) // 6


def _overlap_counts(counts, args, kwargs, overlap):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    counts["metrics.overlap_flop"] += 2.0 * overlap.n * overlap.matrix.shape[1] * grid.size


def _solve_counts(counts, args, kwargs, result):
    a, b = args[0], args[1]
    n = a.shape[-1]
    nrhs = b.shape[-1] if b.ndim == a.ndim else 1
    counts["linalg.flop"] += _complex_factor(a, b) * ((2.0 / 3.0) * n**3 + 2.0 * n * n * nrhs)


def _cond_counts(counts, args, kwargs, result):
    # singular values only: Golub-Kahan bidiagonalisation of a square matrix
    a = args[0]
    counts["linalg.flop"] += _complex_factor(a) * (8.0 / 3.0) * a.shape[-1] ** 3


# (module, attribute, span name, counts from arguments and result).
# The span name's prefix is the layer.
SPAN_HOOKS = [
    ("orthocat.core", "build_grid", "core.build_grid", _grid_counts),
    ("orthocat.core", "support_quadrature", "core.support_quadrature", _quadrature_counts),
    ("orthocat.core", "potential_norms", "core.potential_norms", None),
    ("orthocat.sweep", "build_grid", "core.build_grid", _grid_counts),
    ("orthocat.metrics", "potential_norms", "core.potential_norms", None),
    ("orthocat.perturbed", "potential_norms", "core.potential_norms", None),
    ("orthocat.operators", "potential_norms", "core.potential_norms", None),
    ("orthocat.operators", "green_kernel", "free.green_kernel", None),
    ("orthocat.operators", "free_eigenfunction_matrix", "free.eigenfunction_matrix", None),
    ("orthocat.metrics", "free_eigenfunction_matrix", "free.eigenfunction_matrix", None),
    ("orthocat.perturbed", "perturbed_eigenvalue", "perturbed.eigenvalue", None),
    ("orthocat.perturbed", "perturbed_eigenfunction", "perturbed.eigenfunction", None),
    ("orthocat.metrics", "eigenpairs", "perturbed.eigenpairs", None),
    ("orthocat.perturbed", "count_below", "perturbed.count", None),
    ("orthocat.metrics", "count_below", "perturbed.count", None),
    ("orthocat.perturbed", "counting_lower_bound", "perturbed.bounds", None),
    ("orthocat.perturbed", "bargmann_upper_bound", "perturbed.bounds", None),
    ("orthocat.perturbed", "adaptive_ivp", "odes.adaptive_ivp", _ivp_counts),
    ("orthocat.scattering", "adaptive_ivp", "odes.adaptive_ivp", _ivp_counts),
    ("orthocat.metrics", "anderson_result", ROW_SPAN, None),
    ("orthocat.sweep", "anderson_result", ROW_SPAN, None),
    ("orthocat.metrics", "overlap_matrix", "metrics.overlap_matrix", _overlap_counts),
    ("orthocat.metrics", "anderson_integral", "metrics.factor", None),
    ("orthocat.metrics", "log_transition_probability", "metrics.factor", None),
    ("orthocat.metrics", "defect_norm", "metrics.factor", None),
    ("orthocat.scattering", "scattering_coefficients", "scattering.coefficients", None),
    ("orthocat.scattering", "gamma_scattering", "scattering.gamma_scattering", None),
    ("orthocat.sweep", "gamma_scattering", "scattering.gamma_scattering", None),
    ("orthocat.scattering", "gamma_gkm", "scattering.gamma_gkm", None),
    ("orthocat.sweep", "gamma_gkm", "scattering.gamma_gkm", None),
    ("orthocat.operators", "contour_anderson", "operators.contour", None),
    ("orthocat.operators", "phi_hat", "operators.phi_hat", None),
    ("orthocat.operators", "gamma_matrix", "operators.gamma_matrix", None),
    ("orthocat.sweep", "gamma_matrix", "operators.gamma_matrix", None),
    ("orthocat.sweep", "smallness_report", "operators.smallness_report", None),
    ("numpy.linalg", "solve", "linalg.solve", _solve_counts),
    ("numpy.linalg", "cond", "linalg.cond", _cond_counts),
    ("orthocat.sweep", "run_sweep", "sweep.run_sweep", None),
    ("orthocat.sweep", "write_csv", "sweep.write_csv", None),
]

# (module, attribute, counter name): counted, never timed.
COUNT_HOOKS = [
    ("orthocat.perturbed", "prufer_phase", "perturbed.phase_evals"),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.hooked: set[str] = set()
        # id -> [potential, calls]; holding the potential keeps its id unique
        self.potentials: dict[int, list] = {}
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        spans, stack = self.spans, self.stack
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tag])
        idx = len(spans) - 1
        stack.append(idx)
        spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            spans[idx][2] = time.perf_counter()
            stack.pop()

    # -- installation ----------------------------------------------------
    def _span_wrapper(self, name, fn, add_counts):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, args[0] if name == ROW_SPAN else None):
                result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if add_counts is not None:
                add_counts(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[name + "@" + spans[stack[-1]][0]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _potential_wrapper(self, fn):
        counts, seen = self.counts, self.potentials

        @functools.wraps(fn)
        def wrapper(potential, x):
            counts["core.potential_calls"] += 1
            counts["core.potential_points"] += getattr(x, "size", 1)
            entry = seen.get(id(potential))
            if entry is None:
                entry = seen[id(potential)] = [potential, 0]
            entry[1] += 1
            return fn(potential, x)

        return wrapper

    def _patch(self, owner, attr, make_wrapper, name):
        original = getattr(owner, attr, None)
        if original is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if label not in self.missing:
                self.missing.append(label)
            return
        self.hooked.add(name)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self):
        for mod_name, attr, name, add_counts in SPAN_HOOKS:
            self._patch(_resolve(mod_name), attr,
                        lambda fn, n=name, c=add_counts: self._span_wrapper(n, fn, c), name)
        for mod_name, attr, name in COUNT_HOOKS:
            self._patch(_resolve(mod_name), attr,
                        lambda fn, n=name: self._count_wrapper(n, fn), name)
        potential = getattr(_resolve("orthocat.core"), "Potential", None)
        self._patch(potential, "__call__", self._potential_wrapper, "core.potential_calls")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- analysis --------------------------------------------------------
    def self_times(self, first: int = 0, last: int | None = None):
        """Per-span-name self and inclusive seconds over spans[first:last]."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for _name, t0, t1, parent, _tag in spans:
            if parent >= first:
                child[parent] += t1 - t0
        self_s, incl_s = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _parent, _tag) in enumerate(spans, start=first):
            incl_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
        return self_s, incl_s

    def rows(self, first: int = 0):
        """Inclusive seconds and calls of each span name below every
        ``ROW_SPAN`` span from spans[first:], keyed by the row's N."""
        out, owner = {}, {}
        for i in range(first, len(self.spans)):
            name, t0, t1, parent, tag = self.spans[i]
            if name == ROW_SPAN:
                owner[i] = tag
                out[tag] = defaultdict(float)
            elif parent in owner:
                owner[i] = owner[parent]
                row = out[owner[i]]
                row[name + ".s"] += t1 - t0
                row[name + ".calls"] += 1
        return out
