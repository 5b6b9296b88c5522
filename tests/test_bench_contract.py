"""The library against the benchmark in ``perfbench/``: every per-layer
metric that BENCHMARK.json declares is still reported, and every workload
still passes its own checks.

The benchmark's modules are loaded by path with bytecode writing off, so
nothing is written under ``perfbench/``.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("tracer", "layers", "workloads")  # layers imports tracer by name
# Tracer hooks whose targets the library no longer has.
DEAD_HOOKS = ("orthocat.sweep.build_grid", "orthocat.perturbed.adaptive_ivp",
              "orthocat.metrics.potential_norms")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in BENCH_MODULES}
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield SimpleNamespace(**{name: _load(name) for name in BENCH_MODULES})
    finally:
        sys.dont_write_bytecode = writes_bytecode
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_traced_run_reports_every_declared_metric(bench):
    # a metric whose tracer hook finds no target is left out of a traced run
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = bench.tracer.Tracer()
    tracer.install()
    try:
        reported = set(bench.layers.per_layer(tracer, 0, Counter(), [1.0], [1.0], "gamma", None))
    finally:
        tracer.uninstall()
    missing, extra = sorted(declared - reported), sorted(reported - declared)
    assert not missing, f"declared per-layer metrics not reported: {missing}"
    assert not extra, f"reported per-layer metrics not declared: {extra}"
    # a hook whose target moved is skipped silently; name every known one so
    # that dropping another fails here, not as malformed benchmark output
    assert sorted(tracer.missing) == sorted(DEAD_HOOKS)


def test_traced_gamma_pass_counts_real_solves(bench, tmp_path):
    # a transfer matrix that bypassed scattering.adaptive_ivp would report
    # zero solves under metric names that are still present
    wl = bench.workloads.Gamma(0, tmp_path)
    tracer = bench.tracer.Tracer()
    tracer.install()
    try:
        out = wl.run()
    finally:
        tracer.uninstall()
    m = bench.layers.per_layer(tracer, 0, Counter(), [1.0], [1.0], "gamma", out)
    assert m["scattering.calls"] == 24  # 12 cases, two scattering routes each
    assert m["odes.solves"] > 0
    assert m["odes.rhs_evals"] > 0


def test_every_workload_passes_its_checks(bench, tmp_path):
    bench.workloads.warm_up()
    for name, workload in bench.workloads.WORKLOADS.items():
        wl = workload(0, tmp_path)
        out = wl.run()
        failed = [(check, detail) for check, ok, detail in wl.checks(out, "contract") if not ok]
        assert failed == [], name
