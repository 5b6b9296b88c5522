"""orthocat benchmark: one workload per call, or all four with ``--workload all``.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/<label>.json

Run from the root of a checkout; the library is imported from ``src/``.
Each workload runs in worker processes of its own (``worker.py``), started
with one BLAS thread and without ``ORTHOCAT_WORKERS``.  Set-up time is the
median over five processes of the time from process launch to inputs
ready: four that only set up, and the worker that then runs the passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("sweep", "contour", "gamma", "spectrum")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ORTHOCAT_WORKERS", None)
    env.pop("PYTHONPATH", None)
    return env


def launch(args, timeout):
    """Run one worker; return (launch wall clock, parsed RESULT line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    launched = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise RuntimeError(f"worker printed no result: {' '.join(args)}")
    return launched, json.loads(lines[-1][len("RESULT "):])


def run_workload(workload, seed, seconds, trace, deadline):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            launched, probe = launch(base + ["--setup-only"], deadline - time.monotonic())
            setup.append(probe["ready_wall"] - launched)
    launched, result = launch(base, deadline - time.monotonic())
    setup.append(result["ready_wall"] - launched)
    result["setup_samples_s"] = setup
    result["setup_s"] = statistics.median(setup)
    return result


def summary(result, trace):
    """The result object printed last for one workload run."""
    checks = result["checks"]
    failed = sum(not c["ok"] for c in checks)
    if trace:
        units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": metrics}


def report(result, trace):
    """Human-readable lines: every metric by name and unit, then the checks."""
    w = result["workload"]
    checks = result["checks"]
    failed = sum(not c["ok"] for c in checks)
    print(f"# {w}  seed={result['seed']}  passes={result['passes']}  "
          f"pass_s={[round(t, 3) for t in result['pass_s']]}")
    env = result["environment"]
    print(f"# {w}  nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} openblas={[lib['config'] for lib in env['openblas']]} "
          f"git={git_commit()} src_sha256={env['orthocat_source_sha256'][:16]}")
    if trace:
        for k, v in result["layers"].items():
            print(f"{w}  {k:34s} {v:.6g}")
        shares = {k: v for k, v in result["layers"].items()
                  if k.endswith(".self_s") or k == "bench.unattributed_s"}
        wall = sum(shares.values())  # the mean traced pass, split into self times
        print(f"# {w} self-time shares of the mean traced pass ({wall:.3f} s):")
        for k, v in shares.items():
                layer = k.removesuffix(".self_s").removeprefix("bench.").removesuffix("_s")
                print(f"{w}  share {layer:12s} {100.0 * v / wall:6.2f} %")
    else:
        print(f"{w}  wall_s       {result['wall_s']:.6g} s")
        print(f"{w}  setup_s      {result['setup_s']:.6g} s  "
              f"(samples {[round(s, 3) for s in result['setup_samples_s']]})")
        print(f"{w}  peak_rss_mb  {result['peak_rss_mb']:.6g} MB")
    print(f"{w}  fail_frac    {failed / len(checks):.6g} ({failed} of {len(checks)} checks)")
    s = result["sentinel"]
    print(f"{w}  {s['name']:12s} {s['value']:.6g} (accuracy sentinel)")
    for c in checks:
        if not c["ok"]:
            print(f"{w}  FAILED {c['name']}: {c['detail']}")


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def run_all(args) -> int:
    """Every workload, untraced and traced, into one results file."""
    results = {"seed": args.seed, "seconds": args.seconds, "git_commit": git_commit(),
               "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(workload, args.seed, args.seconds, trace, deadline)
            report(result, trace)
            entry["traced" if trace else "untraced"] = result
            ok &= summary(result, trace)["correct"]
        results["environment"] = entry["untraced"].pop("environment")
        entry["traced"].pop("environment")
        results["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"# wrote {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results file for --workload all")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "orthocat" / "__init__.py").is_file():
        print(f"perfbench: no orthocat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(result, args.trace)
    print(json.dumps(summary(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
