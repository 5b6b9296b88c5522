"""One workload in one process: set up, time passes, check, print a result.

``run.py`` starts this script with the BLAS thread count pinned in the
environment and ``ORTHOCAT_WORKERS`` removed; the script refuses to run if
a loaded OpenBLAS reports more than one thread.  The last line of standard
output is ``RESULT <json>``.

Untraced (``--trace 0``): passes run back to back until the next pass would
end after ``--seconds``; at least one pass runs.
Traced (``--trace 1``): the same untraced passes, then as many traced ones,
so the per-layer metrics and the tracing overhead come from one process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import orthocat  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def openblas_libraries():
    """(file name, thread count, build string) of each OpenBLAS in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and threads is None:
                    get_threads.restype = ctypes.c_int
                    threads = get_threads()
                if get_config is not None and config is None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
        found.append({"library": Path(path).name, "threads": threads, "config": config})
    return found


def source_digest() -> str:
    """Digest of the orthocat sources, so outputs can be compared per source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orthocat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(blas):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "machine": platform.machine(),
        "orthocat_source_sha256": source_digest(),
    }


def passes(wl, seconds, tracer=None, count=None):
    """Run ``count`` passes, or passes until the next would end after
    ``seconds``; return their wall times, their digests and the last output."""
    times, digests, out = [], [], None
    start = time.perf_counter()
    while True:
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run()
            t1 = time.perf_counter()
        times.append(t1 - t0)
        digests.append(wl.digest(out))
        if count is None and t1 - start + statistics.median(times) > seconds:
            break
        if len(times) == count:
            break
    return times, digests, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    blas = openblas_libraries()
    wrong = [lib for lib in blas if lib["threads"] != 1]
    if wrong:
        print(f"perfbench: BLAS thread count is not 1: {wrong}", file=sys.stderr)
        return 3
    if not Path(orthocat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: orthocat imported from {orthocat.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    workloads.warm_up()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        with tracer.span("bench.setup"):
            wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
        tracer.uninstall()
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    result = {"ready_wall": time.time()}
    if args.setup_only:
        print("RESULT " + json.dumps(result))
        return 0

    times, digests, out = passes(wl, args.seconds)
    if tracer is not None:
        setup_end = len(tracer.spans)
        setup_counts = tracer.counts.copy()
        tracer.potentials.clear()
        tracer.install()
        traced_times, traced_digests, out = passes(wl, 0.0, tracer, count=len(times))
        tracer.uninstall()
        digests += traced_digests
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = layers.per_layer(tracer, setup_end, setup_counts, times,
                                            traced_times, args.workload, out)
        result["rows"] = layers.sweep_rows(tracer, setup_end)
        result["missing_hooks"] = tracer.missing
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    source = source_digest()
    checks = [(f"outputs identical across {len(digests)} passes",
               len(set(digests)) == 1, "")]
    checks += list(wl.checks(out, source))
    sentinel_name, sentinel = wl.sentinel(out)
    result.update(
        workload=args.workload,
        seed=args.seed,
        passes=len(times),
        pass_s=times,
        wall_s=statistics.median(times),
        peak_rss_mb=peak_rss_mb,
        sentinel={"name": sentinel_name, "value": sentinel},
        checks=[{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        environment=environment(blas),
    )
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
