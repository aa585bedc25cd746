#!/usr/bin/env python3
"""Run one workload of the qtokens benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's own ``src/``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs untraced for half the time, then with
spans around every layer for the other half, and reports per-layer numbers
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries the run metadata.  Violated checks go to
standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchstats
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("sweep", "cv_sessions", "redeem_store", "attack_experiments")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit (times set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import qtokens from this checkout's src/, never from elsewhere."""
    if not (SRC / "qtokens" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no qtokens package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qtokens
    if Path(qtokens.__file__).resolve().parent != SRC / "qtokens":
        raise SystemExit(f"run.py: imported qtokens from {qtokens.__file__}, not {SRC}")
    return qtokens


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qtokens").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def time_setup(args, rotating_cpus) -> list[float]:
    """Wall time of fresh interpreters that import qtokens and build this
    workload's seeded inputs, then exit; each is rotated over the CPUs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            with rotating_cpus(proc.pid):
                try:
                    _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise SystemExit("run.py: set-up timed out")
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up failed:\n{err}")
    return times


def run_units(workload, budget_s: float, first_index: int) -> list:
    """Units of work back to back until ``budget_s`` has passed (at least one)."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < budget_s:
        results.append(workload.unit(first_index + len(results)))
    return results


def end_to_end(results, setup_times, ok_frac) -> tuple[dict, dict]:
    latencies = [x for r in results for x in r.latencies_s]
    walls = [r.wall_s for r in results]
    tail = benchstats.tail_percentile(latencies, 0.95)
    info = {"units": len(results), "ops": len(latencies),
            "p95_rule_met": tail is not None}
    if tail is None:
        # batch workloads run a handful of jobs: report the slowest one
        tail = max(latencies)
    values = {
        "setup_s": (benchstats.median(setup_times), "s"),
        "wall_s": (benchstats.median(walls), "s"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "latency_p50_ms": (benchstats.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (ok_frac, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, info


def traced_run(workload, seconds: float) -> tuple[list, dict, dict]:
    """Untraced units for half the time, traced units for the other half."""
    untraced = run_units(workload, seconds / 2, 0)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = run_units(workload, seconds / 2, len(untraced))
    finally:
        uninstall()
    overhead = (benchstats.median([r.wall_s for r in traced])
                - benchstats.median([r.wall_s for r in untraced]))
    values = spans.per_layer_metrics(tracer, len(traced), overhead)
    units = {name: unit for name, unit, _ in spans.catalogue()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    info = {"untraced_units": len(untraced), "traced_units": len(traced),
            "spans": len(tracer.spans)}
    return untraced + traced, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    load_1min = os.getloadavg()[0]
    cpus = len(os.sched_getaffinity(0))
    import_package()
    import numpy as np
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            return 0
        setup_times = time_setup(args, workloads.rotating_cpus)
        workload.setup(args.seed, workdir)
        if args.trace:
            results, metrics, info = traced_run(workload, args.seconds)
        else:
            results = run_units(workload, args.seconds, 0)
        run_violations = workload.finish()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    violations = [v for r in results for v in r.violations] + run_violations
    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results) + len(run_violations))
    if not args.trace:
        metrics, info = end_to_end(results, setup_times, 1.0 - failed / attempted)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": cpus,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(), "src_sha256": src_digest(),
            "loadavg_1min_at_start": load_1min, "setup_times_s": setup_times,
            "failed_frac": failed / attempted, **info}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
