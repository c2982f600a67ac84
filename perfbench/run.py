"""bhdensity benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Passes over the workload's fixed input run
back to back (each starts when the previous returns) until the next one
would overrun --seconds.  Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 1`` the first half of the time runs untraced
and the second half under the boundary tracer, and the metrics are the
per-layer ones.  See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bhdensity; print(time.perf_counter() - t)"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "bhdensity", "__init__.py")):
        fail(f"no bhdensity sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import bhdensity  # noqa: F401

    return time.perf_counter() - t0


def import_seconds_in_fresh_process():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def run_environment(seed, threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_passes(workload, budget, record):
    """Back-to-back passes until the next one would end after `budget` seconds."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= budget:
        t0 = time.perf_counter()
        outcomes = workload.run_pass()
        times.append(time.perf_counter() - t0)
        record(outcomes, times[-1])
    return times


def layer_metrics(tracer, workload, traced, untraced):
    from tracer import LAYERS

    passes = len(traced)
    layers, funcs = tracer.summary()

    def per_pass(count):
        return count // passes if count % passes == 0 else count / passes

    def func(name):
        return funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for layer in LAYERS:
        name = layer.lstrip("_")  # metric names start with a letter
        m[f"{name}.self_s"] = (layers[layer]["self_s"] / passes, "s")
        m[f"{name}.calls"] = (per_pass(layers[layer]["calls"]), "count")
    counters = workload.layer_counters()
    for name, unit in (("contraction.refined_points", "count"),
                       ("contraction.lifted_points", "count"),
                       ("contraction.family_size", "count"),
                       ("density.rse_sqrt_n", "ratio")):
        m[name] = (counters.get(name, 0), unit)
    exact = tracer.spans_of("sections.cross_section")
    for k in (4, 8, 12):
        durations = [d for d, size in exact if size == k]
        m[f"sections.exact_ms_per_plane.k{k}"] = (
            statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    batch = func("sections.abs_sum_section_areas")
    m["sections.batch_us_per_plane"] = (ratio(batch["total_s"], batch["size"], 1e6), "us")
    main = func("cli.main")
    m["cli.overhead_ms_per_call"] = (ratio(main["self_s"], main["calls"], 1e3), "ms")
    m["geom.calls.gram_schmidt"] = (per_pass(func("geom.gram_schmidt")["calls"]), "count")
    m["geom.calls.wedge"] = (per_pass(func("geom.wedge")["calls"]), "count")
    scan = func("probe.semi_ellipticity_scan")
    m["probe.trials_per_s"] = (ratio(scan["size"], scan["total_s"]), "1/s")
    gauge = func("bodies.minkowski_many")
    m["bodies.gauge_rows"] = (per_pass(gauge["size"]), "count")
    m["bodies.gauge_ns_per_row"] = (ratio(gauge["total_s"], gauge["size"], 1e9), "ns")
    mc = func("density.bh_density_codim2")
    m["density.mc_samples"] = (per_pass(mc["size"]), "count")
    m["density.ns_per_sample"] = (ratio(mc["total_s"], mc["size"], 1e9), "ns")
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    import_s = [import_program()]
    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.relpath(os.path.join(ROOT, ".perfbench_work"))
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)

    # set-up: import, inputs from the seed and one warm-up, done several times
    import_s += [import_seconds_in_fresh_process() for _ in range(IMPORT_REPEATS - 1)]
    build_s = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = cls(args.seed, workdir)
        workload.warm_up()
        build_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    stats = {"attempted": 0, "failed": 0, "failures": [], "digests": None, "tta": []}

    def record(outcomes, seconds):
        digests = [o.digest for o in outcomes]
        if stats["digests"] is None:
            stats["digests"] = digests
        for o, ref in zip(outcomes, stats["digests"]):
            if o.digest != ref:
                o.failures.append("payload hash differs from the first pass")
        stats["attempted"] += len(outcomes)
        for o in outcomes:
            if o.failures:
                stats["failed"] += 1
                stats["failures"].append(f"{o.name}: {'; '.join(o.failures)}")
        stats["tta"].append(workload.time_to_accuracy(seconds))

    try:
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, record)
            tracer = Tracer()
            tracer.install(workloads.SPAN_SIZES,
                           [(workloads.cli, "main"), (workloads._jsonfmt, "dumps"),
                            (workloads.bh.Certificate, "to_report")])
            workload.tracer = tracer
            try:
                traced = run_passes(workload, args.seconds / 2, record)
            finally:
                tracer.uninstall()
                workload.tracer = None
            metrics = layer_metrics(tracer, workload, traced, untraced)
            tracer.write(os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.csv"))
            pass_times = untraced + traced
        else:
            pass_times = run_passes(workload, args.seconds, record)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(pass_times), "s"),
                "mc_time_to_1e-3_s": (statistics.median(stats["tta"]), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
    finally:
        workload.close()

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(pass_times),
        "pass_s": [round(t, 6) for t in pass_times],
        "setup": {"import_s": import_s, "build_and_warm_up_s": build_s},
        "payload_sha256": stats["digests"],
        "failures": stats["failures"][:20],
        "env": run_environment(args.seed, workloads.THREADS),
        "total_s": time.perf_counter() - T_START,
    }
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
