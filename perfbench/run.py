#!/usr/bin/env python3
"""Reproduction benchmark for the balanced-scheduling compiler and simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 20 --trace 0

Builds bsched-perfbench (perfbench/CMakeLists.txt, sources from ../src and
../bench) into .bench_build/perfbench, runs whole rounds of the workload for
--seconds, and prints every metric by name and unit, the operations attempted
and failed, the host context, and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs one untraced and one traced round and
reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("repro-cold", "repro-warm", "compile-stream")
WORKERS = 4
ROUND_TIMEOUT_S = 170
BUILD_DIR = os.path.join(".bench_build", "perfbench")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
]

# Per-layer metrics of the traced run, in report order. Span self times are
# "<span>_ms"; the rest are counts read from the replicas, the library's
# public cache counters, the dispatch timers and the host.
PER_LAYER = [
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("lang.copy_ms", "ms"),
    ("lang.eval_ms", "ms"),
    ("lang.eval_calls", "count"),
    ("lang.eval_programs", "count"),
    ("locality.apply_ms", "ms"),
    ("xform.unroll_ms", "ms"),
    ("lower.lower_ms", "ms"),
    ("opt.cleanup_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("trace.profile_ms", "ms"),
    ("trace.schedule_ms", "ms"),
    ("driver.profile_hits", "count"),
    ("driver.profile_misses", "count"),
    ("sched.schedule_ms", "ms"),
    ("regalloc.alloc_ms", "ms"),
    ("regalloc.spill_restore_instrs", "count"),
    ("verify.check_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.calls", "count"),
    ("sim.distinct_inputs", "count"),
    ("sim.instrs", "count"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("driver.mem_hits", "count"),
    ("driver.mem_misses", "count"),
    ("driver.inflight_waits", "count"),
    ("driver.disk_hits", "count"),
    ("driver.disk_writes", "count"),
    ("driver.disk_rejected", "count"),
    ("driver.load_ms", "ms"),
    ("driver.decode_ms", "ms"),
    ("driver.encode_ms", "ms"),
    ("driver.store_ms", "ms"),
    ("driver.job_ms", "ms"),
    ("driver.request_ms", "ms"),
    ("suite.dispatch_ms", "ms"),
    ("suite.emit_ms", "ms"),
    ("support.worker_busy_ms", "ms"),
    ("support.worker_idle_ms", "ms"),
    ("bench.spans", "count"),
    ("bench.span_coverage", "share"),
    ("bench.trace_overhead_ms", "ms"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
    ("host.loadavg_before", "load"),
    ("host.loadavg_after", "load"),
    ("host.cpu_share", "share"),
    ("host.steal_share", "share"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    jobs = str(max(1, min(WORKERS, os.cpu_count() or 1)))
    steps = [["cmake", "-S", src, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target",
              "bsched-perfbench", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "bsched-perfbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no bsched-perfbench")
    return binary


def run_round(binary, args):
    """Runs one bsched-perfbench process and returns its JSON report."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("round timed out: " + " ".join(args))
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("round failed (exit %d): %s" %
                         (done.returncode, " ".join(args)))
    return json.loads(lines[-1])


def round_seed(seed, r):
    return str(seed * 1000003 + r)


def run_workload(binary, work, workload, seed, seconds, workers, traced):
    """Runs the workload's rounds; returns the list of process reports."""
    common = ["--workers", str(workers)]
    reports = []
    start = time.monotonic()

    def more_rounds():
        return time.monotonic() - start < seconds

    if workload == "compile-stream":
        if traced:
            reports.append(run_round(binary, ["compile-stream", "--seed",
                                              str(seed), "--seconds", "0"]
                                     + common))
            reports.append(run_round(binary, [
                "compile-stream", "--seed", str(seed), "--seconds", "0",
                "--traced", "--trace-out",
                os.path.join(work, "compile-stream.trace.json")] + common))
        else:
            reports.append(run_round(binary, ["compile-stream", "--seed",
                                              str(seed), "--seconds",
                                              str(seconds)] + common))
        return reports

    warm_store = os.path.join(work, "store-warm")
    warm_tables = os.path.join(work, "tables-warm")
    if workload == "repro-warm":
        # Set-up, untimed: one cold pass fills the store and records the
        # tables' bytes the warm rounds must reproduce.
        os.makedirs(warm_tables)
        fill = run_round(binary, ["repro-cold", "--store", warm_store,
                                  "--tables-dir", warm_tables,
                                  "--seed", str(seed)] + common)
        if fill["failed"]:
            raise BenchError("the store-filling cold pass failed: %s" %
                             fill["failures"][:3])
        log("repro-warm: store filled in %.2f s" % fill["wall_s"][0])
        start = time.monotonic()

    r = 0
    while True:
        if workload == "repro-cold":
            store = os.path.join(work, "store-%d" % r)
            args = ["repro-cold", "--store", store]
        else:
            store = None
            args = ["repro-warm", "--store", warm_store,
                    "--tables-dir", warm_tables]
        args += ["--seed", round_seed(seed, r)] + common
        is_traced = traced and r == 1
        if is_traced:
            args += ["--traced", "--trace-out",
                     os.path.join(work, workload + ".trace.json")]
        reports.append(run_round(binary, args))
        if store:
            shutil.rmtree(store, ignore_errors=True)
        r += 1
        if traced:
            if r == 2:
                return reports
        elif not more_rounds():
            return reports


def percentile(values, q):
    """Inclusive linear-interpolation percentile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def aggregate(reports, traced, threads):
    """Reduces the round reports; threads = threads of the measured phase."""
    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports)
    untraced = [r for r in reports if not r["traced"]]
    walls = [w for r in untraced for w in r["wall_s"]]
    cpus = [c for r in untraced for c in r["cpu_s"]]
    context = {
        "host.nproc": float(reports[0]["nproc"]),
        "host.threads": float(threads),
        "host.loadavg_before": float(reports[0]["loadavg_before"]),
        "host.loadavg_after": float(reports[-1]["loadavg_after"]),
        "host.cpu_share": statistics.median(
            c / (w * threads) for c, w in zip(cpus, walls)),
        "host.steal_share": statistics.median(
            x for r in untraced for x in r["steal_share"]),
    }
    if traced:
        tr = [r for r in reports if r["traced"]][0]
        layers = dict(tr["layers"])
        layers["bench.trace_overhead_ms"] = (
            (sum(tr["wall_s"]) - sum(untraced[-1]["wall_s"])) * 1e3)
        layers.update(context)
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    else:
        # Percentiles per pass (every pass has the same operations), then the
        # median over passes: a pass the host slowed moves one sample only.
        p50s, p90s = [], []
        for r in untraced:
            n = len(r["lat_ms"]) // len(r["wall_s"])
            for i in range(len(r["wall_s"])):
                lat = r["lat_ms"][i * n:(i + 1) * n]
                p50s.append(percentile(lat, 50))
                p90s.append(percentile(lat, 90))
        values = {
            "setup_s": statistics.median(
                s for r in untraced for s in r["setup_s"]),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced),
            "op_p50_ms": statistics.median(p50s),
            "op_p90_ms": statistics.median(p90s),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return attempted, failed, metrics, context, reports


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    root = os.getcwd()
    workers = max(1, min(WORKERS, os.cpu_count() or 1))
    build_dir = os.path.abspath(BUILD_DIR)
    work = os.path.join(build_dir, "runs", "%s-%d" % (opts.workload,
                                                      os.getpid()))
    try:
        binary = build(root, build_dir)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            reports = run_workload(binary, work, opts.workload, opts.seed,
                                   opts.seconds, workers, opts.trace == 1)
        finally:
            for name in os.listdir(work) if os.path.isdir(work) else []:
                if name.endswith(".trace.json"):
                    shutil.copy(os.path.join(work, name),
                                os.path.join(build_dir, name))
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 1

    # The stream's measured phase is its one client thread.
    threads = 1 if opts.workload == "compile-stream" else workers
    attempted, failed, metrics, context, reports = aggregate(
        reports, opts.trace == 1, threads)
    print("workload %s, seed %d, %d process(es), %d worker(s)" %
          (opts.workload, opts.seed, len(reports), workers))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6f %s" % (name, value, unit))
    print("  operations attempted %d, failed %d" % (attempted, failed))
    print("  host: " + ", ".join("%s=%.3f" % kv for kv in context.items()))
    for r in reports:
        for f in r["failures"]:
            print("  FAILED: " + f)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
