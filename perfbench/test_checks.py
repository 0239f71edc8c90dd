#!/usr/bin/env python3
"""Planted-fault test of the benchmark's output checks.

Run from the root of a source checkout:

    python3 perfbench/test_checks.py

Builds bsched-perfbench like run.py, then plants one fault per check and
expects exactly one failed operation with the matching message, and no
failure without a plant. The reproduction cases use a two-table subset of
the suite so the test takes about half a minute.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TABLES = "table1_workload,table4_unroll_bs"


def main():
    build_dir = os.path.abspath(run.BUILD_DIR)
    binary = run.build(os.getcwd(), build_dir)
    os.makedirs(build_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=build_dir)
    store = os.path.join(work, "store")
    tables = os.path.join(work, "tables")
    os.makedirs(tables)
    repro = ["--tables", TABLES, "--workers", "2", "--seed", "7"]

    # (name, arguments, expected failures, text every failure must contain)
    cases = [
        ("cold, no fault", ["repro-cold", "--store", store,
                            "--tables-dir", tables] + repro, 0, ""),
        ("cold, flipped checksum", ["repro-cold", "--store", store + "-c",
                                    "--plant", "checksum"] + repro, 1,
         "checksum differs"),
        ("cold, cycle count off by one", ["repro-cold", "--store",
                                          store + "-y", "--plant", "cycles"]
         + repro, 1, "cycles"),
        ("cold, traced replica", ["repro-cold", "--store", store + "-t",
                                  "--traced"] + repro, 0, ""),
        ("warm, no fault", ["repro-warm", "--store", store,
                            "--tables-dir", tables] + repro, 0, ""),
        ("warm, changed table byte", ["repro-warm", "--store", store,
                                      "--tables-dir", tables,
                                      "--plant", "table-byte"] + repro, 1,
         "warm bytes differ"),
        ("stream, no fault", ["compile-stream", "--workers", "2"], 0, ""),
        ("stream, wrong module", ["compile-stream", "--workers", "2",
                                  "--plant", "interp-checksum"], 1,
         "interpreted checksum differs"),
    ]
    bad = 0
    try:
        for name, args, want, text in cases:
            report = run.run_round(binary, args)
            fails = report["failures"]
            ok = (len(fails) == want == int(report["failed"]) and
                  all(text in f for f in fails) and report["attempted"] > 0)
            print("%-32s %s (attempted %d, failed %d)" %
                  (name, "ok" if ok else "WRONG", report["attempted"],
                   report["failed"]))
            bad += not ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d of %d cases wrong" % (bad, len(cases)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
