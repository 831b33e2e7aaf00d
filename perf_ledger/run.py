#!/usr/bin/env python3
"""LTFB perf ledger entry point.

Builds the ledger (and the repository's libraries it links) from source in
the checkout, then runs one workload:

    python3 perf_ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr so
the last line of stdout is the ledger's JSON result. Any build failure exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(tree):
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perf_ledger: cmake not found")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            sys.exit("perf_ledger: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run([cmake, "--build", tree, "--target", "perf_ledger",
                           "-j", jobs], stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perf_ledger: build failed")
    return os.path.join(tree, "perf_ledger")


def main():
    tree = build_dir()
    binary = build(tree)
    # The ledger pins every knob itself; inherited LTFB_* settings (fault
    # schedules, backends, pool sizes, wire dtypes) would change the
    # workload behind its back.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LTFB_")}
    work = os.path.join(tree, "work")
    done = subprocess.run([binary, *sys.argv[1:], "--work-dir", work],
                          cwd=ROOT, env=env)
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
