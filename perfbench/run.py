#!/usr/bin/env python3
"""Build and run the zoo-model benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The C++ package in perfbench/ (which
builds the repo's libraries from source) is configured and built into
.bench_build/perfbench on first use; later runs only re-check it. The
benchmark's stdout is printed after it exits successfully, so its last
line is the JSON result; on any failure nothing but diagnostics (on
stderr) is printed and the exit code is non-zero.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# Keep the compiler's and the benchmark's scratch files inside the checkout.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def run_quiet(cmd, timeout):
    """Run a build step; on failure echo its output to stderr and exit."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"run.py: {' '.join(cmd)}: {e}\n")
        sys.exit(2)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write(f"run.py: {' '.join(cmd)} exited {r.returncode}\n")
        sys.exit(2)


def build():
    os.makedirs(TMP, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S)


def main(argv):
    if argv == ["--self-test"]:
        build()
        return subprocess.run([os.path.join(BUILD, "harness_test")],
                              cwd=ROOT, env=ENV).returncode
    build()
    try:
        r = subprocess.run([os.path.join(BUILD, "zoo_bench")] + argv, cwd=ROOT,
                           env=ENV, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write(f"run.py: benchmark exited {r.returncode}\n")
        return r.returncode if r.returncode > 0 else 4
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
