#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which builds the program's libraries from src/) into the
directory named by $CARGO_TARGET_DIR, or .bench_build; later calls only
re-check the build. All arguments go to the perfbench binary, which
writes its temporary files and span dumps under .bench_out/. The last line
of standard output is the binary's JSON result; build output goes to
standard error. Exits non-zero, printing no result, if the build or the
run fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the program sources (src/) are missing; run from a full checkout")
        sys.exit(1)
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build step failed: " + " ".join(cmd))
                sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--out-dir", out_dir] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the binary; its partial
        # output is not a result.
        log("the run did not end within %d s" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        log("perfbench exited with %d" % proc.returncode)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
