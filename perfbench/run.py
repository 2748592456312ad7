#!/usr/bin/env python3
"""Build calibro-perfbench from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. calibro-perfbench is built with CMake into
the directory named by CARGO_TARGET_DIR (default: .bench_build); the first
run configures and compiles it, later runs only re-check it. Scratch files
go under <build dir>/work and are removed when the run ends; traced runs
leave their Chrome trace_event file under <build dir>/traces. The last line
of standard output is the JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "calibro-perfbench"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, TARGET)] + argv + [
        "--workdir", os.path.join(build_dir, "work"),
        "--trace-dir", os.path.join(build_dir, "traces")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
