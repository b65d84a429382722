#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain_read --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which builds the repository's pvcdb library and
pvcdb_server from source, Release) into the build directory, builds the
server and the benchmark program `pvcbench`, then replaces itself with
`pvcbench`. The build directory is $CARGO_TARGET_DIR when set, else
`.bench_build`; the scratch files of a run (CSV inputs, durable directories,
server logs, traces) live under `<build directory>/run/<workload>`. Build
output goes to stderr, so the last line of stdout is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(bench_dir, "CMakeLists.txt"))):
        sys.stderr.write("perfbench: run from the root of a pvcdb checkout "
                         "(CMakeLists.txt, src/ and perfbench/ are needed to "
                         "build the server)\n")
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", bench_dir, "-B", build,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.stderr.write("perfbench: cmake configure failed\n")
            return 2
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", build, "-j", jobs, "--target",
                          "pvcdb_server", "pvcbench"],
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(build, "pvcbench")
    server = os.path.join(build, "pvcdb", "pvcdb_server")
    args = [binary] + sys.argv[1:] + ["--server", server,
                                      "--workdir", os.path.join(build, "run")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, args)
    return 2  # Not reached.


if __name__ == "__main__":
    sys.exit(main())
