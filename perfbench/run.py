#!/usr/bin/env python3
"""Build and run the GMP stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the gmpx library from the
repository sources) in a Release tree under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  With --trace 1 the spans are written to
<build dir>/trace-<workload>-<seed>.json (Chrome Trace JSON; open it in
Perfetto).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "gmpbench", "gmpbench_selftest"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.exit("perfbench: the gmpx sources (src/) are not next to perfbench/")
    build(build_dir)
    if argv == ["--self-test"]:
        return subprocess.call([os.path.join(build_dir, "gmpbench_selftest")])
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1":
        out = "trace-%s-%s.json" % (opts.get("--workload", "x"), opts.get("--seed", "x"))
        args += ["--trace-out", os.path.join(build_dir, out)]
    return subprocess.call([os.path.join(build_dir, "gmpbench")] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
