#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload build|optimizer|advisor \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. The library and the benchmark are compiled
together in Release mode into $CARGO_TARGET_DIR (default .bench_build);
the first run builds, later runs only check that the build is current.
The benchmark's own output goes to stdout; its last line is the result
object {correct, attempted, failed, metrics}. Build logs go to stderr.
Exits non-zero when the sources are missing, the build fails, or a
correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
WORKLOADS = ("build", "optimizer", "advisor")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=10)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds xbench; returns the binary's path."""
    bench_build = os.path.join(build_dir, "perfbench")
    cache = os.path.join(bench_build, "CMakeCache.txt")
    log = sys.stderr
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bench_build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail(f"refusing to measure a '{build_type}' build (needs Release)")
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bench_build, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(bench_build, "xbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the self-check)")
    args = parser.parse_args()

    for required in ("src/CMakeLists.txt", f"{BENCH_DIR}/CMakeLists.txt"):
        if not os.path.exists(required):
            fail(f"{required} not found: run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    env = dict(os.environ, PERFBENCH_SOURCE_REVISION=source_revision())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    if args.quick:
        command.append("--quick")
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
