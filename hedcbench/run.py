#!/usr/bin/env python3
"""Builds the HEDC end-to-end benchmark from source and runs one workload.

    python3 hedcbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
hedcbench/ (which compiles ../src) into .bench_build/; later runs reuse that
build. Build output goes to standard error; standard output carries the run
record, every metric by name with its unit, and as its last line one JSON
object. The exit status is hedc_e2e's: 0 when every response was correct
and no modeled cost or sleep was seen, nonzero otherwise (also when the
build fails, in which case nothing is printed on standard output).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hedcbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "hedc_e2e"
WORKLOADS = ("browse", "progressive", "analyze")


def build():
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "hedc_e2e",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "hedcbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("hedcbench: no HEDC sources at %s" % (ROOT / "src"))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("hedcbench: build failed: %s" % err)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--state-dir", str(BUILD / "state"),
               "--git-sha", source_id()]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=str(ROOT)).returncode)


if __name__ == "__main__":
    main()
