#!/usr/bin/env python3
"""Build the LBRM simulator benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload terrain_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed.  Build output goes to standard error, so the last line of standard
output is the benchmark's result object.  Traced runs write their Chrome
trace under the same build directory.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "lbrm_perfbench"


def build(build_dir):
    """Configure (once) and build the benchmark; exit non-zero on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", TARGET],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, TARGET)


def source_commit():
    """The git commit of a git checkout, else a digest of the sources built."""
    root = os.path.dirname(HERE)
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(build_dir, "traces"), "--commit", source_commit()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
