#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload train-device --seed 1 --seconds 30

Run from the root of a source checkout. Builds the PiPAD core, the `pipad`
daemon and the benchmark runner from source into .bench_build (build output
goes to stderr), then runs the runner, whose last stdout line is the result
object. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BUILD = Path(".bench_build")
WORKLOADS = ("train-device", "train-host", "serve-mixed")
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the library sources and top-level build file."""
    h = hashlib.sha256()
    files = sorted(p for p in Path("src").rglob("*") if p.is_file())
    for p in [Path("CMakeLists.txt")] + files:
        h.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != Path.cwd():
            return "unavailable"
        sha = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench", "pipad"],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        print("perfbench: run from the root of a source checkout "
              "(CMakeLists.txt and src/ not found)", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = BUILD / "perfbench-work"
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pipad-bin", str(BUILD / "pipad" / "pipad"),
           "--work-dir", str(work),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    # Own process group: the daemon the runner starts is in it too, so a
    # timeout can stop everything.
    child = subprocess.Popen(cmd, start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        rc = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
