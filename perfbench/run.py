#!/usr/bin/env python3
"""Repository benchmark: builds licm_perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper-offline|service-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the LICM libraries plus the benchmark
binary into $CARGO_TARGET_DIR (default .bench_build/); later runs only
re-check the build. The last line on stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed.

Determinism self-check: the binary prints a digest of the seed's bounds
and solver counters. The first run of a (workload, seed) on a given
source tree records it under the build directory; every later run of the
same pair on the same sources must reproduce it exactly.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # with RUN_TIMEOUT_S, inside a first run's 900 s


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(path)


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "licm_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "licm_perfbench")


def source_hash():
    """Hash of every file the binary is built from."""
    h = hashlib.sha256()
    for top in [os.path.join(ROOT, d) for d in ("src", "bench")] + [HERE]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_digest(out, workload, seed, digest):
    """Records or compares the per-seed determinism digest."""
    folder = os.path.join(out, "digests", source_hash())
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-%d.txt" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            recorded = f.read().strip()
        if recorded != digest:
            print("determinism check failed: digest %s, recorded %s for %s seed %d"
                  % (digest, recorded, workload, seed), file=sys.stderr)
            return False
        return True
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-offline", "service-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("benchmark printed no result (exit %d)" % proc.returncode, file=sys.stderr)
        return 1

    failed = int(result["failed"])
    if not check_digest(out, args.workload, args.seed, result["digest"]):
        failed += 1
    correct = bool(result["correct"]) and proc.returncode == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
