#!/usr/bin/env python3
"""Host-time benchmark for unimem.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--profile full|tiny] [--regen-refs]

Run from the repository root. Builds the simulator libraries and the
benchmark binary in perfbench/ (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and prints, as the last stdout line,
one JSON object with the keys correct, attempted, failed and metrics. The line before it
is the host record (core count, measured effective cores, build type,
compiler, commit or source digest). --trace 1 also writes every span to
.bench_out/trace-<workload>-seed<N>.json.

Exits non-zero without printing a result when the build or the run
fails, or when the simulator sources are not next to perfbench/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "irregular_sm", "chip_dram")
BUILD_TYPE = "Release"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(deadline):
    """Configure and build the benchmark binary; returns its path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s" % ROOT)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmds = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmds.append(["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen)
        cmds.append(["cmake", "--build", bdir, "--target",
                     "unimem_perfbench", "-j", "4"])
        for cmd in cmds:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=max(1.0, deadline - time.time()))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "unimem_perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (commit stand-in)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    ap.add_argument("--regen-refs", action="store_true",
                    help="record this seed's reference digests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build(start + 850)
    built_s = time.time() - start

    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--profile=" + args.profile,
           "--refs=" + os.path.join(HERE, "refs")]
    if args.regen_refs:
        cmd.append("--regen-refs")
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed)))

    # A run that built may use the first-run allowance; others stay
    # well inside three minutes.
    budget = (890.0 if built_s > 60 else 175.0) - (time.time() - start)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(10.0, budget))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        fail("benchmark binary exited with %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(r.stdout + r.stderr)
        fail("benchmark binary printed no result")
    sys.stderr.write(r.stderr)

    host = {}
    for line in lines[:-1]:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
        else:
            print(line)
    host.update({"nproc": os.cpu_count(), "commit": commit(),
                 "source_digest": source_digest(),
                 "build_s": round(built_s, 3)})
    print("host_record: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
