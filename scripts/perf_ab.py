#!/usr/bin/env python3
"""Interleaved A/B timing of perfbench: a reference commit vs the tree.

    scripts/perf_ab.py REF [--pairs N] [--seconds S] [--workload W]...

Builds REF in a temporary git worktree whose perfbench/ is replaced by
the working tree's, so both sides time the same benchmark and check the
same refs. Runs perfbench/run.py on both sides in N pairs per workload
at seed 1, alternating which side goes first, and prints every
BENCHMARK.json end-to-end metric with a verdict (DESIGN.md section
12.5). Exits 1 when a build or a run fails or a run is not correct;
timing verdicts are never fatal.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """(q1, median, q3), interpolating between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def compare(ref, new, metric):
    """Verdict for one metric's paired runs (lists in pair order)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0  # sign*x: up is good
    rq, nq = quartiles(ref), quartiles(new)
    iqr, bound = rq[2] - rq[0], abs(rq[1]) * metric["bound"]
    gain = sign * (nq[1] - rq[1])
    wins = sum(sign * (n - r) > 0 for r, n in zip(ref, new))
    all_better = min(sign * n for n in new) > max(sign * r for r in ref)
    if len(ref) >= 10 and 10 * wins >= 9 * len(ref) and gain > iqr:
        verdict = "better"
    elif -gain > bound:
        verdict = "worse"
    elif iqr > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"ref": rq, "new": nq, "wins": wins, "verdict": verdict,
            "ratio": nq[1] / rq[1] if rq[1] else float("nan")}


def side(runs):
    cores = [c for r in runs for c in r["host"]["common.effective_cores"]]
    return "failed %d/%d, effective cores %.1f-%.1f" % (
        sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
        min(cores), max(cores))


def report(pairs, end_to_end, out):
    """Print {workload: [(ref_run, new_run), ...]}; return the exit status.

    The status is 1 when any run on either side is not correct, else 0.
    """
    ok = True
    row = "  %-28s %-31s %-31s %6s %5s  %s\n"
    for workload, runs in pairs.items():
        refs, news = [p[0] for p in runs], [p[1] for p in runs]
        ok = ok and all(r["correct"] for r in refs + news)
        out.write("\n%s: ref %s; change %s\n" % (workload, side(refs),
                                                 side(news)))
        out.write(row % ("metric", "ref median [q1-q3]",
                         "change median [q1-q3]", "ratio", "won", "verdict"))
        for m in end_to_end:
            c = compare([r["metrics"][m["name"]]["value"] for r in refs],
                        [r["metrics"][m["name"]]["value"] for r in news], m)
            q = ["%.4g [%.4g-%.4g]" % (t[1], t[0], t[2])
                 for t in (c["ref"], c["new"])]
            out.write(row % ("%s (%s)" % (m["name"], m["unit"]), q[0], q[1],
                             "%.3f" % c["ratio"],
                             "%d/%d" % (c["wins"], len(runs)), c["verdict"]))
    if not ok:
        out.write("\nperf_ab: a run was not correct (a digest differed "
                  "or the seed has no refs)\n")
    return 0 if ok else 1


def run(tree, env, workload, seconds, profile="full"):
    """One run.py run: its result line plus its host record."""
    r = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", "0", "--profile", profile],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("perf_ab: %s failed in %s" % (workload, tree))
    result = json.loads(lines[-1])
    result["host"] = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                          if ln.startswith("host_record: "))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="reference commit, e.g. HEAD~1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every BENCHMARK.json one")
    args = ap.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    wt = os.path.join(tmp, "ref")
    try:
        if subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                           wt, args.ref], stdout=sys.stderr).returncode:
            sys.exit("perf_ab: cannot check out %s" % args.ref)
        shutil.rmtree(os.path.join(wt, "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(wt, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        # An inherited absolute CARGO_TARGET_DIR would put both sides in
        # one CMake tree; the change side keeps the caller's.
        ref_env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(wt, ".bench_build"))
        sides = [(wt, ref_env), (ROOT, dict(os.environ))]
        workloads = args.workload or names
        for tree, env in sides:  # build both before any timed run
            print("perf_ab: building " + tree, file=sys.stderr)
            run(tree, env, workloads[0], 0.1, profile="tiny")
        pairs = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.pairs):
                print("perf_ab: %s pair %d/%d" % (w, i + 1, args.pairs),
                      file=sys.stderr)
                got = {tree: run(tree, env, w, args.seconds)
                       for tree, env in (sides[::-1] if i % 2 else sides)}
                pairs[w].append((got[wt], got[ROOT]))
        print("perf_ab: %s (ref) vs the working tree, %d pairs x %g s, "
              "seed 1" % (args.ref, args.pairs, args.seconds))
        status = report(pairs, bench["end_to_end"], sys.stdout)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        wt], stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
