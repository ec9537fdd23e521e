#!/usr/bin/env python3
"""Self-test of the benchmark at the tiny profile (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced through run.py and
checks that:
  - every metric BENCHMARK.json declares is printed with its unit;
  - every workload passes its reference check (correct, no failures);
  - the traced runs together record spans for every layer;
  - traced and untraced batches give identical simulated results;
  - the layers separate: sm.chip.* is zero outside chip_dram,
    sim.sweep.* is zero outside paper_sweep, and the footprint cache
    hits more on paper_sweep than on irregular_sm.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

# Span names a traced run records, by src/ module (layer).
LAYER_SPANS = {
    "sim": ["sim.sweep", "sim.point", "sim.simulate", "sim.result_cache"],
    "core": ["core.alloc", "core.conflict.partitioned",
             "core.conflict.unified"],
    "kernels": ["kernels.create", "kernels.fill"],
    "regfile": ["regfile.operands"],
    "sched": ["sched.occupancy"],
    "mem": ["mem.coalesce", "mem.cache", "mem.dram"],
    "sm": ["sm.run", "sm.chip"],
    "energy": ["energy.compare"],
    "common": ["common.pool_start"],
}


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--profile", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(r.returncode == 0, "%s trace=%d exited %d:\n%s" %
          (workload, trace, r.returncode, r.stderr[-2000:]))
    lines = r.stdout.strip().split("\n")
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seen_spans = set()
    layer = {}
    for w in workloads:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            lines, res = run(w, trace)
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0,
                  "%s trace=%d failed its reference check" % (w, trace))
            got = res["metrics"]
            for m in declared:
                check(m["name"] in got,
                      "%s trace=%d missing %s" % (w, trace, m["name"]))
                check(got[m["name"]]["unit"] == m["unit"],
                      "%s: %s unit %s, declared %s" %
                      (w, m["name"], got[m["name"]]["unit"], m["unit"]))
            check(set(got) == {m["name"] for m in declared},
                  "%s trace=%d prints undeclared metrics" % (w, trace))
            if trace:
                check("traced_untraced_identical: true" in lines,
                      "%s: traced and untraced results differ" % w)
                path = os.path.join(ROOT, ".bench_out",
                                    "trace-%s-seed%d.json" % (w, SEED))
                with open(path) as f:
                    spans = json.load(f)["spans"]
                check(spans, "%s wrote no spans" % w)
                seen_spans |= {s["name"] for s in spans}
                layer[w] = {k: v["value"] for k, v in got.items()}
            print("ok: %s trace=%d" % (w, trace))

    for mod, names in LAYER_SPANS.items():
        for n in names:
            check(n in seen_spans, "no %s span (layer %s)" % (n, mod))
    for w, m in layer.items():
        if w != "chip_dram":
            check(all(v == 0 for k, v in m.items()
                      if k.startswith("sm.chip.")),
                  "sm.chip.* nonzero on " + w)
        if w != "paper_sweep":
            check(all(v == 0 for k, v in m.items()
                      if k.startswith("sim.sweep.")),
                  "sim.sweep.* nonzero on " + w)
    check(layer["paper_sweep"]["mem.footprint.hit_ratio"] >
          layer["irregular_sm"]["mem.footprint.hit_ratio"],
          "footprint hit ratio not higher on paper_sweep")
    print("selftest passed: %d workloads, %d span names" %
          (len(workloads), len(seen_spans)))


if __name__ == "__main__":
    main()
