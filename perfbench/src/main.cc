/**
 * @file
 * Host-time benchmark of the unimem simulator.
 *
 *   unimem_perfbench --workload=<paper_sweep|irregular_sm|chip_dram>
 *                    --seed=N --seconds=S --trace=0|1
 *                    [--profile=full|tiny] [--refs=DIR] [--regen-refs]
 *                    [--trace-out=FILE]
 *
 * Untraced (--trace=0): set the workload up in 21 blocks of 50 (the
 * median block mean is setup_s), run one warm-up batch on one worker, then time closed
 * batches until S seconds have passed and report the best batch's
 * wall_s, cpu_s and warp_instrs_per_cpu_s, plus peak_rss_mb and
 * paper_err_pct.
 *
 * Traced (--trace=1): alternate untraced and traced batches, derive the
 * per-layer metrics from the traced batches' spans and counters, replay
 * the workload's instruction streams through each layer, and write all
 * spans to --trace-out.
 *
 * Every batch's per-point result digests must match the first batch's,
 * and the first batch must match the recorded reference digests for the
 * seed; when the seed has no reference file, one extra batch at the
 * default seed is checked instead. The last stdout line is the result
 * JSON: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/registry.hh"
#include "plan.hh"
#include "replay.hh"
#include "spans.hh"

using namespace perfbench;

namespace {

constexpr u64 kReferenceSeed = 1;

/**
 * Scale of the Table 1 DRAM points run for paper_err_pct on workloads
 * that do not simulate them (table1_characterization's default).
 */
constexpr double kTable1Scale = 0.35;

struct Options
{
    Workload workload = Workload::PaperSweep;
    std::string workloadName;
    u64 seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    Profile profile;
    std::string refsDir = "perfbench/refs";
    bool regenRefs = false;
    std::string traceOut;
    /** Sweep and chip workers: the host's cores, at most four. */
    u32 workers = 1;
};

[[noreturn]] void
usage(const std::string& msg)
{
    std::cerr << "unimem_perfbench: " << msg << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    std::string profile = "full";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto eq = a.find('=');
        std::string key = a.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        try {
            if (key == "--workload") {
                if (!parseWorkload(val, o.workload))
                    usage("unknown workload '" + val + "'");
                o.workloadName = val;
                have_workload = true;
            } else if (key == "--seed") {
                o.seed = std::stoull(val);
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                o.trace = std::stoi(val) != 0;
            } else if (key == "--profile") {
                profile = val;
            } else if (key == "--refs") {
                o.refsDir = val;
            } else if (key == "--regen-refs") {
                o.regenRefs = true;
            } else if (key == "--trace-out") {
                o.traceOut = val;
            } else {
                usage("unknown flag '" + a + "'");
            }
        } catch (const std::exception&) {
            usage("bad value in '" + a + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!parseProfile(profile, o.profile))
        usage("unknown profile '" + profile + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    o.workers = std::clamp<u32>(std::thread::hardware_concurrency(), 1, 4);
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Calibration spin: the same integer loop on 1 thread and on @p n
 * threads at once. effective cores = n * t1 / tn.
 */
double
effectiveCores(u32 n)
{
    // Read through a volatile so the loop cannot be folded at compile
    // time.
    static volatile u64 seed = 0x9e3779b97f4a7c15ull;
    static volatile u32 iters = 20'000'000;
    auto spin = [] {
        u64 x = seed;
        const u32 n = iters;
        for (u32 i = 0; i < n; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };
    std::atomic<u64> sink{0};
    auto run = [&](u32 threads) {
        double t0 = nowS();
        std::vector<std::thread> ts;
        for (u32 i = 0; i < threads; ++i)
            ts.emplace_back([&] { sink += spin(); });
        for (std::thread& t : ts)
            t.join();
        return nowS() - t0;
    };
    std::vector<double> t1, tn;
    for (int r = 0; r < 3; ++r) {
        t1.push_back(run(1));
        tn.push_back(run(n));
    }
    return static_cast<double>(n) * median(t1) / median(tn);
}

std::string
refsPath(const Options& o, u64 seed)
{
    return o.refsDir + "/" + o.workloadName + "-" + o.profile.name +
           "-seed" + std::to_string(seed) + ".txt";
}

bool
readRefs(const std::string& path, std::map<std::string, u64>& out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue; // a malformed line is a missing reference point
        out[line.substr(0, sp)] =
            std::strtoull(line.c_str() + sp + 1, nullptr, 16);
    }
    return true;
}

void
writeRefs(const std::string& path, const Options& o, u64 seed,
          const BatchResult& b)
{
    std::ofstream out(path);
    if (!out)
        usage("cannot write " + path);
    out << "# unimem_perfbench reference digests: workload "
        << o.workloadName << ", profile " << o.profile.name << ", seed "
        << seed << "\n# label fnv1a64(allocation, SmStats::toStatSet, "
        << "energy inputs)\n";
    for (const PointDigest& p : b.points) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(p.digest));
        out << p.label << " " << hex << "\n";
    }
}

/** Points of @p b that differ from @p ref (missing labels included). */
u64
mismatches(const BatchResult& b, const std::map<std::string, u64>& ref,
           const char* what)
{
    u64 bad = 0;
    for (const PointDigest& p : b.points) {
        auto it = ref.find(p.label);
        if (it == ref.end() || it->second != p.digest) {
            if (bad < 5)
                std::cout << "mismatch (" << what << "): " << p.label
                          << "\n";
            ++bad;
        }
    }
    if (ref.size() != b.points.size() && bad == 0)
        bad = 1;
    return bad;
}

std::map<std::string, u64>
asMap(const BatchResult& b)
{
    std::map<std::string, u64> m;
    for (const PointDigest& p : b.points)
        m[p.label] = p.digest;
    return m;
}

/** Per-layer metrics of one traced batch. */
std::map<std::string, double>
layerMetrics(const BatchResult& b, size_t spanFrom,
             const std::map<std::string, double>& ctrBefore)
{
    Tracer& tr = Tracer::instance();
    std::map<std::string, SpanTotals> tot = tr.totals(spanFrom);
    std::map<std::string, double> ctr = tr.counters();
    for (const auto& [k, v] : ctrBefore)
        ctr[k] -= v;
    auto total = [&](const char* n) {
        auto it = tot.find(n);
        return it == tot.end() ? 0.0 : it->second.totalS;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::map<std::string, double> m;
    if (b.hasSweep) {
        const SweepStats& s = b.sweep;
        m["sim.sweep.utilization"] = s.utilization();
        double longest = 0.0;
        for (double j : s.jobSeconds)
            longest = std::max(longest, j);
        m["sim.sweep.critical_job_frac"] = ratio(longest, s.wallSeconds);
        m["sim.result_cache.hit_ratio"] =
            ratio(static_cast<double>(s.memoHits),
                  static_cast<double>(s.memoHits + s.memoMisses));
    } else {
        m["sim.sweep.utilization"] = 0.0;
        m["sim.sweep.critical_job_frac"] = 0.0;
        m["sim.result_cache.hit_ratio"] = 0.0;
    }
    m["sim.points_simulated"] = static_cast<double>(b.simulateCalls);
    m["sim.simulate.self_s"] = total("sim.simulate") - total("sm.run");
    m["sm.run.ns_per_warp_instr"] =
        ratio(total("sm.run") * 1e9, ctr["sm.run.warp_instrs"]);
    m["mem.footprint.hit_ratio"] =
        ratio(ctr["mem.footprint.mem_hits"], ctr["mem.footprint.mem_probes"]);
    m["mem.cache.hit_ratio"] =
        ratio(static_cast<double>(b.modelled.cacheHits),
              static_cast<double>(b.modelled.cacheAccesses));
    m["mem.dram.requests"] = static_cast<double>(b.modelled.dramRequests);
    m["energy.compare_s"] = total("energy.compare");
    m["regfile.mrf_reduction"] = b.modelled.rf.reduction();
    m["sched.deschedules"] = static_cast<double>(b.modelled.deschedules);
    m["sm.conflict_penalty_cycles"] =
        static_cast<double>(b.modelled.conflictPenaltyCycles);

    double windows = 0, passes = 0, util = 0, weave = 0, stall = 0,
           workers = 0;
    for (const ChipStats& c : b.chips) {
        windows += static_cast<double>(c.windows);
        passes += static_cast<double>(c.boundPasses);
        util += c.quantumUtilization();
        weave += static_cast<double>(c.weaveRequests);
        stall += static_cast<double>(c.weaveStallCycles);
        workers = std::max(workers, static_cast<double>(c.workersUsed));
    }
    m["sm.chip.run_s"] = total("sm.chip");
    m["sm.chip.windows"] = windows;
    m["sm.chip.bound_passes"] = passes;
    m["sm.chip.quantum_utilization"] =
        b.chips.empty() ? 0.0 : util / static_cast<double>(b.chips.size());
    m["sm.chip.weave_requests"] = weave;
    m["sm.chip.weave_stall_cycles"] = stall;
    m["sm.chip.workers_used"] = workers;
    m["core.alloc_s"] = total("core.alloc");
    return m;
}

void
printJsonMetric(std::ostream& os, const std::string& name, double v,
                const char* unit, bool first)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
}

const char*
unitOf(const std::string& name)
{
    auto ends = [&](const std::string& suf) {
        return name.size() >= suf.size() &&
               name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
    };
    if (name.find(".ns_per_") != std::string::npos)
        return "ns";
    if (ends("_per_cpu_s"))
        return "1/s";
    if (ends("_mb"))
        return "MB";
    if (ends("_pct"))
        return "%";
    if (ends("_s"))
        return "s";
    if (ends("ratio") || ends("utilization") || ends("frac") ||
        ends("reduction"))
        return "ratio";
    if (ends("cycles"))
        return "cycles";
    if (ends("lines_per_call"))
        return "lines";
    if (ends("effective_cores") || ends("workers_used"))
        return "cores";
    return "count";
}

/** Points attempted and failed over the whole run. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    bool refsFound = true;
};

/**
 * Check the warm-up batch against the recorded digests of its seed, or,
 * when the seed has none, an extra batch at the reference seed.
 */
void
checkReferences(const Options& o, const BatchResult& first, Tally& t)
{
    std::map<std::string, u64> ref;
    if (o.regenRefs) {
        writeRefs(refsPath(o, o.seed), o, o.seed, first);
        std::cout << "wrote " << refsPath(o, o.seed) << "\n";
        return;
    }
    const BatchResult* checked = &first;
    BatchResult extra;
    u64 seed = o.seed;
    if (!readRefs(refsPath(o, seed), ref)) {
        seed = kReferenceSeed;
        extra = Plan(o.workload, o.profile, seed, o.workers).run(false);
        t.attempted += extra.points.size();
        checked = &extra;
        if (!readRefs(refsPath(o, seed), ref)) {
            std::cout << "reference check: missing " << refsPath(o, seed)
                      << "\n";
            t.refsFound = false;
            return;
        }
    }
    u64 n = checked->points.size();
    u64 bad = mismatches(*checked, ref, "reference");
    t.failed += bad;
    std::cout << "reference check: seed " << seed << ", "
              << n - std::min(bad, n) << "/" << n << " points match\n";
}

/** Replay the workload's instruction streams through each layer. */
void
addReplayMetrics(const Plan& plan, const Options& o,
                 std::map<std::string, double>& m)
{
    Tracer& tracer = Tracer::instance();
    tracer.setEnabled(true);
    ReplayTotals rt;
    for (const std::string& name : plan.kernelNames())
        rt.add(replayLayers(plan.kernel(name), o.seed,
                            o.profile.replayInstrCap));
    tracer.setEnabled(false);
    tracer.count("replay.sink", static_cast<double>(rt.sink % 1000003));

    auto per = [](double s, u64 n) {
        return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
    };
    m["kernels.instrs_emitted"] = static_cast<double>(rt.instrs);
    m["kernels.ns_per_instr"] = per(rt.fillS, rt.instrs);
    m["core.conflict.partitioned.evals"] =
        static_cast<double>(rt.evalsPartitioned);
    m["core.conflict.partitioned.ns_per_eval"] =
        per(rt.partitionedS, rt.evalsPartitioned);
    m["core.conflict.unified.evals"] = static_cast<double>(rt.evalsUnified);
    m["core.conflict.unified.ns_per_eval"] =
        per(rt.unifiedS, rt.evalsUnified);
    m["mem.coalesce.calls"] = static_cast<double>(rt.coalesceCalls);
    m["mem.coalesce.ns_per_call"] = per(rt.coalesceS, rt.coalesceCalls);
    m["mem.coalesce.lines_per_call"] =
        rt.coalesceCalls == 0 ? 0.0
                              : static_cast<double>(rt.coalescedLines) /
                                    static_cast<double>(rt.coalesceCalls);
    m["mem.cache.ns_per_access"] = per(rt.cacheS, rt.cacheAccesses);
    m["mem.dram.ns_per_request"] = per(rt.dramS, rt.dramRequests);
}

void
printList(const char* name, const std::vector<double>& v)
{
    std::cout << name << ":";
    for (double x : v)
        std::cout << " " << x;
    std::cout << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    const double run_start = nowS();
    Tracer& tracer = Tracer::instance();
    const double cores_before = effectiveCores(o.workers);

    // Set-up, several times: each sample is the mean over a block of
    // plan builds (a small workload sets up in about a microsecond, too
    // short to time one at a time), and setup_s is the median block.
    const int blocks = o.profile.name == "tiny" ? 3 : 21;
    const int per_block = 50;
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<Plan>> built;
    built.reserve(per_block);
    for (int b = 0; b < blocks; ++b) {
        built.clear();
        double t0 = nowS();
        for (int i = 0; i < per_block; ++i)
            built.push_back(std::make_unique<Plan>(o.workload, o.profile,
                                                   o.seed, o.workers));
        setup_s.push_back((nowS() - t0) / per_block);
    }
    std::unique_ptr<Plan> plan = std::move(built.back());
    built.clear();
    size_t setup_spans = 0;
    if (o.trace) {
        // One traced set-up so allocation spans of plan building count.
        tracer.setEnabled(true);
        plan = std::make_unique<Plan>(o.workload, o.profile, o.seed,
                                      o.workers);
        tracer.setEnabled(false);
        setup_spans = tracer.size();
    }

    // Warm-up batch on one worker: its digests are the run's reference
    // for every later batch (results must not depend on the worker
    // count), and are checked against the recorded references.
    Tally tally;
    const BatchResult first =
        Plan(o.workload, o.profile, o.seed, 1).run(false);
    tally.attempted += first.points.size();
    // Peak RSS of a process that set the workload up and ran it once.
    // One worker keeps it deterministic: with several, which thread
    // first touches each SM decides how many footprint-cache slabs the
    // thread-local pools allocate afresh. Later batches are excluded
    // because those pools keep growing across repeated chip runs.
    const double peak_rss_mb = peakRssMb();
    const std::map<std::string, u64> first_map = asMap(first);
    checkReferences(o, first, tally);

    // Timed batches; a traced run alternates untraced and traced ones.
    std::vector<double> wall, cpu, rate, traced_wall;
    std::map<std::string, std::vector<double>> layer;
    const double loop_start = nowS();
    const int min_batches = o.trace ? 6 : 3;
    bool identical = true;
    for (int b = 0;; ++b) {
        const bool traced = o.trace && (b % 2 == 1);
        const size_t span_from = tracer.size();
        const std::map<std::string, double> ctr_before = tracer.counters();
        tracer.setEnabled(traced);
        double c0 = cpuS();
        double t0 = nowS();
        BatchResult r = plan->run(traced);
        double t1 = nowS();
        double c1 = cpuS();
        tracer.setEnabled(false);

        tally.attempted += r.points.size();
        u64 bad = mismatches(r, first_map, "repeat");
        tally.failed += bad;
        if (traced) {
            identical = identical && bad == 0;
            traced_wall.push_back(t1 - t0);
            for (const auto& [k, v] : layerMetrics(r, span_from, ctr_before))
                layer[k].push_back(v);
        } else {
            wall.push_back(t1 - t0);
            cpu.push_back(c1 - c0);
            rate.push_back(static_cast<double>(r.modelled.warpInstrs) /
                           std::max(c1 - c0, 1e-9));
        }
        if (nowS() - loop_start >= o.seconds && b + 1 >= min_batches)
            break;
    }
    const double cores_after = effectiveCores(o.workers);
    std::cout << "host: {\"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency()
              << ", \"workers\": " << o.workers
              << ", \"common.effective_cores\": ["
              << cores_before << ", " << cores_after << "]}\n";

    std::map<std::string, double> metrics;
    if (!o.trace) {
        metrics["setup_s"] = median(setup_s);
        // Best of N batches: on a shared host the slow batches measure
        // the neighbours, the fastest one the program.
        metrics["wall_s"] = *std::min_element(wall.begin(), wall.end());
        metrics["cpu_s"] = *std::min_element(cpu.begin(), cpu.end());
        metrics["warp_instrs_per_cpu_s"] =
            *std::max_element(rate.begin(), rate.end());
        metrics["peak_rss_mb"] = peak_rss_mb;
        metrics["paper_err_pct"] =
            first.hasPaperErr
                ? first.paperErrPct
                : paperDramErrorPct(plan->kernelNames(),
                                    kTable1Scale, o.seed);
    } else {
        for (const auto& [k, v] : layer)
            metrics[k] = median(v);
        // Allocation resolved while building the plan is set-up work.
        std::vector<Span> all = tracer.spans();
        for (size_t i = 0; i < setup_spans; ++i)
            if (std::string(all[i].name) == "core.alloc")
                metrics["core.alloc_s"] +=
                    static_cast<double>(all[i].endNs - all[i].startNs) * 1e-9;
        addReplayMetrics(*plan, o, metrics);
        metrics["common.effective_cores"] = 0.5 * (cores_before + cores_after);
        metrics["trace.overhead_s"] = median(traced_wall) - median(wall);

        if (!o.traceOut.empty()) {
            std::ofstream out(o.traceOut);
            if (!out)
                usage("cannot write " + o.traceOut);
            tracer.writeJson(out);
            std::cout << "trace: " << tracer.size() << " spans written to "
                      << o.traceOut << "\n";
        }
        std::cout << "traced_untraced_identical: "
                  << (identical ? "true" : "false") << "\n";
    }

    const bool correct = tally.refsFound && tally.failed == 0;
    std::cout << "summary: workload=" << o.workloadName
              << " profile=" << o.profile.name << " seed=" << o.seed
              << " batches=" << (wall.size() + traced_wall.size())
              << " points_per_batch=" << plan->pointCount()
              << " warp_instrs_per_batch=" << first.modelled.warpInstrs
              << " ops_failed_frac="
              << static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted)
              << " run_s=" << (nowS() - run_start) << "\n";
    for (const auto& [k, v] : metrics)
        std::cout << "  " << k << " = " << v << " " << unitOf(k) << "\n";
    std::cout << "set-up blocks: " << setup_s.size() << " x " << per_block
              << ", median " << median(setup_s)
              << " s per set-up; batch medians: wall_s "
              << median(wall) << ", cpu_s " << median(cpu) << "\n";
    printList("batch_wall_s", wall);
    printList("batch_cpu_s", cpu);

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    bool first_metric = true;
    for (const auto& [k, v] : metrics) {
        printJsonMetric(js, k, v, unitOf(k), first_metric);
        first_metric = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
