#include "plan.hh"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/log.hh"
#include "common/worker_pool.hh"
#include "kernels/registry.hh"
#include "sim/result_cache.hh"
#include "spans.hh"

namespace perfbench {

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/** Table 1 DRAM columns: cache capacity with generous RF/scratch. */
RunSpec
dramPointSpec(u64 cacheBytes, u64 seed)
{
    RunSpec spec;
    spec.partition = MemoryPartition{256_KB, 1_MB, cacheBytes};
    spec.seed = seed;
    return spec;
}

/** Running FNV-1a over formatted fields. */
class Fnv
{
  public:
    void
    add(const char* fmt, double v)
    {
        char buf[64];
        int n = std::snprintf(buf, sizeof(buf), fmt, v);
        bytes(buf, static_cast<size_t>(n));
    }

    void
    add(u64 v)
    {
        add("%.17g;", static_cast<double>(v));
    }

    void
    add(const std::string& s)
    {
        bytes(s.data(), s.size());
        bytes("=", 1);
    }

    u64 value() const { return h_; }

  private:
    void
    bytes(const char* p, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h_ ^= static_cast<unsigned char>(p[i]);
            h_ *= 0x100000001b3ull;
        }
    }

    u64 h_ = 0xcbf29ce484222325ull;
};

void
addStats(Fnv& f, const SmStats& s)
{
    const StatSet stats = s.toStatSet();
    for (const auto& [name, v] : stats.entries()) {
        f.add(name);
        f.add("%.17g;", v);
    }
}

void
addModelled(ModelledCounts& m, const SmStats& s)
{
    m.warpInstrs += s.warpInstrs;
    m.rf.merge(s.rf);
    m.deschedules += s.sched.deschedules;
    m.conflictPenaltyCycles += s.conflictPenaltyCycles;
    m.cacheHits += s.cache.readHits + s.cache.writeHits;
    m.cacheAccesses += s.cache.accesses();
    m.dramRequests += s.dram.readRequests + s.dram.writeRequests +
                      s.texDram.readRequests + s.texDram.writeRequests;
}

u64
digestOf(const Comparison& c)
{
    Fnv f;
    f.add("%.17g;", c.speedup);
    f.add("%.17g;", c.energyRatio);
    f.add("%.17g;", c.dramRatio);
    return f.value();
}

Comparison
tracedCompare(const SimResult& run, const SimResult& base)
{
    ScopedSpan s("energy.compare");
    return compare(run, base);
}

/**
 * simulate() decomposed into the public calls it makes, each in its own
 * span: allocation, SM model construction and run, energy inputs. The
 * traced/untraced digest check proves the composition is faithful.
 */
SimResult
tracedSimulate(const KernelModel& kernel, const RunSpec& spec)
{
    ScopedSpan sim("sim.simulate");
    SimResult res;
    {
        ScopedSpan s("core.alloc");
        res.alloc = resolveAllocation(kernel.params(), spec);
    }
    if (!res.alloc.launch.feasible)
        fatal("perfbench: kernel %s does not fit (design %s)",
              kernel.params().name.c_str(), designName(spec.design));

    SmRunConfig cfg;
    cfg.design = spec.design == DesignKind::FermiLike ? DesignKind::Partitioned
                                                      : spec.design;
    cfg.partition = res.alloc.partition;
    cfg.launch = res.alloc.launch;
    cfg.activeSetSize = spec.activeSetSize;
    cfg.rfHierarchy = spec.rfHierarchy;
    cfg.conflictPenalties = spec.conflictPenalties;
    cfg.aggressiveUnified = spec.aggressiveUnified;
    cfg.cachePolicy = spec.cachePolicy;
    cfg.seed = spec.seed;

    SmModel model(cfg, kernel);
    {
        ScopedSpan s("sm.run");
        res.sm = model.run();
    }
    const FootprintStats& fp = model.footprintStats();
    Tracer& t = Tracer::instance();
    t.count("mem.footprint.mem_hits", static_cast<double>(fp.memHits));
    t.count("mem.footprint.mem_probes",
            static_cast<double>(fp.memHits + fp.memMisses));
    t.count("sm.run.warp_instrs", static_cast<double>(res.sm.warpInstrs));
    const std::string per_kernel =
        "mem.footprint.by_kernel." + kernel.params().name;
    t.count(per_kernel + ".mem_hits", static_cast<double>(fp.memHits));
    t.count(per_kernel + ".mem_probes",
            static_cast<double>(fp.memHits + fp.memMisses));
    res.energy = energyInputsOf(res.sm, res.alloc);
    return res;
}

/** simulateBenchmark() decomposed the same way, result cache included. */
SimResult
tracedSimulateBenchmark(const std::string& name, double scale,
                        const RunSpec& spec)
{
    std::unique_ptr<KernelModel> kernel;
    {
        ScopedSpan s("kernels.create");
        kernel = createBenchmark(name, scale);
    }
    std::string key;
    {
        ScopedSpan s("sim.result_cache");
        key = resultCacheKey(name, scale, kernel->params(), spec);
        if (std::optional<SimResult> hit = resultCache().lookup(key))
            return *std::move(hit);
    }
    SimResult res = tracedSimulate(*kernel, spec);
    {
        ScopedSpan s("sim.result_cache");
        resultCache().insert(key, res);
    }
    return res;
}

double
relErr(double sim, double paper)
{
    return std::fabs(sim - paper) / paper;
}

/** Table 1 error of one kernel from its three DRAM-point sector counts. */
double
kernelDramErr(const std::string& name, u64 d0, u64 d64, u64 d256)
{
    const BenchmarkInfo* info = findBenchmark(name);
    double base = static_cast<double>(d256 == 0 ? 1 : d256);
    return relErr(static_cast<double>(d0) / base, info->paperDramNone) +
           relErr(static_cast<double>(d64) / base, info->paperDram64k);
}

} // namespace

bool
parseWorkload(const std::string& name, Workload& out)
{
    for (Workload w :
         {Workload::PaperSweep, Workload::IrregularSm, Workload::ChipDram}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char*
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperSweep: return "paper_sweep";
      case Workload::IrregularSm: return "irregular_sm";
      case Workload::ChipDram: return "chip_dram";
    }
    return "?";
}

bool
parseProfile(const std::string& name, Profile& out)
{
    if (name == "full") {
        out = Profile{"full", 0.1, 1.0, 0.25, 8, 200000};
        return true;
    }
    if (name == "tiny") {
        out = Profile{"tiny", 0.02, 0.05, 0.05, 8, 5000};
        return true;
    }
    return false;
}

namespace {

/** Input-dependent footprints: lowest footprint-cache hit ratio. */
const std::vector<std::string>&
irregularKernels()
{
    static const std::vector<std::string> k = {"bfs", "sad", "dct8x8"};
    return k;
}

/** Memory bound, so chip DRAM and the weave carry the time. */
const std::vector<std::string>&
chipKernels()
{
    static const std::vector<std::string> k = {"sgemv", "vectoradd"};
    return k;
}

/** FNV-1a over the allocation, every stat and the energy inputs. */
u64
digestOf(const SimResult& r)
{
    Fnv f;
    const AllocationDecision& a = r.alloc;
    f.add(static_cast<u64>(a.design));
    f.add(a.partition.rfBytes);
    f.add(a.partition.sharedBytes);
    f.add(a.partition.cacheBytes);
    f.add(static_cast<u64>(a.launch.feasible));
    f.add(a.launch.regsPerThread);
    f.add("%.17g;", a.launch.spillMultiplier);
    f.add(a.launch.ctas);
    f.add(a.launch.threads);
    f.add(a.launch.rfBytes);
    f.add(a.launch.sharedBytes);
    addStats(f, r.sm);
    const EnergyInputs& e = r.energy;
    f.add(static_cast<u64>(e.design));
    f.add(e.partition.rfBytes);
    f.add(e.partition.sharedBytes);
    f.add(e.partition.cacheBytes);
    f.add(e.cycles);
    f.add(e.mrfReads);
    f.add(e.mrfWrites);
    f.add(e.sharedReadBytes);
    f.add(e.sharedWriteBytes);
    f.add(e.cacheReadBytes);
    f.add(e.cacheWriteBytes);
    f.add(e.dramBytes);
    return f.value();
}

/** Every SM's stats plus the chip DRAM and weave totals. */
u64
digestOf(const ChipStats& c)
{
    Fnv f;
    f.add(c.cycles);
    for (const DramStats* d : {&c.dram, &c.texDram}) {
        f.add(d->readSectors);
        f.add(d->writeSectors);
        f.add(d->readRequests);
        f.add(d->writeRequests);
    }
    for (const SmStats& s : c.sms)
        addStats(f, s);
    for (u64 v : c.perSmDramSectors)
        f.add(v);
    f.add(c.windows);
    f.add(c.boundPasses);
    f.add(c.weaveRequests);
    f.add(c.weaveStallCycles);
    return f.value();
}

} // namespace

double
paperDramErrorPct(const std::vector<std::string>& kernels, double scale,
                  u64 seed)
{
    double sum = 0.0;
    for (const std::string& name : kernels) {
        std::unique_ptr<KernelModel> k = createBenchmark(name, scale);
        u64 d[3];
        const u64 caches[3] = {0_KB, 64_KB, 256_KB};
        for (int i = 0; i < 3; ++i)
            d[i] = simulate(*k, dramPointSpec(caches[i], seed)).dramSectors();
        sum += kernelDramErr(name, d[0], d[1], d[2]);
    }
    return 100.0 * sum / static_cast<double>(2 * kernels.size());
}

// ---------------------------------------------------------------------
// paper_sweep

struct Plan::SweepPlan
{
    struct KernelPoints
    {
        std::string name;
        size_t base = kNone;
        std::vector<size_t> unified; // 128/256/384 KB, feasible ones
        std::vector<size_t> fermi;
        std::vector<size_t> autotune;
        size_t dram[3] = {kNone, kNone, kNone};
    };

    std::vector<SweepJob> jobs;
    std::vector<KernelPoints> kernels;
};

// ---------------------------------------------------------------------
// irregular_sm

struct Plan::SingleSmPlan
{
    struct Pair
    {
        std::string name;
        const KernelModel* kernel = nullptr;
        RunSpec base;
        RunSpec unified;
    };
    std::vector<Pair> pairs;
};

// ---------------------------------------------------------------------
// chip_dram

struct Plan::ChipPlan
{
    struct Run
    {
        std::string name;
        const KernelModel* kernel = nullptr;
        ChipConfig cfg;
    };
    std::vector<Run> runs;
};

Plan::Plan(Workload w, const Profile& p, u64 seed, u32 workers)
    : workload_(w), profile_(p), workers_(workers)
{
    for (const std::string& name : kernelNames()) {
        ScopedSpan s("kernels.create");
        kernels_[name] = createBenchmark(name, scale());
    }

    switch (w) {
      case Workload::PaperSweep: {
        sweep_ = std::make_unique<SweepPlan>();
        auto add = [&](const std::string& label, const std::string& name,
                       const RunSpec& spec) {
            const KernelParams& kp = kernels_.at(name)->params();
            bool ok;
            {
                ScopedSpan s("core.alloc");
                ok = resolveAllocation(kp, spec).launch.feasible;
            }
            if (!ok)
                return kNone;
            sweep_->jobs.push_back(
                makeSweepJob(name + "/" + label, name, scale(), spec));
            return sweep_->jobs.size() - 1;
        };
        for (const BenchmarkInfo& info : allBenchmarks()) {
            SweepPlan::KernelPoints kp;
            kp.name = info.name;
            RunSpec base;
            base.seed = seed;
            kp.base = add("base", kp.name, base);
            if (kp.base == kNone)
                fatal("perfbench: %s infeasible on the baseline", info.name);
            for (u64 cap : {128_KB, 256_KB, 384_KB}) {
                RunSpec spec;
                spec.design = DesignKind::Unified;
                spec.unifiedCapacity = cap;
                spec.seed = seed;
                size_t i = add("unified/" + std::to_string(cap / 1024),
                               kp.name, spec);
                if (i != kNone)
                    kp.unified.push_back(i);
            }
            // Fermi-like best-of-two (Section 6.3), as runFermiBest.
            for (const MemoryPartition& part : fermiLikeOptions(384_KB)) {
                RunSpec spec;
                spec.design = DesignKind::FermiLike;
                spec.partition = part;
                spec.seed = seed;
                size_t i = add("fermi/" +
                                   std::to_string(part.sharedBytes / 1024) +
                                   "-" +
                                   std::to_string(part.cacheBytes / 1024),
                               kp.name, spec);
                if (i != kNone)
                    kp.fermi.push_back(i);
            }
            // Thread-limit autotuning, one probe per distinct occupancy,
            // as runUnifiedAutotuned.
            u32 last_threads = 0;
            for (u32 limit = 256; limit <= kMaxThreadsPerSm; limit += 256) {
                RunSpec spec;
                spec.design = DesignKind::Unified;
                spec.unifiedCapacity = 384_KB;
                spec.threadLimit = limit;
                spec.seed = seed;
                AllocationDecision d;
                {
                    ScopedSpan s("core.alloc");
                    d = resolveAllocation(kernels_.at(kp.name)->params(),
                                          spec);
                }
                if (!d.launch.feasible ||
                    (!kp.autotune.empty() && d.launch.threads == last_threads))
                    continue;
                last_threads = d.launch.threads;
                kp.autotune.push_back(
                    add("autotune/" + std::to_string(limit), kp.name, spec));
            }
            if (kp.fermi.empty() || kp.autotune.empty() ||
                kp.unified.empty())
                fatal("perfbench: %s has an empty design group", info.name);
            const u64 caches[3] = {0_KB, 64_KB, 256_KB};
            for (int i = 0; i < 3; ++i) {
                kp.dram[i] =
                    add("dram/" + std::to_string(caches[i] / 1024), kp.name,
                        dramPointSpec(caches[i], seed));
                if (kp.dram[i] == kNone)
                    fatal("perfbench: %s Table 1 point infeasible",
                          info.name);
            }
            sweep_->kernels.push_back(std::move(kp));
        }
        break;
      }
      case Workload::IrregularSm: {
        single_ = std::make_unique<SingleSmPlan>();
        for (const std::string& name : irregularKernels()) {
            SingleSmPlan::Pair pr;
            pr.name = name;
            pr.kernel = kernels_.at(name).get();
            pr.base.seed = seed;
            pr.unified.design = DesignKind::Unified;
            pr.unified.unifiedCapacity = 384_KB;
            pr.unified.seed = seed;
            for (const RunSpec* spec : {&pr.base, &pr.unified}) {
                ScopedSpan s("core.alloc");
                if (!resolveAllocation(pr.kernel->params(), *spec)
                         .launch.feasible)
                    fatal("perfbench: %s infeasible", name.c_str());
            }
            single_->pairs.push_back(std::move(pr));
        }
        break;
      }
      case Workload::ChipDram: {
        chip_ = std::make_unique<ChipPlan>();
        for (const std::string& name : chipKernels()) {
            ChipPlan::Run r;
            r.name = name;
            r.kernel = kernels_.at(name).get();
            r.cfg.numSms = profile_.chipSms;
            {
                ScopedSpan s("sched.occupancy");
                r.cfg.sm.launch = occupancyPartitioned(
                    r.kernel->params(), r.cfg.sm.partition.rfBytes,
                    r.cfg.sm.partition.sharedBytes);
            }
            r.cfg.chipDramBytesPerCycle =
                r.cfg.numSms * r.cfg.sm.dramBytesPerCycle;
            r.cfg.workers = workers;
            r.cfg.sm.seed = seed;
            chip_->runs.push_back(std::move(r));
        }
        break;
      }
    }

    // runSweep and ChipModel::run start their own worker pools inside the
    // timed batch, so set-up starts none. A traced set-up times one pool
    // start-up to show what each batch pays for it in the common layer.
    if (Tracer::instance().enabled()) {
        ScopedSpan s("common.pool_start");
        WorkerPool pool(workers_);
        pool.dispatch(workers_, [](u32) {});
    }
}

Plan::~Plan() = default;

std::vector<std::string>
Plan::kernelNames() const
{
    switch (workload_) {
      case Workload::PaperSweep: {
        std::vector<std::string> all;
        for (const BenchmarkInfo& info : allBenchmarks())
            all.push_back(info.name);
        return all;
      }
      case Workload::IrregularSm: return irregularKernels();
      case Workload::ChipDram: return chipKernels();
    }
    return {};
}

double
Plan::scale() const
{
    switch (workload_) {
      case Workload::PaperSweep: return profile_.sweepScale;
      case Workload::IrregularSm: return profile_.irregularScale;
      case Workload::ChipDram: return profile_.chipScale;
    }
    return 0.0;
}

const KernelModel&
Plan::kernel(const std::string& name) const
{
    return *kernels_.at(name);
}

size_t
Plan::pointCount() const
{
    switch (workload_) {
      case Workload::PaperSweep:
        // Every job plus one comparison digest per kernel.
        return sweep_->jobs.size() + sweep_->kernels.size();
      case Workload::IrregularSm: return 3 * single_->pairs.size();
      case Workload::ChipDram: return chip_->runs.size();
    }
    return 0;
}

BatchResult
Plan::run(bool traced) const
{
    // No memo leakage: every batch starts from an empty result cache.
    resultCache().clear();
    switch (workload_) {
      case Workload::PaperSweep: return runSweep(traced);
      case Workload::IrregularSm: return runSingleSm(traced);
      case Workload::ChipDram: return runChip(traced);
    }
    return {};
}

BatchResult
Plan::runSweep(bool traced) const
{
    resultCache().setEnabled(true);
    BatchResult out;
    out.hasSweep = true;
    std::vector<SimResult> res;
    if (!traced) {
        res = unimem::runSweep(sweep_->jobs, workers_, &out.sweep);
    } else {
        ScopedSpan sweep("sim.sweep");
        std::vector<SweepJob> jobs = sweep_->jobs;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const SweepJob& src = sweep_->jobs[i];
            const std::int32_t parent = sweep.id();
            jobs[i].run = [&src, i, parent] {
                ScopedSpan p("sim.point", static_cast<std::uint32_t>(i),
                             parent);
                return tracedSimulateBenchmark(src.benchmark, src.scale,
                                               src.spec);
            };
        }
        res = unimem::runSweep(jobs, workers_, &out.sweep);
    }

    for (size_t i = 0; i < res.size(); ++i) {
        out.points.push_back({sweep_->jobs[i].label, digestOf(res[i])});
        addModelled(out.modelled, res[i].sm);
    }

    // Figs 8-10 / Table 6 normalization: best-of selections, then every
    // design against the baseline through the energy model.
    auto best = [&](const std::vector<size_t>& group) {
        size_t b = group.front();
        for (size_t i : group)
            if (res[i].cycles() < res[b].cycles())
                b = i;
        return b;
    };
    double err = 0.0;
    for (const SweepPlan::KernelPoints& kp : sweep_->kernels) {
        const SimResult& base = res[kp.base];
        Fnv f;
        std::vector<size_t> runs = kp.unified;
        runs.push_back(best(kp.fermi));
        runs.push_back(best(kp.autotune));
        for (size_t i : runs) {
            Comparison c =
                traced ? tracedCompare(res[i], base) : compare(res[i], base);
            f.add(digestOf(c));
        }
        out.points.push_back({kp.name + "/compare", f.value()});
        err += kernelDramErr(kp.name, res[kp.dram[0]].dramSectors(),
                             res[kp.dram[1]].dramSectors(),
                             res[kp.dram[2]].dramSectors());
    }
    out.paperErrPct =
        100.0 * err / static_cast<double>(2 * sweep_->kernels.size());
    out.hasPaperErr = true;
    out.simulateCalls = out.sweep.memoMisses;
    return out;
}

BatchResult
Plan::runSingleSm(bool traced) const
{
    resultCache().setEnabled(false);
    BatchResult out;
    for (const SingleSmPlan::Pair& pr : single_->pairs) {
        SimResult base = traced ? tracedSimulate(*pr.kernel, pr.base)
                                : simulate(*pr.kernel, pr.base);
        SimResult uni = traced ? tracedSimulate(*pr.kernel, pr.unified)
                               : simulate(*pr.kernel, pr.unified);
        Comparison c = traced ? tracedCompare(uni, base) : compare(uni, base);
        out.points.push_back({pr.name + "/base", digestOf(base)});
        out.points.push_back({pr.name + "/unified/384", digestOf(uni)});
        out.points.push_back({pr.name + "/compare", digestOf(c)});
        addModelled(out.modelled, base.sm);
        addModelled(out.modelled, uni.sm);
        out.simulateCalls += 2;
    }
    return out;
}

BatchResult
Plan::runChip(bool traced) const
{
    resultCache().setEnabled(false);
    BatchResult out;
    for (const ChipPlan::Run& r : chip_->runs) {
        ChipModel model(r.cfg, *r.kernel);
        ChipStats cs;
        if (traced) {
            ScopedSpan s("sm.chip");
            cs = model.run();
        } else {
            cs = model.run();
        }
        out.points.push_back({r.name + "/chip", digestOf(cs)});
        for (const SmStats& s : cs.sms)
            addModelled(out.modelled, s);
        // SmStats in chip mode carry no DRAM traffic; it is chip level.
        out.modelled.dramRequests +=
            cs.dram.readRequests + cs.dram.writeRequests +
            cs.texDram.readRequests + cs.texDram.writeRequests;
        out.chips.push_back(std::move(cs));
    }
    return out;
}

} // namespace perfbench
