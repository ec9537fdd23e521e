#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "common/log.hh"
#include "common/worker_pool.hh"
#include "sim/result_cache.hh"

namespace unimem {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

SweepJob
makeSweepJob(std::string label, std::string benchmark, double scale,
             const RunSpec& spec)
{
    SweepJob job;
    job.label = std::move(label);
    job.benchmark = std::move(benchmark);
    job.scale = scale;
    job.spec = spec;
    return job;
}

double
SweepStats::utilization() const
{
    if (workers == 0 || wallSeconds <= 0.0)
        return 0.0;
    double busy = std::accumulate(jobSeconds.begin(), jobSeconds.end(), 0.0);
    return busy / (static_cast<double>(workers) * wallSeconds);
}

std::string
SweepStats::summary() const
{
    std::string s =
        strprintf("%llu jobs on %u worker%s in %.3fs (utilization "
                  "%.0f%%)",
                  static_cast<unsigned long long>(jobCount), workers,
                  workers == 1 ? "" : "s", wallSeconds,
                  utilization() * 100.0);
    if (memoHits + memoMisses > 0)
        s += strprintf(", memo %llu hit%s / %llu miss%s",
                       static_cast<unsigned long long>(memoHits),
                       memoHits == 1 ? "" : "s",
                       static_cast<unsigned long long>(memoMisses),
                       memoMisses == 1 ? "" : "es");
    return s;
}

std::vector<SimResult>
runSweep(const std::vector<SweepJob>& jobs, u32 workers,
         SweepStats* stats)
{
    const u32 n = static_cast<u32>(jobs.size());
    WorkerPool pool(workers);
    SweepStats s;
    s.workers = std::min(pool.workers(), std::max(n, 1u));
    s.jobCount = n;
    s.jobSeconds.assign(n, 0.0);
    const u64 memoHits0 = resultCache().hits();
    const u64 memoMisses0 = resultCache().misses();
    Clock::time_point start = Clock::now();

    // Each job writes its own result and time slot, so completion order
    // never affects the returned order; the pool rethrows the lowest
    // failing index, which is the first failure in submission order.
    std::vector<SimResult> results(n);
    pool.dispatch(n, [&](u32 i) {
        const SweepJob& job = jobs[i];
        Clock::time_point jobStart = Clock::now();
        try {
            results[i] = job.run ? job.run()
                                 : simulateBenchmark(job.benchmark,
                                                     job.scale, job.spec);
        } catch (const std::exception& e) {
            throw std::runtime_error(
                strprintf("sweep job %u ('%s') failed: %s", i,
                          job.label.c_str(), e.what()));
        }
        s.jobSeconds[i] = secondsSince(jobStart);
    });

    s.wallSeconds = secondsSince(start);
    s.memoHits = resultCache().hits() - memoHits0;
    s.memoMisses = resultCache().misses() - memoMisses0;
    if (stats)
        *stats = std::move(s);
    return results;
}

} // namespace unimem
