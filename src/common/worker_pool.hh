/**
 * @file
 * Fork-join worker pool shared by the parallel drivers: the sweep
 * engine, the chip validation exhibit, which runs whole chips side by
 * side, and the lint tool. Each dispatch() starts min(workers, n) - 1
 * threads; they and the calling thread claim indices from one atomic
 * counter until all n ran, and dispatch() returns once every thread
 * joined. A pool of one worker runs everything on the calling thread.
 *
 * Determinism contract: the pool only schedules; tasks communicate
 * results through caller-owned slots addressed by task index, so
 * output never depends on worker count or completion order (the same
 * invariant the sweep engine enforces). Joining the threads publishes
 * everything a task wrote to the caller.
 */

#ifndef UNIMEM_COMMON_WORKER_POOL_HH
#define UNIMEM_COMMON_WORKER_POOL_HH

#include <functional>

#include "common/types.hh"

namespace unimem {

/** Worker count plus a fork-join dispatch over it. */
class WorkerPool
{
  public:
    /**
     * @param workers total concurrency including the calling thread;
     *        0 means every hardware thread (minimum 1)
     */
    explicit WorkerPool(u32 workers);

    u32 workers() const { return workers_; }

    /**
     * Run @p fn(i) for every i in [0, n); blocks until all ran. If any
     * index throws, every other index still runs, and then the
     * exception of the lowest failing index is rethrown (deterministic
     * regardless of which thread hit it first).
     */
    void dispatch(u32 n, const std::function<void(u32)>& fn) const;

  private:
    u32 workers_;
};

} // namespace unimem

#endif // UNIMEM_COMMON_WORKER_POOL_HH
