/**
 * @file
 * Persistent worker-thread pool shared by the parallel drivers: the
 * sweep engine and the chip validation exhibit, which runs whole chips
 * side by side. The pool keeps `workers - 1` threads parked on a
 * condition variable; each dispatch() wakes them, runs one task per
 * slot with the calling thread participating as slot 0, and returns
 * once every slot finished. parallelFor() layers dynamic index claiming
 * on top for irregular work.
 *
 * Determinism contract: the pool only schedules; tasks communicate
 * results through caller-owned slots addressed by task index, so
 * output never depends on worker count or completion order (the same
 * invariant the sweep engine enforces). Completion is published with
 * acquire/release ordering: everything a task wrote is visible to the
 * caller when dispatch() returns.
 */

#ifndef UNIMEM_COMMON_WORKER_POOL_HH
#define UNIMEM_COMMON_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"

namespace unimem {

/** Reusable pool of worker threads with a fork-join dispatch. */
class WorkerPool
{
  public:
    /**
     * @param workers total concurrency including the calling thread;
     *        1 means "run everything inline, spawn nothing"
     */
    explicit WorkerPool(u32 workers);

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    ~WorkerPool();

    u32 workers() const { return workers_; }

    /**
     * Run @p fn(slot) for every slot in [0, slots). Blocks until all
     * slots completed; the calling thread executes slots itself. If any
     * slot throws, the exception of the lowest-numbered failing slot is
     * rethrown after all slots drain (deterministic regardless of which
     * worker hit it first).
     */
    void dispatch(u32 slots, const std::function<void(u32)>& fn);

    /**
     * Run @p fn(i) for i in [0, n) with dynamic claiming over
     * min(workers, n) slots. Same blocking/exception contract as
     * dispatch().
     */
    void parallelFor(u32 n, const std::function<void(u32)>& fn);

  private:
    void workerMain();
    void runSlots(const std::function<void(u32)>& fn, u32 count);

    u32 workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;

    /** Bumped per dispatch; parked workers wait for it to change. */
    u64 generation_ = 0;
    bool shutdown_ = false;

    /** Current dispatch (valid while slotsLeft_ > 0). */
    const std::function<void(u32)>* fn_ = nullptr;
    u32 slotCount_ = 0;
    std::atomic<u32> nextSlot_{0};
    u32 slotsDone_ = 0;
    /** Helper threads currently inside runSlots() for this dispatch. */
    u32 busyRunners_ = 0;

    /** Lowest-slot exception of the current dispatch. */
    std::exception_ptr error_;
    u32 errorSlot_ = 0;
};

} // namespace unimem

#endif // UNIMEM_COMMON_WORKER_POOL_HH
