#include "common/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace unimem {

WorkerPool::WorkerPool(u32 workers)
    : workers_(workers != 0
                   ? workers
                   : std::max(std::thread::hardware_concurrency(), 1u))
{
}

void
WorkerPool::dispatch(u32 n, const std::function<void(u32)>& fn) const
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<u32> next{0};
    auto claim = [&] {
        for (u32 i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    {
        // jthreads join when the block ends, also if starting one throws.
        std::vector<std::jthread> helpers;
        for (u32 t = 1; t < std::min(workers_, n); ++t)
            helpers.emplace_back(claim);
        claim(); // the calling thread is worker 0
    }
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace unimem
