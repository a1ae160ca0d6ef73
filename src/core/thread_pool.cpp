#include "core/thread_pool.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace dlis::team {
namespace {

void
waitWhile(const std::atomic<unsigned> &w, unsigned old)
{
    for (unsigned i = 0; w.load(std::memory_order_acquire) == old; ++i)
        if (i < kSpinIterations)
            std::this_thread::yield();
        else
            w.wait(old, std::memory_order_acquire);
}

/** One thread's workers, tids 1..size(), and the run they serve. */
struct Team
{
    void (*task)(void *, size_t, size_t) = nullptr;
    void *fn = nullptr;
    size_t n = 1; //!< width of the current run; 0 stops the team
    std::atomic<unsigned> epoch{0};    //!< one bump per run
    std::atomic<unsigned> pending{0};  //!< workers still in the run
    std::atomic<unsigned> arrived{0};  //!< tasks at the barrier
    std::atomic<unsigned> barriers{0}; //!< one bump per barrier
    std::vector<std::jthread> workers; //!< destroyed (joined) first

    ~Team()
    {
        n = 0;
        epoch.fetch_add(1, std::memory_order_release);
        epoch.notify_all();
    }
};

thread_local Team *tlsTask = nullptr; //!< team whose task this runs

} // namespace

void
runErased(size_t n, void *fn, void (*task)(void *, size_t, size_t))
{
    thread_local Team solo, team;
    Team *const outer = tlsTask;
    Team &t = n <= 1 || outer ? solo : team;
    const size_t width = &t == &solo ? 1 : n;
    while (t.workers.size() + 1 < width)
        t.workers.emplace_back([&t, tid = t.workers.size() + 1,
                                seen = t.epoch.load()]() mutable {
            for (tlsTask = &t; waitWhile(t.epoch, seen), t.n != 0; ++seen) {
                if (tid < t.n)
                    t.task(t.fn, tid, t.n);
                if (t.pending.fetch_sub(1, std::memory_order_release) == 1)
                    t.pending.notify_one();
            }
        });
    t.task = task, t.fn = fn, t.n = width;
    t.pending.store(static_cast<unsigned>(t.workers.size()));
    t.epoch.fetch_add(1, std::memory_order_release);
    t.epoch.notify_all();
    tlsTask = &t;
    task(fn, 0, width);
    tlsTask = outer;
    for (unsigned left; (left = t.pending.load()) != 0;)
        waitWhile(t.pending, left);
}

void
barrier()
{
    Team &t = *tlsTask;
    const unsigned done = t.barriers.load(std::memory_order_acquire);
    if (t.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 < t.n)
        return waitWhile(t.barriers, done);
    t.arrived.store(0, std::memory_order_relaxed);
    t.barriers.fetch_add(1, std::memory_order_release);
    t.barriers.notify_all();
}

} // namespace dlis::team
