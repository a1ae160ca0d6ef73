/**
 * @file
 * The host's parallel executor, the paper's OpenMP backend (§IV-D): each
 * calling thread owns one worker team (libgomp's model), started by its
 * first run() with n > 1, grown to the widest n, joined at thread exit.
 */

#ifndef DLIS_CORE_THREAD_POOL_HPP
#define DLIS_CORE_THREAD_POOL_HPP

#include <cstddef>

namespace dlis::team {

/** Yielding polls a waiter makes before it sleeps in std::atomic::wait. */
inline constexpr unsigned kSpinIterations = 512;

void runErased(size_t n, void *fn, void (*task)(void *, size_t, size_t));
/** Call @p fn(tid, n), which must not throw, for each tid in [0, n), the
 *  caller as tid 0; return when all have. With n <= 1, or inside a task
 *  (there is no nesting), call @p fn(0, 1) inline. */
template <typename Fn>
void
run(size_t n, Fn &&fn)
{
    runErased(n, &fn, [](void *f, size_t tid, size_t width) {
        (*static_cast<decltype(&fn)>(f))(tid, width);
    });
}

/** Inside a task: wait until every task of its run() is here. */
void barrier();

} // namespace dlis::team

#endif // DLIS_CORE_THREAD_POOL_HPP
