/**
 * @file
 * Reusable per-context scratch arena for kernel workspaces.
 *
 * The conv/GEMM hot path used to allocate a fresh im2col column
 * buffer and GEMM packing buffers on every forward — thousands of
 * heap allocations per request at steady state. The arena replaces
 * them with one grow-only buffer owned by the ExecContext (one per
 * serving worker): the first forward grows it to the model's
 * high-water scratch demand, and every later forward runs
 * allocation-free.
 *
 * Contract:
 *  - grow-only: capacity never shrinks until destruction, and growth
 *    is *exact* (capacity == the aligned high-water demand), which is
 *    what keeps the static estimate in src/analysis/memory_estimate.cpp
 *    byte-EXACT against the MemoryTracker (the arena registers its
 *    capacity under MemClass::Scratch);
 *  - checkpoint/rewind: a layer takes a Scope at entry and the arena
 *    rewinds to the checkpoint at exit, so per-layer demands overlay
 *    rather than accumulate;
 *  - alignment-aware: every block starts on a kAlignment boundary and
 *    occupies alignUp(bytes), so offsets stay aligned and the demand
 *    of a sequence of allocations is exactly the sum of their aligned
 *    sizes (the mirror the static estimate computes);
 *  - single-consumer: one arena serves one thread of control. Kernels
 *    that parallelise internally carve per-thread slices out of one
 *    block *before* entering the parallel region (see gemmBlocked).
 */

#ifndef DLIS_CORE_SCRATCH_ARENA_HPP
#define DLIS_CORE_SCRATCH_ARENA_HPP

#include <cstddef>
#include <vector>

#include "core/memory_tracker.hpp"
// Header-only counter handles (no link dependency), same leaf-header
// idiom as backend/conv_params.hpp.
#include "obs/counters.hpp"

namespace dlis {

/** Grow-only aligned bump allocator for kernel scratch. */
class ScratchArena
{
  public:
    /** Block alignment; also the granularity of every allocation. */
    static constexpr size_t kAlignment = 64;

    /** @p bytes rounded up to the arena's allocation granularity. */
    static constexpr size_t
    alignUp(size_t bytes)
    {
        return (bytes + kAlignment - 1) / kAlignment * kAlignment;
    }

    ScratchArena() = default;
    ~ScratchArena();

    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /**
     * Bump-allocate @p bytes (rounded up to kAlignment). The block is
     * uninitialised — callers overwrite it fully or zero what they
     * need. Valid until the enclosing Scope ends (or rewind()).
     */
    void *alloc(size_t bytes);

    /** alloc() typed for the float workspaces every kernel uses. */
    float *
    allocFloats(size_t count)
    {
        return static_cast<float *>(alloc(count * sizeof(float)));
    }

    /**
     * Ensure capacity for @p bytes more than currently used, in one
     * growth step. Callers that allocate several blocks in a row pass
     * the sum of the aligned sizes so live data is copied at most
     * once.
     */
    void reserve(size_t bytes);

    /** Current offset; pass to rewind() to free everything after. */
    size_t checkpoint() const { return used_; }

    /** Roll the bump pointer back to @p mark (from checkpoint()). */
    void rewind(size_t mark);

    /** Bytes currently allocated out of the arena. */
    size_t usedBytes() const { return used_; }

    /**
     * Bytes owned by the arena: the high-water of usedBytes() so far.
     * This is exactly what the MemoryTracker sees as Scratch.
     */
    size_t capacityBytes() const { return capacity_; }

    /**
     * RAII checkpoint/rewind with optional counter publication: on
     * destruction the arena rewinds to the construction-time mark,
     * `arena_rewinds` counts one, and `arena_bytes` receives the
     * capacity growth this scope caused (zero at steady state — the
     * signal the allocation-regression tests watch).
     */
    class Scope
    {
      public:
        explicit Scope(ScratchArena &arena,
                       const obs::KernelCounters &counters = {})
            : arena_(arena), mark_(arena.checkpoint()),
              capacityAtStart_(arena.capacityBytes()),
              counters_(counters)
        {
        }

        ~Scope()
        {
            arena_.rewind(mark_);
            if (counters_.arenaRewinds)
                counters_.arenaRewinds->add(1);
            if (counters_.arenaBytes &&
                arena_.capacityBytes() > capacityAtStart_)
                counters_.arenaBytes->add(arena_.capacityBytes() -
                                          capacityAtStart_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        ScratchArena &arena_;
        size_t mark_;
        size_t capacityAtStart_;
        obs::KernelCounters counters_;
    };

  private:
    /**
     * Grow to exactly @p newCapacity (aligned), preserving live data.
     * The outgrown buffer is *retired*, not freed: callers hold raw
     * pointers into it across nested kernel calls (e.g. conv's im2col
     * columns are read by the GEMM after the GEMM's own tile
     * allocation grew the arena), so it must stay mapped until the
     * arena fully rewinds to empty — the only point where no
     * outstanding block pointers can exist.
     */
    void grow(size_t newCapacity);

    /** Free every retired buffer (at full rewind or destruction). */
    void freeRetired();

    char *base_ = nullptr;
    size_t used_ = 0;
    size_t capacity_ = 0;
    std::vector<char *> retired_;
    TrackedBytes tracked_{MemClass::Scratch, 0};
};

} // namespace dlis

#endif // DLIS_CORE_SCRATCH_ARENA_HPP
