/**
 * @file
 * Lock-free monotonic counters and the per-kernel counter handle set.
 *
 * This header is intentionally tiny: it is included by
 * backend/conv_params.hpp so every compute kernel can carry counter
 * handles inside its KernelPolicy without pulling in the registry
 * (obs/metrics.hpp). A null handle means "not measured" and costs the
 * kernel exactly one branch per work item.
 */

#ifndef DLIS_OBS_COUNTERS_HPP
#define DLIS_OBS_COUNTERS_HPP

#include <atomic>
#include <cstdint>

namespace dlis::obs {

/**
 * A monotonic event counter. add() is safe from any thread (relaxed
 * atomic), so a worker team's threads can publish partial counts at once;
 * kernels accumulate per-work-item totals locally and publish once per
 * item to keep the atomic traffic negligible.
 */
class Counter
{
  public:
    /** Add @p n events. Thread-safe. */
    void
    add(uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current total. */
    uint64_t
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero (between measurement runs, not mid-kernel). */
    void
    reset() noexcept
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Counter handles a compute kernel publishes into, all optional.
 * Layers fill these from the per-layer scope of an obs::Metrics
 * registry (Metrics::kernelCounters) so every count is attributed to
 * the layer that caused it.
 */
struct KernelCounters
{
    /**
     * CSR row-walk bookkeeping, in the cost model's per-output-pixel
     * units (LayerCost::sparseRowVisits): one event per (output pixel,
     * filter slice, kernel row). The scatter-formulated kernels hoist
     * the walk out of the spatial loop, so they charge each hoisted
     * row walk once per output pixel it serves — the same currency the
     * prediction uses, which is what makes expected-vs-actual joins
     * exact.
     */
    Counter *csrRowVisits = nullptr;
    /** 2-bit ternary weight decodes actually performed. */
    Counter *ternaryDecodes = nullptr;
    /** GEMM kernel invocations. */
    Counter *gemmCalls = nullptr;
    /** Multiply-accumulates issued to GEMM kernels (sum of m*k*n). */
    Counter *gemmMacs = nullptr;
    /** im2col bytes staged into scratch buffers. */
    Counter *im2colBytes = nullptr;
    /** Parallel regions launched: worker-team wakes. */
    Counter *ompRegions = nullptr;
    /**
     * Scratch-arena capacity growth (bytes) caused by this layer's
     * kernels. Nonzero only while the arena warms up; a steady-state
     * forward publishes zero — the regression signal the
     * allocation-churn tests watch.
     */
    Counter *arenaBytes = nullptr;
    /** Scratch-arena scope rewinds performed by this layer's kernels. */
    Counter *arenaRewinds = nullptr;
};

} // namespace dlis::obs

#endif // DLIS_OBS_COUNTERS_HPP
