/**
 * @file
 * Counter registry: monotonic counters keyed by name, with per-layer
 * scoping for expected-vs-actual attribution.
 *
 * Names use dotted scopes, "conv1.csr_row_visits": the scope is the
 * layer (or other span) the count is attributed to, the leaf is the
 * event kind. Metrics::kernelCounters("<layer>") hands a layer's
 * KernelCounters handle set to the backend kernels; acquisition takes
 * the registry mutex once per layer invocation, after which kernels
 * publish lock-free.
 */

#ifndef DLIS_OBS_METRICS_HPP
#define DLIS_OBS_METRICS_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/counters.hpp"

namespace dlis::obs {

/** Well-known counter leaf names (the kernels' vocabulary). */
namespace counter_names {
inline constexpr const char *csrRowVisits = "csr_row_visits";
inline constexpr const char *ternaryDecodes = "ternary_decodes";
inline constexpr const char *gemmCalls = "gemm_calls";
inline constexpr const char *gemmMacs = "gemm_macs";
inline constexpr const char *im2colBytes = "im2col_bytes";
inline constexpr const char *ompRegions = "omp_regions";
inline constexpr const char *arenaBytes = "arena_bytes";
inline constexpr const char *arenaRewinds = "arena_rewinds";
} // namespace counter_names

/** Thread-safe registry of named monotonic counters. */
class Metrics
{
  public:
    /**
     * Find-or-create the counter named @p name. The returned reference
     * stays valid for the registry's lifetime (counters are
     * heap-allocated nodes; the map only stores owners).
     */
    Counter &counter(const std::string &name);

    /** Counter lookup without creation; null if absent. */
    const Counter *find(const std::string &name) const;

    /** Value of @p name, 0 if the counter was never created. */
    uint64_t value(const std::string &name) const;

    /** All counters and their current values, sorted by name. */
    std::map<std::string, uint64_t> snapshot() const;

    /**
     * Values of every counter under "<scope>.", keyed by leaf name
     * (e.g. scope "conv1" returns {"csr_row_visits": ...}).
     */
    std::map<std::string, uint64_t>
    scopeSnapshot(const std::string &scope) const;

    /** Zero every counter (registrations are kept). */
    void reset();

    /**
     * The full kernel handle set for one attribution scope, creating
     * "<scope>.<leaf>" counters as needed.
     */
    KernelCounters kernelCounters(const std::string &scope);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

} // namespace dlis::obs

#endif // DLIS_OBS_METRICS_HPP
