/**
 * @file
 * Serving-grade metrics registry: counter / gauge / histogram
 * families with label sets, Prometheus text exposition, and a JSON
 * status snapshot.
 *
 * Relationship to obs/metrics.hpp: the per-layer `Metrics` registry
 * stays the expected-vs-actual instrument (its dotted counter names
 * join LayerCost predictions); `MetricsRegistry` is the *live serving*
 * face — typed families with label sets, rolling windows
 * (obs/window.hpp), and a scrape format — and is the only place new
 * serving metrics may live (enforced by the dlis_lint
 * `serve-atomic` rule).
 *
 * Hot-path contract: every instrument handle is resolved once, at
 * registration (registry mutex), after which publishing is lock-free
 * — counters stripe across per-thread shards merged on scrape, gauges
 * are single atomics, histograms are atomic bucket adds. Nothing on
 * the record path allocates, so telemetry cannot disturb the
 * allocation-free steady state the serving engine guarantees
 * (test_memory_steady, test_telemetry's allocation-counter test).
 *
 * Time: windowed instruments read the registry clock (nanoseconds,
 * steady, starts at 0), which tests replace with a manual clock to
 * make window expiry deterministic.
 */

#ifndef DLIS_OBS_REGISTRY_HPP
#define DLIS_OBS_REGISTRY_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats.hpp"
#include "obs/window.hpp"

namespace dlis::obs {

/** Label set of one instrument, fixed at registration. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Lock-free monotonic counter striped across per-thread shards: add()
 * touches only the calling thread's cache line, value() sums the
 * shards (scrape-time work). Counters never reset — rates come from
 * the rolling windows, not from deltas of this value.
 */
class ShardedCounter
{
  public:
    static constexpr size_t kShards = 16;

    /** Add @p n events. Thread-safe, lock-free. */
    void
    add(uint64_t n = 1) noexcept
    {
        slots_[shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Current total (merges all shards). */
    uint64_t
    value() const noexcept
    {
        uint64_t total = 0;
        for (const Slot &s : slots_)
            total += s.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> value{0};
    };

    /** Dense per-thread shard index (first-use order, mod kShards). */
    static size_t shardIndex() noexcept;

    std::array<Slot, kShards> slots_;
};

/** Point-in-time value with set/add/max semantics (atomic double). */
class Gauge
{
  public:
    /** Overwrite the value. Thread-safe. */
    void
    set(double v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Add @p delta (CAS loop; gauges update rarely). */
    void add(double delta) noexcept;

    /** Raise the value to @p v if larger (high-water tracking). */
    void maxOf(double v) noexcept;

    double
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Cumulative histogram (Prometheus semantics: per-bound "le" buckets
 * plus +Inf tail, running sum and count). record() is lock-free.
 */
class Histogram
{
  public:
    /** @param bounds ascending upper bounds; +Inf tail is implicit. */
    explicit Histogram(std::vector<double> bounds);

    /** Observe @p value. Thread-safe, lock-free. */
    void record(double value) noexcept;

    uint64_t count() const noexcept;
    double sum() const noexcept;

    /** Per-bound counts; last entry is the +Inf tail. */
    std::vector<uint64_t> bucketCounts() const;

    /**
     * Summary of everything recorded. count and mean are exact (from
     * the bucket total and the running sum); every other field is at
     * bucket resolution. min and max are the edges of the lowest and
     * highest non-empty buckets (the first bucket's lower edge is 0,
     * the +Inf tail's upper edge is the last finite bound), and
     * p50/p90/p99 interpolate within buckets (quantileFromCounts) —
     * the numbers Prometheus histogram_quantile returns for this
     * series.
     */
    LatencyStats stats() const;

    const std::vector<double> &bounds() const { return bounds_; }

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_; //!< bounds + 1
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Central registry of named instruments. Registration (find-or-create
 * by name + label set) takes the registry mutex and may allocate;
 * returned references stay valid for the registry's lifetime and
 * publish lock-free. Scrape via renderPrometheus()/renderStatusJson().
 */
class MetricsRegistry
{
  public:
    /**
     * @param clockNs nanosecond clock for the rolling windows; null
     *                uses a steady clock anchored at construction.
     *                Tests inject a manual clock here.
     */
    explicit MetricsRegistry(
        std::function<uint64_t()> clockNs = nullptr);

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Nanoseconds on the registry clock. */
    uint64_t nowNs() const;

    /** @name Find-or-create instruments (help is set on first use). */
    /** @{ */
    ShardedCounter &counter(const std::string &name,
                            const std::string &help = "",
                            const MetricLabels &labels = {});
    Gauge &gauge(const std::string &name,
                 const std::string &help = "",
                 const MetricLabels &labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         std::vector<double> bounds,
                         const MetricLabels &labels = {});
    RollingCounter &rollingCounter(const std::string &name,
                                   const std::string &help = "",
                                   RollingConfig config = {},
                                   const MetricLabels &labels = {});
    RollingHistogram &rollingHistogram(const std::string &name,
                                       const std::string &help,
                                       std::vector<double> bounds,
                                       RollingConfig config = {},
                                       const MetricLabels &labels = {});
    /** @} */

    /**
     * Register a gauge whose value is computed by @p eval at scrape
     * time (queue depth, shed ratio, ...). @p eval must be thread-safe
     * and non-blocking; it runs on the scrape thread.
     */
    void derivedGauge(const std::string &name, const std::string &help,
                      const MetricLabels &labels,
                      std::function<double()> eval);

    /**
     * Prometheus text exposition (format 0.0.4) of every registered
     * family: # HELP / # TYPE headers, histogram le-buckets, rolling
     * histograms as summaries with a "window" label.
     */
    std::string renderPrometheus() const;

    /** JSON snapshot of the same instruments (the /statusz body). */
    std::string renderStatusJson() const;

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        DerivedGauge,
        Histogram,
        RollingCounter,
        RollingHistogram,
    };

    struct Instrument
    {
        Kind kind;
        std::string name;
        MetricLabels labels;
        std::string help;
        std::unique_ptr<ShardedCounter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<RollingCounter> rollingCounter;
        std::unique_ptr<RollingHistogram> rollingHistogram;
        std::function<double()> eval;
    };

    /** Caller holds mutex_ until the instrument's member is set, so a
     *  concurrent scrape never sees a half-registered instrument. */
    Instrument &findOrCreate(Kind kind, const std::string &name,
                             const MetricLabels &labels,
                             const std::string &help);

    static std::string instrumentKey(const std::string &name,
                                     const MetricLabels &labels);

    std::function<uint64_t()> clock_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    /** Keyed by name + labels; map order groups families on scrape. */
    std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

/**
 * Default latency histogram bounds, seconds: 0.5ms .. ~8s, roughly
 * doubling — wide enough for a CIFAR forward on any backend here.
 */
std::vector<double> defaultLatencyBounds();

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string promEscapeLabel(const std::string &value);

} // namespace dlis::obs

#endif // DLIS_OBS_REGISTRY_HPP
