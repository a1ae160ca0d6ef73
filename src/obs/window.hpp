/**
 * @file
 * Rolling time-windowed aggregation: a ring of fixed time buckets
 * (e.g. 10 x 1s) behind every "over the last N seconds" quantity the
 * serving telemetry publishes.
 *
 * The cumulative counters in obs/metrics.hpp answer "how many since
 * process start"; a live deployment needs "what is the p99 *right
 * now*". These types keep a ring of per-second (configurable) buckets
 * and merge the live ones at query time, so a reading always covers
 * the trailing window and stale traffic ages out bucket by bucket —
 * no unbounded sample vectors, no decay constants to tune.
 *
 * Time never comes from the wall clock directly: callers pass
 * nanosecond timestamps (usually MetricsRegistry::nowNs(), which tests
 * replace with a manual clock), so every windowed reading is
 * reproducible under test.
 */

#ifndef DLIS_OBS_WINDOW_HPP
#define DLIS_OBS_WINDOW_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dlis::obs {

/** Ring geometry of a rolling window. */
struct RollingConfig
{
    size_t buckets = 10;        //!< ring slots
    double bucketSeconds = 1.0; //!< time span of one slot

    /** Total window covered by the ring, seconds. */
    double
    windowSeconds() const
    {
        return static_cast<double>(buckets) * bucketSeconds;
    }
};

/**
 * Merged view of one rolling window at query time. Quantiles are
 * estimated from the histogram buckets by linear interpolation within
 * the covering bucket, clamped to the observed min/max.
 */
struct WindowStats
{
    uint64_t count = 0;  //!< observations inside the window
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double windowSeconds = 0.0; //!< span the reading covers
};

/**
 * Estimate quantile @p q in [0,1] from per-bucket counts (Prometheus
 * "le" semantics: counts[i] holds values <= bounds[i], the last entry
 * is the +Inf tail) totalling @p total. The target rank is located
 * and linearly interpolated inside its covering bucket — the standard
 * Prometheus histogram_quantile estimate — with @p lo as the first
 * bucket's lower edge and @p hi as the tail's upper edge; the result
 * is clamped to [lo, hi]. Shared by RollingHistogram and the
 * cumulative registry Histogram.
 */
double quantileFromCounts(const std::vector<double> &bounds,
                          const std::vector<uint64_t> &counts,
                          uint64_t total, double q, double lo, double hi);

/**
 * Monotonic event count over a rolling window. add() is lock-free
 * (one relaxed atomic add plus an epoch check); a bucket that falls
 * out of the window is recycled by the first writer that lands on it
 * in a later epoch. A write racing the recycling CAS at a bucket
 * boundary can be dropped — tolerable for telemetry, and impossible
 * in the single-threaded deterministic tests.
 */
class RollingCounter
{
  public:
    explicit RollingCounter(RollingConfig config = {});

    /** Count @p n events at time @p nowNs. Thread-safe. */
    void add(uint64_t n, uint64_t nowNs) noexcept;

    /** Events inside the window ending at @p nowNs. */
    uint64_t sum(uint64_t nowNs) const noexcept;

    const RollingConfig &config() const { return config_; }

  private:
    /** One ring slot; epoch tags which time bucket it holds. */
    struct alignas(64) Bucket
    {
        std::atomic<uint64_t> epoch{kNeverUsed};
        std::atomic<uint64_t> value{0};
    };

    static constexpr uint64_t kNeverUsed = ~0ull;

    uint64_t epochOf(uint64_t nowNs) const noexcept;

    RollingConfig config_;
    uint64_t bucketNs_;
    std::vector<Bucket> ring_;
};

/**
 * Value distribution over a rolling window: fixed upper-bound buckets
 * (Prometheus "le" semantics, implicit +Inf tail) per time slot, plus
 * per-slot count/sum/min/max for exact moments. record() takes a
 * short per-instrument mutex — each serving request records exactly
 * once, so the critical section (a few adds) is noise next to the
 * model forward it measures; in exchange the ring rotation is exact,
 * which the deterministic window tests rely on.
 */
class RollingHistogram
{
  public:
    /**
     * @param bounds ascending upper bounds (seconds, bytes, ...);
     *               values above the last bound land in the +Inf tail
     * @param config ring geometry
     */
    RollingHistogram(std::vector<double> bounds,
                     RollingConfig config = {});

    /** Observe @p value at time @p nowNs. Thread-safe. */
    void record(double value, uint64_t nowNs);

    /** Merged stats over the window ending at @p nowNs. */
    WindowStats stats(uint64_t nowNs) const;

    const std::vector<double> &bounds() const { return bounds_; }
    const RollingConfig &config() const { return config_; }

  private:
    struct Bucket
    {
        uint64_t epoch = kNeverUsed;
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<uint64_t> perBound; //!< bounds + 1 (+Inf tail)
    };

    static constexpr uint64_t kNeverUsed = ~0ull;

    uint64_t epochOf(uint64_t nowNs) const noexcept;
    bool liveEpoch(uint64_t epoch, uint64_t nowEpoch) const noexcept;

    std::vector<double> bounds_;
    RollingConfig config_;
    uint64_t bucketNs_;
    mutable std::mutex mutex_;
    std::vector<Bucket> ring_;
};

} // namespace dlis::obs

#endif // DLIS_OBS_WINDOW_HPP
