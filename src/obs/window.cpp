#include "obs/window.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dlis::obs {

RollingCounter::RollingCounter(RollingConfig config)
    : config_(config),
      bucketNs_(static_cast<uint64_t>(config.bucketSeconds * 1e9)),
      ring_(config.buckets)
{
    DLIS_CHECK(config_.buckets > 0, "rolling window needs >= 1 bucket");
    DLIS_CHECK(bucketNs_ > 0, "rolling bucket must span > 0 ns");
}

uint64_t
RollingCounter::epochOf(uint64_t nowNs) const noexcept
{
    return nowNs / bucketNs_;
}

void
RollingCounter::add(uint64_t n, uint64_t nowNs) noexcept
{
    const uint64_t epoch = epochOf(nowNs);
    Bucket &b = ring_[epoch % ring_.size()];
    uint64_t seen = b.epoch.load(std::memory_order_acquire);
    if (seen != epoch) {
        // This slot still holds an expired bucket: the first writer
        // of the new epoch recycles it. A concurrent add that lands
        // between the exchange and the reset can be lost — accepted,
        // see the class comment.
        if (b.epoch.compare_exchange_strong(seen, epoch,
                                            std::memory_order_acq_rel))
            b.value.store(0, std::memory_order_release);
        else if (seen != epoch)
            return; // raced with a different epoch; drop the sample
    }
    b.value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t
RollingCounter::sum(uint64_t nowNs) const noexcept
{
    const uint64_t nowEpoch = epochOf(nowNs);
    const uint64_t oldest = nowEpoch >= ring_.size() - 1
                                ? nowEpoch - (ring_.size() - 1)
                                : 0;
    uint64_t total = 0;
    for (const Bucket &b : ring_) {
        const uint64_t epoch = b.epoch.load(std::memory_order_acquire);
        if (epoch != kNeverUsed && epoch >= oldest && epoch <= nowEpoch)
            total += b.value.load(std::memory_order_relaxed);
    }
    return total;
}

RollingHistogram::RollingHistogram(std::vector<double> bounds,
                                   RollingConfig config)
    : bounds_(std::move(bounds)), config_(config),
      bucketNs_(static_cast<uint64_t>(config.bucketSeconds * 1e9)),
      ring_(config.buckets)
{
    DLIS_CHECK(config_.buckets > 0, "rolling window needs >= 1 bucket");
    DLIS_CHECK(bucketNs_ > 0, "rolling bucket must span > 0 ns");
    DLIS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must ascend");
    for (Bucket &b : ring_)
        b.perBound.assign(bounds_.size() + 1, 0);
}

uint64_t
RollingHistogram::epochOf(uint64_t nowNs) const noexcept
{
    return nowNs / bucketNs_;
}

bool
RollingHistogram::liveEpoch(uint64_t epoch,
                            uint64_t nowEpoch) const noexcept
{
    if (epoch == kNeverUsed || epoch > nowEpoch)
        return false;
    const uint64_t oldest = nowEpoch >= ring_.size() - 1
                                ? nowEpoch - (ring_.size() - 1)
                                : 0;
    return epoch >= oldest;
}

void
RollingHistogram::record(double value, uint64_t nowNs)
{
    const uint64_t epoch = epochOf(nowNs);
    std::lock_guard<std::mutex> lock(mutex_);
    Bucket &b = ring_[epoch % ring_.size()];
    if (b.epoch != epoch) {
        b.epoch = epoch;
        b.count = 0;
        b.sum = 0.0;
        b.min = 0.0;
        b.max = 0.0;
        std::fill(b.perBound.begin(), b.perBound.end(), 0);
    }
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    b.perBound[static_cast<size_t>(it - bounds_.begin())] += 1;
    if (b.count == 0 || value < b.min)
        b.min = value;
    if (b.count == 0 || value > b.max)
        b.max = value;
    b.count += 1;
    b.sum += value;
}

WindowStats
RollingHistogram::stats(uint64_t nowNs) const
{
    const uint64_t nowEpoch = epochOf(nowNs);
    WindowStats s;
    s.windowSeconds = config_.windowSeconds();
    std::vector<uint64_t> merged(bounds_.size() + 1, 0);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Bucket &b : ring_) {
            if (!liveEpoch(b.epoch, nowEpoch))
                continue;
            for (size_t i = 0; i < merged.size(); ++i)
                merged[i] += b.perBound[i];
            if (b.count) {
                s.min = s.count ? std::min(s.min, b.min) : b.min;
                s.max = std::max(s.max, b.max);
            }
            s.count += b.count;
            s.sum += b.sum;
        }
    }
    if (s.count == 0)
        return s;
    // Clamped to the observed range, so a wide tail bucket cannot
    // report a value no request experienced.
    s.p50 = quantileFromCounts(bounds_, merged, s.count, 0.50, s.min,
                               s.max);
    s.p90 = quantileFromCounts(bounds_, merged, s.count, 0.90, s.min,
                               s.max);
    s.p99 = quantileFromCounts(bounds_, merged, s.count, 0.99, s.min,
                               s.max);
    return s;
}

double
quantileFromCounts(const std::vector<double> &bounds,
                   const std::vector<uint64_t> &counts, uint64_t total,
                   double q, double lo, double hi)
{
    // Rank of the target observation (1-based, ceil'd so q=1 maps to
    // the last observation), then linear interpolation inside the
    // covering histogram bucket.
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total)));
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank)
            continue;
        const double bucketLo = i == 0 ? lo : bounds[i - 1];
        const double bucketHi = i < bounds.size() ? bounds[i] : hi;
        const double frac =
            (rank - before) / static_cast<double>(counts[i]);
        const double est = bucketLo + (bucketHi - bucketLo) * frac;
        return std::clamp(est, lo, hi);
    }
    return hi;
}

} // namespace dlis::obs
