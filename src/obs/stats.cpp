#include "obs/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dlis::obs {

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    const double clamped = std::clamp(q, 0.0, 100.0);
    const double rank =
        clamped / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

LatencyStats
LatencyStats::from(std::vector<double> samples)
{
    LatencyStats s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
             static_cast<double>(samples.size());
    s.min = samples.front();
    s.max = samples.back();
    s.p50 = percentile(samples, 50.0);
    s.p90 = percentile(samples, 90.0);
    s.p99 = percentile(samples, 99.0);
    return s;
}

} // namespace dlis::obs
