/**
 * @file
 * Latency statistics over repeated measurements: percentiles and
 * moments, replacing single-shot wall-clock numbers everywhere a
 * measurement is reported (InferenceStack, stack_cli, the bench
 * harness, kernel_microbench).
 */

#ifndef DLIS_OBS_STATS_HPP
#define DLIS_OBS_STATS_HPP

#include <cstddef>
#include <vector>

namespace dlis::obs {

/**
 * Percentile of @p sorted (ascending) samples at @p q in [0, 100],
 * with linear interpolation between ranks. Returns 0 when empty.
 */
double percentile(const std::vector<double> &sorted, double q);

/** Summary statistics of a latency sample set (seconds). */
struct LatencyStats
{
    size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    /** Compute from raw samples (order irrelevant; copied locally). */
    static LatencyStats from(std::vector<double> samples);
};

} // namespace dlis::obs

#endif // DLIS_OBS_STATS_HPP
