/**
 * @file
 * Deterministic measurement harness shared by every timing loop in
 * the repo: warmup runs (untimed) followed by a median-of-k sample.
 *
 * The kernel microbench aggregates (bench/kernel_microbench.cpp) and
 * the per-layer deployment tuner (tune/tuner.cpp) reduce repeated
 * timings the same way. One utility means one policy — median,
 * because kernel times on a shared host are skewed one-sided by
 * scheduler noise — and one
 * injection point for a fake clock, which is what makes the tuner's
 * choice reproducible in tests (same inputs, same clock stream, same
 * chosen configuration, byte-identical plan).
 */

#ifndef DLIS_TUNE_MEASURE_HPP
#define DLIS_TUNE_MEASURE_HPP

#include <cstddef>
#include <functional>
#include <vector>

namespace dlis::tune {

/**
 * Monotonic seconds source. The default reads steady_clock; tests
 * inject a deterministic stream so measured "times" — and every
 * decision derived from them — replay exactly.
 */
using ClockFn = std::function<double()>;

/** Seconds from std::chrono::steady_clock (the default ClockFn). */
double steadyClockSeconds();

/** How measureMedianSeconds samples a body. */
struct MeasureOptions
{
    size_t warmup = 1; //!< untimed runs before the first sample
    size_t reps = 5;   //!< timed runs the median is taken over
    ClockFn clock;     //!< null = steadyClockSeconds
};

/**
 * Median of @p samples (mean of the middle pair for even sizes).
 * @pre samples is non-empty.
 */
double medianOf(std::vector<double> samples);

/**
 * @p q-th percentile (0..100) of @p samples: linear interpolation
 * between ranks over a sorted copy (obs::percentile semantics).
 * @pre samples is non-empty.
 */
double percentileOf(std::vector<double> samples, double q);

/**
 * Run @p body options.warmup times untimed, then options.reps times
 * timed, and return the median of the timed samples in seconds.
 * Deterministic whenever the body and the clock are.
 */
double measureMedianSeconds(const std::function<void()> &body,
                            const MeasureOptions &options);

} // namespace dlis::tune

#endif // DLIS_TUNE_MEASURE_HPP
