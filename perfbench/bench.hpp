/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 * Two workloads, each built so that one layer of the stack does most
 * of the work (see perfbench/README.md). A run measures end-to-end
 * metrics with tracing off, or per-layer metrics with a tracer and a
 * counter registry attached (--trace 1). Inputs come from --seed;
 * model weights are fixed, so the work per forward never changes.
 */

#ifndef DLIS_PERFBENCH_BENCH_HPP
#define DLIS_PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * OpenMP threads per forward on the offline workload: all 4 cores.
 * Measured steadier here than 2, whose speed depends on which two
 * vCPUs the scheduler picks (perfbench/README.md).
 */
inline constexpr int kOmpThreads = 4;

/** Seconds elapsed from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; //!< Chrome trace path (trace runs; "" = none)
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Everything a workload run reports. */
struct Result
{
    bool correct = true;   //!< outputs checked, self-tests passed
    uint64_t attempted = 0;
    uint64_t failed = 0;   //!< refused, threw, or wrong output
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< human-readable context lines

    void
    add(const std::string &name, const std::string &unit, double value)
    {
        metrics.push_back({name, unit, value});
    }
};

/** A metric a workload declares: name and unit. */
using MetricDecl = std::pair<std::string, std::string>;

/** A workload (why each exists: perfbench/README.md). */
struct WorkloadSpec
{
    const char *name;
    Result (*run)(const Options &);
    int ompThreads; //!< OpenMP threads per forward (fingerprint)
    std::vector<MetricDecl> layerMetrics; //!< emitted with --trace 1
};

/** The end-to-end metrics every workload emits with --trace 0. */
const std::vector<MetricDecl> &endToEndMetrics();

/** All workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

Result runVgg16Im2colB1(const Options &opt);
Result runMobilenetServePoisson(const Options &opt);

/** @name Statistics over raw samples */
/** @{ */
/** Linear-interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> s) { return quantile(std::move(s), 0.5); }
/** @} */

/** @name Output checks (each failure counts in Result::failed) */
/** @{ */
/**
 * |out - ref| <= 1e-4 * max(1, |out|, |ref|) element-wise, the rule
 * `stack_cli --plan` parity uses against the serial-direct reference.
 */
bool withinTolerance(const dlis::Tensor &out, const dlis::Tensor &ref);
/** Same shape and the same bits in every element. */
bool bitIdentical(const dlis::Tensor &a, const dlis::Tensor &b);
/** Row @p row of a [batch, ...] tensor as its own [1, ...] tensor. */
dlis::Tensor row(const dlis::Tensor &batch, size_t row);
/**
 * Corrupt one element of @p out and confirm @p check now rejects it
 * against @p ref: the self-test that a wrong output is counted.
 */
template <typename Check>
bool
corruptionDetected(const dlis::Tensor &out, const dlis::Tensor &ref,
                   Check check)
{
    if (out.numel() == 0)
        return false; // nothing passed the check to corrupt
    dlis::Tensor bad = out;
    const size_t i = bad.numel() / 2;
    bad[i] += 0.01f * std::max(1.0f, bad[i] < 0 ? -bad[i] : bad[i]);
    return check(out, ref) && !check(bad, ref);
}
/** @} */

/**
 * Poisson arrival times (seconds from 0, ascending, all < @p duration)
 * at @p ratePerSec. A pure function of its arguments: the uniform
 * stream is SplitMix64 of @p seed and the gaps are inverse-CDF
 * exponentials, so no library distribution enters the schedule.
 */
std::vector<double> poissonSchedule(uint64_t seed, double ratePerSec,
                                    double duration);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Host and build fingerprint as a JSON object: host_name, num_cpus,
 * mhz_per_cpu and simd_isa (the fields tools/bench/compare_microbench.py
 * guards on), plus cpu_model, build_type, openmp and omp_threads.
 */
std::string fingerprintJson(int ompThreads);

/** Self-tests of the harness itself; false if any check fails. */
bool selfTest(std::vector<std::string> &log);

} // namespace perfbench

#endif // DLIS_PERFBENCH_BENCH_HPP
