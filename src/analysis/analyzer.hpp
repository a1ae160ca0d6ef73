/**
 * @file
 * The multi-pass numerical-safety analyzer: one driver over the
 * structural verifier (verifier.hpp) and the interval range pass
 * (range_pass.hpp).
 *
 * `stack_cli --analyze` renders the report for humans or as JSON.
 * Numerical accuracy of a tuned configuration is not bounded here:
 * the tuner measures each candidate's deviation from the
 * serial/direct reference (tune/tuner.hpp).
 */

#ifndef DLIS_ANALYSIS_ANALYZER_HPP
#define DLIS_ANALYSIS_ANALYZER_HPP

#include "analysis/range_pass.hpp"
#include "analysis/verifier.hpp"

namespace dlis::analysis {

/** What to analyze the network against. */
struct AnalyzeOptions
{
    Shape input;                      //!< NCHW input shape
    Interval inputRange{-1.0, 1.0};   //!< declared per-element range
    Backend backend = Backend::Serial;
    ConvAlgo convAlgo = ConvAlgo::Direct;
    int threads = 1;
};

/** Combined result of all passes. */
struct AnalysisReport
{
    /** Verifier + range-pass diagnostics, in pass order. */
    std::vector<Diagnostic> diagnostics;

    /** Per-unit output intervals from the range pass. */
    RangeReport ranges;

    /** The options the analysis ran under (echoed into reports). */
    AnalyzeOptions options;

    /** True when no Error-severity diagnostic was produced. */
    bool ok() const;

    size_t count(Severity severity) const;
    bool has(Check c) const;

    /** Human-readable multi-line report (ranges, verdict). */
    std::string str() const;

    /** Machine-readable JSON report. */
    std::string json() const;
};

/**
 * Run every static pass against @p net. Never executes a kernel and
 * never throws on a malformed model — every defect becomes a
 * Diagnostic.
 */
AnalysisReport analyzeNetwork(const Network &net,
                              const AnalyzeOptions &options);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_ANALYZER_HPP
