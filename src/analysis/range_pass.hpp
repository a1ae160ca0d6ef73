/**
 * @file
 * Interval value-range propagation (the numerical-safety dataflow
 * pass).
 *
 * Starting from a declared input interval, the pass pushes per-channel
 * activation intervals through every layer type the runtime executes —
 * conv (dense, CSR, packed-ternary), depthwise conv, batch norm,
 * linear, ReLU, pooling, flatten, and residual blocks — producing:
 *
 *  - per-unit output intervals (a "unit" is one top-level layer; a
 *    residual block is one unit, composed internally along both paths
 *    and through the in-place skip-add);
 *  - diagnostics for statically-reachable numerical hazards:
 *    NonFiniteWeight (NaN/Inf parameters, non-positive BN variance),
 *    ActivationOverflow (an interval endpoint escapes float range),
 *    DeadOutput (ReLU outputs provably pinned <= 0).
 *
 * Everything is an over-approximation: observed activations always lie
 * inside the intervals (up to float rounding). The property tests in
 * tests/test_analysis.cpp check that claim concretely on randomized
 * networks under every algorithm and both ISAs. How far a tuned
 * configuration's outputs drift from the serial/direct reference is
 * measured by the tuner, not bounded here.
 */

#ifndef DLIS_ANALYSIS_RANGE_PASS_HPP
#define DLIS_ANALYSIS_RANGE_PASS_HPP

#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/interval.hpp"
#include "nn/network.hpp"

namespace dlis::analysis {

/**
 * Intervals for one activation tensor. One entry per channel (NCHW)
 * or per feature (rank-2); a single entry means one interval uniformly
 * covering every element (e.g. after Flatten mixes channels).
 */
struct ValueRange
{
    std::vector<Interval> ch;

    /** Interval of element group @p c (handles the uniform case). */
    const Interval &
    at(size_t c) const
    {
        return ch.size() == 1 ? ch[0] : ch[c];
    }

    /** Number of distinct groups carried. */
    size_t groups() const { return ch.size(); }

    /** Hull over all groups. */
    Interval overall() const;
};

/** Output range of one top-level unit. */
struct UnitAnalysis
{
    const Layer *layer = nullptr;
    std::string name;
    ValueRange out;
};

/** Result of the range pass over a whole network. */
struct RangeReport
{
    std::vector<UnitAnalysis> units; //!< execution order
    std::vector<Diagnostic> diagnostics;

    /**
     * False when the walk stopped early (non-finite weights, interval
     * overflow, or a shape mismatch): units past the stop point are
     * absent.
     */
    bool complete = true;

    bool
    hasErrors() const
    {
        for (const Diagnostic &d : diagnostics)
            if (d.severity == Severity::Error)
                return true;
        return false;
    }
};

/**
 * Propagate @p inputRange (applied to every input element) through
 * @p net declared with NCHW input shape @p input. Never executes a
 * kernel; never throws on malformed models — defects become
 * diagnostics and stop the walk.
 */
RangeReport propagateRanges(const Network &net, const Shape &input,
                            const Interval &inputRange);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_RANGE_PASS_HPP
