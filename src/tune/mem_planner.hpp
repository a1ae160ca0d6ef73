/**
 * @file
 * Memory-budgeted deployment planning: pick per-layer {backend,
 * algorithm, threads} minimising total latency subject to a hard
 * peak-RAM budget.
 *
 * The paper characterises the latency/memory trade each conv
 * algorithm makes (direct's zero workspace vs im2col's K*N column
 * blowup); TASO (PAPERS.md) turns that into an optimisation problem —
 * on a memory-constrained target, run im2col where it fits and fall
 * back to direct where it doesn't. This planner solves exactly that
 * over the tuner's measured candidate database.
 *
 * The peak model is the static estimator's, which the tests pin
 * byte-exact against MemoryTracker: with B = weights + sparse
 * metadata + input bytes (all assignment-independent), A_i(c) = layer
 * input + activation transient of layer i under choice c, and S_i(c)
 * its scratch-arena demand,
 *
 *     peak(assignment) = B + max(floorA, max_i A_i) + max_i S_i
 *
 * where floorA covers the double-buffered input and the non-tunable
 * layers' fixed transients. Both max terms depend on each layer only
 * through its own choice, so the search is a dynamic program over
 * activation thresholds: for each achievable value A* of the
 * activation high-water, the scratch headroom budget - B - A* is
 * fixed, and one forward pass over the layer sequence picks each
 * layer's fastest measured candidate inside both caps. The best
 * threshold wins; infeasibility falls out of the same sweep as the
 * minimum achievable peak (the number the `plan-mem-infeasible`
 * diagnostic names).
 */

#ifndef DLIS_TUNE_MEM_PLANNER_HPP
#define DLIS_TUNE_MEM_PLANNER_HPP

#include <vector>

#include "tune/tuner.hpp"

namespace dlis::tune {

/** Result of one budgeted selection over a tuner audit. */
struct MemPlanOutcome
{
    bool feasible = false;

    /**
     * Smallest peak total footprint any assignment of the measured
     * candidates can achieve (reported whether or not the budget was
     * met — the infeasibility diagnostic names it).
     */
    size_t minFeasiblePeak = 0;

    /** Static peak of the chosen assignment (<= budget) — only
     *  meaningful when feasible. */
    size_t peakBytesBound = 0;

    /**
     * Per LayerSearch: the index into its .candidates of the chosen
     * point. A layer keeps its unconstrained winner whenever that
     * winner fits the winning thresholds, so an unbinding budget
     * reproduces the unconstrained plan exactly.
     */
    std::vector<size_t> chosen;
};

/**
 * Select, for every search in @p searches, the fastest measured
 * candidate assignment whose static peak fits @p budget. Only
 * candidates within the error budget participate (tunePlan measures
 * every legal point, so the minimum feasible peak is realisable
 * unless --error-budget excludes the points that reach it). @p input
 * is the batch-1 input shape the tuner priced (the same shape
 * analysis::memoryEstimateForPlan reproduces the tracker for).
 */
MemPlanOutcome planUnderMemBudget(
    const Network &net, const Shape &input,
    const std::vector<LayerSearch> &searches, size_t budget);

} // namespace dlis::tune

#endif // DLIS_TUNE_MEM_PLANNER_HPP
