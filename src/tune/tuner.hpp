/**
 * @file
 * Per-layer deployment auto-tuner.
 *
 * For every tunable layer of a built InferenceStack (standard,
 * depthwise and residual-block convolutions, linear layers) the tuner
 * searches the part of the paper's cross-stack deployment space this
 * host actually runs — algorithm (direct / im2col, sparse formats
 * pinned to direct) x CPU backend (serial / OpenMP) x thread count —
 * and emits the fastest point per layer as a DeploymentPlan. The
 * paper's OpenCL backends run only on its Mali GPU, which the host
 * lacks; hw/cost_model prices them and the tuner never sees them.
 *
 * The search has two stages:
 *
 *  1. enumerate only distinct candidates — a point that would
 *     duplicate another (im2col on CSR weights, OpenMP x 1) is never
 *     generated;
 *  2. measure every candidate, in enumeration order, on the
 *     real layer geometry with the shared warmup+median-of-k harness
 *     (tune/measure.hpp) — the same loop the kernel microbench
 *     runs, lifted to whole layers. The grid holds at most six
 *     points per layer at the default thread candidates, so nothing
 *     is pruned by prediction: a cost model that cannot tell the CPU
 *     algorithms apart would decide what gets measured. An injected
 *     ClockFn makes the whole search replayable. Each point also
 *     records its max |out - ref| against the layer's serial/direct
 *     output, which --error-budget gates.
 *
 * Because per-layer winners differ (the paper's core observation: the
 * best configuration is not fixed across a network — depthwise layers
 * hate fork/join, 1x1 convolutions hate CSR), the per-layer plan can
 * beat the best single global configuration, which tunePlan also
 * identifies and records in the plan for comparison. Layers timed
 * alone never pay for waking the worker team after a serial layer,
 * so the two are also timed end to end, in alternating forwards; a
 * per-layer plan that does not win there is not emitted, the global
 * config is, as a uniform plan.
 */

#ifndef DLIS_TUNE_TUNER_HPP
#define DLIS_TUNE_TUNER_HPP

#include <string>
#include <vector>

#include "tune/measure.hpp"
#include "tune/plan.hpp"

namespace dlis {
class InferenceStack;
} // namespace dlis

namespace dlis::tune {

/** Search budget and determinism knobs. */
struct TuneOptions
{
    /** OpenMP thread counts to try (1 is implicit via Serial). */
    std::vector<int> threadCandidates = {2, 4};
    size_t warmup = 1; //!< untimed runs before each measurement
    size_t reps = 5;   //!< timed runs per candidate (median taken)
    uint64_t seed = 42; //!< measurement-input seed (recorded in plan)
    ClockFn clock;      //!< null = steady clock; tests inject one

    /**
     * Measure the tuned plan and the best global configuration
     * end-to-end, reps forwards of each in alternating order after
     * warmup untimed ones, and take each median as the plan's
     * tunedP50/bestGlobalP50. A tuned plan whose median is not lower
     * is replaced by the global config as a uniform plan (see
     * tunePlan). When false both are the sum of the per-layer scores
     * instead and nothing is replaced (cheaper; used by unit tests).
     */
    bool measureEndToEnd = true;

    /**
     * Per-layer absolute-deviation budget (0 = unlimited). Every
     * measured candidate records max |out - ref| against the layer's
     * serial/direct output on the same seeded input; under a budget,
     * a candidate above it is excluded from winning. The
     * serial/direct point has deviation 0, so it is never excluded
     * and every layer keeps a winner. A budget no point exceeds
     * leaves the winners unchanged.
     */
    double errorBudget = 0.0;

    /**
     * Hard peak-RAM budget in bytes (0 = unconstrained). When set,
     * the memory planner (tune/mem_planner.hpp) re-selects each
     * layer's point after measurement so the plan's static peak
     * footprint fits the budget. Every candidate is measured,
     * so the minimum feasible peak is always realisable. An
     * infeasible budget throws PlanError with the stable
     * `plan-mem-infeasible` code, naming the minimum feasible peak.
     */
    size_t memBudget = 0;
};

/** One enumerated point of a layer's search space. */
struct CandidatePoint
{
    Backend backend = Backend::Serial;
    ConvAlgo algo = ConvAlgo::Direct;
    int threads = 1;
    double measuredSeconds = 0.0; //!< median of the timed runs

    /** max |out - ref| vs the serial/direct output. */
    double maxAbsDev = 0.0;
    /** maxAbsDev above --error-budget: measured, but never wins. */
    bool budgetExcluded = false;
};

/** Audit record of one layer's search (for reporting and tests). */
struct LayerSearch
{
    std::string layer;
    std::vector<CandidatePoint> candidates; //!< enumeration order
    LayerPlan winner;
};

/** A tuned (or cache-loaded) plan plus where it lives. */
struct TuneOutcome
{
    DeploymentPlan plan;
    bool cacheHit = false; //!< true = loaded, search skipped
    std::string path;      //!< cache file the plan lives at
};

/**
 * Run the two-stage search over every tunable layer of @p stack and
 * return the winning plan. Under options.measureEndToEnd, a tuned plan
 * whose end-to-end median is not below the best global config's is
 * replaced by that config applied to every layer (each layer's point
 * keeps its own measured seconds and deviation; the base config,
 * maxAbsDev, peakBytesBound and tunedP50 are the uniform plan's),
 * unless one of those points is over the error budget or the uniform
 * plan's peak is over the memory budget. @p audit, when non-null,
 * receives one LayerSearch per tunable layer, its winner the emitted
 * layer plan. Deterministic for a fixed options struct whenever
 * options.clock is.
 */
DeploymentPlan tunePlan(InferenceStack &stack,
                        const TuneOptions &options,
                        std::vector<LayerSearch> *audit = nullptr);

/**
 * Load the cached plan for @p stack from @p cacheDir when one exists
 * and validates cleanly against this host and network (cacheHit);
 * otherwise run tunePlan and save the result there. The cache file
 * name covers host fingerprint + network signature, so a foreign or
 * stale plan is never picked up — it simply misses.
 */
TuneOutcome tuneOrLoadPlan(InferenceStack &stack,
                           const TuneOptions &options,
                           const std::string &cacheDir);

} // namespace dlis::tune

#endif // DLIS_TUNE_TUNER_HPP
