/**
 * @file
 * Memory-budget → latency Pareto sweep over the paper's three models
 * (the across-stack trade-off §V-D only gestures at: im2col buys
 * latency with scratch, direct gives the bytes back).
 *
 * One tuner search per model measures every legal candidate; the
 * memory planner then re-selects per-layer points at budgets swept
 * from the minimum feasible peak up to the unconstrained plan's
 * footprint. Every plan is EXECUTED — the peak column is the
 * MemoryTracker's observation, not the static bound — so each row is
 * a realised (budget, peak, p50) point, with the unconstrained plan
 * as the budget=0 row.
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/memory_estimate.hpp"
#include "bench_common.hpp"
#include "tune/mem_planner.hpp"
#include "tune/plan.hpp"
#include "tune/tuner.hpp"

using namespace dlis;

namespace {

/** The unconstrained plan with its tunable layers re-pointed at the
 *  memory planner's choice for one budget. */
tune::DeploymentPlan
planFromOutcome(const tune::DeploymentPlan &unconstrained,
                const std::vector<tune::LayerSearch> &audit,
                const tune::MemPlanOutcome &outcome)
{
    tune::DeploymentPlan plan = unconstrained;
    for (size_t li = 0; li < audit.size(); ++li) {
        const tune::CandidatePoint &cp =
            audit[li].candidates[outcome.chosen[li]];
        tune::LayerPlan &lp = plan.layers[li];
        lp.backend = cp.backend;
        lp.algo = cp.algo;
        lp.threads = cp.threads;
        lp.measuredSeconds = cp.measuredSeconds;
    }
    plan.peakBytesBound = outcome.peakBytesBound;
    return plan;
}

/** Execute @p plan and observe its true peak and p50. */
struct Measured
{
    size_t peakBytes = 0;
    double p50 = 0.0;
};

Measured
execute(InferenceStack &stack, const tune::DeploymentPlan &plan)
{
    tune::PlanRuntime runtime(plan);
    ExecContext ctx;
    runtime.bind(ctx);
    const RunReport rep = collectRunReport(stack, ctx, 3);
    Measured m;
    m.peakBytes = rep.memory.staticWeights +
                  rep.memory.staticSparseMeta +
                  rep.memory.observedActivations +
                  rep.memory.observedScratch;
    m.p50 = rep.latency.p50;
    return m;
}

} // namespace

int
main()
{
    TablePrinter table("Pareto — peak-memory budget vs tuned latency "
                       "(observed peak via MemoryTracker)");
    table.setHeader({"model", "budget bytes", "static bound",
                     "observed peak", "p50 s"});

    for (const std::string &model : paperModels()) {
        InferenceStack stack(bench::configFor(model, Technique::None,
                                              tableIII(model)));

        // One search: every legal point is measured, so the audit
        // holds every assignment the budgeted selections can reach.
        tune::TuneOptions opts;
        opts.reps = 2;
        opts.measureEndToEnd = false;
        std::vector<tune::LayerSearch> audit;
        const tune::DeploymentPlan unconstrained =
            tunePlan(stack, opts, &audit);

        Network &net = stack.model().net;
        const Shape input = stack.inputShape(1);
        const tune::MemPlanOutcome probe = tune::planUnderMemBudget(
            net, input, audit, std::numeric_limits<size_t>::max());
        const size_t minPeak = probe.minFeasiblePeak;
        const size_t maxPeak =
            std::max(unconstrained.peakBytesBound, minPeak);

        // Unconstrained row first (budget 0 = none).
        const Measured free = execute(stack, unconstrained);
        table.addRow({model, "0",
                      std::to_string(unconstrained.peakBytesBound),
                      std::to_string(free.peakBytes),
                      std::to_string(free.p50)});

        for (size_t i = 0; i <= 3; ++i) {
            const size_t budget =
                minPeak + (maxPeak - minPeak) * i / 4;
            const tune::MemPlanOutcome outcome =
                tune::planUnderMemBudget(net, input, audit, budget);
            if (!outcome.feasible)
                continue;
            const tune::DeploymentPlan plan =
                planFromOutcome(unconstrained, audit, outcome);
            const Measured got = execute(stack, plan);
            table.addRow({model, std::to_string(budget),
                          std::to_string(outcome.peakBytesBound),
                          std::to_string(got.peakBytes),
                          std::to_string(got.p50)});
        }

        std::printf("%s: min feasible peak %zu bytes, unconstrained "
                    "peak %zu bytes\n",
                    model.c_str(), minPeak,
                    unconstrained.peakBytesBound);
    }

    table.print();
    bench::writeBenchOutputs(table, "pareto_mem_budget");

    std::printf("\nBudgets at the minimum feasible peak force direct "
                "convolution everywhere the scratch does not fit; "
                "loosening the budget buys back the im2col latency "
                "the unconstrained plan chose.\n");
    return 0;
}
