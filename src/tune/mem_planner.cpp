#include "tune/mem_planner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>

#include "analysis/memory_estimate.hpp"
#include "core/error.hpp"

namespace dlis::tune {

namespace {

/** One selectable point of one layer, priced in bytes and seconds. */
struct PricedCandidate
{
    size_t index = 0;      //!< into LayerSearch::candidates
    size_t actContrib = 0; //!< input + activation transient
    size_t scratch = 0;    //!< scratch-arena demand
    double seconds = 0.0;  //!< measured median
    bool isWinner = false; //!< the unconstrained search winner
};

/** The measured, memory-priced selection table of one layer. */
struct PricedLayer
{
    std::vector<PricedCandidate> points; //!< candidate order
};

} // namespace

MemPlanOutcome
planUnderMemBudget(const Network &net, const Shape &input,
                   const std::vector<LayerSearch> &searches,
                   size_t budget)
{
    // Assignment-independent terms: parameter payload, the measurement
    // harness's double-buffered input, and the fixed transients of the
    // non-tunable layers (elementwise, BN, pooling — their bytes do
    // not depend on backend/algorithm/threads).
    const analysis::MemoryEstimate fixed =
        analysis::estimateForwardMemory(net, input);
    const size_t inputBytes = input.numel() * sizeof(float);
    const size_t base = fixed.weights + fixed.sparseMeta + inputBytes;

    std::unordered_map<std::string, size_t> searchOf;
    for (size_t i = 0; i < searches.size(); ++i)
        searchOf.emplace(searches[i].layer, i);

    size_t floorA = inputBytes;
    for (const analysis::LayerMemory &lm : fixed.perLayer)
        if (searchOf.find(lm.name) == searchOf.end())
            floorA = std::max(floorA,
                              lm.inputBytes + lm.transientBytes);

    // Price every measured candidate under its own configuration: a
    // layer's per-layer entry depends only on the configuration it
    // runs (its fused tail's included), so it is read off the uniform
    // estimate of that configuration, computed once per configuration.
    std::map<std::tuple<Backend, ConvAlgo, int>, analysis::MemoryEstimate>
        uniform;
    std::vector<PricedLayer> priced(searches.size());
    for (size_t li = 0; li < net.size(); ++li) {
        const Layer &layer = *net.layers()[li];
        const auto it = searchOf.find(layer.name());
        if (it != searchOf.end()) {
            const LayerSearch &search = searches[it->second];
            PricedLayer &pl = priced[it->second];
            for (size_t ci = 0; ci < search.candidates.size(); ++ci) {
                const CandidatePoint &cp = search.candidates[ci];
                if (cp.budgetExcluded)
                    continue;
                const auto key =
                    std::make_tuple(cp.backend, cp.algo, cp.threads);
                auto est = uniform.find(key);
                if (est == uniform.end()) {
                    est = uniform
                              .emplace(key,
                                       analysis::estimateForwardMemory(
                                           net, input, cp.backend,
                                           cp.algo, cp.threads))
                              .first;
                }
                const analysis::LayerMemory &lm =
                    est->second.perLayer[li];
                PricedCandidate pc;
                pc.index = ci;
                pc.actContrib = lm.inputBytes + lm.transientBytes;
                pc.scratch = lm.scratchBytes;
                pc.seconds = cp.measuredSeconds;
                pc.isWinner =
                    cp.backend == search.winner.backend &&
                    cp.algo == search.winner.algo &&
                    cp.threads == search.winner.threads;
                pl.points.push_back(pc);
            }
            DLIS_CHECK(!pl.points.empty(),
                       "mem planner: layer '", search.layer,
                       "' has no measured candidate");
        }
    }
    for (size_t i = 0; i < searches.size(); ++i)
        DLIS_CHECK(!priced[i].points.empty(),
                   "mem planner: search layer '", searches[i].layer,
                   "' not found in the network");

    // Sweep the achievable activation thresholds. Every assignment's
    // activation high-water is one of these values, so the sweep is
    // exhaustive; ascending order makes latency ties resolve to the
    // smallest-memory choice.
    std::vector<size_t> thresholds{floorA};
    for (const PricedLayer &pl : priced)
        for (const PricedCandidate &pc : pl.points)
            if (pc.actContrib > floorA)
                thresholds.push_back(pc.actContrib);
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(
        std::unique(thresholds.begin(), thresholds.end()),
        thresholds.end());

    MemPlanOutcome out;
    size_t minPeak = std::numeric_limits<size_t>::max();
    double bestLatency = std::numeric_limits<double>::infinity();

    std::vector<const PricedCandidate *> pick(priced.size());
    for (const size_t cap : thresholds) {
        // Minimum-peak leg: the cheapest scratch high-water any
        // assignment inside this activation cap can reach.
        size_t minScratch = 0;
        bool reachable = true;
        for (const PricedLayer &pl : priced) {
            size_t layerMin = std::numeric_limits<size_t>::max();
            for (const PricedCandidate &pc : pl.points)
                if (pc.actContrib <= cap)
                    layerMin = std::min(layerMin, pc.scratch);
            if (layerMin == std::numeric_limits<size_t>::max()) {
                reachable = false;
                break;
            }
            minScratch = std::max(minScratch, layerMin);
        }
        if (!reachable)
            continue;
        minPeak = std::min(minPeak, base + cap + minScratch);

        // Budgeted leg: with the activation high-water pinned at this
        // cap, the scratch headroom is fixed; each layer keeps its
        // unconstrained winner when it fits and otherwise takes its
        // fastest in-cap candidate.
        if (budget < base + cap + minScratch)
            continue;
        const size_t scratchCap = budget - base - cap;
        double latency = 0.0;
        bool ok = true;
        for (size_t i = 0; i < priced.size(); ++i) {
            const PricedCandidate *chosen = nullptr;
            for (const PricedCandidate &pc : priced[i].points) {
                if (pc.actContrib > cap || pc.scratch > scratchCap)
                    continue;
                if (pc.isWinner) {
                    chosen = &pc;
                    break;
                }
                if (!chosen || pc.seconds < chosen->seconds)
                    chosen = &pc;
            }
            if (!chosen) {
                ok = false;
                break;
            }
            pick[i] = chosen;
            latency += chosen->seconds;
        }
        if (!ok || latency >= bestLatency)
            continue;
        bestLatency = latency;
        out.feasible = true;
        out.chosen.assign(priced.size(), 0);
        size_t maxAct = floorA;
        size_t maxScratch = 0;
        for (size_t i = 0; i < priced.size(); ++i) {
            out.chosen[i] = pick[i]->index;
            maxAct = std::max(maxAct, pick[i]->actContrib);
            maxScratch = std::max(maxScratch, pick[i]->scratch);
        }
        out.peakBytesBound = base + maxAct + maxScratch;
    }

    out.minFeasiblePeak =
        minPeak == std::numeric_limits<size_t>::max() ? 0 : minPeak;
    return out;
}

} // namespace dlis::tune
