#include "tune/tuner.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/verifier.hpp"
#include "tune/mem_planner.hpp"
#include "core/error.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/residual_block.hpp"
#include "stack/inference_stack.hpp"

namespace dlis::tune {

namespace {

enum class LayerKind
{
    Conv,      //!< standard Conv2d
    Depthwise, //!< DepthwiseConv2d (direct CPU kernel everywhere)
    Fc,        //!< Linear
    Block,     //!< ResidualBlock, tuned as one unit
};

/** One layer the tuner searches, with its geometry. */
struct TunableLayer
{
    Layer *layer = nullptr;
    LayerKind kind = LayerKind::Conv;
    Shape input;
    bool sparse = false; //!< any inner conv weight not dense
};

bool
convSparse(const Conv2d &conv)
{
    return conv.format() != WeightFormat::Dense;
}

/** Walk @p net, collecting the layers the tuner searches. */
std::vector<TunableLayer>
collectTunable(Network &net, const Shape &input)
{
    std::vector<TunableLayer> out;
    Shape cur = input;
    for (const auto &ptr : net.layers()) {
        Layer *layer = ptr.get();
        TunableLayer tl;
        tl.layer = layer;
        tl.input = cur;
        if (auto *conv = dynamic_cast<Conv2d *>(layer)) {
            tl.kind = LayerKind::Conv;
            tl.sparse = convSparse(*conv);
            out.push_back(std::move(tl));
        } else if (dynamic_cast<DepthwiseConv2d *>(layer)) {
            tl.kind = LayerKind::Depthwise;
            out.push_back(std::move(tl));
        } else if (dynamic_cast<Linear *>(layer)) {
            tl.kind = LayerKind::Fc;
            out.push_back(std::move(tl));
        } else if (auto *block =
                       dynamic_cast<ResidualBlock *>(layer)) {
            tl.kind = LayerKind::Block;
            tl.sparse = convSparse(block->conv1()) ||
                        convSparse(block->conv2()) ||
                        (block->projection() &&
                         convSparse(*block->projection()));
            out.push_back(std::move(tl));
        }
        cur = layer->outputShape(cur);
    }
    return out;
}

/** True when @p tl has an im2col point distinct from its direct one:
 *  a dense standard or residual-block convolution. */
bool
hasIm2col(const TunableLayer &tl)
{
    return (tl.kind == LayerKind::Conv || tl.kind == LayerKind::Block) &&
           !tl.sparse;
}

/**
 * Enumerate the canonical candidate grid of one layer: the host's CPU
 * backends only, {serial, openmp x threads} x {direct, im2col}. The
 * grid only contains distinct executions: im2col appears only on
 * dense convolutions (sparse weights, depthwise and linear layers pin
 * the direct kernel), and OpenMP x 1 thread (identical to Serial) is
 * skipped.
 */
std::vector<CandidatePoint>
enumerateCandidates(const TunableLayer &tl, const TuneOptions &options)
{
    std::vector<ConvAlgo> algos = {ConvAlgo::Direct};
    if (hasIm2col(tl))
        algos.push_back(ConvAlgo::Im2colGemm);

    std::vector<CandidatePoint> grid;
    for (ConvAlgo algo : algos)
        grid.push_back({Backend::Serial, algo, 1});
    for (int t : options.threadCandidates) {
        if (t <= 1)
            continue; // OpenMP x 1 duplicates Serial
        for (ConvAlgo algo : algos)
            grid.push_back({Backend::OpenMP, algo, t});
    }
    return grid;
}

/**
 * The canonical candidate a whole-network global configuration
 * {@p b, @p a, @p t} resolves to at @p tl — the dispatch rules of the
 * runtime collapsed onto the enumerated grid (only dense convolutions
 * run im2col, OpenMP x 1 is Serial).
 */
CandidatePoint
effectivePoint(const TunableLayer &tl, Backend b, ConvAlgo a, int t)
{
    const int threads = b == Backend::OpenMP ? t : 1;
    return {threads > 1 ? Backend::OpenMP : Backend::Serial,
            hasIm2col(tl) ? a : ConvAlgo::Direct, threads};
}

/** @p search's measured point matching the candidate key. */
const CandidatePoint &
measuredPoint(const LayerSearch &search, const CandidatePoint &key)
{
    for (const CandidatePoint &cp : search.candidates)
        if (cp.backend == key.backend && cp.algo == key.algo &&
            cp.threads == key.threads)
            return cp;
    DLIS_CHECK(false, "tuner: global config resolves to a point ",
               "missing from layer '", search.layer, "' grid");
    return search.candidates.front();
}

/** One whole-network configuration the tuned plan competes against. */
struct GlobalSpec
{
    Backend backend = Backend::Serial;
    ConvAlgo algo = ConvAlgo::Direct;
    int threads = 1;
};

/**
 * @p plan with every layer at the point @p spec resolves to there,
 * carrying that point's measured seconds and deviation, @p spec as its
 * base config and its own peak bound; nullopt when one of those points
 * is over the error budget or the peak is over @p memBudget (0 = none).
 */
std::optional<DeploymentPlan>
uniformPlan(const DeploymentPlan &plan, const GlobalSpec &spec,
            const std::vector<TunableLayer> &tunable,
            const std::vector<LayerSearch> &searches, const Network &net,
            const Shape &input, size_t memBudget)
{
    DeploymentPlan uniform = plan;
    uniform.defaultBackend = spec.backend;
    uniform.defaultThreads = spec.threads;
    for (size_t li = 0; li < searches.size(); ++li) {
        const CandidatePoint &cp = measuredPoint(
            searches[li], effectivePoint(tunable[li], spec.backend,
                                         spec.algo, spec.threads));
        if (cp.budgetExcluded)
            return std::nullopt;
        LayerPlan &lp = uniform.layers[li];
        lp.backend = cp.backend;
        lp.algo = cp.algo;
        lp.threads = cp.threads;
        lp.measuredSeconds = cp.measuredSeconds;
        lp.maxAbsDev = cp.maxAbsDev;
    }
    uniform.peakBytesBound = planPeakBytes(uniform, net, input);
    if (memBudget > 0 && uniform.peakBytesBound > memBudget)
        return std::nullopt;
    return uniform;
}

std::string
globalSpecName(const GlobalSpec &spec)
{
    return std::string(backendToken(spec.backend)) + "/" +
           algoToken(spec.algo) + "/t" + std::to_string(spec.threads);
}

std::vector<GlobalSpec>
enumerateGlobals(const Network &net, const Shape &input,
                 const TuneOptions &options)
{
    std::vector<GlobalSpec> specs;
    const ConvAlgo algos[] = {ConvAlgo::Direct, ConvAlgo::Im2colGemm};
    for (ConvAlgo algo : algos)
        specs.push_back({Backend::Serial, algo, 1});
    for (int t : options.threadCandidates) {
        if (t <= 1)
            continue;
        for (ConvAlgo algo : algos)
            specs.push_back({Backend::OpenMP, algo, t});
    }

    std::vector<GlobalSpec> legal;
    std::string refusal;
    for (const GlobalSpec &spec : specs) {
        analysis::VerifyOptions vopts;
        vopts.input = input;
        vopts.backend = spec.backend;
        vopts.convAlgo = spec.algo;
        vopts.threads = spec.threads;
        vopts.estimateMemory = false;
        const analysis::VerifyReport report =
            analysis::verifyNetwork(net, vopts);
        if (report.ok())
            legal.push_back(spec);
        else if (refusal.empty())
            refusal = report.firstError();
    }
    DLIS_CHECK(!legal.empty(),
               "tuner: no legal global configuration: ", refusal);
    return legal;
}

/**
 * Median e2e seconds of forwards under @p a and under @p b, timed in
 * alternating order (a, b, a, b, ...) after options.warmup untimed
 * forwards of each, so host drift reaches both sides alike.
 */
std::pair<double, double>
measureAlternating(Network &net, const Tensor &input, ExecContext &a,
                   ExecContext &b, const TuneOptions &options)
{
    for (size_t w = 0; w < options.warmup; ++w) {
        (void)net.forward(input, a);
        (void)net.forward(input, b);
    }
    MeasureOptions once;
    once.warmup = 0;
    once.reps = 1;
    once.clock = options.clock;
    std::vector<double> sa, sb;
    for (size_t r = 0; r < options.reps; ++r) {
        sa.push_back(measureMedianSeconds(
            [&] { (void)net.forward(input, a); }, once));
        sb.push_back(measureMedianSeconds(
            [&] { (void)net.forward(input, b); }, once));
    }
    return {medianOf(std::move(sa)), medianOf(std::move(sb))};
}

} // namespace

DeploymentPlan
tunePlan(InferenceStack &stack, const TuneOptions &options,
         std::vector<LayerSearch> *audit)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    // The best single global {backend, algo, threads} the plan
    // competes against. A network no global configuration verifies
    // (a shape error, a NaN weight) is refused here, before anything
    // is timed.
    const std::vector<GlobalSpec> globals =
        enumerateGlobals(net, input, options);

    // Shared measurement context: one arena (steady-state, no kernel
    // heap allocations after warmup) for every candidate.
    ExecContext mctx;

    MeasureOptions mo;
    mo.warmup = options.warmup;
    mo.reps = options.reps;
    mo.clock = options.clock;

    // Seeded whole-network input: the untimed warm-up below, the
    // end-to-end deviation and the e2e measurements all read it.
    Rng netRng(options.seed, 0);
    Tensor netInput(input);
    netInput.fillUniform(netRng, -1.0f, 1.0f);

    // One untimed forward per OpenMP width before anything is timed:
    // it starts this thread's worker team at that width and lets the
    // scheduler spread the new workers over the cores, so neither
    // lands in the first candidates timed at that width. Without it,
    // 1 of 10 fresh VGG-16 searches still picked a serial best global
    // config on a 4-vCPU Xeon.
    for (int t : options.threadCandidates) {
        if (t <= 1)
            continue;
        ExecContext warm;
        warm.backend = Backend::OpenMP;
        warm.threads = t;
        (void)net.forward(netInput, warm);
    }

    std::vector<TunableLayer> tunable = collectTunable(net, input);
    std::vector<LayerSearch> searches;
    searches.reserve(tunable.size());

    DeploymentPlan plan;
    plan.model = stack.config().modelName;
    plan.networkSignature = networkSignature(net, input);
    plan.hostFingerprint = hostFingerprint();
    plan.seed = options.seed;
    plan.errorBudget = options.errorBudget;

    for (size_t li = 0; li < tunable.size(); ++li) {
        TunableLayer &tl = tunable[li];
        LayerSearch search;
        search.layer = tl.layer->name();
        search.candidates = enumerateCandidates(tl, options);

        // Stage 2: measure every candidate on the real geometry
        // with a per-layer deterministic input, and record each one's
        // max |out - ref| against the layer's serial/direct output on
        // the same input (computed once, untimed).
        Rng rng(options.seed, li + 1);
        Tensor layerInput(tl.input);
        layerInput.fillUniform(rng, -1.0f, 1.0f);
        ExecContext refCtx;
        const Tensor ref = tl.layer->forward(layerInput, refCtx);
        for (CandidatePoint &cp : search.candidates) {
            mctx.backend = cp.backend;
            mctx.convAlgo = cp.algo;
            mctx.threads = cp.threads;
            Tensor out;
            cp.measuredSeconds = measureMedianSeconds(
                [&] { out = tl.layer->forward(layerInput, mctx); },
                mo);
            cp.maxAbsDev = out.maxAbsDiff(ref);
            cp.budgetExcluded = options.errorBudget > 0 &&
                                cp.maxAbsDev > options.errorBudget;
        }

        // Serial/direct is in every grid with deviation 0, so a
        // budget never excludes every point.
        const CandidatePoint *best = nullptr;
        for (const CandidatePoint &cp : search.candidates)
            if (!cp.budgetExcluded &&
                (!best || cp.measuredSeconds < best->measuredSeconds))
                best = &cp;
        DLIS_CHECK(best, "tuner: layer '", search.layer,
                   "' has no measurable candidate");

        search.winner.layer = search.layer;
        search.winner.backend = best->backend;
        search.winner.algo = best->algo;
        search.winner.threads = best->threads;
        search.winner.measuredSeconds = best->measuredSeconds;
        search.winner.maxAbsDev = best->maxAbsDev;
        plan.layers.push_back(search.winner);
        searches.push_back(std::move(search));
    }

    // Memory budget: re-select the per-layer points so the static
    // peak fits. A layer keeps its unconstrained winner whenever the
    // winner fits the winning thresholds, so an unbinding budget
    // leaves the plan untouched.
    plan.memBudget = options.memBudget;
    if (options.memBudget > 0) {
        const MemPlanOutcome mem = planUnderMemBudget(
            net, input, searches, options.memBudget);
        if (!mem.feasible)
            throw PlanError(
                analysis::Check::PlanMemInfeasible,
                "no per-layer assignment fits mem budget " +
                    std::to_string(options.memBudget) +
                    " bytes; minimum feasible peak is " +
                    std::to_string(mem.minFeasiblePeak) + " bytes");
        for (size_t li = 0; li < searches.size(); ++li) {
            const CandidatePoint &cp =
                searches[li].candidates[mem.chosen[li]];
            LayerPlan &lp = plan.layers[li];
            lp.backend = cp.backend;
            lp.algo = cp.algo;
            lp.threads = cp.threads;
            lp.measuredSeconds = cp.measuredSeconds;
            lp.maxAbsDev = cp.maxAbsDev;
            searches[li].winner = lp;
        }
    }

    // Base config for the non-tuned layers: join the parallel loop
    // iff some winner did, at the widest width a winner chose.
    plan.defaultBackend = Backend::Serial;
    plan.defaultThreads = 1;
    for (const LayerPlan &lp : plan.layers)
        if (lp.backend == Backend::OpenMP &&
            lp.threads > plan.defaultThreads) {
            plan.defaultBackend = Backend::OpenMP;
            plan.defaultThreads = lp.threads;
        }

    // Static peak footprint of the chosen assignment — recorded in
    // every plan (the serving pre-flight sizes replicas from it) and
    // required under the recorded budget when one was set.
    plan.peakBytesBound = planPeakBytes(plan, net, input);
    DLIS_CHECK(options.memBudget == 0 ||
                   plan.peakBytesBound <= options.memBudget,
               "tuner: planner exceeded the mem budget");

    // The competition: the best global config, scored from the same
    // per-layer samples so the comparison is apples-to-apples, then
    // (optionally) both measured end-to-end.
    const GlobalSpec *bestGlobal = nullptr;
    double bestGlobalScore =
        std::numeric_limits<double>::infinity();
    for (const GlobalSpec &spec : globals) {
        double score = 0.0;
        for (const LayerSearch &search : searches) {
            const TunableLayer &tl = tunable[&search - &searches[0]];
            score += measuredPoint(search,
                                   effectivePoint(tl, spec.backend,
                                                  spec.algo, spec.threads))
                         .measuredSeconds;
        }
        if (score < bestGlobalScore) {
            bestGlobalScore = score;
            bestGlobal = &spec;
        }
    }
    plan.bestGlobalConfig = globalSpecName(*bestGlobal);

    double tunedScore = 0.0;
    for (const LayerPlan &lp : plan.layers)
        tunedScore += lp.measuredSeconds;

    // End-to-end deviation of the whole plan from the serial/direct
    // forward on the seeded network input.
    ExecContext refCtx;
    const Tensor ref = net.forward(netInput, refCtx);
    const auto deviation = [&](const DeploymentPlan &p) {
        const PlanRuntime runtime(p);
        ExecContext ctx;
        runtime.bind(ctx);
        return net.forward(netInput, ctx).maxAbsDiff(ref);
    };
    plan.maxAbsDev = deviation(plan);

    if (!options.measureEndToEnd) {
        plan.tunedP50 = tunedScore;
        plan.bestGlobalP50 = bestGlobalScore;
    } else {
        const PlanRuntime runtime(plan);
        ExecContext tunedCtx;
        runtime.bind(tunedCtx);
        ExecContext globalCtx;
        globalCtx.backend = bestGlobal->backend;
        globalCtx.convAlgo = bestGlobal->algo;
        globalCtx.threads = bestGlobal->threads;
        std::tie(plan.tunedP50, plan.bestGlobalP50) = measureAlternating(
            net, netInput, tunedCtx, globalCtx, options);

        // Adoption rule: a tuned plan that did not beat the best
        // global config in its own A/B rounds gives way to that config
        // as a uniform plan, unless a point of it is over the error
        // budget or its peak is over the memory budget.
        std::optional<DeploymentPlan> uniform;
        if (!(plan.tunedP50 < plan.bestGlobalP50))
            uniform = uniformPlan(plan, *bestGlobal, tunable, searches, net,
                                  input, options.memBudget);
        if (uniform) {
            uniform->maxAbsDev = deviation(*uniform);
            uniform->tunedP50 = plan.bestGlobalP50;
            plan = std::move(*uniform);
            for (size_t li = 0; li < searches.size(); ++li)
                searches[li].winner = plan.layers[li];
        }
    }

    if (audit)
        *audit = std::move(searches);
    return plan;
}

TuneOutcome
tuneOrLoadPlan(InferenceStack &stack, const TuneOptions &options,
               const std::string &cacheDir)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);
    const std::string fp = hostFingerprint();
    const std::string sig = networkSignature(net, input);
    const std::string path =
        planCacheFile(cacheDir, stack.config().modelName, fp, sig);

    if (std::filesystem::exists(path)) {
        try {
            DeploymentPlan cached = loadPlanFile(path);
            const auto diags = validatePlan(cached, net, input, fp);
            const bool clean = std::none_of(
                diags.begin(), diags.end(), [](const auto &d) {
                    return d.severity == analysis::Severity::Error;
                });
            // A plan tuned under a different error or memory budget
            // answered a different question: retune rather than hand
            // it back.
            if (clean && cached.errorBudget == options.errorBudget &&
                cached.memBudget == options.memBudget)
                return {std::move(cached), true, path};
        } catch (const PlanError &) {
            // unreadable cache entry: fall through and retune
        }
    }

    TuneOutcome outcome;
    outcome.plan = tunePlan(stack, options);
    outcome.cacheHit = false;
    outcome.path = path;
    std::filesystem::create_directories(cacheDir);
    savePlanFile(outcome.plan, path);
    return outcome;
}

} // namespace dlis::tune
