/**
 * @file
 * Plan-equivalence harness for the per-layer deployment auto-tuner
 * (src/tune). Four hazards a searched-then-cached configuration can
 * hide, each pinned here:
 *
 *  - wrong answers: executing a tuner-emitted (or hand-built mixed)
 *    plan must produce outputs identical to the equivalent
 *    fixed-config forwards — bitwise when the plan only changes
 *    thread counts, within the backend-parity tolerance when it
 *    changes algorithm or backend;
 *  - unstable artifacts: the canonical JSON must round-trip
 *    byte-identically (golden file) and the whole search must replay
 *    exactly under an injected clock;
 *  - silent misapplication: a stale version, foreign host, foreign
 *    network, unknown layer, or corrupt file must be rejected with
 *    its stable diagnostic code — and never partially applied;
 *  - serving drift: the engine pre-flight must refuse every such
 *    plan with RejectedError(BadConfig), and execute a valid one
 *    identically to a direct plan-bound forward.
 *
 * The whole binary also runs env-pinned under DLIS_FORCE_ISA=scalar
 * (test_tune_scalar), proving the harness and the tuner's choices are
 * ISA-independent for a fixed clock stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/memory_estimate.hpp"
#include "backend/simd/isa.hpp"
#include "core/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"
#include "tune/measure.hpp"
#include "tune/mem_planner.hpp"
#include "tune/plan.hpp"
#include "tune/tuner.hpp"

namespace dlis {
namespace {

/** Backend-parity tolerance for cross-algorithm comparisons. */
constexpr float kTol = 1e-4f;

/** |a-b| <= tol * max(1, |a|, |b|) elementwise (parity-test idiom). */
void
expectRelClose(const Tensor &a, const Tensor &b, float tol,
               const std::string &what)
{
    ASSERT_EQ(a.shape().dims(), b.shape().dims()) << what;
    for (size_t i = 0; i < a.numel(); ++i) {
        const float scale = std::max(
            1.0f, std::max(std::abs(a.data()[i]),
                           std::abs(b.data()[i])));
        EXPECT_NEAR(a.data()[i], b.data()[i], tol * scale)
            << what << " diverges at flat index " << i;
    }
}

/** Deterministic fake clock: each call advances a fixed step. */
tune::ClockFn
makeFakeClock(double step = 1e-3)
{
    auto t = std::make_shared<double>(0.0);
    return [t, step] {
        *t += step;
        return *t;
    };
}

/**
 * Clock whose k-th read advances by @p step(k): the search's per-layer
 * samples and the end-to-end A/B rounds read one stream, so a test
 * can script each phase by read index.
 */
tune::ClockFn
scriptedClock(std::function<double(size_t)> step)
{
    auto reads = std::make_shared<size_t>(0);
    auto now = std::make_shared<double>(0.0);
    return [reads, now, step] {
        *now += step((*reads)++);
        return *now;
    };
}

InferenceStack
makeStack(const std::string &model)
{
    StackConfig config;
    config.modelName = model;
    config.widthMult = 0.25;
    return InferenceStack(config);
}

/** Cheap deterministic tuner budget for the functional tests. */
tune::TuneOptions
fastOptions()
{
    tune::TuneOptions options;
    options.threadCandidates = {2};
    options.warmup = 0;
    options.reps = 1;
    options.measureEndToEnd = false;
    options.clock = makeFakeClock();
    return options;
}

/**
 * Reference execution of @p plan WITHOUT the plan machinery: walk the
 * network layer by layer, building a fixed ExecContext per layer that
 * spells out exactly what the plan promises that layer runs under.
 */
Tensor
forwardManually(Network &net, const tune::DeploymentPlan &plan,
                const Tensor &input)
{
    Tensor x = input;
    for (const auto &layer : net.layers()) {
        ExecContext ctx;
        ctx.backend = plan.defaultBackend;
        ctx.threads = plan.defaultThreads;
        for (const tune::LayerPlan &lp : plan.layers)
            if (lp.layer == layer->name()) {
                ctx.backend = lp.backend;
                ctx.convAlgo = lp.algo;
                ctx.threads = lp.threads;
                break;
            }
        x = layer->forward(x, ctx);
    }
    return x;
}

/** Plan-driven forward through the PlanRuntime override path. */
Tensor
forwardWithPlan(Network &net, const tune::DeploymentPlan &plan,
                const Tensor &input)
{
    tune::PlanRuntime runtime(plan);
    ExecContext ctx;
    runtime.bind(ctx);
    return net.forward(input, ctx);
}

bool
hasError(const std::vector<analysis::Diagnostic> &diags,
         analysis::Check check)
{
    for (const analysis::Diagnostic &d : diags)
        if (d.severity == analysis::Severity::Error &&
            d.check == check)
            return true;
    return false;
}

bool
anyError(const std::vector<analysis::Diagnostic> &diags)
{
    for (const analysis::Diagnostic &d : diags)
        if (d.severity == analysis::Severity::Error)
            return true;
    return false;
}

/** Record this build's static peak bound in a hand-built @p plan
 *  (call again after changing its layers or base config). */
void
seal(tune::DeploymentPlan &plan, InferenceStack &stack)
{
    plan.peakBytesBound = tune::planPeakBytes(plan, stack.model().net,
                                              stack.inputShape(1));
}

/** A plan skeleton that validates cleanly against @p stack. */
tune::DeploymentPlan
emptyValidPlan(InferenceStack &stack)
{
    tune::DeploymentPlan plan;
    plan.model = stack.config().modelName;
    plan.hostFingerprint = tune::hostFingerprint();
    plan.networkSignature = tune::networkSignature(
        stack.model().net, stack.inputShape(1));
    seal(plan, stack);
    return plan;
}

// ---------------------------------------------------------------- //
// Shared measurement harness                                       //
// ---------------------------------------------------------------- //

TEST(Measure, MedianAndPercentile)
{
    EXPECT_DOUBLE_EQ(2.0, tune::medianOf({3.0, 1.0, 2.0}));
    EXPECT_DOUBLE_EQ(2.5, tune::medianOf({4.0, 1.0, 3.0, 2.0}));
    EXPECT_DOUBLE_EQ(7.0, tune::medianOf({7.0}));
    // Linear interpolation between ranks (obs::percentile).
    EXPECT_DOUBLE_EQ(
        40.0,
        tune::percentileOf({50.0, 10.0, 40.0, 20.0, 30.0}, 75.0));
    EXPECT_DOUBLE_EQ(1.0,
                     tune::percentileOf({3.0, 1.0, 2.0}, 0.0));
    EXPECT_DOUBLE_EQ(3.0,
                     tune::percentileOf({3.0, 1.0, 2.0}, 100.0));
}

TEST(Measure, WarmupIsUntimedAndMedianIsOverReps)
{
    size_t bodyCalls = 0;
    size_t clockCalls = 0;
    tune::MeasureOptions options;
    options.warmup = 2;
    options.reps = 3;
    options.clock = [&clockCalls] {
        ++clockCalls;
        return static_cast<double>(clockCalls) * 1e-3;
    };
    const double median = tune::measureMedianSeconds(
        [&bodyCalls] { ++bodyCalls; }, options);

    EXPECT_EQ(5u, bodyCalls);  // warmup + reps
    EXPECT_EQ(6u, clockCalls); // two reads per timed rep only
    EXPECT_DOUBLE_EQ(1e-3, median);
}

TEST(Measure, DefaultClockMeasuresSomethingFinite)
{
    tune::MeasureOptions options;
    options.warmup = 0;
    options.reps = 3;
    const double s = tune::measureMedianSeconds([] {}, options);
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 1.0);
}

// ---------------------------------------------------------------- //
// Tuner determinism                                                //
// ---------------------------------------------------------------- //

TEST(Tuner, RepeatedSearchEmitsByteIdenticalPlan)
{
    InferenceStack stack = makeStack("mobilenet");

    tune::TuneOptions a = fastOptions();
    tune::TuneOptions b = fastOptions(); // fresh clock, same stream
    const std::string first = tune::planToJson(tunePlan(stack, a));
    const std::string second = tune::planToJson(tunePlan(stack, b));
    EXPECT_EQ(first, second);
}

TEST(Tuner, AuditCoversEveryTunableLayerAndWinnersAreMeasured)
{
    InferenceStack stack = makeStack("mobilenet");
    tune::TuneOptions options = fastOptions();
    std::vector<tune::LayerSearch> audit;
    const tune::DeploymentPlan plan =
        tunePlan(stack, options, &audit);

    // MobileNet at width 0.25: stem + 13 dw + 13 pw + fc = 28.
    EXPECT_EQ(28u, plan.layers.size());
    ASSERT_EQ(plan.layers.size(), audit.size());
    for (size_t i = 0; i < audit.size(); ++i) {
        EXPECT_EQ(plan.layers[i].layer, audit[i].layer);
        EXPECT_FALSE(audit[i].candidates.empty());
        for (const tune::CandidatePoint &c : audit[i].candidates)
            EXPECT_GT(c.measuredSeconds, 0.0) << audit[i].layer;
    }
    // The emitted plan validates cleanly against its own network.
    EXPECT_FALSE(anyError(tune::validatePlan(
        plan, stack.model().net, stack.inputShape(1))));
}

TEST(Tuner, EveryLegalVggConvPointIsMeasured)
{
    // Nothing is pruned before measurement: each dense 3x3 VGG-16
    // conv holds its whole legal grid, in enumeration order, and
    // every point carries a measured time.
    InferenceStack stack = makeStack("vgg16");
    std::vector<tune::LayerSearch> audit;
    tunePlan(stack, fastOptions(), &audit);

    const struct
    {
        Backend backend;
        ConvAlgo algo;
        int threads;
    } grid[] = {
        {Backend::Serial, ConvAlgo::Direct, 1},
        {Backend::Serial, ConvAlgo::Im2colGemm, 1},
        {Backend::OpenMP, ConvAlgo::Direct, 2},
        {Backend::OpenMP, ConvAlgo::Im2colGemm, 2},
    };
    size_t convs = 0;
    for (const tune::LayerSearch &search : audit) {
        if (search.layer.rfind("conv", 0) != 0)
            continue;
        ++convs;
        ASSERT_EQ(std::size(grid), search.candidates.size())
            << search.layer;
        for (size_t i = 0; i < std::size(grid); ++i) {
            const tune::CandidatePoint &c = search.candidates[i];
            EXPECT_EQ(grid[i].backend, c.backend) << search.layer;
            EXPECT_EQ(grid[i].algo, c.algo) << search.layer;
            EXPECT_EQ(grid[i].threads, c.threads) << search.layer;
            EXPECT_GT(c.measuredSeconds, 0.0)
                << search.layer << " point " << i;
        }
    }
    EXPECT_EQ(13u, convs);
}

TEST(Tuner, DefaultGridIsHostCpuOnly)
{
    // Only what the host runs is searched: at the default thread
    // candidates every point of every paper model is serial or
    // OpenMP, direct or im2col, and nothing else is measured.
    const struct
    {
        const char *model;
        size_t points;
    } models[] = {{"vgg16", 84}, {"resnet18", 57}, {"mobilenet", 126}};
    for (const auto &m : models) {
        InferenceStack stack = makeStack(m.model);
        tune::TuneOptions options; // default grid
        options.warmup = 0;
        options.reps = 1;
        options.measureEndToEnd = false;
        options.clock = makeFakeClock();
        std::vector<tune::LayerSearch> audit;
        tunePlan(stack, options, &audit);
        size_t points = 0;
        for (const tune::LayerSearch &search : audit)
            for (const tune::CandidatePoint &c : search.candidates) {
                ++points;
                EXPECT_TRUE(c.backend == Backend::Serial ||
                            c.backend == Backend::OpenMP)
                    << m.model << " " << search.layer;
                EXPECT_TRUE(c.algo == ConvAlgo::Direct ||
                            c.algo == ConvAlgo::Im2colGemm)
                    << m.model << " " << search.layer;
            }
        EXPECT_EQ(m.points, points) << m.model;
    }
}

TEST(Tuner, DepthwiseLayersNeverGetGemmBackends)
{
    // The capability gate must keep illegal points out of the grid:
    // depthwise convolutions only have a direct CPU kernel.
    InferenceStack stack = makeStack("mobilenet");
    std::vector<tune::LayerSearch> audit;
    tunePlan(stack, fastOptions(), &audit);
    for (const tune::LayerSearch &search : audit) {
        if (search.layer.rfind("dw", 0) != 0)
            continue;
        for (const tune::CandidatePoint &c : search.candidates) {
            EXPECT_TRUE(c.backend == Backend::Serial ||
                        c.backend == Backend::OpenMP)
                << search.layer;
            EXPECT_EQ(ConvAlgo::Direct, c.algo) << search.layer;
        }
    }
}

TEST(Tuner, NonFiniteWeightsRefusedBeforeAnythingIsTimed)
{
    // A NaN weight fails every global configuration's verification;
    // the tuner refuses with the verifier's code before timing a
    // single candidate.
    InferenceStack stack = makeStack("vgg16");
    auto *conv =
        dynamic_cast<Conv2d *>(stack.model().net.layers().front().get());
    ASSERT_NE(conv, nullptr);
    conv->weight()[0] = std::nanf("");

    tune::TuneOptions options = fastOptions();
    size_t clockReads = 0;
    options.clock = [&clockReads] { return double(++clockReads); };
    try {
        tunePlan(stack, options);
        FAIL() << "tuner accepted a NaN weight";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("non-finite-weight"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(0u, clockReads);
}

TEST(Tuner, CachedPlanOfANonFiniteTwinIsRefused)
{
    // The network signature hashes structure, never values, so the
    // clean model's cached plan names its NaN-weight twin too. The
    // cache must not hand it back: validatePlan runs the verifier, the
    // hit falls through to a retune, and the retune refuses before
    // timing anything.
    InferenceStack stack = makeStack("vgg16");
    const std::string dir = "test_tune_nan_twin";
    std::filesystem::remove_all(dir);
    const tune::TuneOutcome clean =
        tuneOrLoadPlan(stack, fastOptions(), dir);
    ASSERT_FALSE(clean.cacheHit);

    auto *conv =
        dynamic_cast<Conv2d *>(stack.model().net.layers().front().get());
    ASSERT_NE(conv, nullptr);
    conv->weight()[0] = std::nanf("");
    EXPECT_TRUE(hasError(tune::validatePlan(clean.plan,
                                            stack.model().net,
                                            stack.inputShape(1)),
                         analysis::Check::NonFiniteWeight));

    tune::TuneOptions options = fastOptions();
    size_t clockReads = 0;
    options.clock = [&clockReads] { return double(++clockReads); };
    try {
        tuneOrLoadPlan(stack, options, dir);
        FAIL() << "cache handed back a plan for a NaN-weight model";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("non-finite-weight"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(0u, clockReads);
    std::filesystem::remove_all(dir);
}

/**
 * A MobileNet search whose per-layer samples come from an uneven
 * clock, so the winners mix configs, followed by end-to-end A/B
 * rounds whose k-th clock read (counted from the first A/B read)
 * advances by @p abStep(k). Returns the plan, its audit and the plan
 * the same search emits without the A/B rounds.
 */
struct AbSearch
{
    tune::DeploymentPlan plan, perLayer;
    std::vector<tune::LayerSearch> audit;
};

AbSearch
searchWithAbRounds(InferenceStack &stack,
                   const std::function<double(size_t)> &abStep)
{
    const auto uneven = [](size_t k) {
        return 1e-3 * (1.0 + static_cast<double>(k * 7919 % 101) / 101);
    };
    AbSearch out;
    size_t searchReads = 0;
    tune::TuneOptions options = fastOptions();
    options.reps = 3;
    options.clock = scriptedClock([&](size_t k) {
        searchReads = k + 1;
        return uneven(k);
    });
    out.perLayer = tunePlan(stack, options);

    options.measureEndToEnd = true;
    options.clock = scriptedClock([&, n = searchReads](size_t k) {
        return k < n ? uneven(k) : abStep(k - n);
    });
    out.plan = tunePlan(stack, options, &out.audit);
    return out;
}

TEST(Tuner, TunedPlanThatWinsItsAbRoundsIsKept)
{
    // Each round times the tuned plan, then the best global config.
    // With every clock step longer than the last, the tuned side
    // reads shorter in every round.
    InferenceStack stack = makeStack("mobilenet");
    const AbSearch s = searchWithAbRounds(
        stack, [](size_t k) { return 1e-3 * static_cast<double>(k + 1); });
    EXPECT_LT(s.plan.tunedP50, s.plan.bestGlobalP50);
    ASSERT_EQ(s.plan.layers.size(), s.perLayer.layers.size());
    for (size_t i = 0; i < s.plan.layers.size(); ++i) {
        EXPECT_EQ(s.plan.layers[i].backend, s.perLayer.layers[i].backend);
        EXPECT_EQ(s.plan.layers[i].algo, s.perLayer.layers[i].algo);
        EXPECT_EQ(s.plan.layers[i].threads, s.perLayer.layers[i].threads);
    }
    EXPECT_EQ(s.plan.defaultBackend, s.perLayer.defaultBackend);
    EXPECT_EQ(s.plan.defaultThreads, s.perLayer.defaultThreads);
}

TEST(Tuner, TunedPlanThatLosesItsAbRoundsBecomesTheBestGlobalConfig)
{
    // With every clock step shorter than the last, the tuned side
    // reads longer in every round: the plan becomes the best global
    // config, applied uniformly, with that config's own numbers.
    InferenceStack stack = makeStack("mobilenet");
    Network &net = stack.model().net;
    const AbSearch s = searchWithAbRounds(
        stack, [](size_t k) { return 1e-3 / static_cast<double>(k + 1); });
    const tune::DeploymentPlan &plan = s.plan;
    EXPECT_EQ(plan.tunedP50, plan.bestGlobalP50);

    // "backend/algo/tN", e.g. "serial/im2col/t1".
    const std::string &cfg = plan.bestGlobalConfig;
    const size_t s1 = cfg.find('/'), s2 = cfg.rfind("/t");
    Backend backend;
    ConvAlgo algo;
    ASSERT_TRUE(backendFromToken(cfg.substr(0, s1), backend)) << cfg;
    ASSERT_TRUE(algoFromToken(cfg.substr(s1 + 1, s2 - s1 - 1), algo));
    const int threads = std::stoi(cfg.substr(s2 + 2));
    EXPECT_EQ(plan.defaultBackend, backend);
    EXPECT_EQ(plan.defaultThreads, threads);

    bool changed = false;
    ASSERT_EQ(plan.layers.size(), s.audit.size());
    for (size_t i = 0; i < plan.layers.size(); ++i) {
        const tune::LayerPlan &lp = plan.layers[i];
        bool hasIm2col = false;
        for (const tune::CandidatePoint &cp : s.audit[i].candidates)
            hasIm2col |= cp.algo == ConvAlgo::Im2colGemm;
        EXPECT_EQ(lp.backend, backend) << lp.layer;
        EXPECT_EQ(lp.threads, threads) << lp.layer;
        EXPECT_EQ(lp.algo, hasIm2col ? algo : ConvAlgo::Direct)
            << lp.layer;
        for (const tune::CandidatePoint &cp : s.audit[i].candidates)
            if (cp.backend == lp.backend && cp.algo == lp.algo &&
                cp.threads == lp.threads) {
                EXPECT_EQ(lp.measuredSeconds, cp.measuredSeconds);
                EXPECT_EQ(lp.maxAbsDev, cp.maxAbsDev);
            }
        const tune::LayerPlan &was = s.perLayer.layers[i];
        changed |= was.backend != lp.backend || was.algo != lp.algo ||
                   was.threads != lp.threads;
    }
    EXPECT_TRUE(changed) << "the per-layer winners were already uniform";

    // Plan-wide fields are the uniform plan's own.
    EXPECT_EQ(plan.peakBytesBound,
              tune::planPeakBytes(plan, net, stack.inputShape(1)));
    Rng rng(plan.seed, 0);
    Tensor in(stack.inputShape(1));
    in.fillUniform(rng, -1.0f, 1.0f);
    ExecContext ref;
    EXPECT_EQ(plan.maxAbsDev, forwardWithPlan(net, plan, in)
                                  .maxAbsDiff(net.forward(in, ref)));
    EXPECT_FALSE(anyError(
        tune::validatePlan(plan, net, stack.inputShape(1))));
}

TEST(Tuner, ErrorBudgetGatesOnMeasuredDeviation)
{
    // Every candidate records max |out - ref| against the layer's
    // serial/direct output; --error-budget excludes the points above
    // it from winning. A seeded clock that reads a pseudo-random
    // duration per measurement spreads the winners over the grid.
    // MobileNet's stem and pointwise convs are where a vector ISA's
    // im2col GEMM rounds differently from the direct loop (VGG-16's
    // 3x3 convs agree bit for bit on both paths).
    const auto options = [] {
        tune::TuneOptions o = fastOptions();
        auto t = std::make_shared<double>(0.0);
        auto rng = std::make_shared<Rng>(7);
        o.clock = [t, rng] { return *t += rng->uniform(1e-6, 1e-3); };
        return o;
    };
    InferenceStack stack = makeStack("mobilenet");
    std::vector<tune::LayerSearch> auditFree;
    const tune::DeploymentPlan planFree =
        tunePlan(stack, options(), &auditFree);

    const auto expectSameWinners = [&](const tune::DeploymentPlan &p) {
        ASSERT_EQ(planFree.layers.size(), p.layers.size());
        for (size_t i = 0; i < planFree.layers.size(); ++i) {
            const tune::LayerPlan &a = planFree.layers[i];
            const tune::LayerPlan &b = p.layers[i];
            EXPECT_EQ(a.backend, b.backend) << a.layer;
            EXPECT_EQ(a.algo, b.algo) << a.layer;
            EXPECT_EQ(a.threads, b.threads) << a.layer;
        }
    };

    // A budget no measured point exceeds changes no winner.
    tune::TuneOptions loose = options();
    loose.errorBudget = 1e300;
    expectSameWinners(tunePlan(stack, loose));

    // The serial/direct point is the reference itself.
    double minDev = std::numeric_limits<double>::infinity();
    for (const tune::LayerSearch &search : auditFree)
        for (const tune::CandidatePoint &c : search.candidates) {
            EXPECT_FALSE(c.budgetExcluded) << search.layer;
            if (c.backend == Backend::Serial &&
                c.algo == ConvAlgo::Direct) {
                EXPECT_EQ(0.0, c.maxAbsDev) << search.layer;
            }
            if (c.maxAbsDev > 0.0)
                minDev = std::min(minDev, c.maxAbsDev);
        }

    if (simd::activeIsa() == simd::SimdIsa::Scalar) {
        // The scalar reference loops give im2col's GEMM and every
        // OpenMP kernel the same ascending-k chain per output as
        // serial/direct: no point deviates at all, so even the
        // tightest budget excludes nothing.
        EXPECT_FALSE(std::isfinite(minDev))
            << "a candidate deviated from serial/direct: " << minDev;
        EXPECT_EQ(0.0, planFree.maxAbsDev);
        tune::TuneOptions tiny = options();
        tiny.errorBudget = 1e-30;
        std::vector<tune::LayerSearch> auditTiny;
        const tune::DeploymentPlan planTiny =
            tunePlan(stack, tiny, &auditTiny);
        for (const tune::LayerSearch &search : auditTiny)
            for (const tune::CandidatePoint &c : search.candidates) {
                EXPECT_EQ(0.0, c.maxAbsDev) << search.layer;
                EXPECT_FALSE(c.budgetExcluded) << search.layer;
            }
        expectSameWinners(planTiny);
        return;
    }

    // On a vector ISA the im2col GEMM accumulates in a different
    // order than the direct loop, so some points deviate.
    ASSERT_TRUE(std::isfinite(minDev))
        << "no candidate deviated from serial/direct";

    // A budget just below the smallest nonzero deviation excludes
    // every point that deviated at all.
    tune::TuneOptions tight = options();
    tight.errorBudget = std::nextafter(minDev, 0.0);
    std::vector<tune::LayerSearch> auditTight;
    const tune::DeploymentPlan planTight =
        tunePlan(stack, tight, &auditTight);
    size_t excluded = 0;
    for (const tune::LayerSearch &search : auditTight)
        for (const tune::CandidatePoint &c : search.candidates) {
            EXPECT_EQ(c.maxAbsDev > tight.errorBudget, c.budgetExcluded)
                << search.layer;
            excluded += c.budgetExcluded ? 1 : 0;
        }
    EXPECT_GT(excluded, 0u);
    ASSERT_EQ(planFree.layers.size(), planTight.layers.size());
    for (const tune::LayerPlan &lp : planTight.layers)
        EXPECT_LE(lp.maxAbsDev, tight.errorBudget) << lp.layer;
    EXPECT_LE(planTight.maxAbsDev, tight.errorBudget);

    // Budget and deviations travel with the plan exactly.
    const tune::DeploymentPlan reparsed =
        tune::planFromJson(tune::planToJson(planFree));
    EXPECT_EQ(planFree.maxAbsDev, reparsed.maxAbsDev);
    bool anyLayerDev = false;
    for (size_t i = 0; i < planFree.layers.size(); ++i) {
        anyLayerDev |= planFree.layers[i].maxAbsDev > 0.0;
        EXPECT_EQ(planFree.layers[i].maxAbsDev,
                  reparsed.layers[i].maxAbsDev);
    }
    EXPECT_TRUE(anyLayerDev);
    EXPECT_EQ(tight.errorBudget,
              tune::planFromJson(tune::planToJson(planTight))
                  .errorBudget);
}

TEST(Tuner, CacheMissesWhenErrorBudgetChanges)
{
    // A cached plan tuned under one budget must not satisfy a request
    // tuned under another: the exclusion set (and so possibly the
    // winners) differ.
    InferenceStack stack = makeStack("mobilenet");
    const std::string dir = "test_tune_budget_cache";
    std::filesystem::remove_all(dir);

    tune::TuneOptions options = fastOptions();
    const tune::TuneOutcome first =
        tuneOrLoadPlan(stack, options, dir);
    EXPECT_FALSE(first.cacheHit);

    options.errorBudget = 0.5;
    const tune::TuneOutcome budgeted =
        tuneOrLoadPlan(stack, options, dir);
    EXPECT_FALSE(budgeted.cacheHit);
    EXPECT_DOUBLE_EQ(0.5, budgeted.plan.errorBudget);

    const tune::TuneOutcome again =
        tuneOrLoadPlan(stack, options, dir);
    EXPECT_TRUE(again.cacheHit);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- //
// Plan equivalence: plan-driven forward == fixed-config forwards   //
// ---------------------------------------------------------------- //

TEST(PlanEquivalence, TunerEmittedPlanMatchesManualExecution)
{
    for (const char *model : {"vgg16", "resnet18", "mobilenet"}) {
        InferenceStack stack = makeStack(model);
        const tune::DeploymentPlan plan =
            tunePlan(stack, fastOptions());

        const Tensor input =
            test::randomTensor(stack.inputShape(1), 20180923);
        const Tensor viaPlan =
            forwardWithPlan(stack.model().net, plan, input);
        const Tensor manual =
            forwardManually(stack.model().net, plan, input);

        // Same per-layer configuration executed with and without the
        // override machinery: bitwise identical.
        EXPECT_TRUE(viaPlan == manual) << model;

        // And against a plain serial/direct forward the usual
        // cross-algorithm parity tolerance holds.
        ExecContext ref;
        expectRelClose(stack.model().net.forward(input, ref),
                       viaPlan, kTol, model);
    }
}

TEST(PlanEquivalence, ThreadsOnlyPlanIsBitwiseExact)
{
    // A plan that only moves layers onto more threads (same direct
    // algorithm) must not change a single bit: the OpenMP kernels
    // partition whole output elements across threads.
    for (const char *model : {"resnet18", "mobilenet"}) {
        InferenceStack stack = makeStack(model);
        tune::DeploymentPlan plan = emptyValidPlan(stack);
        plan.defaultBackend = Backend::OpenMP;
        plan.defaultThreads = 2;
        for (const auto &layer : stack.model().net.layers()) {
            tune::LayerPlan lp;
            lp.layer = layer->name();
            lp.backend = Backend::OpenMP;
            lp.algo = ConvAlgo::Direct;
            lp.threads = 3;
            plan.layers.push_back(lp);
        }
        seal(plan, stack);
        ASSERT_FALSE(anyError(tune::validatePlan(
            plan, stack.model().net, stack.inputShape(1))));

        const Tensor input =
            test::randomTensor(stack.inputShape(1), 7);
        ExecContext serial;
        const Tensor ref =
            stack.model().net.forward(input, serial);
        const Tensor tuned =
            forwardWithPlan(stack.model().net, plan, input);
        EXPECT_TRUE(ref == tuned) << model;
    }
}

TEST(PlanEquivalence, MixedPlanAdjacentLayersOnDifferentBackends)
{
    // The core differential: adjacent layers running under different
    // algorithm/backend/thread combinations in ONE forward.
    InferenceStack stack = makeStack("vgg16");
    tune::DeploymentPlan plan = emptyValidPlan(stack);

    const struct
    {
        const char *layer;
        Backend backend;
        ConvAlgo algo;
        int threads;
    } picks[] = {
        {"conv1", Backend::OpenMP, ConvAlgo::Im2colGemm, 2},
        {"conv2", Backend::Serial, ConvAlgo::Direct, 1},
        {"conv3", Backend::Serial, ConvAlgo::Im2colGemm, 1},
        {"conv4", Backend::OpenMP, ConvAlgo::Direct, 3},
        {"conv5", Backend::OpenMP, ConvAlgo::Im2colGemm, 4},
        {"fc1", Backend::Serial, ConvAlgo::Direct, 1},
        {"fc2", Backend::OpenMP, ConvAlgo::Direct, 4},
    };
    for (const auto &p : picks) {
        tune::LayerPlan lp;
        lp.layer = p.layer;
        lp.backend = p.backend;
        lp.algo = p.algo;
        lp.threads = p.threads;
        plan.layers.push_back(lp);
    }
    seal(plan, stack);
    ASSERT_FALSE(anyError(tune::validatePlan(
        plan, stack.model().net, stack.inputShape(1))));

    const Tensor input = test::randomTensor(stack.inputShape(1), 11);
    const Tensor viaPlan =
        forwardWithPlan(stack.model().net, plan, input);
    const Tensor manual =
        forwardManually(stack.model().net, plan, input);
    expectRelClose(manual, viaPlan, kTol, "vgg16 mixed plan");

    ExecContext serial;
    expectRelClose(stack.model().net.forward(input, serial), viaPlan,
                   kTol, "vgg16 mixed plan vs serial/direct");
}

TEST(PlanEquivalence, RandomisedConvChainGeometries)
{
    // Random conv-chain networks with hand-built mixed plans: the
    // equivalence must hold for geometries nobody curated.
    const Backend backends[] = {Backend::Serial, Backend::OpenMP};
    const ConvAlgo algos[] = {ConvAlgo::Direct, ConvAlgo::Im2colGemm};

    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Network net("randnet");
        size_t cin = 1 + rng.uniformInt(3);
        const size_t firstCin = cin;
        const size_t side = 9 + rng.uniformInt(8);
        tune::DeploymentPlan plan;
        plan.model = "randnet";

        for (int li = 0; li < 3; ++li) {
            const size_t cout = 1 + rng.uniformInt(6);
            const size_t kernel = 1 + 2 * rng.uniformInt(2); // 1 or 3
            const size_t stride = 1 + rng.uniformInt(2);
            auto *conv = net.emplace<Conv2d>(
                "c" + std::to_string(li), cin, cout, kernel, stride,
                kernel / 2);
            conv->initKaiming(rng);
            cin = cout;

            tune::LayerPlan lp;
            lp.layer = conv->name();
            lp.backend = backends[rng.uniformInt(2)];
            lp.algo = algos[rng.uniformInt(2)];
            lp.threads = lp.backend == Backend::OpenMP
                             ? 2 + static_cast<int>(rng.uniformInt(3))
                             : 1;
            plan.layers.push_back(lp);
        }

        const Shape realInput({1, firstCin, side, side});
        plan.networkSignature =
            tune::networkSignature(net, realInput);
        plan.hostFingerprint = tune::hostFingerprint();
        plan.peakBytesBound = tune::planPeakBytes(plan, net, realInput);
        ASSERT_FALSE(anyError(
            tune::validatePlan(plan, net, realInput)))
            << "seed " << seed;

        const Tensor input = test::randomTensor(realInput, seed);
        const Tensor viaPlan = forwardWithPlan(net, plan, input);
        const Tensor manual = forwardManually(net, plan, input);
        expectRelClose(manual, viaPlan, kTol,
                       "randnet seed " + std::to_string(seed));

        ExecContext serial;
        expectRelClose(net.forward(input, serial), viaPlan, kTol,
                       "randnet vs serial seed " +
                           std::to_string(seed));
    }
}

// ---------------------------------------------------------------- //
// Canonical serialization: golden file + round-trip stability      //
// ---------------------------------------------------------------- //

const char *const kGoldenPlan = R"({
  "plan_version": 6,
  "model": "vgg16",
  "network_signature": "00000000deadbeef",
  "host_fingerprint": "golden-host/cpu8/avx2",
  "seed": 7,
  "default_backend": "openmp",
  "default_threads": 4,
  "tuned_p50_s": 0.03125,
  "best_global_p50_s": 0.046875,
  "best_global_config": "openmp/im2col/t4",
  "error_budget": 0.001953125,
  "max_abs_dev": 0.0009765625,
  "mem_budget": 4194304,
  "peak_bytes_bound": 3145728,
  "layers": [
    {"layer": "conv1", "backend": "openmp", "algo": "im2col", "threads": 4, "measured_s": 0.001953125, "max_abs_dev": 0.00048828125},
    {"layer": "conv2", "backend": "serial", "algo": "direct", "threads": 1, "measured_s": 0.0078125, "max_abs_dev": 0.000244140625},
    {"layer": "fc1", "backend": "serial", "algo": "im2col", "threads": 1, "measured_s": 0.5, "max_abs_dev": 0.0001220703125}
  ]
}
)";

tune::DeploymentPlan
goldenPlan()
{
    tune::DeploymentPlan plan;
    plan.model = "vgg16";
    plan.networkSignature = "00000000deadbeef";
    plan.hostFingerprint = "golden-host/cpu8/avx2";
    plan.seed = 7;
    plan.defaultBackend = Backend::OpenMP;
    plan.defaultThreads = 4;
    plan.tunedP50 = 0.03125;
    plan.bestGlobalP50 = 0.046875;
    plan.bestGlobalConfig = "openmp/im2col/t4";
    plan.errorBudget = 0.001953125;
    plan.maxAbsDev = 0.0009765625;
    plan.memBudget = 4194304;
    plan.peakBytesBound = 3145728;
    plan.layers = {
        {"conv1", Backend::OpenMP, ConvAlgo::Im2colGemm, 4,
         0.001953125, 0.00048828125},
        {"conv2", Backend::Serial, ConvAlgo::Direct, 1, 0.0078125,
         0.000244140625},
        {"fc1", Backend::Serial, ConvAlgo::Im2colGemm, 1, 0.5,
         0.0001220703125},
    };
    return plan;
}

TEST(PlanFile, GoldenRenderingIsByteStable)
{
    EXPECT_EQ(kGoldenPlan, tune::planToJson(goldenPlan()));
}

TEST(PlanFile, ParseRenderRoundTripIsIdentity)
{
    const tune::DeploymentPlan parsed =
        tune::planFromJson(kGoldenPlan);
    EXPECT_EQ(kGoldenPlan, tune::planToJson(parsed));

    // And once more through the file layer.
    const std::string dir = "test_tune_roundtrip";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/golden.plan.json";
    tune::savePlanFile(parsed, path);
    EXPECT_EQ(kGoldenPlan,
              tune::planToJson(tune::loadPlanFile(path)));
    std::filesystem::remove_all(dir);
}

TEST(PlanFile, ParsedFieldsSurviveTheTrip)
{
    const tune::DeploymentPlan p = tune::planFromJson(kGoldenPlan);
    EXPECT_EQ(6, p.version);
    EXPECT_EQ("vgg16", p.model);
    EXPECT_EQ(7u, p.seed);
    EXPECT_EQ(Backend::OpenMP, p.defaultBackend);
    EXPECT_EQ(4, p.defaultThreads);
    EXPECT_DOUBLE_EQ(0.001953125, p.errorBudget);
    EXPECT_DOUBLE_EQ(0.0009765625, p.maxAbsDev);
    EXPECT_EQ(4194304u, p.memBudget);
    EXPECT_EQ(3145728u, p.peakBytesBound);
    ASSERT_EQ(3u, p.layers.size());
    EXPECT_EQ(Backend::OpenMP, p.layers[0].backend);
    EXPECT_EQ(Backend::Serial, p.layers[1].backend);
    EXPECT_EQ(ConvAlgo::Direct, p.layers[1].algo);
    EXPECT_DOUBLE_EQ(0.001953125, p.layers[0].measuredSeconds);
    EXPECT_DOUBLE_EQ(0.00048828125, p.layers[0].maxAbsDev);
}

TEST(PlanFile, ControlCharactersEscapeAndRoundTrip)
{
    // A layer name with control characters must serialise as valid
    // JSON (\u0001, \r) and parse back to the same bytes.
    const std::string name = "a\x01"
                             "b\rc";
    tune::DeploymentPlan plan = goldenPlan();
    plan.layers[0].layer = name;
    const std::string json = tune::planToJson(plan);
    EXPECT_NE(std::string::npos, json.find("\"a\\u0001b\\rc\""))
        << json;
    EXPECT_TRUE(test::JsonChecker(json).valid()) << json;
    const tune::DeploymentPlan parsed = tune::planFromJson(json);
    EXPECT_EQ(name, parsed.layers[0].layer);
    EXPECT_EQ(json, tune::planToJson(parsed));

    // The reader takes every escape the writer can emit, plus \b, \f
    // and \/; non-ASCII \u code points are refused.
    std::string hand = kGoldenPlan;
    const std::string conv1 = "\"conv1\"";
    hand.replace(hand.find(conv1), conv1.size(),
                 "\"c\\bo\\fn\\/v\\u0031\"");
    EXPECT_EQ("c\bo\fn/v1", tune::planFromJson(hand).layers[0].layer);
    hand = kGoldenPlan;
    hand.replace(hand.find(conv1), conv1.size(), "\"\\u00e9\"");
    EXPECT_THROW((void)tune::planFromJson(hand), tune::PlanError);
}

// ---------------------------------------------------------------- //
// Rejection: stable codes, all-or-nothing parsing                  //
// ---------------------------------------------------------------- //

void
expectPlanError(const std::string &json, analysis::Check code)
{
    try {
        (void)tune::planFromJson(json);
        FAIL() << "expected PlanError ["
               << analysis::checkName(code) << "]";
    } catch (const tune::PlanError &e) {
        EXPECT_EQ(code, e.code()) << e.what();
    }
}

TEST(PlanReject, TruncatedJsonNeverPartiallyApplies)
{
    const std::string golden = kGoldenPlan;
    // Every strict prefix must fail with PlanParse — a truncation can
    // land anywhere when a copy or write is cut short.
    for (size_t cut : {1ul, golden.size() / 4, golden.size() / 2,
                       golden.size() - 3}) {
        expectPlanError(golden.substr(0, cut),
                        analysis::Check::PlanParse);
    }
}

TEST(PlanReject, HandCorruptedJson)
{
    std::string bad = kGoldenPlan;
    const auto swap = [&bad](const std::string &from,
                             const std::string &to) {
        const size_t at = bad.find(from);
        ASSERT_NE(std::string::npos, at);
        bad.replace(at, from.size(), to);
    };
    // Type mismatch: threads as a string.
    swap("\"threads\": 4,", "\"threads\": \"four\",");
    expectPlanError(bad, analysis::Check::PlanParse);

    // Unknown backend token.
    bad = kGoldenPlan;
    swap("\"openmp\"", "\"cuda\"");
    expectPlanError(bad, analysis::Check::PlanParse);

    // Trailing garbage after the document.
    expectPlanError(std::string(kGoldenPlan) + "{}",
                    analysis::Check::PlanParse);

    // Not JSON at all / empty.
    expectPlanError("", analysis::Check::PlanParse);
    expectPlanError("not a plan", analysis::Check::PlanParse);
}

TEST(PlanReject, MissingFile)
{
    try {
        (void)tune::loadPlanFile("test_tune_no_such_file.plan.json");
        FAIL() << "expected PlanError";
    } catch (const tune::PlanError &e) {
        EXPECT_EQ(analysis::Check::PlanParse, e.code());
    }
}

TEST(PlanReject, ValidationCodesAreStable)
{
    InferenceStack stack = makeStack("mobilenet");
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);
    const tune::DeploymentPlan valid = emptyValidPlan(stack);
    ASSERT_FALSE(anyError(tune::validatePlan(valid, net, input)));

    // Stale schema version.
    tune::DeploymentPlan plan = valid;
    plan.version = tune::kPlanVersion + 1;
    EXPECT_TRUE(hasError(tune::validatePlan(plan, net, input),
                         analysis::Check::PlanVersion));

    // Foreign host fingerprint.
    plan = valid;
    plan.hostFingerprint = "elsewhere/cpu1/scalar";
    EXPECT_TRUE(hasError(tune::validatePlan(plan, net, input),
                         analysis::Check::PlanHostMismatch));

    // Foreign network signature.
    plan = valid;
    plan.networkSignature = "ffffffffffffffff";
    EXPECT_TRUE(hasError(tune::validatePlan(plan, net, input),
                         analysis::Check::PlanNetworkMismatch));

    // Layer the network does not have.
    plan = valid;
    plan.layers.push_back({"no_such_layer", Backend::Serial,
                           ConvAlgo::Direct, 1, 0.0, 0.0});
    EXPECT_TRUE(hasError(tune::validatePlan(plan, net, input),
                         analysis::Check::PlanUnknownLayer));

    // Nonsense thread count.
    plan = valid;
    plan.layers.push_back(
        {"stem", Backend::OpenMP, ConvAlgo::Direct, 0, 0.0, 0.0});
    EXPECT_TRUE(anyError(tune::validatePlan(plan, net, input)));

    // Duplicate layer entry.
    plan = valid;
    plan.layers.push_back(
        {"stem", Backend::Serial, ConvAlgo::Direct, 1, 0.0, 0.0});
    plan.layers.push_back(
        {"stem", Backend::OpenMP, ConvAlgo::Direct, 2, 0.0, 0.0});
    EXPECT_TRUE(anyError(tune::validatePlan(plan, net, input)));
}

TEST(PlanReject, OlderSchemaVersionsFailWithPlanVersionNotParse)
{
    // Genuine v1-v5 documents must still PARSE (fields added later
    // are optional; fields dropped since are ignored), then be
    // refused by validatePlan with the stable PlanVersion code, so
    // the operator sees "re-run --tune", not "corrupt file".
    InferenceStack stack = makeStack("mobilenet");
    tune::DeploymentPlan current = emptyValidPlan(stack);
    current.layers.push_back(
        {"stem", Backend::Serial, ConvAlgo::Direct, 1});
    seal(current, stack);
    const std::string v6 = tune::planToJson(current);
    const std::string bound =
        std::to_string(current.peakBytesBound);

    using Edit = std::pair<std::string, std::string>;
    // v5 differs from v6 only in what v6 validates (one algorithm
    // fewer, CPU layers, a mandatory bound); v4 only by a per-layer cost-model
    // seed, a dropped field the reader skips like v3's error bounds
    // below (left out here); v3 recorded static bounds where v4
    // records deviations; v2 had no mem fields; v1 had no numerical
    // fields at all.
    const std::vector<Edit> toV5 = {
        {"\"plan_version\": 6", "\"plan_version\": 5"},
    };
    const std::vector<Edit> toV4 = {
        {"\"plan_version\": 5", "\"plan_version\": 4"},
    };
    const std::vector<Edit> toV3 = {
        {"\"plan_version\": 4", "\"plan_version\": 3"},
        {"  \"max_abs_dev\": 0,\n", "  \"total_error_bound\": 0,\n"},
        {", \"max_abs_dev\": 0}", ", \"error_bound\": 0}"},
    };
    const std::vector<Edit> toV2 = {
        {"\"plan_version\": 3", "\"plan_version\": 2"},
        {"  \"mem_budget\": 0,\n", ""},
        {"  \"peak_bytes_bound\": " + bound + ",\n", ""},
    };
    const std::vector<Edit> toV1 = {
        {"\"plan_version\": 2", "\"plan_version\": 1"},
        {"  \"error_budget\": 0,\n", ""},
        {"  \"total_error_bound\": 0,\n", ""},
        {", \"error_bound\": 0}", "}"},
    };

    std::string doc = v6;
    int version = 6;
    std::string v5;
    for (const std::vector<Edit> *edits :
         {&toV5, &toV4, &toV3, &toV2, &toV1}) {
        for (const Edit &e : *edits) {
            const size_t at = doc.find(e.first);
            ASSERT_NE(std::string::npos, at) << e.first;
            doc.replace(at, e.first.size(), e.second);
        }
        --version;
        if (version == 5)
            v5 = doc;

        tune::DeploymentPlan parsed;
        ASSERT_NO_THROW(parsed = tune::planFromJson(doc))
            << "v" << version << " plan must parse, not throw";
        EXPECT_EQ(version, parsed.version);
        EXPECT_EQ(0.0, parsed.maxAbsDev);
        EXPECT_EQ(version >= 3 ? current.peakBytesBound : 0u,
                  parsed.peakBytesBound);
        EXPECT_TRUE(hasError(tune::validatePlan(parsed,
                                                stack.model().net,
                                                stack.inputShape(1)),
                             analysis::Check::PlanVersion))
            << "v" << version;
    }

    // A v5 plan that picked Winograd names a token this build no
    // longer has: a parse failure, not a stale version.
    const std::string direct = "\"algo\": \"direct\"";
    v5.replace(v5.find(direct), direct.size(), "\"algo\": \"winograd\"");
    expectPlanError(v5, analysis::Check::PlanParse);
}

TEST(PlanReject, RecordedPeakBoundMustMatchThisBuild)
{
    // peak_bytes_bound is what the serving pre-flight sizes replicas
    // from; a bound that this build's static model cannot reproduce
    // (tampered file, drifted estimator) must be an error, not
    // silently trusted.
    InferenceStack stack = makeStack("mobilenet");
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    tune::DeploymentPlan plan = emptyValidPlan(stack);
    plan.peakBytesBound =
        analysis::memoryEstimateForPlan(net, input, {},
                                        plan.defaultBackend,
                                        ConvAlgo::Direct,
                                        plan.defaultThreads)
            .total();
    EXPECT_FALSE(anyError(tune::validatePlan(plan, net, input)))
        << "honest bound must validate";

    plan.peakBytesBound -= 1;
    EXPECT_TRUE(anyError(tune::validatePlan(plan, net, input)))
        << "tampered bound must be rejected";

    // A plan claiming its bound exceeds its own recorded budget is
    // internally inconsistent — the tuner can never emit that.
    tune::DeploymentPlan inconsistent = emptyValidPlan(stack);
    inconsistent.memBudget = 1;
    inconsistent.peakBytesBound = 2;
    EXPECT_TRUE(
        anyError(tune::validatePlan(inconsistent, net, input)));
}

TEST(PlanReject, EstimateOnlyBackendTokensFailToParse)
{
    // The paper's OpenCL backends exist only as Mali cost-model
    // estimates, so no backend field of a v6 plan can name one: like
    // the deleted `winograd` algorithm, the token fails to parse.
    for (const std::string field :
         {"\"default_backend\": \"", "\"backend\": \""}) {
        for (const char *token : {"opencl", "clblast"}) {
            std::string doc = kGoldenPlan;
            const size_t at = doc.find(field);
            ASSERT_NE(std::string::npos, at) << field;
            const size_t value = at + field.size();
            doc.replace(value, doc.find('"', value) - value, token);
            expectPlanError(doc, analysis::Check::PlanParse);
        }
    }
}

// ---------------------------------------------------------------- //
// Plan cache                                                       //
// ---------------------------------------------------------------- //

TEST(PlanCache, MissSearchesHitSkips)
{
    InferenceStack stack = makeStack("mobilenet");
    const std::string dir = "test_tune_cache";
    std::filesystem::remove_all(dir);

    const tune::TuneOutcome first =
        tuneOrLoadPlan(stack, fastOptions(), dir);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_TRUE(std::filesystem::exists(first.path));

    const tune::TuneOutcome second =
        tuneOrLoadPlan(stack, fastOptions(), dir);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(first.path, second.path);
    EXPECT_EQ(tune::planToJson(first.plan),
              tune::planToJson(second.plan));

    // A corrupt cache entry is a miss, not a crash: the tuner falls
    // back to a fresh search and rewrites the file.
    {
        std::ofstream out(first.path, std::ios::trunc);
        out << "{\"plan_version\": 1, truncated";
    }
    const tune::TuneOutcome third =
        tuneOrLoadPlan(stack, fastOptions(), dir);
    EXPECT_FALSE(third.cacheHit);
    EXPECT_EQ(tune::planToJson(first.plan),
              tune::planToJson(third.plan));

    std::filesystem::remove_all(dir);
}

TEST(PlanCache, FileNameSeparatesHostsAndNetworks)
{
    const std::string a =
        tune::planCacheFile("d", "m", "hostA/cpu4/avx2", "sig1");
    const std::string b =
        tune::planCacheFile("d", "m", "hostB/cpu4/avx2", "sig1");
    const std::string c =
        tune::planCacheFile("d", "m", "hostA/cpu4/avx2", "sig2");
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, tune::planCacheFile("d", "m", "hostA/cpu4/avx2",
                                     "sig1"));
}

// ---------------------------------------------------------------- //
// Memory-budgeted planning                                         //
// ---------------------------------------------------------------- //

TEST(MemPlanner, TightBudgetRetreatsFromScratchHungryWinner)
{
    // Hand-built search table over a real two-conv network: im2col
    // wins on latency but needs scratch; direct is slow but free.
    // The planner must keep the winners when the budget allows and
    // retreat to direct when it does not.
    Rng rng(5);
    Network net("memnet");
    auto *c0 = net.emplace<Conv2d>("c0", 2, 4, 3, 1, 1);
    c0->initKaiming(rng);
    auto *c1 = net.emplace<Conv2d>("c1", 4, 4, 3, 1, 1);
    c1->initKaiming(rng);
    const Shape input({1, 2, 16, 16});

    const auto candidate = [](ConvAlgo algo, double seconds) {
        tune::CandidatePoint cp;
        cp.algo = algo;
        cp.measuredSeconds = seconds;
        return cp;
    };
    std::vector<tune::LayerSearch> searches(2);
    for (size_t i = 0; i < 2; ++i) {
        tune::LayerSearch &s = searches[i];
        s.layer = i == 0 ? "c0" : "c1";
        s.candidates = {candidate(ConvAlgo::Im2colGemm, 1e-3),
                        candidate(ConvAlgo::Direct, 5e-3)};
        s.winner.layer = s.layer;
        s.winner.backend = s.candidates[0].backend;
        s.winner.algo = s.candidates[0].algo;
        s.winner.threads = s.candidates[0].threads;
    }

    // Unbounded: both winners stand.
    const tune::MemPlanOutcome roomy = tune::planUnderMemBudget(
        net, input, searches, std::numeric_limits<size_t>::max());
    ASSERT_TRUE(roomy.feasible);
    EXPECT_EQ(0u, roomy.chosen[0]);
    EXPECT_EQ(0u, roomy.chosen[1]);
    ASSERT_GT(roomy.minFeasiblePeak, 0u);
    EXPECT_LT(roomy.minFeasiblePeak, roomy.peakBytesBound)
        << "im2col scratch must make the winners cost real memory";

    // At the floor: only the scratch-free points fit.
    const tune::MemPlanOutcome tight = tune::planUnderMemBudget(
        net, input, searches, roomy.minFeasiblePeak);
    ASSERT_TRUE(tight.feasible);
    EXPECT_EQ(1u, tight.chosen[0]);
    EXPECT_EQ(1u, tight.chosen[1]);
    EXPECT_LE(tight.peakBytesBound, roomy.minFeasiblePeak);

    // Just under the unconstrained peak: the plan must change yet
    // still fit.
    const tune::MemPlanOutcome mid = tune::planUnderMemBudget(
        net, input, searches, roomy.peakBytesBound - 1);
    ASSERT_TRUE(mid.feasible);
    EXPECT_LE(mid.peakBytesBound, roomy.peakBytesBound - 1);

    // Below the floor: infeasible, and the report still names the
    // true minimum.
    const tune::MemPlanOutcome none = tune::planUnderMemBudget(
        net, input, searches, roomy.minFeasiblePeak - 1);
    EXPECT_FALSE(none.feasible);
    EXPECT_EQ(roomy.minFeasiblePeak, none.minFeasiblePeak);
}

TEST(MemBudget, BoundaryBudgetsAreExact)
{
    InferenceStack stack = makeStack("mobilenet");
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    // Probe: every legal candidate is measured, so the audit knows
    // the true minimum feasible peak.
    std::vector<tune::LayerSearch> audit;
    tunePlan(stack, fastOptions(), &audit);
    const tune::MemPlanOutcome probe = tune::planUnderMemBudget(
        net, input, audit, std::numeric_limits<size_t>::max());
    const size_t minPeak = probe.minFeasiblePeak;
    ASSERT_GT(minPeak, 0u);

    // Budget exactly at the minimum: tuning succeeds and the plan
    // lands exactly on the floor.
    tune::TuneOptions atMin = fastOptions();
    atMin.memBudget = minPeak;
    const tune::DeploymentPlan squeezed = tunePlan(stack, atMin);
    EXPECT_EQ(minPeak, squeezed.memBudget);
    EXPECT_EQ(minPeak, squeezed.peakBytesBound);

    // One byte below: the stable diagnostic, naming the minimum so
    // the operator can fix the budget without bisecting.
    tune::TuneOptions below = fastOptions();
    below.memBudget = minPeak - 1;
    try {
        tunePlan(stack, below);
        FAIL() << "expected plan-mem-infeasible";
    } catch (const tune::PlanError &e) {
        EXPECT_EQ(analysis::Check::PlanMemInfeasible, e.code());
        EXPECT_NE(std::string::npos,
                  std::string(e.what())
                      .find(std::to_string(minPeak)))
            << e.what();
    }
}

TEST(MemBudget, UnbindingBudgetReproducesUnconstrainedPlanExactly)
{
    // A budget the unconstrained winners already fit must not change
    // the plan at all — same layers, same numbers, bit for bit. Only
    // the recorded budget itself may differ.
    InferenceStack stack = makeStack("mobilenet");
    const tune::DeploymentPlan free = tunePlan(stack, fastOptions());

    tune::TuneOptions roomy = fastOptions();
    roomy.memBudget = std::numeric_limits<size_t>::max();
    tune::DeploymentPlan bounded = tunePlan(stack, roomy);
    EXPECT_EQ(std::numeric_limits<size_t>::max(), bounded.memBudget);

    bounded.memBudget = 0;
    EXPECT_EQ(tune::planToJson(free), tune::planToJson(bounded));
}

TEST(MemBudget, CacheMissesWhenMemBudgetChanges)
{
    // A cached unconstrained plan must not satisfy a budgeted tune:
    // the budget is part of what was searched.
    InferenceStack stack = makeStack("mobilenet");
    const std::string dir = "test_tune_membudget_cache";
    std::filesystem::remove_all(dir);

    const tune::TuneOutcome first =
        tuneOrLoadPlan(stack, fastOptions(), dir);
    EXPECT_FALSE(first.cacheHit);

    tune::TuneOptions budgeted = fastOptions();
    budgeted.memBudget = std::numeric_limits<size_t>::max();
    const tune::TuneOutcome second =
        tuneOrLoadPlan(stack, budgeted, dir);
    EXPECT_FALSE(second.cacheHit)
        << "budgeted tune must not reuse the unconstrained plan";

    const tune::TuneOutcome third =
        tuneOrLoadPlan(stack, budgeted, dir);
    EXPECT_TRUE(third.cacheHit);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- //
// Serve pre-flight                                                 //
// ---------------------------------------------------------------- //

void
expectServeRejects(InferenceStack &stack,
                   const serve::ServeConfig &config)
{
    try {
        serve::InferenceEngine engine(stack, config);
        FAIL() << "engine accepted a bad plan";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(serve::RejectReason::BadConfig, e.reason())
            << e.what();
    }
}

TEST(ServePlan, PreflightRejectsStaleForeignAndCorruptPlans)
{
    InferenceStack stack = makeStack("mobilenet");

    // Stale schema version.
    tune::DeploymentPlan plan = emptyValidPlan(stack);
    plan.version = tune::kPlanVersion + 1;
    serve::ServeConfig config;
    config.workers = 1;
    config.plan = &plan;
    expectServeRejects(stack, config);

    // Foreign host.
    plan = emptyValidPlan(stack);
    plan.hostFingerprint = "elsewhere/cpu1/scalar";
    expectServeRejects(stack, config);

    // Foreign network.
    plan = emptyValidPlan(stack);
    plan.networkSignature = "ffffffffffffffff";
    expectServeRejects(stack, config);

    // Corrupt plan file on disk.
    const std::string dir = "test_tune_serve";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/corrupt.plan.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"plan_version\": 1,";
    }
    serve::ServeConfig fileConfig;
    fileConfig.workers = 1;
    fileConfig.planFile = path;
    expectServeRejects(stack, fileConfig);

    // Missing plan file.
    fileConfig.planFile = dir + "/nope.plan.json";
    expectServeRejects(stack, fileConfig);
    std::filesystem::remove_all(dir);
}

TEST(ServePlan, ZeroPeakBoundIsPricedAndRefused)
{
    // A current-version plan cannot opt out of its memory check by
    // recording bound 0: the serving pre-flight would size replicas
    // for a different assignment than the one that runs.
    InferenceStack stack = makeStack("mobilenet");
    tune::DeploymentPlan plan = emptyValidPlan(stack);
    plan.layers.push_back(
        {"stem", Backend::OpenMP, ConvAlgo::Im2colGemm, 2});
    seal(plan, stack);
    ASSERT_FALSE(anyError(tune::validatePlan(
        plan, stack.model().net, stack.inputShape(1))));

    plan.peakBytesBound = 0;
    EXPECT_TRUE(hasError(tune::validatePlan(plan, stack.model().net,
                                            stack.inputShape(1)),
                         analysis::Check::BadConfig));

    serve::ServeConfig config;
    config.workers = 1;
    config.plan = &plan;
    expectServeRejects(stack, config);
}

TEST(ServePlan, PreflightWarnsWhenPlanDeviationExceedsBudget)
{
    // A plan whose measured max_abs_dev busts the engine's budget is
    // a warning, not a rejection: the deployment starts but the
    // operator is told.
    InferenceStack stack = makeStack("mobilenet");
    tune::DeploymentPlan plan = emptyValidPlan(stack);
    plan.maxAbsDev = 0.5;

    serve::ServeConfig config;
    config.workers = 1;
    config.plan = &plan;
    config.errorBudget = 0.25;
    serve::InferenceEngine over(stack, config);
    bool warned = false;
    for (const analysis::Diagnostic &d : over.preflightWarnings())
        warned |= d.check == analysis::Check::ErrorBudgetExceeded &&
                  d.severity == analysis::Severity::Warning;
    EXPECT_TRUE(warned);
    over.shutdown();

    // Budget met (or no budget at all): no warning.
    config.errorBudget = 1.0;
    serve::InferenceEngine under(stack, config);
    EXPECT_TRUE(under.preflightWarnings().empty());
    under.shutdown();

    config.errorBudget = 0.0;
    serve::InferenceEngine unbounded(stack, config);
    EXPECT_TRUE(unbounded.preflightWarnings().empty());
    unbounded.shutdown();
}

TEST(ServePlan, NodeMemBudgetRefusesOversizedReplica)
{
    // A node budget that cannot hold even one replica is a refusal
    // with the stable node-mem-exceeded code: the first batch would
    // take the node down, so the engine must not come up at all.
    InferenceStack stack = makeStack("mobilenet");
    serve::ServeConfig config;
    config.workers = 2;
    config.nodeMemBudget = 1;
    try {
        serve::InferenceEngine engine(stack, config);
        FAIL() << "engine accepted an impossible node budget";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(serve::RejectReason::BadConfig, e.reason());
        EXPECT_NE(std::string::npos,
                  std::string(e.what()).find("node-mem-exceeded"))
            << e.what();
    }
}

TEST(ServePlan, NodeMemBudgetShedsReplicasAndStillServes)
{
    // Enough RAM for some-but-not-all replicas: the engine sheds
    // workers with a warning and keeps serving correctly.
    InferenceStack stack = makeStack("mobilenet");
    const size_t perReplica =
        analysis::estimateForwardMemory(stack.model().net,
                                        stack.inputShape(1))
            .total();
    ASSERT_GT(perReplica, 0u);

    serve::ServeConfig config;
    config.workers = 3;
    config.maxBatch = 1;
    config.nodeMemBudget = 2 * perReplica;
    serve::InferenceEngine engine(stack, config);
    EXPECT_EQ(2u, engine.activeWorkers());
    bool warned = false;
    for (const analysis::Diagnostic &d : engine.preflightWarnings())
        warned |= d.check == analysis::Check::NodeMemExceeded &&
                  d.severity == analysis::Severity::Warning;
    EXPECT_TRUE(warned);

    const Tensor input = test::randomTensor(stack.inputShape(1), 9);
    ExecContext serial;
    const Tensor expected =
        stack.model().net.forward(input, serial);
    const Tensor served = engine.submit(input).get();
    engine.shutdown();
    EXPECT_TRUE(expected == served);

    // A budget that fits the whole pool sheds nothing and stays
    // silent.
    serve::ServeConfig fits;
    fits.workers = 2;
    fits.maxBatch = 1;
    fits.nodeMemBudget = 2 * perReplica;
    serve::InferenceEngine whole(stack, fits);
    EXPECT_EQ(2u, whole.activeWorkers());
    EXPECT_TRUE(whole.preflightWarnings().empty());
    whole.shutdown();
}

TEST(ServePlan, NodeMemBudgetPricesReplicasAtMaxBatch)
{
    // A worker runs batches of up to maxBatch, so one replica costs
    // the peak of a full batch: two batch-1 replicas' worth of RAM
    // holds only one batch-8 worker.
    InferenceStack stack = makeStack("mobilenet");
    const Network &net = stack.model().net;
    const size_t batch1 =
        analysis::estimateForwardMemory(net, stack.inputShape(1))
            .total();
    const size_t batch8 =
        analysis::estimateForwardMemory(net, stack.inputShape(8))
            .total();
    ASSERT_GT(batch8, batch1);
    ASSERT_LE(batch8, 2 * batch1);

    serve::ServeConfig config;
    config.workers = 2;
    config.maxBatch = 8;
    config.nodeMemBudget = 2 * batch1;
    serve::InferenceEngine engine(stack, config);
    EXPECT_EQ(1u, engine.activeWorkers());
    bool warned = false;
    for (const analysis::Diagnostic &d : engine.preflightWarnings())
        warned |= d.check == analysis::Check::NodeMemExceeded &&
                  d.message.find(std::to_string(batch8)) !=
                      std::string::npos;
    EXPECT_TRUE(warned);
    engine.shutdown();
}

TEST(ServePlan, NodeMemBudgetSizesReplicasFromPlanBound)
{
    // When a plan drives the pool, the plan's peak bound at a full
    // batch — not the global-config estimate — is what one replica
    // costs.
    InferenceStack stack = makeStack("mobilenet");
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    const tune::DeploymentPlan plan = emptyValidPlan(stack);
    ASSERT_FALSE(anyError(tune::validatePlan(plan, net, input)));

    serve::ServeConfig config;
    config.workers = 2;
    config.plan = &plan;
    const size_t perReplica = tune::planPeakBytes(
        plan, net, stack.inputShape(config.maxBatch));
    ASSERT_GT(perReplica, plan.peakBytesBound);
    config.nodeMemBudget = perReplica;
    serve::InferenceEngine engine(stack, config);
    EXPECT_EQ(1u, engine.activeWorkers());
    engine.shutdown();

    // One byte less than a replica: refusal, and the message carries
    // the plan's bound so the operator sees which number to fix.
    config.nodeMemBudget = perReplica - 1;
    try {
        serve::InferenceEngine refused(stack, config);
        FAIL() << "engine accepted a sub-replica node budget";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(serve::RejectReason::BadConfig, e.reason());
        EXPECT_NE(std::string::npos,
                  std::string(e.what()).find(std::to_string(perReplica)))
            << e.what();
    }
}

TEST(ServePlan, ValidPlanServesIdenticallyToPlanBoundForward)
{
    InferenceStack stack = makeStack("mobilenet");

    tune::DeploymentPlan plan = emptyValidPlan(stack);
    plan.defaultBackend = Backend::OpenMP;
    plan.defaultThreads = 2;
    plan.layers.push_back(
        {"stem", Backend::OpenMP, ConvAlgo::Im2colGemm, 2, 0.0, 0.0});
    plan.layers.push_back(
        {"fc", Backend::Serial, ConvAlgo::Direct, 1, 0.0, 0.0});
    seal(plan, stack);
    ASSERT_FALSE(anyError(tune::validatePlan(
        plan, stack.model().net, stack.inputShape(1))));

    const Tensor input = test::randomTensor(stack.inputShape(1), 5);
    const Tensor expected =
        forwardWithPlan(stack.model().net, plan, input);

    // Two workers share the engine's one plan runtime.
    serve::ServeConfig config;
    config.workers = 2;
    config.maxBatch = 1;
    config.plan = &plan;
    serve::InferenceEngine engine(stack, config);
    std::vector<std::future<Tensor>> replies;
    for (int i = 0; i < 8; ++i)
        replies.push_back(engine.submit(input));
    for (std::future<Tensor> &reply : replies)
        EXPECT_TRUE(expected == reply.get());
    engine.shutdown();
}

// ---------------------------------------------------------------- //
// Identity helpers                                                 //
// ---------------------------------------------------------------- //

TEST(PlanIdentity, SignatureTracksStructureNotWeights)
{
    InferenceStack a = makeStack("mobilenet");
    InferenceStack b = makeStack("mobilenet");
    const std::string sigA = tune::networkSignature(
        a.model().net, a.inputShape(1));
    EXPECT_EQ(sigA, tune::networkSignature(b.model().net,
                                           b.inputShape(1)));
    // Batch size is part of what was tuned.
    EXPECT_NE(sigA, tune::networkSignature(a.model().net,
                                           a.inputShape(2)));
    // A different width is a different network.
    StackConfig wide;
    wide.modelName = "mobilenet";
    wide.widthMult = 0.5;
    InferenceStack c{wide};
    EXPECT_NE(sigA, tune::networkSignature(c.model().net,
                                           c.inputShape(1)));
}

TEST(PlanIdentity, FingerprintNamesHostCpuAndIsa)
{
    const std::string fp = tune::hostFingerprint();
    EXPECT_EQ(fp, tune::hostFingerprint()); // stable within a process
    // "host/cpuN/isa" — two separators, cpu count present.
    const size_t s1 = fp.find('/');
    ASSERT_NE(std::string::npos, s1);
    const size_t s2 = fp.find('/', s1 + 1);
    ASSERT_NE(std::string::npos, s2);
    EXPECT_EQ(0, fp.compare(s1 + 1, 3, "cpu"));
    EXPECT_FALSE(fp.substr(s2 + 1).empty());
}

TEST(PlanIdentity, TokensRoundTrip)
{
    for (Backend b : {Backend::Serial, Backend::OpenMP}) {
        Backend out;
        ASSERT_TRUE(
            backendFromToken(backendToken(b), out));
        EXPECT_EQ(b, out);
    }
    for (ConvAlgo a : {ConvAlgo::Direct, ConvAlgo::Im2colGemm}) {
        ConvAlgo out;
        ASSERT_TRUE(algoFromToken(algoToken(a), out));
        EXPECT_EQ(a, out);
    }
    Backend b;
    ConvAlgo a;
    EXPECT_FALSE(backendFromToken("cuda", b));
    EXPECT_FALSE(backendFromToken("opencl", b));
    EXPECT_FALSE(backendFromToken("clblast", b));
    EXPECT_FALSE(algoFromToken("fft", a));
}

} // namespace
} // namespace dlis
