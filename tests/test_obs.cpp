/**
 * @file
 * Observability layer: span tracer (nesting, thread-safety, Chrome
 * JSON export), counter registry (cross-thread sums, per-layer
 * scoping), latency statistics, and the expected-vs-actual run report
 * — including the contract that observed CSR row visits match
 * LayerCost::sparseRowVisits exactly on a weight-pruned CSR model.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "backend/conv_kernels.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "stack/inference_stack.hpp"
#include "stack/report.hpp"
#include "test_helpers.hpp"

using namespace dlis;

namespace {

using test::JsonChecker;
using test::randomTensor;

} // namespace

TEST(Tracer, RecordsNestedSpansInOrder)
{
    obs::Tracer tracer;
    {
        obs::TraceSpan outer(&tracer, "outer", "test");
        {
            obs::TraceSpan inner(&tracer, "inner", "test");
        }
    }
    // Inner destructs first, so it is recorded first.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "outer");
    // Time containment: the outer span brackets the inner one.
    EXPECT_LE(events[1].startNs, events[0].startNs);
    EXPECT_GE(events[1].startNs + events[1].durationNs,
              events[0].startNs + events[0].durationNs);
}

TEST(Tracer, FinishIsIdempotent)
{
    obs::Tracer tracer;
    obs::TraceSpan span(&tracer, "s", "test");
    span.finish();
    span.finish(); // second finish must not double-record
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(Tracer, NullTracerRecordsNothing)
{
    obs::TraceSpan span(nullptr, "ignored");
    span.finish(); // must be safe
}

TEST(Tracer, ThreadSafeRecording)
{
    obs::Tracer tracer;
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&tracer] {
            for (int i = 0; i < kSpansPerThread; ++i)
                obs::TraceSpan span(&tracer, "work", "test");
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(tracer.eventCount(),
              static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST(Tracer, ChromeTraceJsonParses)
{
    obs::Tracer tracer;
    {
        obs::TraceSpan span(&tracer, "layer \"quoted\"\n", "layer");
        obs::TraceSpan inner(&tracer, "kernel", "kernel");
    }
    std::ostringstream oss;
    tracer.writeChromeTrace(oss);
    const std::string json = oss.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Special characters survive escaped, never raw.
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    // ...and the checker refuses them raw (RFC 8259).
    EXPECT_FALSE(JsonChecker("{\"a\nb\": 1}").valid());
}

TEST(Metrics, CountersSumAcrossThreads)
{
    obs::Metrics metrics;
    obs::Counter &counter = metrics.counter("shared");
    constexpr int kThreads = 8;
    constexpr uint64_t kAddsPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&counter] {
            for (uint64_t i = 0; i < kAddsPerThread; ++i)
                counter.add(1);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(metrics.value("shared"), kThreads * kAddsPerThread);
}

TEST(Metrics, ScopeSnapshotKeysByLeaf)
{
    obs::Metrics metrics;
    metrics.counter("conv1.csr_row_visits").add(7);
    metrics.counter("conv1.gemm_macs").add(9);
    metrics.counter("conv10.gemm_macs").add(3); // different scope
    const auto scoped = metrics.scopeSnapshot("conv1");
    ASSERT_EQ(scoped.size(), 2u);
    EXPECT_EQ(scoped.at("csr_row_visits"), 7u);
    EXPECT_EQ(scoped.at("gemm_macs"), 9u);
    metrics.reset();
    EXPECT_EQ(metrics.value("conv1.gemm_macs"), 0u);
}

TEST(Metrics, CsrKernelCountMatchesFormulaAcrossOmpThreads)
{
    // The CSR bank kernel must charge exactly cin*kh*ho*wo row visits
    // per (image, output channel) — LayerCost::sparseRowVisits' unit —
    // regardless of sparsity or thread count.
    const size_t c = 16;
    ConvParams p{1, c, 16, 16, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 16, 16}, 3);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 4);
    Rng rng(5);
    for (size_t i = 0; i < w.numel(); ++i)
        if (rng.bernoulli(0.8))
            w[i] = 0.0f;
    const CsrFilterBank bank = CsrFilterBank::fromFilter(w);
    Tensor out(Shape{1, c, 16, 16});

    const uint64_t expected = static_cast<uint64_t>(p.n) * p.cout *
                              p.cin * p.kh * p.hout() * p.wout();
    for (int threads : {1, 4}) {
        obs::Metrics metrics;
        KernelPolicy pol{threads};
        pol.counters = metrics.kernelCounters("k");
        kernels::convDirectCsrBank(p, in.data(), bank, nullptr,
                                   out.data(), pol);
        EXPECT_EQ(metrics.value("k.csr_row_visits"), expected)
            << "threads=" << threads;
    }
}

TEST(Metrics, ReluCountsItsOmpRegionUnderItsScope)
{
    // Under OpenMP x2 the conv opens one parallel region and none when
    // serial, and so does a ReLU that runs on its own; each is charged
    // to its own layer's scope. A ReLU right after the conv runs in
    // the conv's output store at inference and opens none.
    Network net("conv-relu-pool-relu");
    net.emplace<Conv2d>("conv", 2, 4, 3, 1, 1);
    net.emplace<ReLU>("fused");
    net.emplace<MaxPool2d>("pool", 2);
    net.emplace<ReLU>("relu");
    const Tensor in = randomTensor(Shape{1, 2, 8, 8}, 7);
    for (int threads : {1, 2}) {
        obs::Metrics metrics;
        ExecContext ctx;
        ctx.backend = threads > 1 ? Backend::OpenMP : Backend::Serial;
        ctx.threads = threads;
        ctx.metrics = &metrics;
        net.forward(in, ctx);
        const uint64_t regions = threads > 1 ? 1 : 0;
        EXPECT_EQ(metrics.value("relu.omp_regions"), regions)
            << "threads=" << threads;
        EXPECT_EQ(metrics.value("conv.omp_regions"), regions)
            << "threads=" << threads;
        EXPECT_EQ(metrics.value("fused.omp_regions"), 0u)
            << "threads=" << threads;
    }
}

TEST(Metrics, Im2colConvCountsOneOmpRegion)
{
    // An im2col conv packs its columns inside the GEMM's parallel
    // region, so under OpenMP x2 it opens exactly one region per GEMM
    // call: one for a one-image 8x8 plane (two row tiles), and one per
    // folded group for a batch of 2x2 planes.
    struct Case
    {
        Shape input;
        uint64_t gemmCalls;
    };
    for (const Case &c : {Case{Shape{1, 4, 8, 8}, 1},
                          Case{Shape{20, 4, 2, 2}, 2}}) {
        Network net("conv");
        net.emplace<Conv2d>("conv", 4, 40, 3, 1, 1);
        obs::Metrics metrics;
        ExecContext ctx;
        ctx.backend = Backend::OpenMP;
        ctx.threads = 2;
        ctx.convAlgo = ConvAlgo::Im2colGemm;
        ctx.metrics = &metrics;
        net.forward(randomTensor(c.input, 8), ctx);
        EXPECT_EQ(metrics.value("conv.gemm_calls"), c.gemmCalls)
            << c.input.str();
        EXPECT_EQ(metrics.value("conv.omp_regions"), c.gemmCalls)
            << c.input.str();
    }
}

TEST(Stats, PercentileInterpolatesBetweenRanks)
{
    std::vector<double> sorted(100);
    for (int i = 0; i < 100; ++i)
        sorted[static_cast<size_t>(i)] = i + 1.0; // 1..100
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 50.0), 50.5);
    EXPECT_NEAR(obs::percentile(sorted, 90.0), 90.1, 1e-9);
    EXPECT_EQ(obs::percentile({}, 50.0), 0.0);
}

TEST(Stats, PercentileExactAtTinySampleCounts)
{
    // Pin the small-n behaviour exactly: percentiles at n=1..3 must
    // interpolate over ranks, never collapse to the max. (Regression
    // guard for a reported p50-returns-max symptom at n < 4; the
    // current interpolation is correct and must stay so.)
    EXPECT_DOUBLE_EQ(obs::percentile({5.0}, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(obs::percentile({5.0}, 99.0), 5.0);

    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 3.0}, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 3.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 3.0}, 100.0), 3.0);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 3.0}, 90.0), 2.8);

    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 2.0, 10.0}, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 2.0, 10.0}, 25.0), 1.5);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 2.0, 10.0}, 75.0), 6.0);
    EXPECT_DOUBLE_EQ(obs::percentile({1.0, 2.0, 10.0}, 100.0), 10.0);
}

TEST(Stats, LatencyStatsFromSamples)
{
    const auto s = obs::LatencyStats::from({0.003, 0.001, 0.002});
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, 0.001);
    EXPECT_DOUBLE_EQ(s.max, 0.003);
    EXPECT_DOUBLE_EQ(s.p50, 0.002);
    EXPECT_NEAR(s.mean, 0.002, 1e-12);
}

TEST(RunReport, DisabledObservabilityIsBitIdentical)
{
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    Tensor input = randomTensor(stack.inputShape(1), 42);

    ExecContext plain;
    const Tensor ref = stack.model().net.forward(input, plain);

    obs::Tracer tracer;
    obs::Metrics metrics;
    ExecContext observed;
    observed.tracer = &tracer;
    observed.metrics = &metrics;
    const Tensor traced = stack.model().net.forward(input, observed);

    ASSERT_EQ(ref.numel(), traced.numel());
    EXPECT_EQ(std::memcmp(ref.data(), traced.data(),
                          ref.numel() * sizeof(float)),
              0);
    EXPECT_GT(tracer.eventCount(), 0u);
}

TEST(RunReport, ObservedCsrRowVisitsMatchPrediction)
{
    // The acceptance contract: on a weight-pruned CSR model the
    // kernels must walk exactly as many CSR rows as the cost model
    // predicts (LayerCost::sparseRowVisits), layer by layer.
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    config.technique = Technique::WeightPruning;
    config.wpSparsity = 0.7;
    config.format = WeightFormat::Csr;
    InferenceStack stack(config);

    obs::Tracer tracer;
    ExecContext ctx;
    ctx.tracer = &tracer;
    const size_t repeats = 3;
    const RunReport report = collectRunReport(stack, ctx, repeats);

    EXPECT_EQ(report.repeats, repeats);
    EXPECT_EQ(report.latency.count, repeats);
    EXPECT_GT(report.latency.p50, 0.0);

    size_t sparseLayers = 0;
    for (const LayerObservation &l : report.layers) {
        if (!l.expected.sparseTraversal)
            continue;
        ++sparseLayers;
        const auto it =
            l.observed.find(obs::counter_names::csrRowVisits);
        ASSERT_NE(it, l.observed.end()) << l.expected.name;
        EXPECT_EQ(it->second, l.expected.sparseRowVisits)
            << l.expected.name;
    }
    EXPECT_GT(sparseLayers, 0u);

    // One "forward#r" parent span per repeat, each with layer spans.
    size_t forwards = 0;
    for (const auto &e : tracer.events())
        if (e.category == "network")
            ++forwards;
    EXPECT_EQ(forwards, repeats);
}

/** Sum of counter @p name over every layer scope of @p r. */
uint64_t
counterTotal(const RunReport &r, const char *name)
{
    const std::string suffix = std::string(".") + name;
    uint64_t total = 0;
    for (const auto &[key, value] : r.counters)
        if (key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            total += value;
    return total;
}

TEST(RunReport, HostRunHonoursBackendAndThreads)
{
    // stack_cli times the host under the backend and thread count it
    // was given: the report names both, an OpenMP run opens parallel
    // regions (when built with OpenMP) and a Serial run opens none.
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    ExecContext omp;
    omp.backend = Backend::OpenMP;
    omp.threads = 2;
    const RunReport parallel = collectRunReport(stack, omp, 1);
    EXPECT_EQ("openmp", parallel.backend);
    EXPECT_EQ(2, parallel.threads);
    EXPECT_GT(counterTotal(parallel, obs::counter_names::ompRegions), 0u);

    ExecContext serial;
    serial.threads = 2;
    const RunReport single = collectRunReport(stack, serial, 1);
    EXPECT_EQ("serial", single.backend);
    EXPECT_EQ(1, single.threads);
    EXPECT_EQ(0u, counterTotal(single, obs::counter_names::ompRegions));
}

TEST(RunReport, TimedRepeatsGrowNoArena)
{
    // The untimed warm-up forward runs on the context's own arena, so
    // its growth stays out of the timed repeats: every im2col scope
    // they open rewinds without growing the arena.
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    ExecContext ctx;
    ctx.backend = Backend::OpenMP;
    ctx.threads = 2;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    const RunReport report = collectRunReport(stack, ctx, 3);
    EXPECT_GT(counterTotal(report, obs::counter_names::arenaRewinds), 0u);
    EXPECT_EQ(counterTotal(report, obs::counter_names::arenaBytes), 0u);
}

TEST(RunReport, FoldedIm2colCountsGroupsAndColumnBytes)
{
    // MobileNet at batch 8 on a 32x32 input: im2col folds images into
    // the GEMM's N up to one 64-column tile. The 16x16 and 8x8 convs
    // (hw >= 64) run one image per GEMM, the 4x4 pointwise convs
    // groups of 4, the 2x2 and 1x1 ones the whole batch:
    // 4 x 8 + 2 x 2 + 8 x 1 = 44 GEMMs, where one per image was 112.
    // A one-image pointwise group multiplies the input itself and
    // writes no columns; every other conv writes k x hw floats per
    // image.
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    ExecContext ctx;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    constexpr size_t kBatch = 8;
    const RunReport report = collectRunReport(stack, ctx, 1, kBatch);

    const std::map<std::string, uint64_t> gemmCalls = {
        {"stem", 8}, {"pw1", 8},  {"pw2", 8},  {"pw3", 8},  {"pw4", 2},
        {"pw5", 2},  {"pw6", 1},  {"pw7", 1},  {"pw8", 1},  {"pw9", 1},
        {"pw10", 1}, {"pw11", 1}, {"pw12", 1}, {"pw13", 1}};
    const auto counter = [](const LayerObservation &l,
                            const char *name) -> uint64_t {
        const auto it = l.observed.find(name);
        return it == l.observed.end() ? 0 : it->second;
    };
    uint64_t totalCalls = 0;
    for (const LayerObservation &l : report.layers) {
        const std::string &name = l.expected.name;
        const uint64_t calls = counter(l, obs::counter_names::gemmCalls);
        totalCalls += calls;
        const auto it = gemmCalls.find(name);
        if (it == gemmCalls.end())
            continue;
        EXPECT_EQ(calls, it->second) << name;
        const bool identity =
            name == "pw1" || name == "pw2" || name == "pw3";
        const uint64_t written = identity
                                     ? 0
                                     : l.expected.gemmK *
                                           l.expected.gemmN * kBatch *
                                           sizeof(float);
        EXPECT_EQ(counter(l, obs::counter_names::im2colBytes), written)
            << name;
    }
    EXPECT_EQ(totalCalls, 44u);
}

TEST(RunReport, JsonOutputsParse)
{
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    config.technique = Technique::WeightPruning;
    config.wpSparsity = 0.7;
    config.format = WeightFormat::Csr;
    InferenceStack stack(config);

    obs::Tracer tracer;
    ExecContext ctx;
    ctx.tracer = &tracer;
    const RunReport report = collectRunReport(stack, ctx, 2);

    const std::string metricsPath =
        testing::TempDir() + "dlis_metrics.json";
    const std::string tracePath = testing::TempDir() + "dlis_trace.json";
    ASSERT_TRUE(writeRunReportJson(report, metricsPath));
    ASSERT_TRUE(tracer.writeChromeTrace(tracePath));

    for (const std::string &path : {metricsPath, tracePath}) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_TRUE(JsonChecker(buf.str()).valid()) << path;
    }

    std::ifstream in(metricsPath);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"dlis.metrics.v1\""), std::string::npos);
    EXPECT_NE(buf.str().find("csr_row_visits"), std::string::npos);
}
