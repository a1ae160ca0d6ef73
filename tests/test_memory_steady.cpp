/**
 * @file
 * Allocation-steady-state regression tests for the scratch arena.
 *
 * The bug class this pins down: the conv/GEMM hot path used to
 * allocate fresh im2col/packing/tile buffers on every forward. With
 * the per-context ScratchArena, the FIRST forward warms the arena to
 * the model's high-water scratch demand and every later forward must
 * be allocation-free: the MemoryTracker's Scratch class records zero
 * net new bytes and zero transient growth on the second pass, for
 * every model x backend x algorithm combination the repo serves.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <future>

#include "backend/gemm.hpp"
#include "core/memory_tracker.hpp"
#include "core/scratch_arena.hpp"
#include "nn/models/model.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

struct Combo
{
    Backend backend;
    int threads;
    ConvAlgo algo;
    const char *name;
};

/**
 * Forward twice through one persistent context; the second pass must
 * leave MemClass::Scratch exactly where the first left it — no net
 * growth and no transient spike above the warmed capacity.
 */
void
expectSecondForwardAllocationFree(Model &m, const Tensor &in,
                                  ExecContext &ctx,
                                  const std::string &what)
{
    auto &tracker = MemoryTracker::instance();

    (void)m.net.forward(in, ctx); // warmup: arena grows to high water

    const size_t warmed = tracker.currentBytes(MemClass::Scratch);
    tracker.resetPeaks(); // peak := current
    (void)m.net.forward(in, ctx);

    EXPECT_EQ(tracker.currentBytes(MemClass::Scratch), warmed)
        << what << ": second forward changed net scratch bytes";
    EXPECT_EQ(tracker.peakBytes(MemClass::Scratch), warmed)
        << what << ": second forward transiently allocated scratch";
}

TEST(MemorySteadyState, SecondForwardAllocatesNothingPerBackendAlgo)
{
    const Combo combos[] = {
        {Backend::Serial, 1, ConvAlgo::Direct, "serial/direct"},
        {Backend::Serial, 1, ConvAlgo::Im2colGemm, "serial/im2col"},
        {Backend::OpenMP, 2, ConvAlgo::Direct, "omp2/direct"},
        {Backend::OpenMP, 2, ConvAlgo::Im2colGemm, "omp2/im2col"},
    };

    for (const char *model : {"vgg16", "resnet18", "mobilenet"}) {
        Rng rng(11);
        Model m = makeModel(model, 10, 0.25, rng);
        // Batch 8 runs the folded im2col groups (column and wider
        // C-tile blocks); they must warm once, too.
        for (const size_t batch : {size_t{1}, size_t{8}}) {
            Tensor in =
                test::randomTensor(Shape{batch, 3, 32, 32}, 12);
            for (const Combo &combo : combos) {
                ExecContext ctx;
                ctx.backend = combo.backend;
                ctx.threads = combo.threads;
                ctx.convAlgo = combo.algo;
                expectSecondForwardAllocationFree(
                    m, in, ctx,
                    std::string(model) + "/" + combo.name + "/batch" +
                        std::to_string(batch));
            }
        }
    }
}

TEST(MemorySteadyState, ArenaCountersReportZeroGrowthWhenWarm)
{
    // The observable the serving dashboards watch: after warmup, every
    // layer's arena_bytes counter stays flat (rewinds keep ticking).
    Rng rng(17);
    Model m = makeModel("mobilenet", 10, 0.25, rng);
    Tensor in = test::randomTensor(Shape{1, 3, 32, 32}, 18);

    obs::Metrics metrics;
    ExecContext ctx;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    ctx.metrics = &metrics;

    (void)m.net.forward(in, ctx);
    uint64_t grownWarm = 0, rewindsWarm = 0;
    for (const auto &[name, value] : metrics.snapshot()) {
        if (name.size() > 11 &&
            name.compare(name.size() - 11, 11, "arena_bytes") == 0)
            grownWarm += value;
        if (name.size() > 13 &&
            name.compare(name.size() - 13, 13, "arena_rewinds") == 0)
            rewindsWarm += value;
    }
    EXPECT_GT(grownWarm, 0u) << "warmup forward never grew the arena";
    EXPECT_GT(rewindsWarm, 0u);

    (void)m.net.forward(in, ctx);
    uint64_t grownSteady = 0, rewindsSteady = 0;
    for (const auto &[name, value] : metrics.snapshot()) {
        if (name.size() > 11 &&
            name.compare(name.size() - 11, 11, "arena_bytes") == 0)
            grownSteady += value;
        if (name.size() > 13 &&
            name.compare(name.size() - 13, 13, "arena_rewinds") == 0)
            rewindsSteady += value;
    }
    EXPECT_EQ(grownSteady, grownWarm)
        << "steady-state forward grew the arena";
    EXPECT_EQ(rewindsSteady, 2 * rewindsWarm);
}

TEST(MemorySteadyState, SmallGemmSkipsTileCarve)
{
    // gemmBlocked clamps its team to the tile count and accumulates
    // directly into C when that leaves one worker — a small or serial
    // GEMM must not carve per-thread C tiles from the arena at all.
    // analysis/memory_estimate mirrors this rule; test_analysis pins
    // the two together with EXPECT_EQ, so a change to one side of the
    // rule fails there while this test localises which side moved.
    const auto runGemm = [](size_t m, size_t k, size_t n, int threads,
                            ScratchArena &arena) {
        std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
        KernelPolicy policy{threads};
        policy.arena = &arena;
        kernels::gemmBlocked(a.data(), b.data(), c.data(), m, k, n,
                             policy);
    };

    {
        // Single tile (fits 32x64), serial: no carve.
        ScratchArena arena;
        runGemm(16, 24, 32, 1, arena);
        EXPECT_EQ(arena.capacityBytes(), 0u) << "single-tile carved";
    }
    {
        // Multi-tile but serial: still no carve.
        ScratchArena arena;
        runGemm(64, 32, 128, 1, arena);
        EXPECT_EQ(arena.capacityBytes(), 0u) << "serial carved";
    }
    {
        // Single tile with a thread surplus: team clamps to 1 tile,
        // so the parallel path is skipped and nothing is carved.
        ScratchArena arena;
        runGemm(16, 24, 32, 4, arena);
        EXPECT_EQ(arena.capacityBytes(), 0u) << "clamped team carved";
    }
#if DLIS_HAVE_OPENMP
    {
        // Genuinely parallel multi-tile run: exactly one block of
        // teams * tileM * tileN floats, nothing else.
        ScratchArena arena;
        runGemm(64, 32, 128, 2, arena); // 2x2 tiles, 2 threads
        EXPECT_EQ(arena.capacityBytes(),
                  ScratchArena::alignUp(2 * kernels::kGemmTileM *
                                        kernels::kGemmTileN *
                                        sizeof(float)));
    }
#endif
}

TEST(MemorySteadyState, ServingWithTelemetryKeepsScratchWarm)
{
    // The serving engine now publishes every request into its
    // MetricsRegistry (counters, windows, histograms). That hot path
    // must not disturb the arena steady state: after a warmup burst,
    // further served requests leave MemClass::Scratch exactly flat,
    // with the telemetry instruments live the whole time.
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    serve::ServeConfig serveConfig;
    serveConfig.workers = 1; // one worker = one arena to keep warm
    serveConfig.maxBatch = 4;
    serve::InferenceEngine engine(stack, serveConfig);

    auto serveOne = [&](uint64_t seed) {
        std::future<Tensor> f = engine.submit(
            test::randomTensor(stack.inputShape(1), seed));
        (void)f.get(); // synchronous: every batch has size 1
    };

    auto &tracker = MemoryTracker::instance();
    for (uint64_t i = 0; i < 4; ++i)
        serveOne(100 + i); // warm the worker's arena

    const size_t warmed = tracker.currentBytes(MemClass::Scratch);
    tracker.resetPeaks();
    for (uint64_t i = 0; i < 8; ++i)
        serveOne(200 + i);

    EXPECT_EQ(tracker.currentBytes(MemClass::Scratch), warmed)
        << "served forwards changed net scratch bytes";
    EXPECT_EQ(tracker.peakBytes(MemClass::Scratch), warmed)
        << "served forwards transiently allocated scratch";

    // The instruments really were live: the scrape sees the traffic.
    const std::string text = engine.telemetry().renderPrometheus();
    EXPECT_NE(text.find("dlis_serve_requests_completed_total 12"),
              std::string::npos)
        << text;
    engine.shutdown();
}

} // namespace
} // namespace dlis
