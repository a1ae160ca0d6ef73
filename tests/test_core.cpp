/**
 * @file
 * Core module tests: shapes, RNG, tensors, memory accounting, errors,
 * the worker team.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/memory_tracker.hpp"
#include "core/scratch_arena.hpp"
#include "core/thread_pool.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

TEST(Shape, BasicProperties)
{
    Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.rank(), 4u);
    EXPECT_EQ(s.numel(), 120u);
    EXPECT_EQ(s.n(), 2u);
    EXPECT_EQ(s.c(), 3u);
    EXPECT_EQ(s.h(), 4u);
    EXPECT_EQ(s.w(), 5u);
    EXPECT_EQ(s.str(), "[2, 3, 4, 5]");
    EXPECT_EQ(s, (Shape{2, 3, 4, 5}));
    EXPECT_NE(s, (Shape{2, 3, 4, 6}));
}

TEST(Shape, EmptyAndScalar)
{
    Shape empty;
    EXPECT_EQ(empty.rank(), 0u);
    EXPECT_EQ(empty.numel(), 1u);
    EXPECT_THROW(empty.dim(0), FatalError);
    EXPECT_THROW((Shape{1, 2}).n(), FatalError);
}

TEST(Rng, DeterministicStreams)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.nextU64();
        EXPECT_EQ(va, b.nextU64());
    }
    // Different seeds diverge (overwhelmingly likely).
    bool diverged = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i)
        diverged |= a2.nextU64() != c.nextU64();
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = rng.uniform(-2.0, 5.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 5.0);
        const uint64_t k = rng.uniformInt(17);
        EXPECT_LT(k, 17u);
    }
    EXPECT_THROW(rng.uniformInt(0), FatalError);
}

TEST(Rng, NormalMoments)
{
    Rng rng(123);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng child = a.split();
    EXPECT_NE(a.nextU64(), child.nextU64());
}

TEST(Rng, StreamZeroMatchesPlainSeed)
{
    // Stream derivation is backward compatible: stream 0 is
    // bit-identical to the one-argument constructor, so every seeded
    // experiment recorded before streams existed still reproduces.
    Rng plain(42), stream0(42, 0);
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(plain.nextU64(), stream0.nextU64()) << "draw " << i;
}

TEST(Rng, DistinctStreamsDiverge)
{
    // Adjacent stream ids (the per-worker pattern) must decorrelate
    // immediately, not after a warm-up.
    Rng s1(42, 1), s2(42, 2), s3(42, 3);
    EXPECT_NE(s1.nextU64(), s2.nextU64());
    EXPECT_NE(s2.nextU64(), s3.nextU64());
    // And a stream is a pure function of (seed, id).
    Rng again(42, 1);
    Rng first(42, 1);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(first.nextU64(), again.nextU64());
}

TEST(Rng, SplitDoesNotPerturbParent)
{
    // split() derives children from a stream counter, not from parent
    // draws: splitting must leave the parent's sequence untouched.
    Rng withSplit(9), without(9);
    (void)withSplit.split();
    (void)withSplit.split();
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(withSplit.nextU64(), without.nextU64()) << "draw " << i;
}

TEST(Rng, SplitChildrenAreDeterministic)
{
    // The k-th child of Rng(seed) equals the k-th child of any other
    // Rng(seed), independent of how much either parent has drawn.
    Rng a(17), b(17);
    (void)b.nextU64(); // draws must not affect child identity
    Rng a1 = a.split(), b1 = b.split();
    Rng a2 = a.split(), b2 = b.split();
    for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(a1.nextU64(), b1.nextU64());
        ASSERT_EQ(a2.nextU64(), b2.nextU64());
    }
}

TEST(Tensor, FillAndStats)
{
    Tensor t(Shape{2, 8});
    t.fill(3.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 48.0);
    EXPECT_EQ(t.countZeros(), 0u);
    t.fill(0.0f);
    EXPECT_DOUBLE_EQ(t.sparsity(), 1.0);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t = test::randomTensor(Shape{3, 4}, 9);
    Tensor r = t.reshaped(Shape{2, 6});
    EXPECT_EQ(r.shape(), (Shape{2, 6}));
    for (size_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(t[i], r[i]);
    EXPECT_THROW(t.reshaped(Shape{5, 5}), FatalError);
}

TEST(Tensor, ArithmeticHelpers)
{
    Tensor a = test::randomTensor(Shape{10}, 1);
    Tensor b = test::randomTensor(Shape{10}, 2);
    Tensor sum = a;
    sum.addInPlace(b);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_FLOAT_EQ(sum[i], a[i] + b[i]);
    sum.scaleInPlace(0.5f);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_FLOAT_EQ(sum[i], 0.5f * (a[i] + b[i]));
    EXPECT_GT(a.maxAbsDiff(b), 0.0f);
    EXPECT_FLOAT_EQ(a.maxAbsDiff(a), 0.0f);
    // A NaN anywhere reads as an infinite difference, never as 0.
    Tensor nan = a;
    nan[3] = std::nanf("");
    EXPECT_TRUE(std::isinf(nan.maxAbsDiff(a)));
    EXPECT_TRUE(std::isinf(a.maxAbsDiff(nan)));
    EXPECT_THROW(a.addInPlace(Tensor(Shape{3})), FatalError);
}

TEST(Tensor, KaimingInitVariance)
{
    Rng rng(77);
    Tensor w(Shape{64, 32, 3, 3}, MemClass::Weights);
    w.fillKaiming(rng);
    double sq = 0.0;
    for (size_t i = 0; i < w.numel(); ++i)
        sq += static_cast<double>(w[i]) * w[i];
    const double var = sq / static_cast<double>(w.numel());
    const double expect = 2.0 / (32.0 * 9.0); // 2 / fan_in
    EXPECT_NEAR(var, expect, 0.2 * expect);
}

TEST(Tensor, CheckedAccessThrows)
{
    Tensor t(Shape{4});
    EXPECT_NO_THROW(t.at(3));
    EXPECT_THROW(t.at(4), FatalError);
}

TEST(MemoryTracker, AllocateReleasePeaks)
{
    auto &tracker = MemoryTracker::instance();
    const size_t base = tracker.currentBytes();
    tracker.resetPeaks();
    {
        TrackedBytes a(MemClass::Scratch, 1000);
        EXPECT_EQ(tracker.currentBytes(), base + 1000);
        {
            TrackedBytes b(MemClass::Scratch, 500);
            EXPECT_EQ(tracker.currentBytes(), base + 1500);
        }
        EXPECT_EQ(tracker.currentBytes(), base + 1000);
        EXPECT_GE(tracker.peakBytes(), base + 1500);
    }
    EXPECT_EQ(tracker.currentBytes(), base);
}

TEST(MemoryTracker, MoveSemantics)
{
    auto &tracker = MemoryTracker::instance();
    const size_t base = tracker.currentBytes(MemClass::Other);
    TrackedBytes a(MemClass::Other, 256);
    TrackedBytes b = std::move(a);
    EXPECT_EQ(tracker.currentBytes(MemClass::Other), base + 256);
    b.resize(512);
    EXPECT_EQ(tracker.currentBytes(MemClass::Other), base + 512);
    b.resize(128);
    EXPECT_EQ(tracker.currentBytes(MemClass::Other), base + 128);
}

TEST(MemoryTracker, TensorRegistersItsBytes)
{
    auto &tracker = MemoryTracker::instance();
    const size_t base = tracker.currentBytes(MemClass::Activations);
    {
        Tensor t(Shape{1024});
        EXPECT_EQ(tracker.currentBytes(MemClass::Activations),
                  base + 1024 * sizeof(float));
        Tensor copy = t; // copies are tracked too
        EXPECT_EQ(tracker.currentBytes(MemClass::Activations),
                  base + 2 * 1024 * sizeof(float));
    }
    EXPECT_EQ(tracker.currentBytes(MemClass::Activations), base);
}

TEST(ScratchArena, AlignsEveryBlock)
{
    ScratchArena arena;
    for (size_t bytes : {1u, 63u, 64u, 65u, 1000u}) {
        void *p = arena.alloc(bytes);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                      ScratchArena::kAlignment,
                  0u)
            << bytes;
    }
    // Every block occupies its aligned size exactly.
    EXPECT_EQ(arena.usedBytes(), 64u + 64u + 64u + 128u + 1024u);
}

TEST(ScratchArena, CheckpointRewindOverlaysDemands)
{
    ScratchArena arena;
    const size_t mark = arena.checkpoint();
    arena.alloc(256);
    EXPECT_EQ(arena.usedBytes(), 256u);
    arena.rewind(mark);
    EXPECT_EQ(arena.usedBytes(), 0u);
    // A second, smaller demand reuses the capacity — no growth.
    arena.alloc(128);
    EXPECT_EQ(arena.capacityBytes(), 256u);
    arena.rewind(mark);
    EXPECT_THROW(arena.rewind(1), PanicError); // past the bump pointer
}

TEST(ScratchArena, GrowthIsExactNotGeometric)
{
    ScratchArena arena;
    arena.alloc(100); // aligned to 128
    EXPECT_EQ(arena.capacityBytes(), 128u);
    arena.alloc(100); // 128 more
    EXPECT_EQ(arena.capacityBytes(), 256u);
    arena.rewind(0);
    arena.alloc(300); // 320 aligned > 256: grows to exactly 320
    EXPECT_EQ(arena.capacityBytes(), 320u);
}

TEST(ScratchArena, GrowthPreservesEarlierBlocks)
{
    ScratchArena arena;
    float *a = arena.allocFloats(16);
    for (size_t i = 0; i < 16; ++i)
        a[i] = static_cast<float>(i);
    // Growing must not invalidate a: kernels hold pointers into the
    // arena across nested allocations (im2col columns live across the
    // GEMM's tile allocation).
    float *b = arena.allocFloats(1 << 16);
    b[0] = 1.0f;
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(a[i], static_cast<float>(i));
}

TEST(ScratchArena, TracksCapacityAsScratch)
{
    auto &tracker = MemoryTracker::instance();
    const size_t base = tracker.currentBytes(MemClass::Scratch);
    {
        ScratchArena arena;
        EXPECT_EQ(tracker.currentBytes(MemClass::Scratch), base);
        arena.alloc(1024);
        EXPECT_EQ(tracker.currentBytes(MemClass::Scratch),
                  base + 1024);
        // Rewinding frees nothing: the capacity is the footprint.
        arena.rewind(0);
        EXPECT_EQ(tracker.currentBytes(MemClass::Scratch),
                  base + 1024);
    }
    EXPECT_EQ(tracker.currentBytes(MemClass::Scratch), base);
}

TEST(ScratchArena, ScopePublishesGrowthAndRewinds)
{
    ScratchArena arena;
    obs::Counter grown, rewinds;
    obs::KernelCounters counters;
    counters.arenaBytes = &grown;
    counters.arenaRewinds = &rewinds;
    {
        ScratchArena::Scope scope(arena, counters);
        arena.alloc(4096);
    }
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(grown.value(), 4096u);
    EXPECT_EQ(rewinds.value(), 1u);
    {
        // Steady state: same demand again grows nothing.
        ScratchArena::Scope scope(arena, counters);
        arena.alloc(4096);
    }
    EXPECT_EQ(grown.value(), 4096u);
    EXPECT_EQ(rewinds.value(), 2u);
}

/** Threads of this process, as the kernel lists them. */
size_t
liveThreads()
{
    namespace fs = std::filesystem;
    return static_cast<size_t>(std::distance(
        fs::directory_iterator("/proc/self/task"), fs::directory_iterator{}));
}

/** One team run at width @p n: per-task visit counts, the width each
 *  task saw, whether each saw every pre-barrier write after the
 *  barrier, and whether its nested run() ran inline. */
struct TeamProbe
{
    std::vector<std::atomic<int>> visits, width, sawAll, nestedInline;
    std::vector<std::atomic<size_t>> slot;

    explicit TeamProbe(size_t n)
        : visits(n), width(n), sawAll(n), nestedInline(n), slot(n)
    {
    }

    void run(size_t n)
    {
        team::run(n, [&](size_t tid, size_t nt) {
            visits[tid].fetch_add(1);
            width[tid] = static_cast<int>(nt);
            slot[tid].store(tid + 1, std::memory_order_relaxed);
            team::barrier();
            bool all = true;
            for (size_t t = 0; t < nt; ++t)
                all &= slot[t].load(std::memory_order_relaxed) == t + 1;
            sawAll[tid] = all;
            const std::thread::id self = std::this_thread::get_id();
            int inner = 0;
            team::run(4, [&](size_t itid, size_t inw) {
                inner += itid == 0 && inw == 1 &&
                         std::this_thread::get_id() == self;
            });
            nestedInline[tid] = inner;
        });
    }
};

TEST(WorkerTeam, RunsEachTaskOnceBarriersNestsInlineAndJoinsAtExit)
{
    // A sanitizer runtime starts a helper thread with the first
    // std::thread; let it start before any thread count is taken.
    std::thread([] {}).join();
    for (size_t n : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE("n=" + std::to_string(n));

        // Every task index once, at the requested width; writes before
        // the barrier are visible after it; a nested run is inline.
        TeamProbe probe(n);
        probe.run(n);
        for (size_t tid = 0; tid < n; ++tid) {
            EXPECT_EQ(probe.visits[tid], 1) << "tid " << tid;
            EXPECT_EQ(probe.width[tid], static_cast<int>(n));
            EXPECT_EQ(probe.sawAll[tid], 1) << "tid " << tid;
            EXPECT_EQ(probe.nestedInline[tid], 1) << "tid " << tid;
        }

        // Two threads drive their own teams at the same time, and each
        // joins its workers when it exits.
        const size_t before = liveThreads();
        std::latch looped(2), counted(2);
        std::atomic<int> clean{0};
        std::atomic<size_t> during{SIZE_MAX};
        auto caller = [&] {
            for (int rep = 0; rep < 200; ++rep) {
                TeamProbe p(n);
                p.run(n);
                bool ok = true;
                for (size_t tid = 0; tid < n; ++tid)
                    ok &= p.visits[tid] == 1 && p.sawAll[tid] == 1;
                clean += ok;
            }
            // Both loops are done, both teams still live.
            looped.arrive_and_wait();
            const size_t live = liveThreads();
            size_t low = during.load();
            while (live < low && !during.compare_exchange_weak(low, live)) {
            }
            counted.arrive_and_wait();
        };
        std::thread a(caller), b(caller);
        a.join();
        b.join();
        EXPECT_EQ(clean, 400);
        // Two callers, each with its own n - 1 workers.
        EXPECT_EQ(during, before + 2 * n);
        // A joined thread's task entry can outlive join() until the
        // exiting thread is scheduled again; allow a loaded host 10 s.
        size_t after = liveThreads();
        for (int i = 0; i < 10000 && after != before; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            after = liveThreads();
        }
        EXPECT_EQ(after, before);
    }
}

TEST(Errors, FatalVersusPanic)
{
    EXPECT_THROW(fatal("user error ", 42), FatalError);
    EXPECT_THROW(panic("library bug"), PanicError);
    try {
        fatal("code ", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("code 7"),
                  std::string::npos);
    }
}

TEST(ErrorMacros, CheckThrowsFatalOnFailure)
{
    EXPECT_NO_THROW(DLIS_CHECK(1 + 1 == 2, "arithmetic broke"));
    EXPECT_THROW(DLIS_CHECK(1 + 1 == 3, "as expected"), FatalError);
    // A failed check is the user's fault, never a PanicError.
    try {
        DLIS_CHECK(false, "detail ", 12);
        FAIL() << "DLIS_CHECK(false, ...) did not throw";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("check failed"), std::string::npos);
        EXPECT_NE(what.find("detail 12"), std::string::npos);
    }
}

TEST(ErrorMacros, AssertThrowsPanicOnFailure)
{
    EXPECT_NO_THROW(DLIS_ASSERT(true, "fine"));
    EXPECT_THROW(DLIS_ASSERT(false, "broken"), PanicError);
    try {
        DLIS_ASSERT(2 < 1, "impossible ", 'x');
        FAIL() << "DLIS_ASSERT(false, ...) did not throw";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("assert failed"), std::string::npos);
        EXPECT_NE(what.find("impossible x"), std::string::npos);
    }
}

TEST(ErrorMacros, MessageIncludesFailingExpression)
{
    const int limit = 4;
    try {
        DLIS_CHECK(limit > 10, "limit too small");
        FAIL() << "check passed unexpectedly";
    } catch (const FatalError &e) {
        // The stringised condition is part of the diagnostic.
        EXPECT_NE(std::string(e.what()).find("limit > 10"),
                  std::string::npos);
    }
    try {
        DLIS_ASSERT(limit == 5, "invariant");
        FAIL() << "assert passed unexpectedly";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("limit == 5"),
                  std::string::npos);
    }
}

TEST(ErrorMacros, ConditionEvaluatedExactlyOnce)
{
    int evaluations = 0;
    auto passing = [&evaluations]() {
        ++evaluations;
        return true;
    };
    DLIS_CHECK(passing(), "should pass");
    EXPECT_EQ(evaluations, 1);

    evaluations = 0;
    DLIS_ASSERT(passing(), "should pass");
    EXPECT_EQ(evaluations, 1);

    auto failing = [&evaluations]() {
        ++evaluations;
        return false;
    };
    evaluations = 0;
    EXPECT_THROW(DLIS_CHECK(failing(), "fails once"), FatalError);
    EXPECT_EQ(evaluations, 1);

    evaluations = 0;
    EXPECT_THROW(DLIS_ASSERT(failing(), "fails once"), PanicError);
    EXPECT_EQ(evaluations, 1);
}

} // namespace
} // namespace dlis
