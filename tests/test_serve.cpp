/**
 * @file
 * Concurrency tests for the serving engine (src/serve). The three
 * hazards a thread-pool batcher can hide: wrong answers under
 * concurrent submission, backpressure that blocks instead of failing,
 * and shutdown deadlocks. Each gets a test; the binary runs under a
 * ctest TIMEOUT so a deadlock is a failure, not a hung CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/slo_watchdog.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

InferenceStack
makeStack()
{
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    return InferenceStack(config);
}

/** Deterministic per-request payload. */
Tensor
payload(const Shape &shape, uint64_t id)
{
    Rng rng(997, id);
    Tensor t{shape};
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

TEST(Serve, ConcurrentClientsMatchSerialForward)
{
    InferenceStack stack = makeStack();

    constexpr size_t kClients = 8;
    constexpr size_t kPerClient = 6;
    constexpr size_t kTotal = kClients * kPerClient;

    // Serial references, computed before the pool exists. The engine
    // runs the same serial/direct configuration, and batching is
    // bit-invisible (test_batch_semantics), so futures must match
    // exactly.
    ExecContext ref;
    std::vector<Tensor> expected;
    expected.reserve(kTotal);
    for (size_t id = 0; id < kTotal; ++id)
        expected.push_back(stack.model().net.forward(
            payload(stack.inputShape(1), id), ref));

    serve::ServeConfig config;
    config.workers = 2;
    config.maxBatch = 8;
    config.maxDelayUs = 500;
    config.queueCapacity = kTotal; // no rejects in this test
    serve::InferenceEngine engine(stack, config);

    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (size_t i = 0; i < kPerClient; ++i) {
                const size_t id = c * kPerClient + i;
                std::future<Tensor> f =
                    engine.submit(payload(stack.inputShape(1), id));
                const Tensor got = f.get(); // throws on reject
                if (got.maxAbsDiff(expected[id]) != 0.0f)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    engine.shutdown();

    EXPECT_EQ(mismatches.load(), 0u)
        << "a batched result differed from its serial forward";
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, kTotal);
    EXPECT_EQ(stats.completed, kTotal);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.batches, kTotal);
}

TEST(Serve, BackpressureRejectsNotHangs)
{
    InferenceStack stack = makeStack();

    serve::ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    config.startPaused = true; // nothing drains until resume()
    serve::InferenceEngine engine(stack, config);

    std::future<Tensor> a =
        engine.submit(payload(stack.inputShape(1), 0));
    std::future<Tensor> b =
        engine.submit(payload(stack.inputShape(1), 1));

    // Queue is full; this submit must fail the future immediately —
    // not block the caller, not wait for capacity.
    std::future<Tensor> c =
        engine.submit(payload(stack.inputShape(1), 2));
    ASSERT_EQ(c.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "rejected future was not failed at submit time";
    try {
        (void)c.get();
        FAIL() << "full-queue submit did not throw";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::QueueFull);
    }

    // The admitted requests still complete once the pool runs.
    engine.resume();
    EXPECT_NO_THROW((void)a.get());
    EXPECT_NO_THROW((void)b.get());
    engine.shutdown();

    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(Serve, BadShapeRejected)
{
    InferenceStack stack = makeStack();
    serve::InferenceEngine engine(stack, serve::ServeConfig{});

    std::future<Tensor> f =
        engine.submit(test::randomTensor(Shape{1, 3, 7, 7}, 5));
    try {
        (void)f.get();
        FAIL() << "wrong-shape submit did not throw";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::BadShape);
    }
    engine.shutdown();
}

TEST(Serve, ShutdownWithQueuedWorkDrains)
{
    InferenceStack stack = makeStack();

    serve::ServeConfig config;
    config.workers = 2;
    config.queueCapacity = 16;
    config.startPaused = true;
    serve::InferenceEngine engine(stack, config);

    constexpr size_t kQueued = 10;
    std::vector<std::future<Tensor>> futures;
    for (size_t id = 0; id < kQueued; ++id)
        futures.push_back(
            engine.submit(payload(stack.inputShape(1), id)));

    // Shutdown with a queue full of never-started work: must execute
    // all of it (not abandon the promises) and must not deadlock —
    // the ctest TIMEOUT turns a hang here into a failure.
    engine.shutdown();

    for (std::future<Tensor> &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_NO_THROW((void)f.get());
    }
    EXPECT_EQ(engine.stats().completed, kQueued);

    // After shutdown, submission is a clean reject.
    std::future<Tensor> late =
        engine.submit(payload(stack.inputShape(1), 99));
    try {
        (void)late.get();
        FAIL() << "post-shutdown submit did not throw";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::ShutDown);
    }

    // Idempotent: a second shutdown (and the destructor's) is a no-op.
    engine.shutdown();
}

TEST(Serve, PopUntilPastDeadlineStillDrainsQueuedItems)
{
    serve::BoundedQueue<int> queue(4);
    EXPECT_TRUE(queue.tryPush(7));

    // A deadline already in the past must not swallow queued work —
    // wait_until with an expired deadline still re-checks the
    // predicate, so the item comes back immediately.
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(10);
    std::optional<int> got = queue.popUntil(past);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 7);

    // Empty queue + past deadline: nullopt without blocking.
    EXPECT_FALSE(queue.popUntil(past).has_value());
}

TEST(Serve, ApproxSizeMirrorNeverDriftsUnderConcurrency)
{
    // approxSize() mirrors items_.size() through a relaxed atomic so
    // the telemetry gauge never contends with admission. The mirror
    // is only ever STORED under the queue mutex, so it may lag a
    // concurrent operation transiently but can never drift: at every
    // quiescent point it must equal the true size exactly. This runs
    // under TSan in CI, so an ordering hole would also be a data-race
    // report, not just a failed equality.
    serve::BoundedQueue<int> queue(64);
    constexpr int kRounds = 50;
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerThread = 200;

    for (int round = 0; round < kRounds / 10; ++round) {
        std::vector<std::thread> threads;
        threads.reserve(kProducers + kConsumers + 1);
        for (int p = 0; p < kProducers; ++p)
            threads.emplace_back([&queue] {
                for (int i = 0; i < kPerThread; ++i)
                    (void)queue.tryPush(int(i));
            });
        for (int c = 0; c < kConsumers; ++c)
            threads.emplace_back([&queue, c] {
                for (int i = 0; i < kPerThread; ++i) {
                    if (c % 2 == 0) {
                        (void)queue.tryPop();
                    } else {
                        (void)queue.popUntil(
                            std::chrono::steady_clock::now());
                    }
                }
            });
        // A reader hammering the mirror mid-flight: values must stay
        // inside [0, capacity] even while producers and consumers
        // race.
        threads.emplace_back([&queue] {
            for (int i = 0; i < kPerThread; ++i)
                EXPECT_LE(queue.approxSize(), 64u);
        });
        for (std::thread &t : threads)
            t.join();

        // Quiescent: the mirror has no excuse to differ.
        EXPECT_EQ(queue.size(), queue.approxSize())
            << "round " << round;
    }

    // Drain and re-check at zero.
    while (queue.tryPop().has_value()) {
    }
    EXPECT_EQ(0u, queue.size());
    EXPECT_EQ(0u, queue.approxSize());
}

TEST(Serve, ZeroLingerStillFormsFullBatchesFromQueue)
{
    InferenceStack stack = makeStack();

    serve::ServeConfig config;
    config.workers = 1;
    config.maxBatch = 4;
    config.maxDelayUs = 0; // never wait — but take what is queued
    config.queueCapacity = 16;
    config.startPaused = true;
    serve::InferenceEngine engine(stack, config);

    constexpr size_t kQueued = 8;
    std::vector<std::future<Tensor>> futures;
    for (size_t id = 0; id < kQueued; ++id)
        futures.push_back(
            engine.submit(payload(stack.inputShape(1), id)));

    engine.resume();
    for (std::future<Tensor> &f : futures)
        EXPECT_NO_THROW((void)f.get());
    engine.shutdown();

    // A zero-linger worker facing a pre-filled queue must still ship
    // full batches: 8 queued requests, maxBatch 4, one worker → two
    // batches of exactly 4 (a greedy drain, not 8 singleton batches).
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.completed, kQueued);
    EXPECT_EQ(stats.batches, 2u);
    ASSERT_GT(stats.batchHistogram.size(), 4u);
    EXPECT_EQ(stats.batchHistogram[4], 2u);
}

TEST(Serve, LatencyStatsReadTheTelemetryHistogram)
{
    InferenceStack stack = makeStack();

    serve::ServeConfig config;
    config.workers = 1;
    config.maxDelayUs = 0;
    config.queueCapacity = 32;
    serve::InferenceEngine engine(stack, config);

    constexpr size_t kTotal = 12;
    std::vector<std::future<Tensor>> futures;
    for (size_t id = 0; id < kTotal; ++id)
        futures.push_back(
            engine.submit(payload(stack.inputShape(1), id)));
    for (std::future<Tensor> &f : futures)
        EXPECT_NO_THROW((void)f.get());
    engine.shutdown();

    // stats().latency is the cumulative dlis_serve_latency_seconds
    // histogram: the count is every completion, and max is a bucket
    // edge, exactly as a histogram_quantile over /metrics reads it.
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.completed, kTotal);
    EXPECT_EQ(stats.latency.count, stats.completed);
    EXPECT_GT(stats.latency.p50, 0.0);
    EXPECT_LE(stats.latency.p50, stats.latency.max);
    const std::vector<double> bounds = obs::defaultLatencyBounds();
    EXPECT_NE(std::find(bounds.begin(), bounds.end(), stats.latency.max),
              bounds.end());
    EXPECT_NE(engine.telemetry().renderPrometheus().find(
                  "dlis_serve_latency_seconds_count " +
                  std::to_string(kTotal) + "\n"),
              std::string::npos);
}

TEST(Serve, TracePropagatesRequestIdAcrossSpans)
{
    InferenceStack stack = makeStack();
    obs::Tracer tracer;

    serve::ServeConfig config;
    config.workers = 1;
    config.maxBatch = 4;
    config.maxDelayUs = 500;
    config.queueCapacity = 16;
    serve::InferenceEngine engine(stack, config, nullptr, &tracer);

    constexpr size_t kTotal = 6;
    std::vector<std::future<Tensor>> futures;
    for (size_t id = 0; id < kTotal; ++id)
        futures.push_back(
            engine.submit(payload(stack.inputShape(1), id)));
    for (std::future<Tensor> &f : futures)
        EXPECT_NO_THROW((void)f.get());
    engine.shutdown();

    // Every replied request must have a complete, connected trace:
    // queue_wait -> batch_assembly -> forward -> reply, all tagged
    // with the same RequestId.
    std::map<uint64_t, std::map<std::string, obs::TraceEvent>> byId;
    for (const obs::TraceEvent &ev : tracer.events())
        if (ev.category == "request")
            byId[ev.flowId][ev.name] = ev;
    ASSERT_EQ(byId.size(), kTotal);

    for (const auto &[id, spans] : byId) {
        EXPECT_NE(id, 0u);
        ASSERT_TRUE(spans.count("queue_wait"));
        ASSERT_TRUE(spans.count("batch_assembly"));
        ASSERT_TRUE(spans.count("forward"));
        ASSERT_TRUE(spans.count("reply"));
        const obs::TraceEvent &wait = spans.at("queue_wait");
        const obs::TraceEvent &assembly = spans.at("batch_assembly");
        const obs::TraceEvent &forward = spans.at("forward");
        const obs::TraceEvent &reply = spans.at("reply");

        // Connected in time: each stage starts no earlier than the
        // previous stage's start, and the whole chain is covered by
        // the enqueue-to-reply interval.
        EXPECT_LE(wait.startNs, assembly.startNs);
        EXPECT_LE(assembly.startNs, forward.startNs);
        EXPECT_LE(forward.startNs, reply.startNs);
        const uint64_t replyEnd = reply.startNs + reply.durationNs;
        ASSERT_GE(replyEnd, wait.startNs);
        const uint64_t total = replyEnd - wait.startNs;
        EXPECT_LE(wait.durationNs + forward.durationNs, total)
            << "queue-wait + forward exceed enqueue-to-reply";
    }

    // The per-layer spans under a batch forward carry the lead
    // request's id, so kernel-level work joins a request trace too.
    bool layerSpanWithFlow = false;
    for (const obs::TraceEvent &ev : tracer.events())
        if (ev.category == "layer" && ev.flowId != 0)
            layerSpanWithFlow = true;
    EXPECT_TRUE(layerSpanWithFlow)
        << "layer spans were not attributed to a request";
}

TEST(Serve, SloWatchdogFlipsUnderOverloadAndRecovers)
{
    InferenceStack stack = makeStack();

    serve::ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    config.startPaused = true; // force deterministic rejects
    config.windowBuckets = 5;
    config.windowBucketSeconds = 0.06; // 0.3 s rolling window
    serve::InferenceEngine engine(stack, config);

    serve::SloConfig slo;
    slo.maxShedRatio = 0.2; // anything above 20% shed is a breach
    serve::SloWatchdog watchdog(engine, slo);
    EXPECT_FALSE(watchdog.evaluateNow());
    EXPECT_NE(engine.telemetry().renderPrometheus().find(
                  "dlis_slo_breach 0"),
              std::string::npos);

    // Overload: fill the queue, then shed the rest. 6 rejects against
    // 2 admissions puts the windowed shed ratio at 0.75.
    std::vector<std::future<Tensor>> admitted;
    for (size_t id = 0; id < 2; ++id)
        admitted.push_back(
            engine.submit(payload(stack.inputShape(1), id)));
    for (size_t id = 0; id < 6; ++id) {
        std::future<Tensor> shed =
            engine.submit(payload(stack.inputShape(1), 10 + id));
        EXPECT_THROW((void)shed.get(), serve::RejectedError);
    }

    EXPECT_TRUE(watchdog.evaluateNow());
    EXPECT_TRUE(watchdog.breached());
    EXPECT_NE(engine.telemetry().renderPrometheus().find(
                  "dlis_slo_breach 1"),
              std::string::npos);

    engine.resume();
    for (std::future<Tensor> &f : admitted)
        EXPECT_NO_THROW((void)f.get());

    // Once the overload ages out of the rolling window, the next
    // evaluation recovers on its own.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_FALSE(watchdog.evaluateNow());
    EXPECT_FALSE(watchdog.breached());
    EXPECT_EQ(watchdog.transitions(), 2u); // breach, then recovery
    engine.shutdown();
}

TEST(Serve, RepeatedStartupShutdownCycles)
{
    // Exercise pool construction/teardown repeatedly — the classic
    // place for join/close races to hide.
    InferenceStack stack = makeStack();
    for (int cycle = 0; cycle < 4; ++cycle) {
        serve::ServeConfig config;
        config.workers = 2;
        config.maxDelayUs = 100;
        serve::InferenceEngine engine(stack, config);
        std::vector<std::future<Tensor>> futures;
        for (size_t id = 0; id < 4; ++id)
            futures.push_back(
                engine.submit(payload(stack.inputShape(1), id)));
        for (std::future<Tensor> &f : futures)
            EXPECT_NO_THROW((void)f.get());
        // Destructor performs the shutdown.
    }
}

} // namespace
} // namespace dlis
