#include "serve/replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/rng.hpp"
#include "stack/inference_stack.hpp"

namespace dlis::serve {

ReplayReport
replayOpenLoop(InferenceEngine &engine, const ReplayConfig &config)
{
    DLIS_CHECK(config.ratePerSec > 0.0,
               "replay needs a positive arrival rate");
    const Shape shape = engine.requestShape();

    // Pre-draw the arrival schedule so the submit loop does no RNG
    // work on the timing path.
    Rng arrivals(config.seed, /*streamId=*/0);
    std::vector<double> atSeconds(config.requests);
    double t = 0.0;
    for (size_t i = 0; i < config.requests; ++i) {
        // Exponential interarrival: Poisson process at ratePerSec.
        const double u = arrivals.uniform();
        t += -std::log(1.0 - u) / config.ratePerSec;
        atSeconds[i] = t;
    }

    std::vector<std::future<Tensor>> futures;
    futures.reserve(config.requests);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < config.requests; ++i) {
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(atSeconds[i]));
        std::this_thread::sleep_until(due);
        // Per-request payload stream: reproducible regardless of the
        // order replies come back in.
        Rng payload(config.seed, /*streamId=*/i + 1);
        Tensor image(shape);
        image.fillNormal(payload, 0.0f, 1.0f);
        futures.push_back(engine.submit(std::move(image)));
    }

    ReplayReport report;
    report.offered = config.requests;
    for (auto &f : futures) {
        try {
            (void)f.get();
            ++report.completed;
        } catch (const RejectedError &) {
            ++report.rejected;
        }
    }
    const auto end = std::chrono::steady_clock::now();
    report.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    if (report.wallSeconds > 0.0) {
        report.offeredRate =
            static_cast<double>(report.offered) / report.wallSeconds;
        report.completedRate =
            static_cast<double>(report.completed) / report.wallSeconds;
    }
    return report;
}

void
printReplayReport(const ReplayReport &report, const EngineStats &stats)
{
    std::printf("replay: %zu offered | %zu completed | %zu "
                "rejected\n",
                report.offered, report.completed, report.rejected);
    std::printf("  wall:       %.3f s (offered %.1f req/s, served "
                "%.1f req/s)\n",
                report.wallSeconds, report.offeredRate,
                report.completedRate);
    std::printf("  latency:    p50 %.2f ms  p90 %.2f ms  p99 %.2f ms "
                "(enqueue-to-reply)\n",
                stats.latency.p50 * 1e3, stats.latency.p90 * 1e3,
                stats.latency.p99 * 1e3);
    std::printf("  batches:   ");
    bool any = false;
    for (size_t i = 0; i < stats.batchHistogram.size(); ++i) {
        if (stats.batchHistogram[i] == 0)
            continue;
        std::printf(" %zux%llu", i,
                    static_cast<unsigned long long>(
                        stats.batchHistogram[i]));
        any = true;
    }
    std::printf("%s\n", any ? "" : " (none)");
}

} // namespace dlis::serve
