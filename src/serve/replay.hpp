/**
 * @file
 * Open-loop synthetic arrival-trace replay against an InferenceEngine.
 *
 * Open-loop means the arrival process does not slow down when the
 * engine falls behind — requests fire at their scheduled times (Poisson
 * arrivals at a configured rate) regardless of outstanding work, so
 * saturation shows up honestly as queueing delay and backpressure
 * rejects instead of silently throttling the offered load (the
 * coordinated-omission trap of closed-loop load generators).
 *
 * serve_cli is its one front end; bench/serve_throughput drives the
 * engine directly.
 */

#ifndef DLIS_SERVE_REPLAY_HPP
#define DLIS_SERVE_REPLAY_HPP

#include <cstdint>

#include "serve/engine.hpp"

namespace dlis::serve {

/** Synthetic open-loop trace parameters. */
struct ReplayConfig
{
    size_t requests = 256;     //!< total arrivals to replay
    double ratePerSec = 500.0; //!< mean Poisson arrival rate
    uint64_t seed = 1;         //!< arrival times + input payloads
};

/** Outcome of one replay. */
struct ReplayReport
{
    size_t offered = 0;   //!< requests generated
    size_t completed = 0; //!< futures that yielded a result
    size_t rejected = 0;  //!< futures that threw RejectedError
    double wallSeconds = 0.0;    //!< first submit to last reply
    double offeredRate = 0.0;    //!< requests/s presented
    double completedRate = 0.0;  //!< requests/s actually served
};

/**
 * Generate @p config.requests single-image requests with exponential
 * interarrival gaps at @p config.ratePerSec, submit them to @p engine
 * at their scheduled times, wait for every future, and report.
 * Payloads are N(0,1) images drawn from per-request splitmix streams
 * of @p config.seed, so the trace is bit-reproducible.
 */
ReplayReport replayOpenLoop(InferenceEngine &engine,
                            const ReplayConfig &config);

/**
 * Print @p report as the standard replay summary block, with the
 * engine-side latency and realised batch sizes taken from @p stats
 * (the engine's telemetry histograms, at bucket resolution).
 */
void printReplayReport(const ReplayReport &report,
                       const EngineStats &stats);

} // namespace dlis::serve

#endif // DLIS_SERVE_REPLAY_HPP
