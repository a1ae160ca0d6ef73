/**
 * @file
 * serve_cli — run the concurrent batched-inference engine against a
 * synthetic open-loop arrival trace.
 *
 * Usage:
 *   serve_cli [--model vgg16|resnet18|mobilenet]
 *             [--width <mult>]        width multiplier (default 0.5)
 *             [--technique plain|wp|cp|ttq] [--rate-param <fraction>]
 *             [--format dense|csr|packed]
 *             [--backend serial|openmp] worker backend (default
 *                                     serial)
 *             [--threads <n>]         OpenMP threads per worker
 *                                     (default 4)
 *             [--plan <file>]         execute a tuned per-layer
 *                                     DeploymentPlan; the pre-flight
 *                                     rejects a corrupt, stale, or
 *                                     foreign plan before serving
 *             [--workers <n>]         pool size (default 2)
 *             [--node-mem-budget <b>] node RAM budget in bytes; the
 *                                     pre-flight refuses when one
 *                                     replica cannot fit
 *                                     (node-mem-exceeded) and sheds
 *                                     the pool to the replicas that
 *                                     do (0 = off)
 *             [--max-batch <n>]       coalescing limit (default 8)
 *             [--max-delay-us <n>]    batching linger (default 2000)
 *             [--queue <n>]           admission bound (default 64)
 *             [--requests <n>]        trace length (default 256)
 *             [--rate <req/s>]        Poisson arrival rate (default 500)
 *             [--seed <n>]            trace seed (default 1)
 *             [--telemetry-port <p>]  serve /metrics + /statusz on
 *                                     127.0.0.1:<p> (0 = ephemeral)
 *             [--hold]                after the replay, keep serving
 *                                     telemetry until GET /quitquitquit
 *             [--slo-p99-ms <ms>]     windowed-p99 SLO target (0 = off)
 *             [--slo-max-shed <f>]    windowed shed-ratio ceiling
 *             [--trace <path>]        write a Chrome trace of the run
 *
 * Prints offered vs served throughput, enqueue-to-reply latency
 * percentiles, the realised batch-size histogram, and the engine's
 * admission counters — the serving-layer face of the paper's
 * across-stack characterisation. With --telemetry-port, the same
 * quantities (plus the rolling windows) are scrapeable live:
 *
 *   curl http://127.0.0.1:<p>/metrics
 *
 * Bad arguments (an unknown token or option, a malformed number) exit
 * 1 with a message on stderr.
 */

#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "analysis/diagnostic.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "serve/slo_watchdog.hpp"
#include "serve/telemetry_server.hpp"
#include "stack/inference_stack.hpp"

#include "cli_args.hpp"

using namespace dlis;
using cli::argValue;
using cli::hasFlag;

namespace {

int
runServeCli(int argc, char **argv)
{
    cli::rejectUnknownOptions(
        argc, argv,
        {"--model", "--width", "--technique", "--rate-param", "--format",
         "--backend", "--threads", "--plan", "--workers",
         "--node-mem-budget", "--max-batch", "--max-delay-us", "--queue",
         "--requests", "--rate", "--seed", "--telemetry-port",
         "--slo-p99-ms", "--slo-max-shed", "--trace"},
        {"--hold"});

    StackConfig config;
    config.modelName = argValue(argc, argv, "--model", "mobilenet");
    config.widthMult =
        std::stod(argValue(argc, argv, "--width", "0.5"));

    const std::string technique =
        argValue(argc, argv, "--technique", "plain");
    const double rateParam =
        std::stod(argValue(argc, argv, "--rate-param", "0.5"));
    if (technique == "wp") {
        config.technique = Technique::WeightPruning;
        config.wpSparsity = rateParam;
    } else if (technique == "cp") {
        config.technique = Technique::ChannelPruning;
        config.cpRate = rateParam;
    } else if (technique == "ttq") {
        config.technique = Technique::Quantisation;
        config.ttqSparsity = rateParam;
        config.ttqThreshold = 0.1;
    } else if (technique != "plain") {
        fatal("unknown technique '", technique, "'");
    }

    const std::string format =
        argValue(argc, argv, "--format", "dense");
    if (format == "csr")
        config.format = WeightFormat::Csr;
    else if (format == "packed")
        config.format = WeightFormat::PackedTernary;
    else if (format != "dense")
        fatal("unknown format '", format, "'");

    serve::ServeConfig serveConfig;
    const std::string backend =
        argValue(argc, argv, "--backend", "serial");
    if (!backendFromToken(backend, serveConfig.backend))
        fatal("unknown backend '", backend, "'");
    serveConfig.threads =
        std::stoi(argValue(argc, argv, "--threads", "4"));
    serveConfig.workers = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--workers", "2")));
    serveConfig.nodeMemBudget = static_cast<size_t>(std::stoull(
        argValue(argc, argv, "--node-mem-budget", "0")));
    serveConfig.maxBatch = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--max-batch", "8")));
    serveConfig.maxDelayUs = static_cast<uint64_t>(
        std::stoull(argValue(argc, argv, "--max-delay-us", "2000")));
    serveConfig.queueCapacity = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--queue", "64")));
    serveConfig.planFile = argValue(argc, argv, "--plan", "");

    serve::ReplayConfig replay;
    replay.requests = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--requests", "256")));
    replay.ratePerSec =
        std::stod(argValue(argc, argv, "--rate", "500"));
    replay.seed = static_cast<uint64_t>(
        std::stoull(argValue(argc, argv, "--seed", "1")));

    const char *tracePath = argValue(argc, argv, "--trace", "");
    const bool hold = hasFlag(argc, argv, "--hold");
    const bool wantTelemetry =
        hasFlag(argc, argv, "--telemetry-port") || hold;
    const uint16_t telemetryPort = static_cast<uint16_t>(
        std::stoul(argValue(argc, argv, "--telemetry-port", "0")));

    serve::SloConfig slo;
    slo.p99TargetSeconds =
        std::stod(argValue(argc, argv, "--slo-p99-ms", "0")) / 1e3;
    slo.maxShedRatio =
        std::stod(argValue(argc, argv, "--slo-max-shed", "1"));
    slo.minWindowRequests = 8;
    slo.evalPeriodSeconds = 0.5;

    // A worker runs its forward under this backend and thread count;
    // print the threads it actually gets (one when serial).
    ExecContext workerCtx;
    workerCtx.backend = serveConfig.backend;
    workerCtx.threads = serveConfig.threads;
    std::printf("serve: %s width %.2f | %s | %s backend x%d | "
                "%zu workers | max-batch %zu | linger %llu us | "
                "queue %zu\n",
                config.modelName.c_str(), config.widthMult,
                techniqueName(config.technique),
                backend.c_str(), workerCtx.policy().threads,
                serveConfig.workers, serveConfig.maxBatch,
                static_cast<unsigned long long>(
                    serveConfig.maxDelayUs),
                serveConfig.queueCapacity);

    InferenceStack stack(config);
    obs::Tracer tracer;
    std::unique_ptr<serve::InferenceEngine> enginePtr;
    try {
        enginePtr = std::make_unique<serve::InferenceEngine>(
            stack, serveConfig, nullptr,
            tracePath[0] ? &tracer : nullptr);
    } catch (const serve::RejectedError &e) {
        // The pre-flight refused the configuration (typically a
        // stale, foreign, or corrupt --plan): report and exit
        // instead of serving under the wrong configuration.
        std::fprintf(stderr, "serve: rejected — %s\n", e.what());
        return 1;
    }
    serve::InferenceEngine &engine = *enginePtr;
    if (!serveConfig.planFile.empty())
        std::printf("plan: executing %s\n",
                    serveConfig.planFile.c_str());
    for (const analysis::Diagnostic &d : engine.preflightWarnings())
        std::printf("preflight: %s\n", d.str().c_str());
    if (engine.activeWorkers() != serveConfig.workers)
        std::printf("workers: %zu of %zu replicas fit the node "
                    "budget\n",
                    engine.activeWorkers(), serveConfig.workers);

    std::unique_ptr<serve::TelemetryServer> telemetry;
    if (wantTelemetry) {
        telemetry = std::make_unique<serve::TelemetryServer>(
            engine.telemetry(), telemetryPort);
        std::printf("telemetry: curl http://127.0.0.1:%u/metrics\n",
                    static_cast<unsigned>(telemetry->port()));
    }
    serve::SloWatchdog watchdog(engine, slo);
    watchdog.start();

    const serve::ReplayReport report =
        serve::replayOpenLoop(engine, replay);
    const serve::EngineStats stats = engine.stats();
    serve::printReplayReport(report, stats);
    std::printf("  engine:     %llu batches | queue peak %zu | "
                "%llu rejected | window p99 %.3f ms | shed %.1f%%\n",
                static_cast<unsigned long long>(stats.batches),
                stats.queuePeak,
                static_cast<unsigned long long>(stats.rejected),
                stats.latencyWindow.p99 * 1e3,
                stats.shedRatioWindow * 1e2);

    if (telemetry && hold) {
        std::printf("holding: GET /quitquitquit (or SIGTERM) to "
                    "exit\n");
        std::fflush(stdout);
        telemetry->waitForQuit();
    }

    watchdog.stop();
    if (telemetry)
        telemetry->stop();
    engine.shutdown();

    if (tracePath[0]) {
        if (tracer.writeChromeTrace(tracePath))
            std::printf("trace: wrote %zu spans to %s\n",
                        tracer.eventCount(), tracePath);
        else
            std::printf("trace: FAILED to write %s\n", tracePath);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runServeCli(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "serve_cli: %s\n", e.what());
        return 1;
    }
}
