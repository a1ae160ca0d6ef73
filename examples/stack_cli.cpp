/**
 * @file
 * stack_cli — assemble and measure any point of the Deep Learning
 * Inference Stack from the command line.
 *
 * Usage:
 *   stack_cli [--model vgg16|resnet18|mobilenet]
 *             [--technique plain|wp|cp|ttq]
 *             [--rate <fraction>]        sparsity / compression rate
 *             [--format dense|csr|packed]
 *             [--width <mult>]           width multiplier (default 0.5)
 *             [--threads <n>]            OpenMP threads of the host
 *                                        run and the CPU estimate
 *                                        (default 4)
 *             [--platform odroid|i7]     simulated device of the
 *                                        default expected-vs-actual
 *                                        report (default odroid); a
 *                                        device with a GPU model also
 *                                        prints its OpenCL and
 *                                        CLBlast estimates
 *             [--backend serial|openmp]  host backend of the timed
 *                                        run, the CPU estimate and
 *                                        the --verify target
 *                                        (default openmp)
 *             [--algo direct|im2col]
 *             [--repeat <n>]             host-timing repeats (default 1)
 *             [--verify]                 statically verify the stack
 *                                        configuration (shapes, algorithm
 *                                        capabilities, sparse formats,
 *                                        finite parameters, memory
 *                                        estimate) and exit; nonzero
 *                                        exit on any error
 *             [--error-budget <eps>]     with --tune: exclude
 *                                        candidates whose measured
 *                                        max |out - ref| against the
 *                                        serial/direct layer output
 *                                        exceeds eps
 *             [--trace <out.json>]       Chrome/Perfetto span trace
 *             [--metrics <out.json>]     expected-vs-actual report JSON
 *             [--tune]                   search a per-layer deployment
 *                                        plan (algo x CPU backend x
 *                                        threads per layer, every
 *                                        legal point measured), cache it
 *                                        under --plan-dir, and report
 *                                        it against the best single
 *                                        global configuration
 *             [--plan-dir <dir>]         plan cache directory
 *                                        (default results/plans)
 *             [--tune-reps <n>]          timed runs per tuner candidate
 *             [--mem-budget <bytes>]     with --tune: cap the plan's
 *                                        static peak working set; the
 *                                        planner trades latency for
 *                                        footprint per layer, and an
 *                                        unsatisfiable budget exits 1
 *                                        with plan-mem-infeasible
 *                                        naming the minimum feasible
 *                                        peak
 *             [--mem-report]             per-layer memory breakdown
 *                                        (direct / im2col)
 *                                        plus a budget -> latency
 *                                        Pareto sweep written as CSV
 *                                        under results/
 *             [--mem-out <file>]         mem-report CSV destination
 *             [--plan <file>]            execute a tuned plan:
 *                                        validate it against this
 *                                        host + network (nonzero exit
 *                                        and a diagnostic on any
 *                                        mismatch), check parity
 *                                        against the serial direct
 *                                        forward, report its p50
 *
 * Prints the configured stack's achieved compression, simulated
 * platform time, host-measured time, and memory footprint (the
 * tracked classes, and the process's peak RSS). Bad
 * arguments, including an option not listed above, exit 1 with a
 * message on stderr. With --repeat > 1 the host time becomes a
 * p50/p90/p99 distribution and the expected-vs-actual table is
 * printed per conv layer. Serving (the batched engine under an
 * arrival trace) is serve_cli's job.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <sys/resource.h>

#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "hw/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stack/inference_stack.hpp"
#include "stack/report.hpp"
#include "tune/mem_planner.hpp"
#include "tune/plan.hpp"
#include "tune/tuner.hpp"

#include "cli_args.hpp"

using namespace dlis;
using cli::argValue;
using cli::hasFlag;

namespace {

/**
 * Peak resident set of this process in bytes: VmHWM from
 * /proc/self/status, which execve resets; else getrusage's ru_maxrss
 * (KiB on Linux), which also counts the launcher's peak before exec.
 */
size_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024; // "... kB"
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<size_t>(ru.ru_maxrss) * 1024;
}

Backend
parseBackend(const std::string &name)
{
    Backend backend{};
    if (!backendFromToken(name, backend))
        fatal("unknown backend '", name, "'");
    return backend;
}

DeviceModel
parsePlatform(const std::string &name)
{
    if (name == "odroid")
        return odroidXu4();
    if (name == "i7")
        return intelCoreI7();
    fatal("unknown platform '", name, "'");
}

ConvAlgo
parseConvAlgo(const std::string &name)
{
    ConvAlgo algo{};
    if (!algoFromToken(name, algo))
        fatal("unknown algorithm '", name, "'");
    return algo;
}

/** --verify mode: static analysis of the configured stack, no run. */
int
runVerify(InferenceStack &stack, Backend backend,
          const std::string &algo, int threads)
{
    analysis::VerifyOptions opts;
    opts.input = stack.inputShape(1);
    opts.backend = backend;
    opts.convAlgo = parseConvAlgo(algo);
    opts.threads = threads;

    const analysis::VerifyReport report =
        analysis::verifyNetwork(stack.model().net, opts);
    std::printf("verify: %s | %s | %s | input %s\n",
                stack.config().modelName.c_str(), backendToken(backend),
                algo.c_str(), opts.input.str().c_str());
    std::printf("%s\n", report.str().c_str());
    if (report.memoryEstimated) {
        const analysis::MemoryEstimate &m = report.memory;
        std::printf("static memory estimate: total %s MB (weights %s, "
                    "csr-meta %s, activations %s, scratch %s)\n",
                    fmtMb(m.total()).c_str(), fmtMb(m.weights).c_str(),
                    fmtMb(m.sparseMeta).c_str(),
                    fmtMb(m.activationsPeak).c_str(),
                    fmtMb(m.scratchPeak).c_str());
    }
    return report.ok() ? 0 : 1;
}

/** Seconds with 3 significant digits (layer times are microseconds). */
std::string
fmtSig(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", seconds);
    return buf;
}

/** --tune mode: search, cache and report a per-layer plan. */
int
runTune(int argc, char **argv, InferenceStack &stack)
{
    tune::TuneOptions opts;
    opts.reps = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--tune-reps", "5")));
    opts.errorBudget =
        std::stod(argValue(argc, argv, "--error-budget", "0"));
    opts.memBudget = static_cast<size_t>(
        std::stoull(argValue(argc, argv, "--mem-budget", "0")));
    const std::string dir =
        argValue(argc, argv, "--plan-dir", "results/plans");

    tune::TuneOutcome outcome;
    try {
        outcome = tune::tuneOrLoadPlan(stack, opts, dir);
    } catch (const tune::PlanError &e) {
        // An infeasible --mem-budget is a diagnosable configuration
        // problem (the message names the minimum feasible peak), not
        // a crash.
        std::printf("%s\n", e.what());
        return 1;
    }
    std::printf("plan cache: %s\n", outcome.cacheHit
                                        ? "hit — search skipped"
                                        : "miss — searched");

    const tune::DeploymentPlan &plan = outcome.plan;
    TablePrinter table("per-layer deployment plan (" +
                       stack.config().modelName + ")");
    table.setHeader({"layer", "backend", "algo", "threads",
                     "measured s", "max |dev|"});
    for (const tune::LayerPlan &lp : plan.layers)
        table.addRow({lp.layer, backendToken(lp.backend),
                      algoToken(lp.algo),
                      std::to_string(lp.threads),
                      fmtSig(lp.measuredSeconds),
                      fmtSig(lp.maxAbsDev)});
    table.print();
    std::printf("measured e2e max |dev| %.6g", plan.maxAbsDev);
    if (plan.errorBudget > 0.0)
        std::printf(" | budget %.6g (%s)", plan.errorBudget,
                    plan.maxAbsDev <= plan.errorBudget ? "met"
                                                       : "EXCEEDED");
    std::printf("\n");

    std::printf("static peak footprint bound %zu bytes",
                plan.peakBytesBound);
    if (plan.memBudget > 0)
        std::printf(" | mem budget %zu bytes (%s)", plan.memBudget,
                    plan.peakBytesBound <= plan.memBudget ? "met"
                                                          : "EXCEEDED");
    std::printf("\n");

    std::printf("tuned p50 %.6f s | best global (%s) %.6f s | "
                "speedup %.2fx\n",
                plan.tunedP50, plan.bestGlobalConfig.c_str(),
                plan.bestGlobalP50,
                plan.tunedP50 > 0.0
                    ? plan.bestGlobalP50 / plan.tunedP50
                    : 0.0);
    std::printf("plan: %s\n", outcome.path.c_str());
    return 0;
}

/** --mem-report mode: per-layer byte breakdown + a Pareto sweep of
 *  peak-memory budget against achievable latency, written to
 *  results/ for the paper-style trade-off curve. */
int
runMemReport(int argc, char **argv, InferenceStack &stack)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    // Per-layer byte breakdown: what each candidate algorithm costs
    // in activation transients + scratch, at the shape the layer
    // actually sees (serial pricing; threads add per-thread C tiles).
    TablePrinter table("per-layer memory breakdown (" +
                       stack.config().modelName +
                       ", transient+scratch bytes)");
    table.setHeader({"layer", "input", "output", "direct", "im2col"});
    const analysis::MemoryEstimate direct = analysis::estimateForwardMemory(
        net, input, Backend::Serial, ConvAlgo::Direct, 1);
    const analysis::MemoryEstimate im2col = analysis::estimateForwardMemory(
        net, input, Backend::Serial, ConvAlgo::Im2colGemm, 1);
    auto cell = [](const analysis::LayerMemory &lm) {
        return std::to_string(lm.transientBytes) + "+" +
               std::to_string(lm.scratchBytes);
    };
    for (size_t i = 0; i < direct.perLayer.size(); ++i) {
        const analysis::LayerMemory &lm = direct.perLayer[i];
        table.addRow({lm.name, std::to_string(lm.inputBytes),
                      std::to_string(lm.outputBytes), cell(lm),
                      cell(im2col.perLayer[i])});
    }
    table.print();

    // One tuner pass: it measures every legal point, so the audit
    // carries the unconstrained winners plus every point the sweep
    // can retreat to.
    tune::TuneOptions opts;
    opts.reps = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--tune-reps", "3")));
    opts.measureEndToEnd = false;
    std::vector<tune::LayerSearch> audit;
    const tune::DeploymentPlan plan =
        tune::tunePlan(stack, opts, &audit);

    const tune::MemPlanOutcome probe = tune::planUnderMemBudget(
        net, input, audit, std::numeric_limits<size_t>::max());
    const size_t minPeak = probe.minFeasiblePeak;
    const size_t maxPeak = std::max(plan.peakBytesBound, minPeak);
    std::printf("min feasible peak: %zu bytes\n", minPeak);
    std::printf("unconstrained peak bound: %zu bytes\n",
                plan.peakBytesBound);

    // Pareto sweep: latency the planner can reach at each budget
    // between the two extremes (sum of the chosen layers' measured
    // medians — the same score the tuner optimises).
    const std::string outPath =
        argValue(argc, argv, "--mem-out",
                 ("results/mem_report_" + stack.config().modelName +
                  ".csv")
                     .c_str());
    const std::filesystem::path outDir =
        std::filesystem::path(outPath).parent_path();
    if (!outDir.empty())
        std::filesystem::create_directories(outDir);
    std::ofstream csv(outPath, std::ios::trunc);
    csv << "model,budget_bytes,peak_bytes_bound,latency_s\n";
    TablePrinter sweep("budget -> latency Pareto sweep");
    sweep.setHeader({"budget", "peak bound", "latency s"});
    const size_t steps = 8;
    for (size_t i = 0; i <= steps; ++i) {
        const size_t budget =
            minPeak + (maxPeak - minPeak) * i / steps;
        const tune::MemPlanOutcome mem =
            tune::planUnderMemBudget(net, input, audit, budget);
        if (!mem.feasible)
            continue;
        double latency = 0.0;
        for (size_t li = 0; li < audit.size(); ++li)
            latency += audit[li]
                           .candidates[mem.chosen[li]]
                           .measuredSeconds;
        csv << stack.config().modelName << "," << budget << ","
            << mem.peakBytesBound << "," << latency << "\n";
        sweep.addRow({fmtMb(budget) + " MB",
                      fmtMb(mem.peakBytesBound) + " MB",
                      fmtSig(latency)});
    }
    sweep.print();
    csv.flush();
    if (!csv) {
        warn("could not write mem report to ", outPath);
        return 1;
    }
    std::printf("mem report: %s\n", outPath.c_str());
    return 0;
}

/** --plan mode: validate, parity-check and time a tuned plan. */
int
runPlan(int argc, char **argv, InferenceStack &stack,
        const std::string &planPath)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);

    tune::DeploymentPlan plan;
    try {
        plan = tune::loadPlanFile(planPath);
    } catch (const tune::PlanError &e) {
        std::printf("%s\n", e.what());
        std::printf("plan rejected: %s\n", planPath.c_str());
        return 1;
    }
    bool bad = false;
    for (const analysis::Diagnostic &d :
         tune::validatePlan(plan, net, input)) {
        std::printf("%s\n", d.str().c_str());
        bad |= d.severity == analysis::Severity::Error;
    }
    if (bad) {
        std::printf("plan rejected: %s\n", planPath.c_str());
        return 1;
    }

    // Parity gate before timing anything: the plan-driven forward
    // must match the serial/direct reference within the cross-backend
    // tolerance (the plan only re-routes layers; it must not change
    // what the network computes).
    Rng rng(plan.seed ? plan.seed : 42);
    Tensor in(input);
    in.fillUniform(rng, -1.0f, 1.0f);

    tune::PlanRuntime runtime(plan);
    ExecContext planCtx;
    runtime.bind(planCtx);
    const Tensor tuned = net.forward(in, planCtx);

    ExecContext refCtx; // serial, direct, 1 thread
    const Tensor ref = net.forward(in, refCtx);

    bool parity = tuned.shape() == ref.shape();
    for (size_t i = 0; parity && i < ref.numel(); ++i) {
        const float a = tuned[i];
        const float b = ref[i];
        const float scale =
            std::max(1.0f, std::max(std::fabs(a), std::fabs(b)));
        parity = std::fabs(a - b) <= 1e-4f * scale;
    }
    std::printf("plan parity: %s\n", parity ? "ok" : "FAIL");
    if (!parity)
        return 1;

    const size_t repeats = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--repeat", "5")));
    tune::MeasureOptions mo;
    mo.warmup = 1;
    mo.reps = repeats;
    const double p50 = tune::measureMedianSeconds(
        [&] { (void)net.forward(in, planCtx); }, mo);
    std::printf("plan p50 %.6f s (%zu repeats) | tuned at %.6f s | "
                "best global (%s) %.6f s\n",
                p50, repeats, plan.tunedP50,
                plan.bestGlobalConfig.c_str(), plan.bestGlobalP50);
    return 0;
}

int
runStackCli(int argc, char **argv)
{
    cli::rejectUnknownOptions(
        argc, argv,
        {"--model", "--technique", "--rate", "--format", "--width",
         "--threads", "--platform", "--backend", "--algo", "--repeat",
         "--error-budget", "--trace", "--metrics", "--plan-dir",
         "--tune-reps", "--mem-budget", "--mem-out", "--plan"},
        {"--verify", "--tune", "--mem-report"});

    const std::string model = argValue(argc, argv, "--model", "vgg16");
    const std::string technique =
        argValue(argc, argv, "--technique", "plain");
    const double rate =
        std::stod(argValue(argc, argv, "--rate", "0.5"));
    const std::string format =
        argValue(argc, argv, "--format", "dense");
    const double width =
        std::stod(argValue(argc, argv, "--width", "0.5"));
    const int threads =
        std::stoi(argValue(argc, argv, "--threads", "4"));
    const DeviceModel device =
        parsePlatform(argValue(argc, argv, "--platform", "odroid"));
    const Backend backend =
        parseBackend(argValue(argc, argv, "--backend", "openmp"));

    StackConfig config;
    config.modelName = model;
    config.widthMult = width;
    if (technique == "plain") {
        config.technique = Technique::None;
    } else if (technique == "wp") {
        config.technique = Technique::WeightPruning;
        config.wpSparsity = rate;
    } else if (technique == "cp") {
        config.technique = Technique::ChannelPruning;
        config.cpRate = rate;
    } else if (technique == "ttq") {
        config.technique = Technique::Quantisation;
        config.ttqSparsity = rate;
        config.ttqThreshold = 0.1;
    } else {
        fatal("unknown technique '", technique, "'");
    }
    if (format == "csr")
        config.format = WeightFormat::Csr;
    else if (format == "packed")
        config.format = WeightFormat::PackedTernary;
    else if (format != "dense")
        fatal("unknown format '", format, "'");

    InferenceStack stack(config);

    if (hasFlag(argc, argv, "--verify"))
        return runVerify(stack, backend,
                         argValue(argc, argv, "--algo", "direct"),
                         threads);

    if (hasFlag(argc, argv, "--tune"))
        return runTune(argc, argv, stack);

    if (hasFlag(argc, argv, "--mem-report"))
        return runMemReport(argc, argv, stack);

    const std::string planPath = argValue(argc, argv, "--plan", "");
    if (!planPath.empty())
        return runPlan(argc, argv, stack, planPath);
    const size_t repeats = static_cast<size_t>(
        std::stoul(argValue(argc, argv, "--repeat", "1")));
    const std::string tracePath =
        argValue(argc, argv, "--trace", "");
    const std::string metricsPath =
        argValue(argc, argv, "--metrics", "");

    obs::Tracer tracer;
    obs::Metrics metrics;
    ExecContext ctx;
    ctx.backend = backend;
    ctx.threads = threads;
    // --algo selects the measured conv algorithm too, not only the
    // --verify target (im2col is how --metrics shows the arena warm).
    ctx.convAlgo =
        parseConvAlgo(argValue(argc, argv, "--algo", "direct"));
    if (!tracePath.empty())
        ctx.tracer = &tracer;
    if (!tracePath.empty() || !metricsPath.empty() || repeats > 1)
        ctx.metrics = &metrics;

    // The CPU estimate and the printed lines use the thread count the
    // host run gets.
    const int hostThreads = ctx.policy().threads;
    const CostModel cost(device);
    const auto costs = stack.stageCosts();
    const double simulated = cost.estimateCpu(costs, hostThreads).total();

    const RunReport run =
        collectRunReport(stack, ctx, repeats ? repeats : 1);
    const Footprint fp = stack.measureFootprint();

    if (!tracePath.empty()) {
        if (tracer.writeChromeTrace(tracePath))
            std::printf("trace: %zu spans -> %s (open in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        tracer.eventCount(), tracePath.c_str());
        else
            warn("could not write trace to ", tracePath);
    }
    if (!metricsPath.empty()) {
        if (writeRunReportJson(run, metricsPath))
            std::printf("metrics: %s\n", metricsPath.c_str());
        else
            warn("could not write metrics to ", metricsPath);
    }

    std::printf("stack: %s | %s | rate %.2f | %s | width %.2f\n",
                model.c_str(), techniqueName(config.technique), rate,
                weightFormatName(config.format), width);
    std::printf("  parameters:       %zu\n", stack.parameterCount());
    std::printf("  weight sparsity:  %s\n",
                fmtPercent(stack.achievedSparsity()).c_str());
    std::printf("  compression rate: %s\n",
                fmtPercent(stack.achievedCompressionRate()).c_str());
    std::printf("  MACs remaining:   %s of dense\n",
                fmtPercent(stack.macFraction()).c_str());
    std::printf("  sim %s/%s x%d:    %.4f s\n", device.name.c_str(),
                backendToken(backend), hostThreads, simulated);
    if (device.gpu) {
        std::printf("  sim %s/opencl:    %.4f s\n", device.name.c_str(),
                    cost.estimateGpuHandTuned(costs).total());
        std::printf("  sim %s/clblast:   %.4f s\n", device.name.c_str(),
                    cost.estimateGpuGemmLib(costs).total());
    }
    std::string host = std::string("host ") + backendToken(backend);
    if (backend == Backend::OpenMP)
        host += " x" + std::to_string(hostThreads);
    host += ":";
    if (run.repeats > 1)
        std::printf("  %-18sp50 %.4f s  p90 %.4f s  p99 %.4f s "
                    "(%zu repeats)\n",
                    host.c_str(), run.latency.p50, run.latency.p90,
                    run.latency.p99, run.repeats);
    else
        std::printf("  %-18s%.4f s\n", host.c_str(), run.latency.p50);
    std::printf("  memory: total %s MB (weights %s, csr-meta %s, "
                "activations %s), peak RSS %s MB\n",
                fmtMb(fp.total).c_str(), fmtMb(fp.weights).c_str(),
                fmtMb(fp.sparseMeta).c_str(),
                fmtMb(fp.activations).c_str(),
                fmtMb(peakRssBytes()).c_str());
    if (ctx.metrics)
        printRunReport(run);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runStackCli(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stack_cli: %s\n", e.what());
        return 1;
    }
}
