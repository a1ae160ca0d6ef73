/**
 * @file
 * perfbench entry point.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <chrome-trace.json>]
 *   perfbench --self-test
 *
 * Prints human-readable lines, then one JSON record as the last line:
 * workload, seed, trace, fingerprint, correct, attempted, failed and
 * metrics ({name: {value, unit}}). perfbench/run.py builds this
 * program and turns the record into the benchmark's result line.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

std::vector<MetricDecl>
numberedMs(const std::string &prefix, int lo, int hi)
{
    std::vector<MetricDecl> out;
    for (int i = lo; i <= hi; ++i)
        out.push_back({"nn." + prefix + std::to_string(i) + ".ms", "ms"});
    return out;
}

/** Per-layer metrics every workload reports, first and last. */
std::vector<MetricDecl>
withCommon(std::vector<MetricDecl> own)
{
    std::vector<MetricDecl> out = {{"stack.build_s", "s"},
                                   {"nn.first_forward_s", "s"}};
    out.insert(out.end(), own.begin(), own.end());
    const std::vector<MetricDecl> tail = {
        {"backend.gemm_calls", "count"},
        {"backend.gemm_macs", "count"},
        {"backend.im2col_bytes", "bytes"},
        {"backend.omp_regions", "count"},
        {"backend.arena_growth_bytes", "bytes"},
        {"bench.trace_overhead_pct", "%"}};
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

std::vector<MetricDecl>
vggLayers()
{
    auto out = numberedMs("conv", 1, 13);
    out.push_back({"nn.fc1.ms", "ms"});
    out.push_back({"nn.fc2.ms", "ms"});
    out.push_back({"nn.other.ms", "ms"});
    out.push_back({"nn.conv_gflops_min_over_max", "ratio"});
    return withCommon(out);
}

std::vector<MetricDecl>
mobilenetLayers()
{
    std::vector<MetricDecl> out = {{"serve.preflight_s", "s"}};
    for (const char *g : {"dw", "pw", "other"})
        for (const char *b : {"b1", "b8"})
            out.push_back({std::string("nn.") + g + "." + b + ".ms", "ms"});
    const std::vector<MetricDecl> serve = {
        {"serve.submit_us.p99", "us"},
        {"serve.queue_wait_ms.p50", "ms"},
        {"serve.queue_wait_ms.p99", "ms"},
        {"serve.forward_ms.p50", "ms"},
        {"serve.reply_us.p50", "us"},
        {"serve.batch_size.steady", "count"},
        {"serve.batch_size.saturated", "count"},
        {"serve.queue_peak", "count"},
        {"bench.gen_late_p99_ms", "ms"}};
    out.insert(out.end(), serve.begin(), serve.end());
    return withCommon(out);
}

const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/** Emitted metrics must be exactly the declared (name, unit) set. */
bool
emitsDeclared(const Result &r, const std::vector<MetricDecl> &declared,
              std::string &why)
{
    std::set<MetricDecl> want(declared.begin(), declared.end());
    std::set<MetricDecl> got;
    for (const Metric &m : r.metrics)
        if (!got.insert({m.name, m.unit}).second) {
            why = "metric emitted twice: " + m.name;
            return false;
        }
    for (const MetricDecl &d : want)
        if (!got.count(d)) {
            why = "declared metric not emitted: " + d.first;
            return false;
        }
    for (const MetricDecl &g : got)
        if (!want.count(g)) {
            why = "undeclared metric emitted: " + g.first;
            return false;
        }
    return true;
}

} // namespace

const std::vector<MetricDecl> &
endToEndMetrics()
{
    static const std::vector<MetricDecl> metrics = {
        {"setup_s", "s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"throughput_ips", "img/s"},
        {"peak_rss_mb", "MiB"}};
    return metrics;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"vgg16-im2col-b1", runVgg16Im2colB1, kOmpThreads, vggLayers()},
        {"mobilenet-serve-poisson", runMobilenetServePoisson, 1,
         mobilenetLayers()},
    };
    return all;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;

    std::vector<std::string> log;
    const bool selfOk = selfTest(log);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--self-test") == 0) {
            for (const std::string &line : log)
                std::printf("%s\n", line.c_str());
            return selfOk ? 0 : 1;
        }
    if (!selfOk) {
        for (const std::string &line : log)
            std::fprintf(stderr, "%s\n", line.c_str());
        std::fprintf(stderr, "perfbench: self-test failed\n");
        return 2;
    }

    Options opt;
    opt.workload = argValue(argc, argv, "--workload", "");
    opt.seed = std::stoull(argValue(argc, argv, "--seed", "1"));
    opt.seconds = std::stod(argValue(argc, argv, "--seconds", "10"));
    opt.trace = std::strcmp(argValue(argc, argv, "--trace", "0"), "0") != 0;
    opt.traceOut = argValue(argc, argv, "--trace-out", "");

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads())
        if (opt.workload == w.name)
            spec = &w;
    if (!spec || opt.seconds <= 0.0) {
        std::fprintf(stderr, "perfbench: usage: --workload <");
        for (const WorkloadSpec &w : workloads())
            std::fprintf(stderr, "%s%s", w.name,
                         &w == &workloads().back() ? "" : "|");
        std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1>\n");
        return 2;
    }

    Result r;
    try {
        r = spec->run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", spec->name, e.what());
        return 1;
    }
    std::string why;
    for (const Metric &m : r.metrics)
        if (!std::isfinite(m.value))
            why = "non-finite value for " + m.name;
    if (!why.empty() ||
        !emitsDeclared(r, opt.trace ? spec->layerMetrics : endToEndMetrics(),
                       why)) {
        std::fprintf(stderr, "perfbench: %s: %s\n", spec->name, why.c_str());
        return 2;
    }

    for (const std::string &line : r.notes)
        std::printf("%s: %s\n", spec->name, line.c_str());
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"fingerprint\": %s, \"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                spec->name, static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, fingerprintJson(spec->ompThreads).c_str(),
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
