#include "stack/report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "analysis/memory_estimate.hpp"
#include "core/error.hpp"
#include "core/memory_tracker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stack/inference_stack.hpp"

namespace dlis {

namespace {

/** True when @p cell parses fully as a JSON-compatible number. */
bool
isNumericCell(const std::string &cell)
{
    if (cell.empty())
        return false;
    std::istringstream iss(cell);
    double value = 0.0;
    iss >> value;
    return iss.eof() && !iss.fail() && std::isfinite(value);
}

/** Emit @p cell as a JSON value (number when it parses as one). */
void
writeJsonCell(std::ostream &out, const std::string &cell)
{
    if (isNumericCell(cell))
        out << cell;
    else
        out << '"' << obs::jsonEscape(cell) << '"';
}

void
writeLatencyJson(std::ostream &out, const obs::LatencyStats &s)
{
    out << "{\"count\": " << s.count << ", \"mean\": " << s.mean
        << ", \"min\": " << s.min << ", \"max\": " << s.max
        << ", \"p50\": " << s.p50 << ", \"p90\": " << s.p90
        << ", \"p99\": " << s.p99 << '}';
}

} // namespace

TablePrinter::TablePrinter(std::string title)
    : title_(std::move(title))
{}

void
TablePrinter::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    DLIS_CHECK(header_.empty() || row.size() == header_.size(),
               "row has ", row.size(), " cells, header has ",
               header_.size());
    rows_.push_back(std::move(row));
}

void
TablePrinter::print() const
{
    std::vector<size_t> widths(header_.size(), 0);
    for (size_t i = 0; i < header_.size(); ++i)
        widths[i] = header_[i].size();
    for (const auto &row : rows_)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    std::cout << "\n== " << title_ << " ==\n";
    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            std::cout << (i ? "  " : "") << std::left
                      << std::setw(static_cast<int>(widths[i]))
                      << row[i];
        }
        std::cout << '\n';
    };
    print_row(header_);
    size_t total = header_.size() ? header_.size() * 2 - 2 : 0;
    for (size_t w : widths)
        total += w;
    std::cout << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
    std::cout.flush();
}

void
TablePrinter::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        // CSV mirrors are best-effort; the stdout table is canonical.
        return;
    }
    auto write_row = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i)
            out << (i ? "," : "") << row[i];
        out << '\n';
    };
    write_row(header_);
    for (const auto &row : rows_)
        write_row(row);
}

void
TablePrinter::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        // JSON mirrors are best-effort; the stdout table is canonical.
        return;
    }
    out << std::setprecision(12);
    out << "{\"title\": \"" << obs::jsonEscape(title_)
        << "\", \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
        out << (r ? ",\n  " : "\n  ") << '{';
        const auto &row = rows_[r];
        for (size_t i = 0; i < row.size() && i < header_.size(); ++i) {
            out << (i ? ", " : "") << '"'
                << obs::jsonEscape(header_[i]) << "\": ";
            writeJsonCell(out, row[i]);
        }
        out << '}';
    }
    out << "\n]}\n";
}

RunReport
collectRunReport(InferenceStack &stack, ExecContext &ctx,
                 size_t repeats, size_t batch)
{
    DLIS_CHECK(repeats > 0, "collectRunReport needs repeats > 0");
    obs::Metrics local;
    obs::Metrics *metrics = ctx.metrics ? ctx.metrics : &local;
    metrics->reset();
    obs::Metrics *saved = ctx.metrics;
    ctx.metrics = metrics;

    const auto makeInput = [&] {
        Rng rng(stack.config().seed + 99);
        Tensor input(stack.inputShape(batch));
        input.fillNormal(rng, 0.0f, 1.0f);
        return input;
    };

    // Snapshot the tracker before any input exists so the observed
    // peaks below are deltas over exactly what the static estimate
    // models: the held input plus the forward's transients, the
    // arena's growth included.
    auto &tracker = MemoryTracker::instance();
    const size_t preActivations =
        tracker.currentBytes(MemClass::Activations);
    const size_t preScratch = tracker.currentBytes(MemClass::Scratch);
    tracker.resetPeaks();

    // One untimed forward first, so thread-team start-up, cold caches
    // and the growth of ctx's own arena stay out of the timed repeats.
    // It runs under a copy of ctx with no observers, so the counters
    // and spans below are those of the repeats alone.
    {
        ExecContext warm = ctx;
        warm.tracer = nullptr;
        warm.metrics = nullptr;
        stack.model().net.forward(makeInput(), warm);
    }

    const Tensor input = makeInput();

    // Per-repeat forwards; forwardProfiled yields the per-layer wall
    // clock (top-level layers — residual blocks time as one stage).
    std::vector<double> forwardTimes;
    forwardTimes.reserve(repeats);
    std::map<std::string, std::vector<double>> layerTimes;
    std::vector<LayerTiming> timings;
    for (size_t r = 0; r < repeats; ++r) {
        obs::TraceSpan span(ctx.tracer,
                            "forward#" + std::to_string(r), "network");
        const auto t0 = std::chrono::steady_clock::now();
        Tensor out =
            stack.model().net.forwardProfiled(input, ctx, timings);
        const auto t1 = std::chrono::steady_clock::now();
        forwardTimes.push_back(
            std::chrono::duration<double>(t1 - t0).count());
        for (const auto &t : timings)
            layerTimes[t.name].push_back(t.seconds);
    }
    ctx.metrics = saved;

    const StackConfig &cfg = stack.config();
    RunReport rep;
    rep.model = cfg.modelName;
    rep.technique = techniqueName(cfg.technique);
    rep.format = weightFormatName(cfg.format);
    rep.backend = backendName(ctx.backend);
    rep.convAlgo = convAlgoName(ctx.convAlgo);
    rep.threads = ctx.policy().threads;
    rep.repeats = repeats;
    rep.batch = batch;
    rep.latency = obs::LatencyStats::from(std::move(forwardTimes));
    rep.counters = metrics->snapshot();

    auto delta = [](size_t now, size_t base) {
        return now > base ? now - base : 0;
    };
    rep.memory.collected = true;
    rep.memory.observedActivations =
        delta(tracker.peakBytes(MemClass::Activations), preActivations);
    rep.memory.observedScratch =
        delta(tracker.peakBytes(MemClass::Scratch), preScratch);
    // Price the static side of the comparison under the exact
    // configuration the forwards above ran: a context carrying
    // per-layer overrides executed a *mixed* assignment, and the
    // single-configuration estimator is wrong for it.
    const analysis::MemoryEstimate est =
        ctx.layerOverrides
            ? analysis::memoryEstimateForPlan(
                  stack.model().net, stack.inputShape(batch),
                  *ctx.layerOverrides, ctx.backend, ctx.convAlgo,
                  ctx.threads)
            : analysis::estimateForwardMemory(
                  stack.model().net, stack.inputShape(batch),
                  ctx.backend, ctx.convAlgo, ctx.threads);
    rep.memory.staticWeights = est.weights;
    rep.memory.staticSparseMeta = est.sparseMeta;
    rep.memory.staticActivations = est.activationsPeak;
    rep.memory.staticScratch = est.scratchPeak;

    for (LayerCost &cost : stack.stageCosts(batch)) {
        LayerObservation entry;
        entry.expected = std::move(cost);
        // Counters are deterministic per forward: report the
        // per-forward value so it joins LayerCost directly.
        for (const auto &[leaf, total] :
             metrics->scopeSnapshot(entry.expected.name)) {
            if (total)
                entry.observed[leaf] = total / repeats;
        }
        auto it = layerTimes.find(entry.expected.name);
        if (it != layerTimes.end())
            entry.latency = obs::LatencyStats::from(
                std::move(it->second));
        rep.layers.push_back(std::move(entry));
    }
    return rep;
}

void
printRunReport(const RunReport &report)
{
    std::ostringstream title;
    title << "expected vs actual: " << report.model << " / "
          << report.technique << " / " << report.format << " / "
          << report.backend << " x" << report.threads << " ("
          << report.repeats << " repeats)";
    TablePrinter table(title.str());
    table.setHeader({"layer", "exp macs", "obs gemm macs",
                     "exp row visits", "obs row visits",
                     "obs ternary dec", "p50 ms"});

    auto cnt = [](const LayerObservation &l, const char *key) {
        auto it = l.observed.find(key);
        return it == l.observed.end() ? std::string("-")
                                      : std::to_string(it->second);
    };
    for (const LayerObservation &l : report.layers) {
        // Only compute stages carry counters; skip pure bookkeeping
        // rows (ReLU, BatchNorm, flatten) to keep the table readable.
        if (l.expected.macs == 0 && l.observed.empty())
            continue;
        table.addRow(
            {l.expected.name, std::to_string(l.expected.macs),
             cnt(l, obs::counter_names::gemmMacs),
             l.expected.sparseRowVisits
                 ? std::to_string(l.expected.sparseRowVisits)
                 : "-",
             cnt(l, obs::counter_names::csrRowVisits),
             cnt(l, obs::counter_names::ternaryDecodes),
             l.latency.count ? fmtDouble(l.latency.p50 * 1e3, 3)
                             : "-"});
    }
    table.print();
    std::cout << "forward latency: p50 " << fmtSeconds(report.latency.p50)
              << "s  p90 " << fmtSeconds(report.latency.p90)
              << "s  p99 " << fmtSeconds(report.latency.p99)
              << "s  mean " << fmtSeconds(report.latency.mean)
              << "s over " << report.latency.count << " repeats\n";
}

bool
writeRunReportJson(const RunReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::setprecision(12);
    out << "{\n"
        << "  \"schema\": \"dlis.metrics.v1\",\n"
        << "  \"config\": {"
        << "\"model\": \"" << obs::jsonEscape(report.model)
        << "\", \"technique\": \"" << obs::jsonEscape(report.technique)
        << "\", \"format\": \"" << obs::jsonEscape(report.format)
        << "\", \"backend\": \"" << obs::jsonEscape(report.backend)
        << "\", \"conv_algo\": \"" << obs::jsonEscape(report.convAlgo)
        << "\", \"threads\": " << report.threads
        << ", \"repeats\": " << report.repeats
        << ", \"batch\": " << report.batch << "},\n"
        << "  \"latency_s\": ";
    writeLatencyJson(out, report.latency);
    if (report.memory.collected) {
        const MemoryObservation &m = report.memory;
        out << ",\n  \"memory\": {"
            << "\"static_weights\": " << m.staticWeights
            << ", \"static_sparse_meta\": " << m.staticSparseMeta
            << ", \"static_activations\": " << m.staticActivations
            << ", \"static_scratch\": " << m.staticScratch
            << ", \"observed_activations\": " << m.observedActivations
            << ", \"observed_scratch\": " << m.observedScratch << '}';
    }
    out << ",\n  \"layers\": [";
    for (size_t i = 0; i < report.layers.size(); ++i) {
        const LayerObservation &l = report.layers[i];
        const LayerCost &e = l.expected;
        out << (i ? ",\n    " : "\n    ") << "{\"name\": \""
            << obs::jsonEscape(e.name) << "\",\n"
            << "     \"expected\": {\"dense_macs\": " << e.denseMacs
            << ", \"macs\": " << e.macs
            << ", \"weight_bytes\": " << e.weightBytes
            << ", \"input_bytes\": " << e.inputBytes
            << ", \"output_bytes\": " << e.outputBytes
            << ", \"sparse_row_visits\": " << e.sparseRowVisits
            << ", \"gemm\": {\"m\": " << e.gemmM << ", \"k\": "
            << e.gemmK << ", \"n\": " << e.gemmN << ", \"images\": "
            << e.images << "}},\n"
            << "     \"observed\": {";
        size_t j = 0;
        for (const auto &[leaf, value] : l.observed)
            out << (j++ ? ", " : "") << '"' << obs::jsonEscape(leaf)
                << "\": " << value;
        out << "},\n     \"latency_s\": ";
        writeLatencyJson(out, l.latency);
        out << '}';
    }
    out << "\n  ],\n  \"counters\": {";
    size_t j = 0;
    for (const auto &[name, value] : report.counters)
        out << (j++ ? ", " : "") << "\n    \"" << obs::jsonEscape(name)
            << "\": " << value;
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
}

std::string
fmtSeconds(double seconds)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(4) << seconds;
    return oss.str();
}

std::string
fmtPercent(double fraction)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(2) << fraction * 100.0
        << '%';
    return oss.str();
}

std::string
fmtMb(size_t bytes)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(1)
        << static_cast<double>(bytes) / (1024.0 * 1024.0);
    return oss.str();
}

std::string
fmtDouble(double value, int decimals)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(decimals) << value;
    return oss.str();
}

} // namespace dlis
