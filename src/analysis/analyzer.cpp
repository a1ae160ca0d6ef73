#include "analysis/analyzer.hpp"

#include <cstdio>
#include <sstream>

#include "obs/trace.hpp"

namespace dlis::analysis {

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numShort(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

} // namespace

bool
AnalysisReport::ok() const
{
    return count(Severity::Error) == 0;
}

size_t
AnalysisReport::count(Severity severity) const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == severity)
            ++n;
    return n;
}

bool
AnalysisReport::has(Check c) const
{
    for (const Diagnostic &d : diagnostics)
        if (d.check == c)
            return true;
    return false;
}

std::string
AnalysisReport::str() const
{
    std::ostringstream oss;
    oss << "numerical-safety analysis (input "
        << options.input.str() << " in "
        << options.inputRange.str() << ", "
        << backendName(options.backend) << "/"
        << convAlgoName(options.convAlgo) << ")\n";

    char line[256];
    std::snprintf(line, sizeof(line), "  %-24s %-22s %10s %12s %12s %12s\n",
                  "layer", "range", "amp", "d(direct)", "d(im2col)",
                  "d(winograd)");
    oss << line;
    for (size_t i = 0; i < model.units.size(); ++i) {
        const UnitAnalysis &ua = model.units[i];
        std::snprintf(line, sizeof(line),
                      "  %-24s %-22s %10s %12s %12s %12s\n",
                      ua.name.c_str(), ua.out.overall().str().c_str(),
                      numShort(ua.amplification).c_str(),
                      numShort(ua.deltaDirect).c_str(),
                      numShort(ua.deltaIm2col).c_str(),
                      numShort(ua.deltaWinograd).c_str());
        oss << line;
    }
    if (!model.complete)
        oss << "  (walk stopped early; later layers unbounded)\n";
    else if (!model.units.empty())
        oss << "  end-to-end bound: direct "
            << numShort(model.endToEnd(ConvAlgo::Direct))
            << " | im2col "
            << numShort(model.endToEnd(ConvAlgo::Im2colGemm))
            << " | winograd "
            << numShort(model.endToEnd(ConvAlgo::Winograd)) << "\n";
    if (options.errorBudget > 0.0)
        oss << "  error budget " << numShort(options.errorBudget)
            << ": bound " << numShort(e2eBound) << " — "
            << (e2eBound <= options.errorBudget ? "within budget"
                                                : "EXCEEDED")
            << "\n";

    for (const Diagnostic &d : diagnostics)
        oss << "  " << d.str() << "\n";
    oss << (ok() ? "analysis passed" : "analysis FAILED") << " ("
        << count(Severity::Error) << " errors, "
        << count(Severity::Warning) << " warnings, "
        << count(Severity::Info) << " notes)";
    return oss.str();
}

std::string
AnalysisReport::json() const
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"input\": \"" << obs::jsonEscape(options.input.str())
        << "\",\n";
    oss << "  \"input_range\": [" << num(options.inputRange.lo)
        << ", " << num(options.inputRange.hi) << "],\n";
    oss << "  \"backend\": \"" << backendName(options.backend)
        << "\",\n";
    oss << "  \"algo\": \"" << convAlgoName(options.convAlgo)
        << "\",\n";
    oss << "  \"error_budget\": " << num(options.errorBudget)
        << ",\n";
    oss << "  \"complete\": "
        << (model.complete ? "true" : "false") << ",\n";
    if (model.complete) {
        oss << "  \"e2e_bound\": {\"direct\": "
            << num(model.endToEnd(ConvAlgo::Direct))
            << ", \"im2col\": "
            << num(model.endToEnd(ConvAlgo::Im2colGemm))
            << ", \"winograd\": "
            << num(model.endToEnd(ConvAlgo::Winograd)) << "},\n";
        oss << "  \"e2e_bound_chosen\": " << num(e2eBound) << ",\n";
    }
    oss << "  \"layers\": [\n";
    for (size_t i = 0; i < model.units.size(); ++i) {
        const UnitAnalysis &ua = model.units[i];
        const Interval range = ua.out.overall();
        oss << "    {\"layer\": \"" << obs::jsonEscape(ua.name)
            << "\", \"range_lo\": " << num(range.lo)
            << ", \"range_hi\": " << num(range.hi)
            << ", \"amplification\": " << num(ua.amplification)
            << ", \"delta_direct\": " << num(ua.deltaDirect)
            << ", \"delta_im2col\": " << num(ua.deltaIm2col)
            << ", \"delta_winograd\": " << num(ua.deltaWinograd)
            << ", \"quant_residual\": " << num(ua.quantResidual)
            << ", \"bn_fold_delta\": " << num(ua.bnFoldDelta) << "}"
            << (i + 1 < model.units.size() ? "," : "") << "\n";
    }
    oss << "  ],\n";
    oss << "  \"diagnostics\": [\n";
    for (size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &d = diagnostics[i];
        oss << "    {\"severity\": \"" << severityName(d.severity)
            << "\", \"check\": \"" << checkName(d.check)
            << "\", \"layer\": \"" << obs::jsonEscape(d.layer)
            << "\", \"message\": \"" << obs::jsonEscape(d.message) << "\"}"
            << (i + 1 < diagnostics.size() ? "," : "") << "\n";
    }
    oss << "  ]\n";
    oss << "}\n";
    return oss.str();
}

AnalysisReport
analyzeNetwork(const Network &net, const AnalyzeOptions &options)
{
    AnalysisReport report;
    report.options = options;

    VerifyOptions vopt;
    vopt.input = options.input;
    vopt.backend = options.backend;
    vopt.convAlgo = options.convAlgo;
    vopt.threads = options.threads;
    vopt.estimateMemory = false;
    VerifyReport vr = verifyNetwork(net, vopt);
    report.diagnostics = std::move(vr.diagnostics);

    report.model =
        buildErrorModel(net, options.input, options.inputRange);
    for (const Diagnostic &d : report.model.diagnostics)
        report.diagnostics.push_back(d);

    if (report.model.complete) {
        const ConvAlgo eff = NetworkErrorModel::effectiveAlgo(
            options.backend, options.convAlgo);
        report.e2eBound = report.model.endToEnd(eff);
        if (options.errorBudget > 0.0 &&
            report.e2eBound > options.errorBudget)
            diag(report.diagnostics, Severity::Warning,
                 Check::ErrorBudgetExceeded, "",
                 "end-to-end error bound " + num(report.e2eBound) +
                     " exceeds the budget " +
                     num(options.errorBudget) + " under " +
                     backendName(options.backend) + "/" +
                     convAlgoName(options.convAlgo));
    }
    return report;
}

} // namespace dlis::analysis
