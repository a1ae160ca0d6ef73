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
    std::snprintf(line, sizeof(line), "  %-24s %s\n", "layer", "range");
    oss << line;
    for (const UnitAnalysis &ua : ranges.units) {
        std::snprintf(line, sizeof(line), "  %-24s %s\n", ua.name.c_str(),
                      ua.out.overall().str().c_str());
        oss << line;
    }
    if (!ranges.complete)
        oss << "  (walk stopped early; later layers unbounded)\n";

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
    oss << "  \"complete\": "
        << (ranges.complete ? "true" : "false") << ",\n";
    oss << "  \"layers\": [\n";
    for (size_t i = 0; i < ranges.units.size(); ++i) {
        const UnitAnalysis &ua = ranges.units[i];
        const Interval range = ua.out.overall();
        oss << "    {\"layer\": \"" << obs::jsonEscape(ua.name)
            << "\", \"range_lo\": " << num(range.lo)
            << ", \"range_hi\": " << num(range.hi) << "}"
            << (i + 1 < ranges.units.size() ? "," : "") << "\n";
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

    report.ranges =
        propagateRanges(net, options.input, options.inputRange);
    for (const Diagnostic &d : report.ranges.diagnostics)
        report.diagnostics.push_back(d);
    return report;
}

} // namespace dlis::analysis
