#include "tune/plan.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "backend/simd/isa.hpp"
#include "obs/trace.hpp"

namespace dlis::tune {

namespace {

/** %.17g: shortest rendering that round-trips IEEE binary64. */
std::string
renderDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** 64-bit FNV-1a accumulator for the structural signature. */
struct Fnv1a
{
    uint64_t h = 1469598103934665603ULL;

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;
        }
    }

    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        bytes("\x1f", 1); // field separator
    }

    void
    u64(uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

// ---------------------------------------------------------------
// Minimal recursive-descent JSON reader. Plans are small and the
// repo takes no dependencies, so ~100 lines of parser beat a
// library. Every defect throws PlanError(PlanParse) — parsing is
// all-or-nothing, a corrupt plan is never partially applied.
// ---------------------------------------------------------------

struct JValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JValue> items;
    std::vector<std::pair<std::string, JValue>> fields;

    const JValue *
    find(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

[[noreturn]] void
parseFail(const std::string &what)
{
    throw PlanError(analysis::Check::PlanParse, what);
}

class JsonReader
{
  public:
    explicit JsonReader(const std::string &src) : src_(src) {}

    JValue
    parse()
    {
        JValue v = value();
        skipWs();
        if (pos_ != src_.size())
            parseFail("trailing bytes after the top-level value");
        return v;
    }

  private:
    const std::string &src_;
    size_t pos_ = 0;

    void
    skipWs()
    {
        while (pos_ < src_.size() &&
               std::isspace(static_cast<unsigned char>(src_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= src_.size())
            parseFail("unexpected end of plan JSON");
        return src_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            parseFail(std::string("expected '") + c + "' at byte " +
                      std::to_string(pos_));
        ++pos_;
    }

    JValue
    value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n')
            return null();
        return number();
    }

    JValue
    object()
    {
        expect('{');
        JValue v;
        v.kind = JValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JValue key = string();
            expect(':');
            v.fields.emplace_back(std::move(key.text), value());
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                parseFail("expected ',' or '}' in object");
        }
    }

    JValue
    array()
    {
        expect('[');
        JValue v;
        v.kind = JValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                parseFail("expected ',' or ']' in array");
        }
    }

    JValue
    string()
    {
        expect('"');
        JValue v;
        v.kind = JValue::Kind::String;
        while (pos_ < src_.size()) {
            const char c = src_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= src_.size())
                    break;
                const char esc = src_[pos_++];
                if (esc == '"' || esc == '\\' || esc == '/')
                    v.text.push_back(esc);
                else if (esc == 'n')
                    v.text.push_back('\n');
                else if (esc == 't')
                    v.text.push_back('\t');
                else if (esc == 'r')
                    v.text.push_back('\r');
                else if (esc == 'b')
                    v.text.push_back('\b');
                else if (esc == 'f')
                    v.text.push_back('\f');
                else if (esc == 'u')
                    v.text.push_back(asciiEscape());
                else
                    parseFail("unsupported string escape");
            } else {
                v.text.push_back(c);
            }
        }
        parseFail("unterminated string");
    }

    /** Decode the four hex digits after a JSON backslash-u escape;
     *  only ASCII code points (what obs::jsonEscape emits). */
    char
    asciiEscape()
    {
        const std::string hex = src_.substr(pos_, 4);
        if (hex.size() != 4 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            parseFail("bad \\u escape");
        pos_ += 4;
        const unsigned long code = std::stoul(hex, nullptr, 16);
        if (code >= 0x80)
            parseFail("non-ASCII \\u escape");
        return static_cast<char>(code);
    }

    JValue
    boolean()
    {
        JValue v;
        v.kind = JValue::Kind::Bool;
        if (src_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (src_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            parseFail("bad literal");
        }
        return v;
    }

    JValue
    null()
    {
        if (src_.compare(pos_, 4, "null") != 0)
            parseFail("bad literal");
        pos_ += 4;
        JValue v;
        return v;
    }

    JValue
    number()
    {
        skipWs();
        const char *start = src_.c_str() + pos_;
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start)
            parseFail("expected a number at byte " +
                      std::to_string(pos_));
        pos_ += static_cast<size_t>(end - start);
        JValue v;
        v.kind = JValue::Kind::Number;
        v.number = d;
        return v;
    }
};

// Typed field access: a plan with a missing or mistyped field is a
// parse defect, reported with the field name.

const JValue &
field(const JValue &obj, const char *key, JValue::Kind kind)
{
    const JValue *v = obj.find(key);
    if (!v)
        parseFail(std::string("missing field '") + key + "'");
    if (v->kind != kind)
        parseFail(std::string("field '") + key +
                  "' has the wrong type");
    return *v;
}

std::string
strField(const JValue &obj, const char *key)
{
    return field(obj, key, JValue::Kind::String).text;
}

double
numField(const JValue &obj, const char *key)
{
    return field(obj, key, JValue::Kind::Number).number;
}

/**
 * Optional numeric field: absent means @p fallback (fields added in
 * later schema versions parse this way, so an old plan still *parses*
 * and is then rejected by validatePlan with PlanVersion — a
 * diagnosable staleness, not a parse defect).
 */
double
optNumField(const JValue &obj, const char *key, double fallback)
{
    const JValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind != JValue::Kind::Number)
        parseFail(std::string("field '") + key +
                  "' has the wrong type");
    return v->number;
}

/** Optional byte-count field (added in v3): absent means 0. */
size_t
optByteField(const JValue &obj, const char *key)
{
    const double d = optNumField(obj, key, 0.0);
    if (d < 0 || d != std::floor(d))
        parseFail(std::string("field '") + key +
                  "' is not a non-negative integer");
    // Saturate instead of casting out of range: SIZE_MAX (an
    // "unlimited" budget) rounds up to 2^64 as a double, and casting
    // that back would be undefined. Anything at or beyond 2^64 can
    // only have been written from SIZE_MAX.
    if (d >= 18446744073709551616.0)
        return std::numeric_limits<size_t>::max();
    return static_cast<size_t>(d);
}

int
intField(const JValue &obj, const char *key)
{
    const double d = numField(obj, key);
    if (d != std::floor(d) || std::abs(d) > 1e9)
        parseFail(std::string("field '") + key +
                  "' is not a small integer");
    return static_cast<int>(d);
}

Backend
backendField(const JValue &obj, const char *key)
{
    Backend b{};
    if (!backendFromToken(strField(obj, key), b))
        parseFail(std::string("field '") + key +
                  "' names no backend");
    return b;
}

/** The per-layer override table @p plan stands for. */
std::unordered_map<std::string, LayerExecOverride>
overridesOf(const DeploymentPlan &plan)
{
    std::unordered_map<std::string, LayerExecOverride> ov;
    for (const LayerPlan &lp : plan.layers)
        ov[lp.layer] = LayerExecOverride{lp.backend, lp.algo, lp.threads};
    return ov;
}

void
renderLayer(std::ostringstream &oss, const LayerPlan &lp)
{
    oss << "    {\"layer\": \"" << obs::jsonEscape(lp.layer)
        << "\", \"backend\": \"" << backendToken(lp.backend)
        << "\", \"algo\": \"" << algoToken(lp.algo)
        << "\", \"threads\": " << lp.threads
        << ", \"measured_s\": " << renderDouble(lp.measuredSeconds)
        << ", \"max_abs_dev\": " << renderDouble(lp.maxAbsDev)
        << "}";
}

} // namespace

PlanError::PlanError(analysis::Check code, const std::string &detail)
    : std::runtime_error(std::string("deployment plan rejected [") +
                         analysis::checkName(code) + "]: " + detail),
      code_(code)
{
}

std::string
hostFingerprint()
{
    char host[256] = "unknown-host";
    if (gethostname(host, sizeof(host)) != 0)
        std::snprintf(host, sizeof(host), "unknown-host");
    host[sizeof(host) - 1] = '\0';
    std::ostringstream oss;
    oss << host << "/cpu" << std::thread::hardware_concurrency()
        << "/" << simd::isaName(simd::activeIsa());
    return oss.str();
}

std::string
networkSignature(const Network &net, const Shape &input)
{
    Fnv1a fnv;
    fnv.str(input.str());
    fnv.u64(net.size());
    Shape cur = input;
    for (const auto &layer : net.layers()) {
        fnv.str(layer->name());
        const LayerCost c = layer->cost(cur);
        fnv.u64(c.denseMacs);
        fnv.u64(c.macs);
        fnv.u64(c.weightBytes);
        fnv.u64(c.params);
        fnv.u64(c.sparseRowVisits);
        fnv.u64(c.sparseTraversal ? 1 : 0);
        fnv.u64(c.packedTernary ? 1 : 0);
        fnv.u64(c.gemmM);
        fnv.u64(c.gemmK);
        fnv.u64(c.gemmN);
        cur = layer->outputShape(cur);
        fnv.str(cur.str());
    }
    return fnv.hex();
}

size_t
planPeakBytes(const DeploymentPlan &plan, const Network &net,
              const Shape &input)
{
    return analysis::memoryEstimateForPlan(net, input, overridesOf(plan),
                                           plan.defaultBackend,
                                           ConvAlgo::Direct,
                                           plan.defaultThreads)
        .total();
}

std::string
planToJson(const DeploymentPlan &plan)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"plan_version\": " << plan.version << ",\n";
    oss << "  \"model\": \"" << obs::jsonEscape(plan.model) << "\",\n";
    oss << "  \"network_signature\": \""
        << obs::jsonEscape(plan.networkSignature) << "\",\n";
    oss << "  \"host_fingerprint\": \""
        << obs::jsonEscape(plan.hostFingerprint) << "\",\n";
    oss << "  \"seed\": " << plan.seed << ",\n";
    oss << "  \"default_backend\": \""
        << backendToken(plan.defaultBackend) << "\",\n";
    oss << "  \"default_threads\": " << plan.defaultThreads << ",\n";
    oss << "  \"tuned_p50_s\": " << renderDouble(plan.tunedP50)
        << ",\n";
    oss << "  \"best_global_p50_s\": "
        << renderDouble(plan.bestGlobalP50) << ",\n";
    oss << "  \"best_global_config\": \""
        << obs::jsonEscape(plan.bestGlobalConfig) << "\",\n";
    oss << "  \"error_budget\": " << renderDouble(plan.errorBudget)
        << ",\n";
    oss << "  \"max_abs_dev\": " << renderDouble(plan.maxAbsDev)
        << ",\n";
    oss << "  \"mem_budget\": " << plan.memBudget << ",\n";
    oss << "  \"peak_bytes_bound\": " << plan.peakBytesBound
        << ",\n";
    if (plan.layers.empty()) {
        oss << "  \"layers\": []\n";
    } else {
        oss << "  \"layers\": [\n";
        for (size_t i = 0; i < plan.layers.size(); ++i) {
            renderLayer(oss, plan.layers[i]);
            oss << (i + 1 < plan.layers.size() ? ",\n" : "\n");
        }
        oss << "  ]\n";
    }
    oss << "}\n";
    return oss.str();
}

DeploymentPlan
planFromJson(const std::string &json)
{
    const JValue root = JsonReader(json).parse();
    if (root.kind != JValue::Kind::Object)
        parseFail("top-level value is not an object");

    DeploymentPlan plan;
    plan.version = intField(root, "plan_version");
    plan.model = strField(root, "model");
    plan.networkSignature = strField(root, "network_signature");
    plan.hostFingerprint = strField(root, "host_fingerprint");
    const double seed = numField(root, "seed");
    if (seed < 0 || seed != std::floor(seed))
        parseFail("field 'seed' is not a non-negative integer");
    plan.seed = static_cast<uint64_t>(seed);
    plan.defaultBackend = backendField(root, "default_backend");
    plan.defaultThreads = intField(root, "default_threads");
    plan.tunedP50 = numField(root, "tuned_p50_s");
    plan.bestGlobalP50 = numField(root, "best_global_p50_s");
    plan.bestGlobalConfig = strField(root, "best_global_config");
    plan.errorBudget = optNumField(root, "error_budget", 0.0);
    plan.maxAbsDev = optNumField(root, "max_abs_dev", 0.0);
    plan.memBudget = optByteField(root, "mem_budget");
    plan.peakBytesBound = optByteField(root, "peak_bytes_bound");

    const JValue &layers = field(root, "layers", JValue::Kind::Array);
    plan.layers.reserve(layers.items.size());
    for (const JValue &item : layers.items) {
        if (item.kind != JValue::Kind::Object)
            parseFail("layer entry is not an object");
        LayerPlan lp;
        lp.layer = strField(item, "layer");
        lp.backend = backendField(item, "backend");
        if (!algoFromToken(strField(item, "algo"), lp.algo))
            parseFail("field 'algo' names no algorithm");
        lp.threads = intField(item, "threads");
        lp.measuredSeconds = numField(item, "measured_s");
        lp.maxAbsDev = optNumField(item, "max_abs_dev", 0.0);
        plan.layers.push_back(std::move(lp));
    }
    return plan;
}

DeploymentPlan
loadPlanFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        parseFail("cannot read plan file " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return planFromJson(buf.str());
}

void
savePlanFile(const DeploymentPlan &plan, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw PlanError(analysis::Check::BadConfig,
                        "cannot write plan file " + path);
    out << planToJson(plan);
    out.flush();
    if (!out)
        throw PlanError(analysis::Check::BadConfig,
                        "short write to plan file " + path);
}

std::string
planCacheFile(const std::string &dir, const std::string &model,
              const std::string &hostFp, const std::string &signature)
{
    Fnv1a fnv;
    fnv.str(hostFp);
    fnv.str(signature);
    return dir + "/" + model + "-" + fnv.hex() + ".plan.json";
}

std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input, const std::string &hostFp)
{
    using analysis::Check;
    using analysis::Severity;
    std::vector<analysis::Diagnostic> out;

    if (plan.version != kPlanVersion)
        analysis::diag(out, Severity::Error, Check::PlanVersion, "",
                       "plan_version " +
                           std::to_string(plan.version) +
                           " is not the supported version " +
                           std::to_string(kPlanVersion) +
                           "; re-run --tune");
    if (plan.hostFingerprint != hostFp)
        analysis::diag(out, Severity::Error, Check::PlanHostMismatch,
                       "",
                       "plan was tuned on '" + plan.hostFingerprint +
                           "' but this host is '" + hostFp +
                           "'; measured choices do not transfer");
    const std::string sig = networkSignature(net, input);
    if (plan.networkSignature != sig)
        analysis::diag(out, Severity::Error,
                       Check::PlanNetworkMismatch, "",
                       "plan signature " + plan.networkSignature +
                           " does not match this network (" + sig +
                           "); model, width, format or input differ");
    if (plan.defaultThreads < 1) {
        analysis::diag(out, Severity::Error, Check::BadConfig, "",
                       "default_threads must be >= 1");
    } else {
        // The signature hashes structure, never values, so a plan
        // tuned for a clean model also matches its NaN-weight twin:
        // the network itself must still pass the verifier.
        analysis::VerifyOptions vopts;
        vopts.input = input;
        vopts.backend = plan.defaultBackend;
        vopts.threads = plan.defaultThreads;
        vopts.estimateMemory = false;
        analysis::VerifyReport report = analysis::verifyNetwork(net, vopts);
        for (analysis::Diagnostic &d : report.diagnostics)
            if (d.severity == Severity::Error)
                out.push_back(std::move(d));
    }

    std::unordered_map<std::string, const Layer *> byName;
    for (const auto &layer : net.layers())
        byName.emplace(layer->name(), layer.get());

    std::unordered_map<std::string, int> seen;
    for (const LayerPlan &lp : plan.layers) {
        if (++seen[lp.layer] > 1) {
            analysis::diag(out, Severity::Error, Check::BadConfig,
                           lp.layer,
                           "plan lists this layer more than once");
            continue;
        }
        if (lp.threads < 1) {
            analysis::diag(out, Severity::Error, Check::BadConfig,
                           lp.layer, "threads must be >= 1");
            continue;
        }
        const auto it = byName.find(lp.layer);
        if (it == byName.end()) {
            analysis::diag(out, Severity::Error,
                           Check::PlanUnknownLayer, lp.layer,
                           "network has no layer of this name");
            continue;
        }
        // Capability rules: sparse weights pin the direct kernel, so
        // an im2col entry on them runs, with a warning.
        for (analysis::Diagnostic &d :
             analysis::checkLayerExecution(*it->second, lp.algo))
            out.push_back(std::move(d));
    }

    if (plan.memBudget > 0 && plan.peakBytesBound > plan.memBudget)
        analysis::diag(out, Severity::Error, Check::BadConfig, "",
                       "recorded peak_bytes_bound " +
                           std::to_string(plan.peakBytesBound) +
                           " exceeds the plan's own mem_budget " +
                           std::to_string(plan.memBudget));

    // The serving pre-flight sizes replicas from peak_bytes_bound, so
    // every plan's bound (0 included) must match what this build's
    // estimator prices the plan's assignment at. Only checked once no
    // error has fired (same network, same schema) — on a foreign plan
    // the recompute would just echo the mismatch diagnostics above.
    const bool clean = std::none_of(
        out.begin(), out.end(), [](const analysis::Diagnostic &d) {
            return d.severity == Severity::Error;
        });
    if (clean) {
        const size_t bound = planPeakBytes(plan, net, input);
        if (bound != plan.peakBytesBound)
            analysis::diag(out, Severity::Error, Check::BadConfig, "",
                           "recorded peak_bytes_bound " +
                               std::to_string(plan.peakBytesBound) +
                               " does not match this build's static "
                               "estimate " +
                               std::to_string(bound) +
                               "; re-run --tune");
    }
    return out;
}

std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input)
{
    return validatePlan(plan, net, input, hostFingerprint());
}

PlanRuntime::PlanRuntime(const DeploymentPlan &plan)
    : defaultBackend_(plan.defaultBackend),
      defaultThreads_(plan.defaultThreads),
      overrides_(overridesOf(plan))
{
}

void
PlanRuntime::bind(ExecContext &ctx) const
{
    ctx.backend = defaultBackend_;
    ctx.threads = defaultThreads_;
    ctx.convAlgo = ConvAlgo::Direct;
    ctx.layerOverrides = &overrides_;
}

} // namespace dlis::tune
