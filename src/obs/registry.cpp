#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/error.hpp"
#include "obs/trace.hpp"

namespace dlis::obs {

namespace {

/** Shortest round-trip double rendering for exposition output. */
std::string
fmtValue(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
fmtWindow(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%gs", seconds);
    return buf;
}

/**
 * Render a label block: the instrument's own labels plus any
 * per-sample extras (le/quantile/window). Empty set renders as "".
 */
std::string
labelBlock(const MetricLabels &labels, const MetricLabels &extra = {})
{
    if (labels.empty() && extra.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto *set : {&labels, &extra}) {
        for (const auto &[k, v] : *set) {
            if (!first)
                out += ',';
            first = false;
            out += k;
            out += "=\"";
            out += promEscapeLabel(v);
            out += '"';
        }
    }
    out += '}';
    return out;
}

} // namespace

std::string
promEscapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"':  out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default:   out += c;
        }
    }
    return out;
}

std::vector<double>
defaultLatencyBounds()
{
    return {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
            0.1,    0.25,  0.5,   1.0,   2.0,  4.0,  8.0};
}

size_t
ShardedCounter::shardIndex() noexcept
{
    static std::atomic<size_t> next{0};
    thread_local size_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id % kShards;
}

void
Gauge::add(double delta) noexcept
{
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
}

void
Gauge::maxOf(double v) noexcept
{
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
    }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    DLIS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must ascend");
}

void
Histogram::record(double value) noexcept
{
    size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i])
        ++i;
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
    }
}

uint64_t
Histogram::count() const noexcept
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const noexcept
{
    return sum_.load(std::memory_order_relaxed);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> out(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

LatencyStats
Histogram::stats() const
{
    const std::vector<uint64_t> counts = bucketCounts();
    LatencyStats s;
    size_t lowest = counts.size();
    size_t highest = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        lowest = std::min(lowest, i);
        highest = i;
        s.count += counts[i];
    }
    if (s.count == 0)
        return s;
    const double top = bounds_.empty() ? 0.0 : bounds_.back();
    s.min = lowest == 0 ? 0.0 : bounds_[lowest - 1];
    s.max = highest < bounds_.size() ? bounds_[highest] : top;
    s.mean = sum() / static_cast<double>(s.count);
    s.p50 = quantileFromCounts(bounds_, counts, s.count, 0.50, s.min,
                               s.max);
    s.p90 = quantileFromCounts(bounds_, counts, s.count, 0.90, s.min,
                               s.max);
    s.p99 = quantileFromCounts(bounds_, counts, s.count, 0.99, s.min,
                               s.max);
    return s;
}

MetricsRegistry::MetricsRegistry(std::function<uint64_t()> clockNs)
    : clock_(std::move(clockNs)),
      epoch_(std::chrono::steady_clock::now())
{
}

uint64_t
MetricsRegistry::nowNs() const
{
    if (clock_)
        return clock_();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

std::string
MetricsRegistry::instrumentKey(const std::string &name,
                               const MetricLabels &labels)
{
    std::string key = name;
    for (const auto &[k, v] : labels) {
        key += '\x01';
        key += k;
        key += '\x02';
        key += v;
    }
    return key;
}

MetricsRegistry::Instrument &
MetricsRegistry::findOrCreate(Kind kind, const std::string &name,
                              const MetricLabels &labels,
                              const std::string &help)
{
    const std::string key = instrumentKey(name, labels);
    auto it = instruments_.find(key);
    if (it != instruments_.end()) {
        DLIS_CHECK(it->second->kind == kind, "metric '", name,
                   "' re-registered as a different instrument kind");
        return *it->second;
    }
    auto inst = std::make_unique<Instrument>();
    inst->kind = kind;
    inst->name = name;
    inst->labels = labels;
    inst->help = help;
    it = instruments_.emplace(key, std::move(inst)).first;
    return *it->second;
}

ShardedCounter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help,
                         const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst = findOrCreate(Kind::Counter, name, labels, help);
    if (!inst.counter)
        inst.counter = std::make_unique<ShardedCounter>();
    return *inst.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst = findOrCreate(Kind::Gauge, name, labels, help);
    if (!inst.gauge)
        inst.gauge = std::make_unique<Gauge>();
    return *inst.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<double> bounds,
                           const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst =
        findOrCreate(Kind::Histogram, name, labels, help);
    if (!inst.histogram)
        inst.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *inst.histogram;
}

RollingCounter &
MetricsRegistry::rollingCounter(const std::string &name,
                                const std::string &help,
                                RollingConfig config,
                                const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst =
        findOrCreate(Kind::RollingCounter, name, labels, help);
    if (!inst.rollingCounter)
        inst.rollingCounter = std::make_unique<RollingCounter>(config);
    return *inst.rollingCounter;
}

RollingHistogram &
MetricsRegistry::rollingHistogram(const std::string &name,
                                  const std::string &help,
                                  std::vector<double> bounds,
                                  RollingConfig config,
                                  const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst =
        findOrCreate(Kind::RollingHistogram, name, labels, help);
    if (!inst.rollingHistogram)
        inst.rollingHistogram = std::make_unique<RollingHistogram>(
            std::move(bounds), config);
    return *inst.rollingHistogram;
}

void
MetricsRegistry::derivedGauge(const std::string &name,
                              const std::string &help,
                              const MetricLabels &labels,
                              std::function<double()> eval)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &inst =
        findOrCreate(Kind::DerivedGauge, name, labels, help);
    inst.eval = std::move(eval);
}

std::string
MetricsRegistry::renderPrometheus() const
{
    const uint64_t now = nowNs();
    std::ostringstream out;
    std::lock_guard<std::mutex> lock(mutex_);
    std::string lastFamily;
    for (const auto &[key, instPtr] : instruments_) {
        const Instrument &inst = *instPtr;
        if (inst.name != lastFamily) {
            lastFamily = inst.name;
            if (!inst.help.empty())
                out << "# HELP " << inst.name << ' ' << inst.help
                    << '\n';
            const char *type = "untyped";
            switch (inst.kind) {
              case Kind::Counter: type = "counter"; break;
              case Kind::Gauge:
              case Kind::DerivedGauge:
              case Kind::RollingCounter: type = "gauge"; break;
              case Kind::Histogram: type = "histogram"; break;
              case Kind::RollingHistogram: type = "summary"; break;
            }
            out << "# TYPE " << inst.name << ' ' << type << '\n';
        }
        switch (inst.kind) {
          case Kind::Counter:
            out << inst.name << labelBlock(inst.labels) << ' '
                << inst.counter->value() << '\n';
            break;
          case Kind::Gauge:
            out << inst.name << labelBlock(inst.labels) << ' '
                << fmtValue(inst.gauge->value()) << '\n';
            break;
          case Kind::DerivedGauge:
            out << inst.name << labelBlock(inst.labels) << ' '
                << fmtValue(inst.eval ? inst.eval() : 0.0) << '\n';
            break;
          case Kind::RollingCounter: {
            const RollingCounter &rc = *inst.rollingCounter;
            out << inst.name
                << labelBlock(
                       inst.labels,
                       {{"window",
                         fmtWindow(rc.config().windowSeconds())}})
                << ' ' << rc.sum(now) << '\n';
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = *inst.histogram;
            const auto counts = h.bucketCounts();
            uint64_t cumulative = 0;
            for (size_t i = 0; i < counts.size(); ++i) {
                cumulative += counts[i];
                const std::string le =
                    i < h.bounds().size() ? fmtValue(h.bounds()[i])
                                          : "+Inf";
                out << inst.name << "_bucket"
                    << labelBlock(inst.labels, {{"le", le}}) << ' '
                    << cumulative << '\n';
            }
            out << inst.name << "_sum" << labelBlock(inst.labels)
                << ' ' << fmtValue(h.sum()) << '\n';
            out << inst.name << "_count" << labelBlock(inst.labels)
                << ' ' << h.count() << '\n';
            break;
          }
          case Kind::RollingHistogram: {
            const RollingHistogram &rh = *inst.rollingHistogram;
            const WindowStats s = rh.stats(now);
            const MetricLabels window{
                {"window", fmtWindow(s.windowSeconds)}};
            const std::pair<const char *, double> quantiles[] = {
                {"0.5", s.p50}, {"0.9", s.p90}, {"0.99", s.p99}};
            for (const auto &[q, v] : quantiles) {
                MetricLabels extra = window;
                extra.emplace_back("quantile", q);
                out << inst.name << labelBlock(inst.labels, extra)
                    << ' ' << fmtValue(v) << '\n';
            }
            out << inst.name << "_sum"
                << labelBlock(inst.labels, window) << ' '
                << fmtValue(s.sum) << '\n';
            out << inst.name << "_count"
                << labelBlock(inst.labels, window) << ' ' << s.count
                << '\n';
            break;
          }
        }
    }
    return out.str();
}

std::string
MetricsRegistry::renderStatusJson() const
{
    const uint64_t now = nowNs();
    std::ostringstream out;
    out.precision(12);
    out << "{\n  \"schema\": \"dlis.telemetry.v1\",\n  \"now_ns\": "
        << now << ",\n  \"metrics\": {";
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto &[key, instPtr] : instruments_) {
        const Instrument &inst = *instPtr;
        std::string sampleName = inst.name;
        for (const auto &[k, v] : inst.labels)
            sampleName += "," + k + "=" + v;
        out << (first ? "\n    " : ",\n    ") << '"'
            << jsonEscape(sampleName) << "\": ";
        first = false;
        switch (inst.kind) {
          case Kind::Counter:
            out << "{\"kind\": \"counter\", \"value\": "
                << inst.counter->value() << '}';
            break;
          case Kind::Gauge:
            out << "{\"kind\": \"gauge\", \"value\": "
                << inst.gauge->value() << '}';
            break;
          case Kind::DerivedGauge:
            out << "{\"kind\": \"gauge\", \"value\": "
                << (inst.eval ? inst.eval() : 0.0) << '}';
            break;
          case Kind::RollingCounter:
            out << "{\"kind\": \"window_counter\", \"window_s\": "
                << inst.rollingCounter->config().windowSeconds()
                << ", \"value\": " << inst.rollingCounter->sum(now)
                << '}';
            break;
          case Kind::Histogram:
            out << "{\"kind\": \"histogram\", \"count\": "
                << inst.histogram->count()
                << ", \"sum\": " << inst.histogram->sum() << '}';
            break;
          case Kind::RollingHistogram: {
            const WindowStats s = inst.rollingHistogram->stats(now);
            out << "{\"kind\": \"window_histogram\", \"window_s\": "
                << s.windowSeconds << ", \"count\": " << s.count
                << ", \"sum\": " << s.sum << ", \"min\": " << s.min
                << ", \"max\": " << s.max << ", \"p50\": " << s.p50
                << ", \"p90\": " << s.p90 << ", \"p99\": " << s.p99
                << '}';
            break;
          }
        }
    }
    out << "\n  }\n}\n";
    return out.str();
}

} // namespace dlis::obs
