#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "backend/simd/isa.hpp"
#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
}

bool
withinTolerance(const dlis::Tensor &out, const dlis::Tensor &ref)
{
    if (out.shape() != ref.shape())
        return false;
    for (size_t i = 0; i < ref.numel(); ++i) {
        const float a = out[i];
        const float b = ref[i];
        const float scale =
            std::max(1.0f, std::max(std::fabs(a), std::fabs(b)));
        if (!(std::fabs(a - b) <= 1e-4f * scale))
            return false;
    }
    return true;
}

bool
bitIdentical(const dlis::Tensor &a, const dlis::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

dlis::Tensor
row(const dlis::Tensor &batch, size_t r)
{
    std::vector<size_t> dims = batch.shape().dims();
    const size_t n = batch.numel() / dims[0];
    dims[0] = 1;
    dlis::Tensor out{dlis::Shape(dims)};
    std::memcpy(out.data(), batch.data() + r * n, n * sizeof(float));
    return out;
}

std::vector<double>
poissonSchedule(uint64_t seed, double ratePerSec, double duration)
{
    uint64_t state = seed;
    auto next = [&state] {
        uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    std::vector<double> out;
    double t = 0.0;
    for (;;) {
        const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / ratePerSec;
        if (t >= duration)
            return out;
        out.push_back(t);
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

/** First "<key> : value" line of /proc/cpuinfo, or "unknown". */
std::string
cpuinfoField(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

std::string
fingerprintJson(int ompThreads)
{
    char host[256] = {};
    gethostname(host, sizeof(host) - 1);
    const long mhz =
        std::lround(std::atof(cpuinfoField("cpu MHz").c_str()));
#ifdef DLIS_HAVE_OPENMP
    const bool openmp = true;
#else
    const bool openmp = false;
#endif
    std::ostringstream os;
    os << "{\"host_name\": \"" << dlis::obs::jsonEscape(host)
       << "\", \"num_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"mhz_per_cpu\": " << mhz << ", \"simd_isa\": \""
       << dlis::simd::isaName(dlis::simd::activeIsa())
       << "\", \"cpu_model\": \""
       << dlis::obs::jsonEscape(cpuinfoField("model name"))
       << "\", \"build_type\": \"" << DLIS_PERFBENCH_BUILD_TYPE
       << "\", \"openmp\": " << (openmp ? "true" : "false")
       << ", \"omp_threads\": " << ompThreads << "}";
    return os.str();
}

bool
selfTest(std::vector<std::string> &log)
{
    bool ok = true;
    auto expect = [&](bool cond, const std::string &what) {
        log.push_back(std::string(cond ? "ok   " : "FAIL ") + what);
        ok &= cond;
    };

    // Poisson schedule: a pure function of the seed, at the mean rate.
    const auto a = poissonSchedule(7, 400.0, 200.0);
    const auto b = poissonSchedule(7, 400.0, 200.0);
    const auto c = poissonSchedule(8, 400.0, 200.0);
    expect(a == b, "poisson: same seed gives the same schedule");
    expect(a != c, "poisson: another seed gives another schedule");
    expect(std::is_sorted(a.begin(), a.end()) && !a.empty() &&
               a.back() < 200.0,
           "poisson: arrivals ascend inside the duration");
    const double rate = static_cast<double>(a.size()) / 200.0;
    expect(std::fabs(rate / 400.0 - 1.0) < 0.02,
           "poisson: mean rate " + std::to_string(rate) +
               " within 2% of 400/s");
    double sum = 0.0;
    double sumSq = 0.0;
    for (size_t i = 1; i < a.size(); ++i) {
        const double gap = a[i] - a[i - 1];
        sum += gap;
        sumSq += gap * gap;
    }
    const double n = static_cast<double>(a.size() - 1);
    const double mean = sum / n;
    const double cv = std::sqrt(sumSq / n - mean * mean) / mean;
    expect(std::fabs(cv - 1.0) < 0.05,
           "poisson: gap coefficient of variation " +
               std::to_string(cv) + " within 5% of 1");

    // Output checks: a corrupted element must count as a failure.
    dlis::Tensor ref{dlis::Shape({1, 10})};
    for (size_t i = 0; i < ref.numel(); ++i)
        ref[i] = 0.5f * static_cast<float>(i) - 2.0f;
    expect(corruptionDetected(ref, ref, withinTolerance),
           "check: corrupted element fails the tolerance check");
    expect(corruptionDetected(ref, ref, bitIdentical),
           "check: corrupted element fails the bit-identity check");
    dlis::Tensor ulp = ref;
    ulp[3] = std::nextafter(ulp[3], 1e9f);
    expect(!bitIdentical(ulp, ref) && withinTolerance(ulp, ref),
           "check: one ulp breaks bit identity, not the tolerance");

    // Metric set: names, units and counts within the contract.
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::set<std::string> e2e;
    for (const auto &[metric, unit] : endToEndMetrics()) {
        expect(std::regex_match(metric, name) && !unit.empty() &&
                   e2e.insert(metric).second,
               "metric: end-to-end " + metric + " [" + unit + "]");
    }
    std::set<std::string> layer;
    for (const WorkloadSpec &w : workloads())
        for (const auto &[metric, unit] : w.layerMetrics) {
            if (!std::regex_match(metric, name) || unit.empty())
                expect(false, "metric: bad per-layer metric " + metric);
            layer.insert(metric);
        }
    expect(e2e.size() <= 16 && layer.size() <= 128,
           "metric: " + std::to_string(e2e.size()) + " end-to-end and " +
               std::to_string(layer.size()) + " per-layer names");
    return ok;
}

} // namespace perfbench
