/**
 * @file
 * Tests for the live serving telemetry stack (src/obs/registry,
 * src/obs/window, src/serve/telemetry_server, src/serve/slo_watchdog):
 * instrument semantics under concurrency, find-or-create identity,
 * Prometheus/JSON exposition format, the serving engine's exposition
 * golden (families, samples and keys, values stripped), deterministic
 * rolling-window expiry on an injected clock, the HTTP exporter round-trip over a
 * real socket, and — the registry's core contract — that the
 * publishing hot path performs zero heap allocations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/error.hpp"
#include "obs/registry.hpp"
#include "serve/engine.hpp"
#include "serve/slo_watchdog.hpp"
#include "serve/telemetry_server.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"

using namespace dlis;

// ---------------------------------------------------------------------
// Global allocation counter. The replacement operators forward to
// malloc/free (exactly what the defaults do), adding one relaxed
// counter bump while a test has counting switched on. Lives at global
// scope by necessity; only HotPathPublishingDoesNotAllocate reads it.
// ---------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocCount{0}; // NOLINT
std::atomic<bool> g_countAllocs{false};

void *
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1))
        ++count;
    return count;
}

/** Blocking loopback HTTP GET; returns the raw response. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
        return "";
    }
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
}

/** Body of a raw HTTP response (after the blank line). */
std::string
httpBody(const std::string &response)
{
    const size_t at = response.find("\r\n\r\n");
    return at == std::string::npos ? "" : response.substr(at + 4);
}

constexpr uint64_t kSecond = 1'000'000'000ull;

} // namespace

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

TEST(Telemetry, ShardedCounterSumsAcrossThreads)
{
    obs::ShardedCounter counter;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (int i = 0; i < kPerThread; ++i)
                counter.add(1);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter.value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, GaugeSetAddMaxSemantics)
{
    obs::Gauge gauge;
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    gauge.set(2.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
    gauge.add(1.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
    gauge.maxOf(3.0); // below current: no change
    EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
    gauge.maxOf(7.0);
    EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(Telemetry, HistogramBucketsAndMoments)
{
    obs::Histogram hist({0.1, 1.0, 10.0});
    hist.record(0.05);
    hist.record(0.5);
    hist.record(5.0);
    hist.record(50.0); // +Inf tail
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_NEAR(hist.sum(), 55.55, 1e-9);
    const std::vector<uint64_t> counts = hist.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // three bounds + +Inf tail
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
}

TEST(Telemetry, QuantileFromCountsInterpolatesWithinBuckets)
{
    // Buckets (0,1] (1,2] (2,4] (4,+Inf) holding 2, 2, 4, 0 values.
    const std::vector<double> bounds{1.0, 2.0, 4.0};
    const std::vector<uint64_t> counts{2, 2, 4, 0};
    auto q = [&](double quantile) {
        return obs::quantileFromCounts(bounds, counts, 8, quantile, 0.0,
                                       4.0);
    };
    EXPECT_DOUBLE_EQ(q(0.10), 0.5); // rank 1: half-way through (0,1]
    EXPECT_DOUBLE_EQ(q(0.25), 1.0); // rank 2: top of (0,1]
    EXPECT_DOUBLE_EQ(q(0.50), 2.0); // rank 4: top of (1,2]
    EXPECT_DOUBLE_EQ(q(0.75), 3.0); // rank 6: half-way through (2,4]
    EXPECT_DOUBLE_EQ(q(0.99), 4.0); // rank 8: top of (2,4]

    // The +Inf tail interpolates up to the caller's upper edge.
    EXPECT_DOUBLE_EQ(obs::quantileFromCounts(bounds, {0, 0, 0, 4}, 4,
                                             0.5, 4.0, 6.0),
                     5.0);
}

TEST(Telemetry, HistogramStatsAtBucketResolution)
{
    obs::Histogram hist({1.0, 2.0, 4.0});
    EXPECT_EQ(hist.stats().count, 0u);
    for (double v : {1.5, 1.5, 3.0, 3.5})
        hist.record(v);
    const obs::LatencyStats s = hist.stats();
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.375); // exact, from the running sum
    EXPECT_DOUBLE_EQ(s.min, 1.0);    // lower edge of (1,2]
    EXPECT_DOUBLE_EQ(s.max, 4.0);    // upper edge of (2,4]
    EXPECT_DOUBLE_EQ(s.p50, 2.0);    // rank 2: top of (1,2]
    EXPECT_DOUBLE_EQ(s.p90, 4.0);    // rank 4: top of (2,4]

    hist.record(100.0); // the +Inf tail reads as the last finite bound
    EXPECT_DOUBLE_EQ(hist.stats().max, 4.0);
    EXPECT_DOUBLE_EQ(hist.stats().p99, 4.0);
}

TEST(Telemetry, HistogramRejectsUnsortedBounds)
{
    EXPECT_THROW(obs::Histogram({1.0, 0.1}), FatalError);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Telemetry, RegistryFindOrCreateReturnsSameInstrument)
{
    obs::MetricsRegistry registry;
    obs::ShardedCounter &a =
        registry.counter("dup_total", "help", {{"worker", "0"}});
    obs::ShardedCounter &b =
        registry.counter("dup_total", "", {{"worker", "0"}});
    EXPECT_EQ(&a, &b);
    obs::ShardedCounter &c =
        registry.counter("dup_total", "", {{"worker", "1"}});
    EXPECT_NE(&a, &c);
    a.add(3);
    c.add(4);
    EXPECT_EQ(b.value(), 3u);
}

TEST(Telemetry, RegistryRejectsKindConflicts)
{
    obs::MetricsRegistry registry;
    registry.counter("conflict_total", "help");
    EXPECT_THROW(registry.gauge("conflict_total", "help"), FatalError);
    EXPECT_THROW(registry.histogram("conflict_total", "help", {1.0}),
                 FatalError);
}

TEST(Telemetry, PrometheusHeadersOncePerFamily)
{
    obs::MetricsRegistry registry;
    registry.counter("req_total", "Requests.", {{"kind", "a"}}).add(3);
    registry.counter("req_total", "Requests.", {{"kind", "b"}}).add(5);
    const std::string text = registry.renderPrometheus();
    EXPECT_EQ(countOccurrences(text, "# HELP req_total Requests."), 1u);
    EXPECT_EQ(countOccurrences(text, "# TYPE req_total counter"), 1u);
    EXPECT_NE(text.find("req_total{kind=\"a\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("req_total{kind=\"b\"} 5\n"),
              std::string::npos);
}

TEST(Telemetry, PrometheusHistogramIsCumulativeWithInfTail)
{
    obs::MetricsRegistry registry;
    obs::Histogram &hist =
        registry.histogram("lat_seconds", "Latency.", {0.1, 1.0});
    hist.record(0.05);
    hist.record(0.5);
    hist.record(2.0);
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# TYPE lat_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
}

TEST(Telemetry, PrometheusEscapesLabelValues)
{
    EXPECT_EQ(obs::promEscapeLabel("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
    obs::MetricsRegistry registry;
    registry.gauge("esc", "help", {{"path", "a\"b\\c\nd"}}).set(1.0);
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("esc{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
              std::string::npos);
}

TEST(Telemetry, PrometheusRollingHistogramRendersAsSummary)
{
    uint64_t now = 0;
    obs::MetricsRegistry registry([&now] { return now; });
    obs::RollingHistogram &rolling = registry.rollingHistogram(
        "win_seconds", "Windowed latency.", {0.1, 1.0},
        obs::RollingConfig{4, 1.0});
    rolling.record(0.05, registry.nowNs());
    rolling.record(0.5, registry.nowNs());
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# TYPE win_seconds summary"),
              std::string::npos);
    // Quantile samples carry both the window and the quantile label.
    EXPECT_NE(text.find("win_seconds{window=\"4s\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(
        text.find("win_seconds{window=\"4s\",quantile=\"0.99\"}"),
        std::string::npos);
    EXPECT_NE(text.find("win_seconds_count{window=\"4s\"} 2\n"),
              std::string::npos);
}

TEST(Telemetry, DerivedGaugeEvaluatesAtScrapeTime)
{
    obs::MetricsRegistry registry;
    double live = 0.25;
    registry.derivedGauge("ratio", "Live ratio.", {},
                          [&live] { return live; });
    EXPECT_NE(registry.renderPrometheus().find("ratio 0.25\n"),
              std::string::npos);
    live = 0.75;
    EXPECT_NE(registry.renderPrometheus().find("ratio 0.75\n"),
              std::string::npos);
}

TEST(Telemetry, StatusJsonParsesAndCarriesSchema)
{
    obs::MetricsRegistry registry;
    registry.counter("a_total", "help", {{"k", "v"}}).add(2);
    registry.gauge("b", "help").set(1.5);
    registry.histogram("c_seconds", "help", {0.1}).record(0.05);
    registry
        .rollingHistogram("d_seconds", "help", {0.1},
                          obs::RollingConfig{4, 1.0})
        .record(0.05, registry.nowNs());
    const std::string json = registry.renderStatusJson();
    EXPECT_TRUE(test::JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"schema\": \"dlis.telemetry.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"a_total,k=v\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"window_histogram\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Engine exposition golden: every family, sample and /statusz key the
// serving engine publishes, with values stripped. Any change to what
// /metrics or /statusz carries shows up as a diff here.
// ---------------------------------------------------------------------

namespace {

/** Mask the host-dependent ISA label value. */
std::string
maskIsa(const std::string &text)
{
    return std::regex_replace(text, std::regex("isa=(\"?)\\w+"),
                              "isa=$1<isa>");
}

/** /metrics with each sample's value dropped; headers kept whole. */
std::string
prometheusShape(const std::string &text)
{
    return maskIsa(std::regex_replace(
        text, std::regex("(^|\n)([^#\n][^\n]*) [^ \n]+"), "$1$2"));
}

/** /statusz with every value replaced by '#'. */
std::string
statusShape(const std::string &json)
{
    return maskIsa(std::regex_replace(
        json, std::regex(": -?[0-9][^,}\n]*"), ": #"));
}

const char *const kEngineMetricsShape =
    R"(# HELP dlis_serve_admitted_window Requests admitted in the trailing window
# TYPE dlis_serve_admitted_window gauge
dlis_serve_admitted_window{window="10s"}
# HELP dlis_serve_arena_bytes Scratch-arena capacity per worker context
# TYPE dlis_serve_arena_bytes gauge
dlis_serve_arena_bytes{worker="0"}
# HELP dlis_serve_batch_size Realised batch sizes
# TYPE dlis_serve_batch_size histogram
dlis_serve_batch_size_bucket{le="1"}
dlis_serve_batch_size_bucket{le="2"}
dlis_serve_batch_size_bucket{le="3"}
dlis_serve_batch_size_bucket{le="4"}
dlis_serve_batch_size_bucket{le="+Inf"}
dlis_serve_batch_size_sum
dlis_serve_batch_size_count
# HELP dlis_serve_batches_total Coalesced batch forwards executed
# TYPE dlis_serve_batches_total counter
dlis_serve_batches_total
# HELP dlis_serve_latency_seconds Enqueue-to-reply latency, completed requests (cumulative)
# TYPE dlis_serve_latency_seconds histogram
dlis_serve_latency_seconds_bucket{le="0.0005"}
dlis_serve_latency_seconds_bucket{le="0.001"}
dlis_serve_latency_seconds_bucket{le="0.002"}
dlis_serve_latency_seconds_bucket{le="0.005"}
dlis_serve_latency_seconds_bucket{le="0.01"}
dlis_serve_latency_seconds_bucket{le="0.02"}
dlis_serve_latency_seconds_bucket{le="0.05"}
dlis_serve_latency_seconds_bucket{le="0.1"}
dlis_serve_latency_seconds_bucket{le="0.25"}
dlis_serve_latency_seconds_bucket{le="0.5"}
dlis_serve_latency_seconds_bucket{le="1"}
dlis_serve_latency_seconds_bucket{le="2"}
dlis_serve_latency_seconds_bucket{le="4"}
dlis_serve_latency_seconds_bucket{le="8"}
dlis_serve_latency_seconds_bucket{le="+Inf"}
dlis_serve_latency_seconds_sum
dlis_serve_latency_seconds_count
# HELP dlis_serve_latency_window_seconds Enqueue-to-reply latency over the trailing window
# TYPE dlis_serve_latency_window_seconds summary
dlis_serve_latency_window_seconds{window="10s",quantile="0.5"}
dlis_serve_latency_window_seconds{window="10s",quantile="0.9"}
dlis_serve_latency_window_seconds{window="10s",quantile="0.99"}
dlis_serve_latency_window_seconds_sum{window="10s"}
dlis_serve_latency_window_seconds_count{window="10s"}
# HELP dlis_serve_queue_depth Requests currently queued
# TYPE dlis_serve_queue_depth gauge
dlis_serve_queue_depth
# HELP dlis_serve_queue_peak High-water queue depth
# TYPE dlis_serve_queue_peak gauge
dlis_serve_queue_peak
# HELP dlis_serve_rejected_window Requests rejected in the trailing window
# TYPE dlis_serve_rejected_window gauge
dlis_serve_rejected_window{window="10s"}
# HELP dlis_serve_requests_completed_total Requests whose future was fulfilled with a result
# TYPE dlis_serve_requests_completed_total counter
dlis_serve_requests_completed_total
# HELP dlis_serve_requests_rejected_total Requests refused at admission, by reason
# TYPE dlis_serve_requests_rejected_total counter
dlis_serve_requests_rejected_total{reason="bad-shape"}
dlis_serve_requests_rejected_total{reason="queue-full"}
dlis_serve_requests_rejected_total{reason="shut-down"}
# HELP dlis_serve_requests_submitted_total Requests admitted to the serving queue
# TYPE dlis_serve_requests_submitted_total counter
dlis_serve_requests_submitted_total
# HELP dlis_serve_shed_ratio rejected / (admitted + rejected) over the trailing window
# TYPE dlis_serve_shed_ratio gauge
dlis_serve_shed_ratio
# HELP dlis_simd_isa SIMD instruction set the kernel dispatcher selected
# TYPE dlis_simd_isa gauge
dlis_simd_isa{isa="<isa>"}
)";

const char *const kEngineStatusShape = R"({
  "schema": "dlis.telemetry.v1",
  "now_ns": #,
  "metrics": {
    "dlis_serve_admitted_window": {"kind": "window_counter", "window_s": #, "value": #},
    "dlis_serve_arena_bytes,worker=0": {"kind": "gauge", "value": #},
    "dlis_serve_batch_size": {"kind": "histogram", "count": #, "sum": #},
    "dlis_serve_batches_total": {"kind": "counter", "value": #},
    "dlis_serve_latency_seconds": {"kind": "histogram", "count": #, "sum": #},
    "dlis_serve_latency_window_seconds": {"kind": "window_histogram", "window_s": #, "count": #, "sum": #, "min": #, "max": #, "p50": #, "p90": #, "p99": #},
    "dlis_serve_queue_depth": {"kind": "gauge", "value": #},
    "dlis_serve_queue_peak": {"kind": "gauge", "value": #},
    "dlis_serve_rejected_window": {"kind": "window_counter", "window_s": #, "value": #},
    "dlis_serve_requests_completed_total": {"kind": "counter", "value": #},
    "dlis_serve_requests_rejected_total,reason=bad-shape": {"kind": "counter", "value": #},
    "dlis_serve_requests_rejected_total,reason=queue-full": {"kind": "counter", "value": #},
    "dlis_serve_requests_rejected_total,reason=shut-down": {"kind": "counter", "value": #},
    "dlis_serve_requests_submitted_total": {"kind": "counter", "value": #},
    "dlis_serve_shed_ratio": {"kind": "gauge", "value": #},
    "dlis_simd_isa,isa=<isa>": {"kind": "gauge", "value": #}
  }
}
)";

} // namespace

TEST(Telemetry, EngineExpositionMatchesGolden)
{
    uint64_t now = 0;
    obs::MetricsRegistry registry([&now] { return now; });
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);
    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    serveConfig.maxBatch = 4;
    serveConfig.maxDelayUs = 0;
    serve::InferenceEngine engine(stack, serveConfig, nullptr, nullptr,
                                  &registry);
    std::vector<std::future<Tensor>> futures;
    for (uint64_t id = 0; id < 6; ++id)
        futures.push_back(engine.submit(
            test::randomTensor(engine.requestShape(), id)));
    for (std::future<Tensor> &f : futures)
        (void)f.get();
    engine.shutdown();

    EXPECT_EQ(prometheusShape(registry.renderPrometheus()),
              kEngineMetricsShape);
    EXPECT_EQ(statusShape(registry.renderStatusJson()),
              kEngineStatusShape);
}

// ---------------------------------------------------------------------
// Rolling windows on an injected clock
// ---------------------------------------------------------------------

TEST(Telemetry, RollingCounterExpiresOldBuckets)
{
    uint64_t now = 0;
    obs::MetricsRegistry registry([&now] { return now; });
    obs::RollingCounter &events = registry.rollingCounter(
        "evt", "help", obs::RollingConfig{4, 1.0});

    events.add(10, registry.nowNs()); // bucket epoch 0
    now = 2 * kSecond;
    events.add(5, registry.nowNs()); // bucket epoch 2
    EXPECT_EQ(events.sum(registry.nowNs()), 15u);

    now = 5 * kSecond + kSecond / 2; // live epochs 2..5: epoch 0 aged out
    EXPECT_EQ(events.sum(registry.nowNs()), 5u);

    now = 20 * kSecond; // everything aged out
    EXPECT_EQ(events.sum(registry.nowNs()), 0u);
}

TEST(Telemetry, RollingHistogramWindowStatsAgeOut)
{
    uint64_t now = 0;
    obs::MetricsRegistry registry([&now] { return now; });
    obs::RollingHistogram &lat = registry.rollingHistogram(
        "lat", "help", {0.1, 1.0, 10.0}, obs::RollingConfig{4, 1.0});

    lat.record(0.05, registry.nowNs());
    lat.record(0.5, registry.nowNs());
    now = 1 * kSecond;
    lat.record(5.0, registry.nowNs());

    obs::WindowStats all = lat.stats(registry.nowNs());
    EXPECT_EQ(all.count, 3u);
    EXPECT_NEAR(all.sum, 5.55, 1e-9);
    EXPECT_DOUBLE_EQ(all.min, 0.05);
    EXPECT_DOUBLE_EQ(all.max, 5.0);
    EXPECT_GE(all.p99, all.p50);
    EXPECT_LE(all.p99, all.max);
    EXPECT_DOUBLE_EQ(all.windowSeconds, 4.0);

    now = 4 * kSecond + kSecond / 2; // live epochs 1..4: only the 5.0
    const obs::WindowStats tail = lat.stats(registry.nowNs());
    EXPECT_EQ(tail.count, 1u);
    EXPECT_DOUBLE_EQ(tail.min, 5.0);
    EXPECT_DOUBLE_EQ(tail.max, 5.0);

    now = 30 * kSecond;
    EXPECT_EQ(lat.stats(registry.nowNs()).count, 0u);
}

// ---------------------------------------------------------------------
// HTTP exporter
// ---------------------------------------------------------------------

TEST(Telemetry, HttpExporterServesMetricsStatuszHealthz)
{
    obs::MetricsRegistry registry;
    registry.counter("dlis_test_total", "A test counter.").add(7);
    serve::TelemetryServer server(registry); // ephemeral port
    ASSERT_NE(server.port(), 0);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("dlis_test_total 7\n"), std::string::npos);

    const std::string statusz = httpGet(server.port(), "/statusz");
    EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(statusz.find("application/json"), std::string::npos);
    EXPECT_TRUE(test::JsonChecker(httpBody(statusz)).valid())
        << statusz;

    EXPECT_NE(httpGet(server.port(), "/healthz").find("ok"),
              std::string::npos);
    EXPECT_NE(httpGet(server.port(), "/nope").find("404 Not Found"),
              std::string::npos);
    server.stop();
}

TEST(Telemetry, ScraperDisconnectMidResponseDoesNotKillServer)
{
    // Regression: writeAll() used to call send() without MSG_NOSIGNAL,
    // so a scraper that disconnected mid-/metrics turned the next
    // send() into SIGPIPE — whose default action kills the WHOLE
    // serving process, engine included. A rude disconnect must be an
    // EPIPE return the server shrugs off.
    obs::MetricsRegistry registry;
    // /metrics must far exceed the kernel's socket buffers (~4 MB
    // with autotuning) or the whole response fits in the send buffer
    // and the write loop never observes the disconnect. ~18 MB of
    // verbose help text guarantees the server blocks mid-write.
    const std::string essay(6 * 1024, 'h');
    for (int i = 0; i < 3000; ++i)
        registry
            .counter("dlis_flood_" + std::to_string(i) + "_total",
                     essay)
            .add(i);
    serve::TelemetryServer server(registry);
    ASSERT_NE(server.port(), 0);

    for (int round = 0; round < 3; ++round) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server.port());
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        // A tiny receive window keeps most of the response queued on
        // the server side, so the write loop is guaranteed to still
        // be running when the disconnect lands.
        const int tiny = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
        const std::string request =
            "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
        ASSERT_EQ(static_cast<ssize_t>(request.size()),
                  ::send(fd, request.data(), request.size(), 0));
        // Close without reading a byte: the server's queued response
        // then draws an RST, and every send() after that is a write
        // on a broken pipe — SIGPIPE without MSG_NOSIGNAL.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // The accept loop is single-threaded: a clean response here
    // proves the server survived every rude disconnect above.
    EXPECT_NE(httpGet(server.port(), "/healthz").find("ok"),
              std::string::npos);
    server.stop();
}

TEST(Telemetry, HttpRequestSplitAcrossPacketsStillParses)
{
    // TCP gives no message boundaries: a scraper's GET can arrive in
    // several recv() chunks. readRequest must keep reading until the
    // header terminator, not treat a short read as the whole request.
    obs::MetricsRegistry registry;
    serve::TelemetryServer server(registry);
    ASSERT_NE(server.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Three deliberately tiny writes with pauses in between, so the
    // server's first recv() observes a partial request line.
    const char *chunks[] = {"GET /hea", "lthz HTTP/1.1\r\n",
                            "Host: localhost\r\n\r\n"};
    for (const char *chunk : chunks) {
        const size_t len = std::strlen(chunk);
        size_t sent = 0;
        while (sent < len) {
            const ssize_t n = ::send(fd, chunk + sent, len - sent, 0);
            ASSERT_GT(n, 0);
            sent += static_cast<size_t>(n);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    std::string response;
    char buf[1024];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    server.stop();

    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << response;
    EXPECT_NE(httpBody(response).find("ok"), std::string::npos)
        << response;
}

TEST(Telemetry, StalledClientDoesNotBlockOtherScrapes)
{
    // A client that starts a request and never finishes it must not
    // stop /healthz answering, nor stop() returning: the server gives
    // each connection one whole-request deadline.
    obs::MetricsRegistry registry;
    serve::TelemetryServer server(registry);
    ASSERT_NE(server.port(), 0);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(stalled, 0);
    ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char partial[] = "GET /metr";
    ASSERT_EQ(static_cast<ssize_t>(sizeof(partial) - 1),
              ::send(stalled, partial, sizeof(partial) - 1, 0));

    // The probe's own receive timeout makes a blocked server fail
    // this test instead of hanging it.
    const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(probe, 0);
    timeval tv{5, 0};
    ASSERT_EQ(0, ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &tv,
                              sizeof(tv)));
    ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string get =
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_EQ(static_cast<ssize_t>(get.size()),
              ::send(probe, get.data(), get.size(), 0));
    std::string response;
    char buf[1024];
    for (;;) {
        const ssize_t n = ::recv(probe, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(probe);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << "/healthz got no answer behind a stalled client";

    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    EXPECT_EQ(std::future_status::ready,
              stopped.wait_for(std::chrono::seconds(5)))
        << "stop() blocked behind a stalled client";
    // Closing the stalled client frees a blocked server thread, so
    // the test ends either way.
    ::close(stalled);
    stopped.get();
}

TEST(Telemetry, HttpQuitEndpointReleasesWait)
{
    obs::MetricsRegistry registry;
    serve::TelemetryServer server(registry);
    std::thread quitter(
        [&server] { httpGet(server.port(), "/quitquitquit"); });
    server.waitForQuit(); // must be released by the request
    quitter.join();
    server.stop();
}

TEST(Telemetry, HandlePathRoutesDirectly)
{
    obs::MetricsRegistry registry;
    registry.gauge("g", "help").set(3.0);
    serve::TelemetryServer server(registry);
    std::string body;
    std::string type;
    EXPECT_TRUE(server.handlePath("/metrics", body, type));
    EXPECT_EQ(type, "text/plain; version=0.0.4; charset=utf-8");
    EXPECT_NE(body.find("g 3\n"), std::string::npos);
    EXPECT_TRUE(server.handlePath("/statusz", body, type));
    EXPECT_EQ(type, "application/json");
    EXPECT_TRUE(server.handlePath("/healthz", body, type));
    EXPECT_FALSE(server.handlePath("/unknown", body, type));
    server.stop();
}

// ---------------------------------------------------------------------
// SLO watchdog configuration
// ---------------------------------------------------------------------

TEST(Telemetry, SloWatchdogRejectsInvalidConfig)
{
    StackConfig config;
    config.modelName = "mobilenet";
    config.widthMult = 0.25;
    InferenceStack stack(config);
    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    serve::InferenceEngine engine(stack, serveConfig);

    serve::SloConfig bad;
    bad.p99TargetSeconds = -1.0;
    EXPECT_THROW(serve::SloWatchdog(engine, bad), FatalError);
    bad = {};
    bad.maxShedRatio = 1.5;
    EXPECT_THROW(serve::SloWatchdog(engine, bad), FatalError);
    bad = {};
    bad.evalPeriodSeconds = 0.0;
    EXPECT_THROW(serve::SloWatchdog(engine, bad), FatalError);

    // A valid config publishes the SLO families immediately.
    serve::SloConfig good;
    good.p99TargetSeconds = 0.25;
    serve::SloWatchdog watchdog(engine, good);
    const std::string text = engine.telemetry().renderPrometheus();
    EXPECT_NE(text.find("dlis_slo_breach 0\n"), std::string::npos);
    EXPECT_NE(text.find("dlis_slo_p99_target_seconds 0.25\n"),
              std::string::npos);
    engine.shutdown();
}

// ---------------------------------------------------------------------
// Hot-path allocation freedom
// ---------------------------------------------------------------------

TEST(Telemetry, HotPathPublishingDoesNotAllocate)
{
    obs::MetricsRegistry registry;
    obs::ShardedCounter &counter = registry.counter("hp_total", "h");
    obs::Gauge &gauge = registry.gauge("hp_gauge", "h");
    obs::Histogram &hist = registry.histogram(
        "hp_seconds", "h", obs::defaultLatencyBounds());
    obs::RollingCounter &rollCtr = registry.rollingCounter(
        "hp_evt", "h", obs::RollingConfig{8, 0.05});
    obs::RollingHistogram &rollHist = registry.rollingHistogram(
        "hp_win_seconds", "h", obs::defaultLatencyBounds(),
        obs::RollingConfig{8, 0.05});

    // Warm everything once: the calling thread's shard index, the
    // ring buckets' first-touch, the clock.
    counter.add(1);
    gauge.set(0.0);
    hist.record(0.001);
    const uint64_t warm = registry.nowNs();
    rollCtr.add(1, warm);
    rollHist.record(0.001, warm);

    g_allocCount.store(0, std::memory_order_relaxed);
    g_countAllocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 20000; ++i) {
        counter.add(1);
        gauge.set(static_cast<double>(i));
        gauge.maxOf(static_cast<double>(i));
        hist.record(i * 1e-6);
        const uint64_t now = registry.nowNs();
        rollCtr.add(1, now);
        rollHist.record(i * 1e-6, now);
    }
    g_countAllocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_allocCount.load(std::memory_order_relaxed), 0u)
        << "telemetry publishing must not allocate after registration";
}
