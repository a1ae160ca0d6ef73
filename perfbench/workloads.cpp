/**
 * @file
 * The two perfbench workloads. Each times calls into the stack's
 * public API from outside (InferenceStack, Network::forward /
 * forwardProfiled, InferenceEngine) and checks every output.
 */

#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"

namespace perfbench {

using dlis::ExecContext;
using dlis::InferenceStack;
using dlis::Tensor;

namespace {

constexpr double kWidth = 0.5;      //!< ROADMAP default width
constexpr size_t kSetupReps = 5;    //!< setup_s is their median
constexpr size_t kWarmupForwards = 2;
constexpr size_t kOfflinePool = 8;  //!< distinct images, W1
constexpr size_t kServePool = 64;   //!< distinct images, W2
constexpr double kServeRate = 200.0;   //!< open-loop requests/s
constexpr size_t kOutstanding = 16;    //!< closed-loop window

double
ms(double s)
{
    return s * 1e3;
}

dlis::StackConfig
stackConfig(const char *model)
{
    dlis::StackConfig cfg;
    cfg.modelName = model;
    cfg.widthMult = kWidth;
    cfg.seed = 1; // fixed weights: only the inputs follow --seed
    return cfg;
}

/** @p n seeded [1, 3, 32, 32] images. */
std::vector<Tensor>
makeImages(uint64_t seed, size_t n)
{
    dlis::Rng rng(seed);
    std::vector<Tensor> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        out.emplace_back(dlis::Shape{1, 3, 32, 32});
        out.back().fillUniform(rng, -1.0f, 1.0f);
    }
    return out;
}

/** [batch, 3, 32, 32] of images first, first+1, ... (mod pool). */
Tensor
makeBatch(const std::vector<Tensor> &pool, size_t first, size_t batch)
{
    const size_t n = pool[0].numel();
    Tensor out{dlis::Shape{batch, 3, 32, 32}};
    for (size_t j = 0; j < batch; ++j)
        std::memcpy(out.data() + j * n,
                    pool[(first + j) % pool.size()].data(),
                    n * sizeof(float));
    return out;
}

/** Refuse to time an untraced run that has probes attached. */
void
requireUntraced(const ExecContext &ctx)
{
    DLIS_CHECK(!ctx.tracer && !ctx.metrics,
               "untraced run must not attach a tracer or metrics");
}

/** Per-forward totals of the backend counters, by leaf name. */
void
addBackendCounters(Result &r, const dlis::obs::Metrics &metrics,
                   double forwards)
{
    std::map<std::string, double> leaf;
    for (const auto &[name, value] : metrics.snapshot())
        leaf[name.substr(name.rfind('.') + 1)] +=
            static_cast<double>(value);
    namespace cn = dlis::obs::counter_names;
    r.add("backend.gemm_calls", "count", leaf[cn::gemmCalls] / forwards);
    r.add("backend.gemm_macs", "count", leaf[cn::gemmMacs] / forwards);
    r.add("backend.im2col_bytes", "bytes",
          leaf[cn::im2colBytes] / forwards);
    r.add("backend.omp_regions", "count",
          leaf[cn::ompRegions] / forwards);
    r.add("backend.arena_growth_bytes", "bytes",
          leaf[cn::arenaBytes] / forwards);
}

double
overheadPct(double traced, double untraced)
{
    return 100.0 * (traced - untraced) / untraced;
}

/** What set-up cost, one entry per repetition. */
struct SetupTimes
{
    std::vector<double> total, build, firstForward, preflight;

    void
    report(Result &r, bool trace) const
    {
        if (!trace) {
            r.add("setup_s", "s", median(total));
            return;
        }
        r.add("stack.build_s", "s", median(build));
        if (!firstForward.empty())
            r.add("nn.first_forward_s", "s", median(firstForward));
        if (!preflight.empty())
            r.add("serve.preflight_s", "s", median(preflight));
    }
};

// ---------------------------------------------------------------------
// W1: one caller, closed loop, offline batch-1 forwards.

struct OfflineSpec
{
    const char *model;
    dlis::ConvAlgo algo;
    /** Reported as nn.<layer>.ms; all but the fc* classifier layers
     *  are convolutions and enter the GFLOP/s ratio. */
    std::vector<std::string> layers;
};

Result
runOffline(const OfflineSpec &spec, const Options &opt)
{
    Result r;
    const std::vector<Tensor> pool = makeImages(opt.seed, kOfflinePool);

    // Set-up, several times: stack build, cold forward, warm-up.
    SetupTimes setup;
    std::unique_ptr<InferenceStack> stack;
    ExecContext ctx;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<InferenceStack>(stackConfig(spec.model));
        const auto t1 = Clock::now();
        ctx = ExecContext{};
        ctx.backend = dlis::Backend::OpenMP;
        ctx.threads = kOmpThreads;
        ctx.convAlgo = spec.algo;
        (void)stack->model().net.forward(pool[0], ctx);
        const auto t2 = Clock::now();
        for (size_t w = 1; w < kWarmupForwards; ++w)
            (void)stack->model().net.forward(pool[w], ctx);
        const auto t3 = Clock::now();
        setup.total.push_back(seconds(t0, t3));
        setup.build.push_back(seconds(t0, t1));
        setup.firstForward.push_back(seconds(t1, t2));
    }
    dlis::Network &net = stack->model().net;

    // References (not part of set-up time): serial direct per image.
    std::vector<Tensor> ref;
    ExecContext refCtx;
    for (const Tensor &img : pool)
        ref.push_back(net.forward(img, refCtx));

    // One timed forward; returns its latency and checks the output.
    Tensor lastGood; // output of the last forward that passed
    size_t lastImage = 0;
    auto timedForward = [&](size_t i,
                            std::vector<dlis::LayerTiming> *timings) {
        const size_t image = i % kOfflinePool;
        Tensor out;
        const auto t0 = Clock::now();
        try {
            out = timings ? net.forwardProfiled(pool[image], ctx, *timings)
                          : net.forward(pool[image], ctx);
        } catch (const std::exception &) {
            out = Tensor{};
        }
        const double dt = seconds(t0, Clock::now());
        ++r.attempted;
        if (!withinTolerance(out, ref[image])) {
            ++r.failed;
        } else {
            lastGood = std::move(out);
            lastImage = image;
        }
        return dt;
    };
    auto closedLoop = [&](double duration) {
        std::vector<double> lat;
        const auto start = Clock::now();
        for (size_t i = 0; seconds(start, Clock::now()) < duration; ++i)
            lat.push_back(timedForward(i, nullptr));
        return std::make_pair(lat, seconds(start, Clock::now()));
    };

    if (!opt.trace) {
        requireUntraced(ctx);
        const auto [lat, elapsed] = closedLoop(opt.seconds);
        r.add("latency_p50_ms", "ms", ms(quantile(lat, 0.5)));
        r.add("latency_p90_ms", "ms", ms(quantile(lat, 0.9)));
        r.add("throughput_ips", "img/s",
              static_cast<double>(lat.size()) / elapsed);
        setup.report(r, false);
        r.add("peak_rss_mb", "MiB", peakRssMb());
        r.notes.push_back(std::to_string(lat.size()) + " forwards, p99 " +
                          std::to_string(ms(quantile(lat, 0.99))) + " ms");
    } else {
        // Untraced baseline, then the same loop with probes attached.
        requireUntraced(ctx);
        const double untracedP50 =
            quantile(closedLoop(0.3 * opt.seconds).first, 0.5);
        dlis::obs::Metrics metrics;
        dlis::obs::Tracer tracer;
        ctx.metrics = &metrics;
        ctx.tracer = &tracer;
        std::map<std::string, std::vector<double>> perLayer;
        std::vector<double> other;
        std::vector<double> lat;
        std::vector<dlis::LayerTiming> timings;
        const auto start = Clock::now();
        for (size_t i = 0; seconds(start, Clock::now()) < 0.7 * opt.seconds;
             ++i) {
            {
                dlis::obs::TraceSpan span(&tracer, "bench.forward",
                                          "bench");
                lat.push_back(timedForward(i, &timings));
            }
            double rest = 0.0;
            for (const dlis::LayerTiming &t : timings) {
                if (std::find(spec.layers.begin(), spec.layers.end(),
                              t.name) != spec.layers.end())
                    perLayer[t.name].push_back(t.seconds);
                else
                    rest += t.seconds;
            }
            other.push_back(rest);
        }
        const double n = static_cast<double>(lat.size());

        setup.report(r, true);
        const auto costs = net.costs(stack->inputShape(1));
        double lo = 1e300;
        double hi = 0.0;
        for (const std::string &layer : spec.layers) {
            const double t = median(perLayer[layer]);
            r.add("nn." + layer + ".ms", "ms", ms(t));
            if (layer.rfind("fc", 0) == 0)
                continue;
            for (const dlis::LayerCost &c : costs)
                if (c.name == layer) {
                    const double gflops =
                        2.0 * static_cast<double>(c.macs) / t / 1e9;
                    lo = std::min(lo, gflops);
                    hi = std::max(hi, gflops);
                }
        }
        r.add("nn.other.ms", "ms", ms(median(other)));
        r.add("nn.conv_gflops_min_over_max", "ratio", lo / hi);
        addBackendCounters(r, metrics, n);
        r.add("bench.trace_overhead_pct", "%",
              overheadPct(quantile(lat, 0.5), untracedP50));
        r.notes.push_back(std::to_string(lat.size()) +
                          " traced forwards, " +
                          std::to_string(tracer.eventCount()) + " spans");
        if (!opt.traceOut.empty())
            tracer.writeChromeTrace(opt.traceOut);
        ctx.metrics = nullptr;
        ctx.tracer = nullptr;
    }

    // Self-test: one corrupted element must fail the same check.
    const bool detected =
        corruptionDetected(lastGood, ref[lastImage], withinTolerance);
    r.correct &= detected;
    r.notes.push_back(std::string("self-test: corrupted output ") +
                      (detected ? "detected" : "NOT detected"));
    return r;
}

std::vector<std::string>
numbered(const std::string &prefix, int lo, int hi)
{
    std::vector<std::string> out;
    for (int i = lo; i <= hi; ++i)
        out.push_back(prefix + std::to_string(i));
    return out;
}

// ---------------------------------------------------------------------
// W2: MobileNet behind the serving engine.

/** One request the open-loop collector waits for. */
struct Pending
{
    size_t image = 0;
    Clock::time_point due;
    std::future<Tensor> reply;
};

/** What one serving phase measured. */
struct PhaseOut
{
    std::vector<double> latency; //!< due (or submit) to reply, seconds
    std::vector<double> late;    //!< generator lateness, seconds
    std::vector<double> submit;  //!< time inside submit(), seconds
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t completed = 0;
    double elapsed = 0.0;
    Tensor lastReply;
    size_t lastImage = 0;
};

/** Take one reply: count it, check it bit-for-bit against @p ref. */
void
collect(PhaseOut &out, std::future<Tensor> &reply, size_t image,
        const std::vector<Tensor> &ref)
{
    ++out.attempted;
    try {
        Tensor got = reply.get();
        if (!bitIdentical(got, ref[image])) {
            ++out.failed;
            return;
        }
        ++out.completed;
        out.lastReply = std::move(got);
        out.lastImage = image;
    } catch (const std::exception &) {
        ++out.failed; // refused (RejectedError) or the forward threw
    }
}

/**
 * Open loop: a generator thread submits on the seeded Poisson
 * schedule whatever the replies do; this thread collects replies in
 * submission order. Latency runs from each request's due time.
 */
PhaseOut
openLoop(dlis::serve::InferenceEngine &engine,
         const std::vector<Tensor> &pool, const std::vector<Tensor> &ref,
         const std::vector<double> &schedule)
{
    PhaseOut out;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> pending; // guarded by mutex
    bool done = false;           // guarded by mutex

    const auto start = Clock::now() + std::chrono::milliseconds(5);
    std::thread generator([&] {
        for (size_t k = 0; k < schedule.size(); ++k) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(schedule[k]));
            std::this_thread::sleep_until(due);
            const size_t image = k % pool.size();
            Tensor input = pool[image];
            const auto t0 = Clock::now();
            std::future<Tensor> reply = engine.submit(std::move(input));
            const auto t1 = Clock::now();
            out.late.push_back(seconds(due, t0));
            out.submit.push_back(seconds(t0, t1));
            {
                std::lock_guard<std::mutex> lock(mutex);
                pending.push_back({image, due, std::move(reply)});
            }
            cv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        cv.notify_one();
    });

    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return !pending.empty() || done; });
            if (pending.empty())
                break;
            p = std::move(pending.front());
            pending.pop_front();
        }
        p.reply.wait();
        out.latency.push_back(seconds(p.due, Clock::now()));
        collect(out, p.reply, p.image, ref);
    }
    generator.join();
    out.elapsed = seconds(start, Clock::now());
    return out;
}

/** Closed loop: one generator thread keeps @p window requests out. */
PhaseOut
closedLoop(dlis::serve::InferenceEngine &engine,
           const std::vector<Tensor> &pool, const std::vector<Tensor> &ref,
           double duration, size_t window)
{
    PhaseOut out;
    std::thread generator([&] {
        std::deque<std::pair<size_t, std::future<Tensor>>> inflight;
        size_t k = 0;
        auto submitOne = [&] {
            const size_t image = k++ % pool.size();
            inflight.emplace_back(image, engine.submit(pool[image]));
        };
        const auto start = Clock::now();
        for (size_t i = 0; i < window; ++i)
            submitOne();
        while (!inflight.empty()) {
            collect(out, inflight.front().second, inflight.front().first,
                    ref);
            inflight.pop_front();
            if (seconds(start, Clock::now()) < duration)
                submitOne();
        }
        out.elapsed = seconds(start, Clock::now());
    });
    generator.join();
    return out;
}

void
merge(Result &r, const PhaseOut &p)
{
    r.attempted += p.attempted;
    r.failed += p.failed;
}

double
meanBatch(const dlis::serve::EngineStats &a,
          const dlis::serve::EngineStats &b)
{
    const double batches = static_cast<double>(b.batches - a.batches);
    return batches > 0 ? static_cast<double>(b.completed - a.completed) /
                             batches
                       : 0.0;
}

/** Span durations named @p name (or, with @p prefix, starting so). */
std::vector<double>
spanSeconds(const std::vector<dlis::obs::TraceEvent> &events,
            const std::string &name, bool prefix = false)
{
    std::vector<double> out;
    for (const auto &e : events)
        if (prefix ? e.name.rfind(name, 0) == 0 : e.name == name)
            out.push_back(static_cast<double>(e.durationNs) * 1e-9);
    return out;
}

/** "dw" / "pw" for MobileNet's dw<k> / pw<k> layers, else "other". */
std::string
mobilenetGroup(const std::string &layer)
{
    if (layer.size() > 2 &&
        (layer.rfind("dw", 0) == 0 || layer.rfind("pw", 0) == 0) &&
        layer.find_first_not_of("0123456789", 2) == std::string::npos)
        return layer.substr(0, 2);
    return "other";
}

} // namespace

Result
runVgg16Im2colB1(const Options &opt)
{
    OfflineSpec spec{"vgg16", dlis::ConvAlgo::Im2colGemm,
                     numbered("conv", 1, 13)};
    spec.layers.push_back("fc1");
    spec.layers.push_back("fc2");
    return runOffline(spec, opt);
}

Result
runMobilenetServePoisson(const Options &opt)
{
    Result r;
    const std::vector<Tensor> pool = makeImages(opt.seed, kServePool);

    dlis::serve::ServeConfig sc;
    sc.workers = 2;
    sc.maxBatch = 8;
    sc.maxDelayUs = 2000;
    sc.backend = dlis::Backend::Serial;
    sc.threads = 1;
    sc.convAlgo = dlis::ConvAlgo::Im2colGemm;

    // Warm-up: one window of concurrent requests, so both workers'
    // arenas reach full-batch size before anything is timed.
    auto warm = [&](dlis::serve::InferenceEngine &engine) {
        std::vector<std::future<Tensor>> replies;
        for (size_t i = 0; i < kOutstanding; ++i)
            replies.push_back(engine.submit(pool[i]));
        for (auto &f : replies)
            f.wait();
    };

    // Set-up, several times: stack build, engine pre-flight, warm-up.
    SetupTimes setup;
    std::unique_ptr<InferenceStack> stack;
    std::unique_ptr<dlis::serve::InferenceEngine> engine;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        engine.reset();
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<InferenceStack>(stackConfig("mobilenet"));
        const auto t1 = Clock::now();
        engine = std::make_unique<dlis::serve::InferenceEngine>(
            *stack, sc, nullptr, nullptr, nullptr);
        const auto t2 = Clock::now();
        warm(*engine);
        const auto t3 = Clock::now();
        setup.total.push_back(seconds(t0, t3));
        setup.build.push_back(seconds(t0, t1));
        setup.preflight.push_back(seconds(t1, t2));
    }
    dlis::Network &net = stack->model().net;

    // Reference: the batch-1 forward under the engine's algo/backend.
    ExecContext refCtx;
    refCtx.backend = sc.backend;
    refCtx.convAlgo = sc.convAlgo;
    std::vector<Tensor> ref;
    for (const Tensor &img : pool)
        ref.push_back(net.forward(img, refCtx));

    const double s = opt.seconds;
    PhaseOut lastPhase;
    if (!opt.trace) {
        const PhaseOut open = openLoop(
            *engine, pool, ref, poissonSchedule(opt.seed, kServeRate, 0.4 * s));
        const PhaseOut closed =
            closedLoop(*engine, pool, ref, 0.6 * s, kOutstanding);
        merge(r, open);
        merge(r, closed);
        r.add("latency_p50_ms", "ms", ms(quantile(open.latency, 0.5)));
        r.add("latency_p90_ms", "ms", ms(quantile(open.latency, 0.9)));
        r.add("throughput_ips", "img/s",
              static_cast<double>(closed.completed) / closed.elapsed);
        setup.report(r, false);
        r.add("peak_rss_mb", "MiB", peakRssMb());
        char line[200];
        std::snprintf(line, sizeof(line),
                      "open loop: %zu requests at %.0f/s, p99 %.3f ms, "
                      "generator late p99 %.3f ms; closed loop: %llu "
                      "replies, window %zu",
                      open.latency.size(), kServeRate,
                      ms(quantile(open.latency, 0.99)),
                      ms(quantile(open.late, 0.99)),
                      static_cast<unsigned long long>(closed.completed),
                      kOutstanding);
        r.notes.push_back(line);
        lastPhase = closed;
    } else {
        // Untraced baseline on the set-up engine.
        const PhaseOut base = openLoop(
            *engine, pool, ref, poissonSchedule(opt.seed, kServeRate, 0.2 * s));
        merge(r, base);
        engine.reset();

        dlis::obs::Metrics engineMetrics;
        dlis::obs::Tracer tracer;
        engine = std::make_unique<dlis::serve::InferenceEngine>(
            *stack, sc, &engineMetrics, &tracer, nullptr);
        warm(*engine);
        tracer.clear();
        const auto s0 = engine->stats();
        const PhaseOut open = openLoop(
            *engine, pool, ref,
            poissonSchedule(opt.seed + 1, kServeRate, 0.3 * s));
        const auto s1 = engine->stats();
        const std::vector<dlis::obs::TraceEvent> events = tracer.events();
        const PhaseOut closed =
            closedLoop(*engine, pool, ref, 0.2 * s, kOutstanding);
        const auto s2 = engine->stats();
        merge(r, open);
        merge(r, closed);

        // Per-layer time at batch 1 and 8, outside the engine, on the
        // engine's backend and algorithm.
        ExecContext pctx;
        pctx.backend = sc.backend;
        pctx.convAlgo = sc.convAlgo;
        const auto c0 = Clock::now();
        (void)net.forward(pool[0], pctx);
        setup.firstForward.push_back(seconds(c0, Clock::now()));
        const Tensor b8 = makeBatch(pool, 0, 8);
        (void)net.forward(b8, pctx);
        dlis::obs::Metrics m1;
        dlis::obs::Metrics m8;
        pctx.tracer = &tracer;
        std::map<std::string, std::vector<double>> groups;
        std::vector<dlis::LayerTiming> timings;
        size_t n8 = 0;
        const auto start = Clock::now();
        for (size_t i = 0; seconds(start, Clock::now()) < 0.3 * s; ++i) {
            const bool big = i % 2 == 1;
            pctx.metrics = big ? &m8 : &m1;
            const Tensor out = net.forwardProfiled(
                big ? b8 : pool[i % pool.size()], pctx, timings);
            ++r.attempted;
            bool ok = true;
            for (size_t j = 0; j < (big ? 8u : 1u); ++j)
                ok &= bitIdentical(big ? row(out, j) : out,
                                   ref[big ? j : i % pool.size()]);
            r.failed += ok ? 0 : 1;
            std::map<std::string, double> sum;
            for (const dlis::LayerTiming &t : timings)
                sum[mobilenetGroup(t.name)] += t.seconds;
            for (const auto &[group, secs] : sum)
                groups[group + (big ? ".b8" : ".b1")].push_back(secs);
            n8 += big ? 1 : 0;
        }
        pctx.metrics = nullptr;
        pctx.tracer = nullptr;

        setup.report(r, true);
        for (const char *g : {"dw", "pw", "other"})
            for (const char *b : {"b1", "b8"})
                r.add(std::string("nn.") + g + "." + b + ".ms", "ms",
                      ms(median(groups[std::string(g) + "." + b])));
        addBackendCounters(r, m8, static_cast<double>(n8));
        r.add("serve.submit_us.p99", "us", 1e6 * quantile(open.submit, 0.99));
        const auto wait = spanSeconds(events, "queue_wait");
        r.add("serve.queue_wait_ms.p50", "ms", ms(quantile(wait, 0.5)));
        r.add("serve.queue_wait_ms.p99", "ms", ms(quantile(wait, 0.99)));
        r.add("serve.forward_ms.p50", "ms",
              ms(median(spanSeconds(events, "serve.worker", true))));
        r.add("serve.reply_us.p50", "us",
              1e6 * median(spanSeconds(events, "reply")));
        r.add("serve.batch_size.steady", "count", meanBatch(s0, s1));
        r.add("serve.batch_size.saturated", "count", meanBatch(s1, s2));
        r.add("serve.queue_peak", "count",
              static_cast<double>(s2.queuePeak));
        r.add("bench.gen_late_p99_ms", "ms", ms(quantile(base.late, 0.99)));
        r.add("bench.trace_overhead_pct", "%",
              overheadPct(quantile(open.latency, 0.5),
                          quantile(base.latency, 0.5)));
        r.notes.push_back(std::to_string(open.latency.size()) +
                          " traced open-loop requests, " +
                          std::to_string(closed.completed) +
                          " traced closed-loop replies, " +
                          std::to_string(tracer.eventCount()) + " spans");
        if (!opt.traceOut.empty())
            tracer.writeChromeTrace(opt.traceOut);
        lastPhase = closed;
    }
    engine.reset();

    const bool detected = corruptionDetected(
        lastPhase.lastReply, ref[lastPhase.lastImage], bitIdentical);
    r.correct &= detected;
    r.notes.push_back(std::string("self-test: corrupted output ") +
                      (detected ? "detected" : "NOT detected"));
    return r;
}

} // namespace perfbench
