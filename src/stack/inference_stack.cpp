#include "stack/inference_stack.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "compress/magnitude_pruner.hpp"
#include "compress/ttq.hpp"
#include "core/logging.hpp"
#include "obs/trace.hpp"

namespace dlis {

const char *
techniqueName(Technique t)
{
    switch (t) {
      case Technique::None:           return "plain";
      case Technique::WeightPruning:  return "weight-pruning";
      case Technique::ChannelPruning: return "channel-pruning";
      case Technique::Quantisation:   return "quantisation";
    }
    return "?";
}

namespace {

/** Indices of the @p keep highest-L1-norm output channels, sorted. */
std::vector<size_t>
topOutputChannels(const Conv2d &conv, size_t keep)
{
    const Tensor &w = conv.weight();
    const size_t filter = conv.cin() * conv.kernel() * conv.kernel();
    std::vector<std::pair<double, size_t>> norms(conv.cout());
    for (size_t oc = 0; oc < conv.cout(); ++oc) {
        double l1 = 0.0;
        for (size_t i = 0; i < filter; ++i)
            l1 += std::fabs(w[oc * filter + i]);
        norms[oc] = {l1, oc};
    }
    std::partial_sort(norms.begin(), norms.begin() + keep, norms.end(),
                      [](const auto &a, const auto &b) {
                          return a.first > b.first;
                      });
    std::vector<size_t> idx(keep);
    for (size_t i = 0; i < keep; ++i)
        idx[i] = norms[i].second;
    std::sort(idx.begin(), idx.end());
    return idx;
}

/** Apply keep-fraction @p f to every prune unit of @p model. */
void
pruneUnitsToFraction(Model &model, double f, size_t min_channels)
{
    for (PruneUnit &unit : model.pruneUnits) {
        const size_t cout = unit.producer->cout();
        const size_t keep = std::max(
            min_channels,
            static_cast<size_t>(std::lround(f * static_cast<double>(
                                                    cout))));
        if (keep >= cout)
            continue;
        const auto idx = topOutputChannels(*unit.producer, keep);
        unit.producer->keepOutputChannels(idx);
        if (unit.bn)
            unit.bn->keepChannels(idx);
        if (unit.coupledDw)
            unit.coupledDw->keepChannels(idx);
        if (unit.coupledDwBn)
            unit.coupledDwBn->keepChannels(idx);
        if (unit.consumerConv)
            unit.consumerConv->keepInputChannels(idx);
        if (unit.consumerLinear)
            unit.consumerLinear->keepInputChannels(
                idx, unit.consumerSpatial);
    }
}

/** Parameter count after a trial prune at fraction @p f. */
size_t
paramsAtFraction(const StackConfig &config, double f)
{
    Rng rng(config.seed);
    Model trial = makeModel(config.modelName, config.classes,
                            config.widthMult, rng);
    pruneUnitsToFraction(trial, f, 2);
    return trial.net.parameterCount();
}

} // namespace

void
applyChannelPruningToRate(Model &model, const StackConfig &config,
                          double targetRate)
{
    DLIS_CHECK(targetRate >= 0.0 && targetRate < 1.0,
               "compression rate must be in [0, 1), got ", targetRate);
    if (targetRate == 0.0)
        return;

    const auto original =
        static_cast<double>(model.net.parameterCount());
    const double target_params = original * (1.0 - targetRate);

    // Bisection on the keep fraction; parameter count is monotone in
    // f, so ~20 iterations pin it far below one channel of slack.
    double lo = 0.0, hi = 1.0;
    for (int iter = 0; iter < 20; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (static_cast<double>(paramsAtFraction(config, mid)) >
            target_params) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    pruneUnitsToFraction(model, 0.5 * (lo + hi), 2);
    inform("channel pruning: target rate ", targetRate,
           ", achieved ",
           1.0 - static_cast<double>(model.net.parameterCount()) /
                     original);
}

InferenceStack::InferenceStack(StackConfig config)
    : config_(std::move(config))
{
    auto &tracker = MemoryTracker::instance();
    baseline_ = {tracker.currentBytes(MemClass::Weights),
                 tracker.currentBytes(MemClass::SparseMeta)};

    Rng rng(config_.seed);
    model_ = makeModel(config_.modelName, config_.classes,
                       config_.widthMult, rng);
    denseParams_ = model_.net.parameterCount();
    applyTechnique();
    deployedParams_ = model_.net.parameterCount();
    model_.setFormat(config_.format);
}

void
InferenceStack::applyTechnique()
{
    switch (config_.technique) {
      case Technique::None:
        break;
      case Technique::WeightPruning: {
        MagnitudePruner pruner;
        pruner.pruneToSparsity(model_, config_.wpSparsity);
        break;
      }
      case Technique::ChannelPruning:
        applyChannelPruningToRate(model_, config_, config_.cpRate);
        break;
      case Technique::Quantisation:
        if (config_.ttqSparsity >= 0.0) {
            TtqQuantizer::quantiseToSparsity(model_,
                                             config_.ttqSparsity);
        } else {
            TtqQuantizer quantizer(config_.ttqThreshold);
            quantizer.quantise(model_);
        }
        break;
    }
}

Shape
InferenceStack::inputShape(size_t batch) const
{
    return Shape{batch, 3, 32, 32};
}

std::vector<LayerCost>
InferenceStack::stageCosts(size_t batch) const
{
    return collectStageCosts(model_.net, inputShape(batch));
}

double
InferenceStack::macFraction(size_t batch) const
{
    // Relative to the *dense, unpruned* model: channel pruning changes
    // denseMacs too, so normalise against a fresh plain build.
    Rng rng(config_.seed);
    Model plain = makeModel(config_.modelName, config_.classes,
                            config_.widthMult, rng);
    const auto plain_costs =
        collectStageCosts(plain.net, inputShape(batch));
    size_t dense = 0;
    for (const auto &c : plain_costs)
        dense += c.denseMacs;

    size_t mine = 0;
    for (const auto &c : stageCosts(batch))
        mine += c.macs;
    return dense ? static_cast<double>(mine) /
                       static_cast<double>(dense)
                 : 0.0;
}

double
InferenceStack::measureHostSeconds(ExecContext &ctx, size_t reps,
                                   size_t batch)
{
    return measureHostStats(ctx, reps, batch).p50;
}

obs::LatencyStats
InferenceStack::measureHostStats(ExecContext &ctx, size_t reps,
                                 size_t batch)
{
    Rng rng(config_.seed + 99);
    Tensor input(inputShape(batch));
    input.fillNormal(rng, 0.0f, 1.0f);

    std::vector<double> times;
    times.reserve(reps);
    for (size_t r = 0; r < reps; ++r) {
        obs::TraceSpan span(ctx.tracer,
                            "forward#" + std::to_string(r), "network");
        const auto t0 = std::chrono::steady_clock::now();
        Tensor out = model_.net.forward(input, ctx);
        const auto t1 = std::chrono::steady_clock::now();
        times.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }
    return obs::LatencyStats::from(std::move(times));
}

Footprint
InferenceStack::measureFootprint(size_t batch, ConvAlgo algo)
{
    // Activations and scratch are this forward's own: deltas over what
    // is live when it starts (another context's arena, say), like
    // collectRunReport's.
    auto &tracker = MemoryTracker::instance();
    const size_t preActivations =
        tracker.currentBytes(MemClass::Activations);
    const size_t preScratch = tracker.currentBytes(MemClass::Scratch);
    tracker.resetPeaks();

    Rng rng(config_.seed + 7);
    Tensor input(inputShape(batch));
    input.fillNormal(rng, 0.0f, 1.0f);

    ExecContext ctx; // serial; the paper's baselines use Direct
    ctx.convAlgo = algo;
    Tensor out = model_.net.forward(input, ctx);

    Footprint fp;
    auto delta = [](size_t now, size_t base) {
        return now > base ? now - base : 0;
    };
    fp.weights = delta(tracker.peakBytes(MemClass::Weights),
                       baseline_[0]);
    fp.sparseMeta = delta(tracker.peakBytes(MemClass::SparseMeta),
                          baseline_[1]);
    fp.activations = delta(tracker.peakBytes(MemClass::Activations),
                           preActivations);
    fp.scratch = delta(tracker.peakBytes(MemClass::Scratch), preScratch);
    fp.total =
        fp.weights + fp.sparseMeta + fp.activations + fp.scratch;
    return fp;
}

double
InferenceStack::achievedCompressionRate() const
{
    return 1.0 - static_cast<double>(deployedParams_) /
                     static_cast<double>(denseParams_);
}

} // namespace dlis
