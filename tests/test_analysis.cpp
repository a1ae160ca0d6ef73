/**
 * @file
 * Static-analysis tests: the malformed-model corpus (one test per
 * defect class the verifier must catch), the clean-model configuration
 * matrix, byte-exactness of the static memory estimate against the
 * MemoryTracker, and the serving engine's deployment pre-flight.
 */

#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "nn/models/model.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"
#include "stack/report.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using analysis::Check;
using analysis::Severity;
using analysis::VerifyOptions;
using analysis::VerifyReport;

VerifyReport
verify(const Network &net, Shape input,
       Backend backend = Backend::Serial,
       ConvAlgo algo = ConvAlgo::Direct)
{
    VerifyOptions opts;
    opts.input = std::move(input);
    opts.backend = backend;
    opts.convAlgo = algo;
    return analysis::verifyNetwork(net, opts);
}

/** A well-formed CSR slice for a 3x3 filter (nnz = 3). */
CsrSlice
validSlice()
{
    CsrSlice s;
    s.rowPtr = {0, 2, 3, 3};
    s.colIdx = {0, 2, 1};
    s.values = {1.0f, -0.5f, 0.25f};
    return s;
}

/** One 3x3 conv whose CSR image is installed from @p slice. */
Network
csrConvNet(CsrSlice slice)
{
    Network net("csr-corpus");
    Conv2d *conv = net.emplace<Conv2d>("conv", 1, 1, 3, 1, 1, false);
    conv->setCsrWeight(
        CsrFilterBank::fromRaw(1, 1, 3, 3, {std::move(slice)}));
    return net;
}

// ---------------------------------------------------------------------
// Malformed-model corpus: seven seeded defect classes, one test each.
// ---------------------------------------------------------------------

TEST(Corpus, ShapeMismatchBetweenLayers)
{
    Network net("bad-shapes");
    Rng rng(1);
    net.emplace<Conv2d>("conv1", 3, 8, 3, 1, 1)->initKaiming(rng);
    // Expects 16 input channels but conv1 produces 8.
    net.emplace<Conv2d>("conv2", 16, 8, 3, 1, 1)->initKaiming(rng);

    const VerifyReport rep = verify(net, Shape{1, 3, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::ChannelMismatch));
    EXPECT_NE(rep.firstError().find("conv2"), std::string::npos);
}

TEST(Corpus, UnsortedCsrColumns)
{
    CsrSlice s = validSlice();
    s.colIdx = {2, 0, 1}; // row 0 holds columns {2, 0}: out of order
    const VerifyReport rep =
        verify(csrConvNet(std::move(s)), Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::UnsortedColumns));
}

TEST(Corpus, CsrColumnIndexOutOfRange)
{
    CsrSlice s = validSlice();
    s.colIdx[1] = 5; // kw is 3; a kernel would read past the row
    const VerifyReport rep =
        verify(csrConvNet(std::move(s)), Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::ColumnOutOfRange));
}

TEST(Corpus, NonMonotoneRowPtr)
{
    CsrSlice s = validSlice();
    s.rowPtr = {0, 2, 1, 3}; // row 1 "ends" before it starts
    const VerifyReport rep =
        verify(csrConvNet(std::move(s)), Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::BadRowPtr));
}

TEST(Corpus, AliasedResidualSkipAdd)
{
    Network net("bad-residual");
    Rng rng(1);
    auto *block = net.emplace<ResidualBlock>("block", 16, 16, 1);
    block->initKaiming(rng);
    // Prune the *second* conv's outputs: the paper allows surgery only
    // on layers between the shortcuts, because the trunk width must be
    // restored for the in-place elementwise add. This breaks that
    // contract: main path now yields 8 channels, the skip still 16.
    std::vector<size_t> keep(8);
    std::iota(keep.begin(), keep.end(), 0);
    block->conv2().keepOutputChannels(keep);
    block->bn2().keepChannels(keep);

    const VerifyReport rep = verify(net, Shape{1, 16, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::ResidualAddMismatch));
}

TEST(Corpus, MalformedPackedTernary)
{
    // Reserved code 0b11 in the first element.
    Network bad("bad-ternary");
    Conv2d *conv = bad.emplace<Conv2d>("conv", 1, 1, 3, 1, 1, false);
    std::vector<uint8_t> words((9 + 3) / 4, 0);
    words[0] = 0x03;
    conv->setPackedWeight(PackedTernary::fromRaw(
        Shape{1, 1, 3, 3}, std::move(words), 0.5f, 0.5f));
    const VerifyReport rep = verify(bad, Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::BadTernaryCode));

    // Negative codebook scale.
    Network neg("neg-ternary");
    conv = neg.emplace<Conv2d>("conv", 1, 1, 3, 1, 1, false);
    conv->setPackedWeight(PackedTernary::fromRaw(
        Shape{1, 1, 3, 3}, std::vector<uint8_t>((9 + 3) / 4, 0), 0.5f,
        -0.5f));
    EXPECT_TRUE(
        verify(neg, Shape{1, 1, 8, 8}).has(Check::BadTernaryScale));
}

TEST(Corpus, CleanSeededModelsPass)
{
    // The corpus builders' non-defective twins all verify clean, so
    // each corpus test isolates exactly its seeded defect.
    EXPECT_TRUE(
        verify(csrConvNet(validSlice()), Shape{1, 1, 8, 8}).ok());

    Network res("good-residual");
    Rng rng(1);
    res.emplace<ResidualBlock>("block", 16, 32, 2)->initKaiming(rng);
    EXPECT_TRUE(verify(res, Shape{1, 16, 8, 8}).ok());

    Network tern("good-ternary");
    Conv2d *conv = tern.emplace<Conv2d>("conv", 1, 1, 3, 1, 1, false);
    Tensor w(Shape{1, 1, 3, 3}, MemClass::Weights);
    w[0] = 0.5f;
    w[4] = -0.25f;
    conv->setPackedWeight(PackedTernary::pack(w));
    EXPECT_TRUE(verify(tern, Shape{1, 1, 8, 8}).ok());
}

TEST(Corpus, NonFiniteParameterIsAnError)
{
    // Each NaN/Inf parameter (or a running variance that makes the BN
    // scale NaN) poisons every forward; the verifier must name the
    // layer, and the same network with finite parameters must pass.
    const float nan = std::nanf("");
    const float inf = std::numeric_limits<float>::infinity();
    struct Case
    {
        const char *what;
        const char *layer;
        Shape input;
        std::function<Network(bool poison)> build;
    };
    const Case cases[] = {
        {"NaN conv weight", "conv", Shape{1, 1, 8, 8},
         [&](bool poison) {
             Network net("conv-weight");
             Rng rng(1);
             Conv2d *conv = net.emplace<Conv2d>("conv", 1, 2, 3, 1, 1);
             conv->initKaiming(rng);
             if (poison)
                 conv->weight()[4] = nan;
             return net;
         }},
        {"Inf conv bias", "conv", Shape{1, 1, 8, 8},
         [&](bool poison) {
             Network net("conv-bias");
             Rng rng(2);
             Conv2d *conv = net.emplace<Conv2d>("conv", 1, 2, 3, 1, 1);
             conv->initKaiming(rng);
             if (poison)
                 conv->bias()[1] = inf;
             return net;
         }},
        {"NaN depthwise weight", "dw", Shape{1, 4, 8, 8},
         [&](bool poison) {
             Network net("dw-weight");
             Rng rng(3);
             auto *dw = net.emplace<DepthwiseConv2d>("dw", 4, 3, 1, 1);
             dw->initKaiming(rng);
             if (poison)
                 dw->weight()[10] = nan;
             return net;
         }},
        {"NaN BN gamma", "bn", Shape{1, 1, 8, 8},
         [&](bool poison) {
             Network net("bn-gamma");
             Rng rng(4);
             net.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
             auto *bn = net.emplace<BatchNorm2d>("bn", 2);
             if (poison)
                 bn->gamma()[0] = nan;
             return net;
         }},
        {"BN running var -1", "bn", Shape{1, 1, 8, 8},
         [&](bool poison) {
             Network net("bn-var");
             Rng rng(5);
             net.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
             auto *bn = net.emplace<BatchNorm2d>("bn", 2);
             if (poison)
                 bn->runningVar()[1] = -1.0f;
             return net;
         }},
        {"Inf linear weight", "fc", Shape{1, 8},
         [&](bool poison) {
             Network net("fc-weight");
             Rng rng(6);
             Linear *fc = net.emplace<Linear>("fc", 8, 4);
             fc->initKaiming(rng);
             if (poison)
                 fc->weight()[3] = inf;
             return net;
         }},
        {"NaN CSR value", "conv", Shape{1, 1, 8, 8},
         [&](bool poison) {
             CsrSlice slice = validSlice();
             if (poison)
                 slice.values[1] = nan;
             return csrConvNet(std::move(slice));
         }},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const VerifyReport bad = verify(c.build(true), c.input);
        EXPECT_FALSE(bad.ok());
        bool named = false;
        for (const analysis::Diagnostic &d : bad.diagnostics)
            named |= d.check == Check::NonFiniteWeight &&
                     d.severity == Severity::Error && d.layer == c.layer;
        EXPECT_TRUE(named) << bad.str();

        const VerifyReport clean = verify(c.build(false), c.input);
        EXPECT_TRUE(clean.ok()) << clean.str();
        EXPECT_FALSE(clean.has(Check::NonFiniteWeight));
    }
}

// ---------------------------------------------------------------------
// Additional verifier rules.
// ---------------------------------------------------------------------

TEST(Verifier, SparseWeightsPinDirectAlgorithm)
{
    const VerifyReport rep =
        verify(csrConvNet(validSlice()), Shape{1, 1, 8, 8},
               Backend::Serial, ConvAlgo::Im2colGemm);
    // Runs, but the im2col request is silently ignored: a warning.
    EXPECT_TRUE(rep.ok());
    EXPECT_TRUE(rep.has(Check::AlgoIgnored));
}

TEST(Verifier, ByteAccountingCrossCheck)
{
    // fromRaw recomputes storageBytes from the arrays, so a healthy
    // bank passes the accounting check; corrupt arrays shift it.
    CsrSlice s = validSlice();
    s.values.push_back(9.0f); // now values disagree with colIdx/rowPtr
    const VerifyReport rep =
        verify(csrConvNet(std::move(s)), Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::SizeMismatch));
}

TEST(Verifier, PoolTruncationAndEmptyNetwork)
{
    Network net("truncating-pool");
    net.emplace<MaxPool2d>("pool", 2);
    const VerifyReport rep = verify(net, Shape{1, 4, 7, 7});
    // The runtime's maxPool rejects non-divisible inputs outright.
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::PoolTruncation));

    Network empty("empty");
    EXPECT_TRUE(verify(empty, Shape{1, 3, 8, 8})
                    .has(Check::EmptyNetwork));
}

TEST(Verifier, FoldBnHazardOnSparseConv)
{
    Network net("csr-then-bn");
    Rng rng(1);
    Conv2d *conv =
        net.emplace<Conv2d>("conv", 3, 8, 3, 1, 1, false);
    conv->initKaiming(rng);
    conv->setFormat(WeightFormat::Csr);
    net.emplace<BatchNorm2d>("bn", 8);

    const VerifyReport rep = verify(net, Shape{1, 3, 8, 8});
    EXPECT_TRUE(rep.ok()); // hazard for fold_bn, fine for inference
    EXPECT_TRUE(rep.has(Check::FoldBnHazard));
}

TEST(Verifier, BadThreadCountIsConfigError)
{
    Network net("tiny");
    Rng rng(1);
    net.emplace<Conv2d>("conv", 3, 4, 3, 1, 1)->initKaiming(rng);
    VerifyOptions opts;
    opts.input = Shape{1, 3, 8, 8};
    opts.threads = 0;
    const VerifyReport rep = analysis::verifyNetwork(net, opts);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::BadConfig));
}

// ---------------------------------------------------------------------
// Clean-model matrix: every runtime-supported backend x format combo
// of the three paper models verifies clean; unsupported combos are
// rejected with the precise diagnostic.
// ---------------------------------------------------------------------

struct MatrixCase
{
    Technique technique;
    WeightFormat format;
};

TEST(Matrix, PaperModelsAcrossSupportedConfigs)
{
    const MatrixCase cases[] = {
        {Technique::None, WeightFormat::Dense},
        {Technique::WeightPruning, WeightFormat::Csr},
        {Technique::Quantisation, WeightFormat::PackedTernary},
    };
    const Backend cpuBackends[] = {Backend::Serial, Backend::OpenMP};

    for (const char *model : {"vgg16", "resnet18", "mobilenet"}) {
        for (const MatrixCase &mc : cases) {
            StackConfig config;
            config.modelName = model;
            config.widthMult = 0.25;
            config.technique = mc.technique;
            config.wpSparsity = 0.5;
            config.ttqSparsity = 0.5;
            config.ttqThreshold = 0.05;
            config.format = mc.format;
            InferenceStack stack(config);

            // Every backend supports every format.
            for (Backend b : cpuBackends) {
                const VerifyReport rep =
                    verify(stack.model().net, stack.inputShape(1), b);
                EXPECT_TRUE(rep.ok())
                    << model << " x " << weightFormatName(mc.format)
                    << " x " << backendName(b) << ":\n"
                    << rep.str();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Static memory estimate vs the MemoryTracker's observation.
// ---------------------------------------------------------------------

TEST(MemoryEstimate, MatchesObservedPeakExactly)
{
    for (const char *model : {"vgg16", "resnet18", "mobilenet"}) {
        StackConfig config;
        config.modelName = model;
        config.widthMult = 0.25;
        InferenceStack stack(config);

        ExecContext ctx; // serial, direct: the paper's baseline
        const RunReport rep = collectRunReport(stack, ctx, 2);
        ASSERT_TRUE(rep.memory.collected);
        EXPECT_EQ(rep.memory.staticActivations,
                  rep.memory.observedActivations)
            << model << ": static activation model has drifted from "
                        "the runtime's allocation sequence";
        EXPECT_EQ(rep.memory.staticScratch, rep.memory.observedScratch)
            << model;

        // The weights/meta side must agree with measureFootprint's
        // byte-exact tracker deltas too.
        const Footprint fp = stack.measureFootprint();
        EXPECT_EQ(fp.weights, rep.memory.staticWeights) << model;
        EXPECT_EQ(fp.sparseMeta, rep.memory.staticSparseMeta) << model;
        EXPECT_EQ(fp.activations, rep.memory.staticActivations)
            << model;
        EXPECT_EQ(fp.scratch, rep.memory.staticScratch) << model;
    }
}

// Regression for the mixed-plan blind spot: collectRunReport used to
// price the static estimate from the context's *uniform* backend /
// algo / threads even when ExecContext::layerOverrides steered
// individual layers elsewhere, so a tuned plan mixing im2col and
// direct conv compared the tracker against the wrong model.  The
// per-plan estimator must stay byte-exact for mixed assignments.
TEST(MemoryEstimate, MatchesObservedPeakForMixedPlanOverrides)
{
    for (const char *model : {"vgg16", "resnet18", "mobilenet"}) {
        StackConfig config;
        config.modelName = model;
        config.widthMult = 0.25;
        InferenceStack stack(config);

        // Alternate conv algorithms layer by layer — the shape of a
        // real tuned plan (im2col where it pays, direct elsewhere).
        // Non-conv layers ignore convAlgo in both the runtime and the
        // model, so blanket assignment is harmless.
        std::unordered_map<std::string, LayerExecOverride> overrides;
        const ConvAlgo algos[] = {ConvAlgo::Im2colGemm,
                                  ConvAlgo::Direct};
        const Network &net = stack.model().net;
        const analysis::MemoryEstimate direct =
            analysis::estimateForwardMemory(net, stack.inputShape(1),
                                            Backend::Serial,
                                            ConvAlgo::Direct, 1);
        const analysis::MemoryEstimate im2col =
            analysis::estimateForwardMemory(net, stack.inputShape(1),
                                            Backend::Serial,
                                            ConvAlgo::Im2colGemm, 1);
        size_t convSeen = 0;
        for (size_t i = 0; i < net.size(); ++i) {
            // Rotate algorithms across the layers that actually have
            // an algorithm choice (im2col demands more scratch there);
            // everything else runs direct.
            const bool tunable = im2col.perLayer[i].scratchBytes >
                                 direct.perLayer[i].scratchBytes;
            LayerExecOverride ov;
            ov.backend = Backend::Serial;
            ov.convAlgo =
                tunable ? algos[convSeen++ % 2] : ConvAlgo::Direct;
            ov.threads = 1;
            overrides[net.layers()[i]->name()] = ov;
        }

        ExecContext ctx;
        ctx.layerOverrides = &overrides;
        const RunReport rep = collectRunReport(stack, ctx, 2);
        ASSERT_TRUE(rep.memory.collected);
        EXPECT_EQ(rep.memory.staticActivations,
                  rep.memory.observedActivations)
            << model << ": per-plan activation model has drifted from "
                        "the runtime's allocation sequence";
        EXPECT_EQ(rep.memory.staticScratch, rep.memory.observedScratch)
            << model;
        // A mixed plan must actually exercise the im2col scratch leg,
        // or the equality above proves nothing.
        EXPECT_GT(rep.memory.staticScratch, 0u) << model;
    }
}

// With no overrides the per-plan estimator must collapse to the
// uniform estimate — same model, same bytes.
TEST(MemoryEstimate, PlanEstimatorMatchesUniformWhenEmpty)
{
    StackConfig config;
    config.modelName = "resnet18";
    config.widthMult = 0.25;
    InferenceStack stack(config);
    const Shape input = stack.inputShape(1);
    const Network &net = stack.model().net;

    const analysis::MemoryEstimate uniform =
        analysis::estimateForwardMemory(net, input, Backend::Serial,
                                        ConvAlgo::Im2colGemm, 1);
    const analysis::MemoryEstimate viaPlan =
        analysis::memoryEstimateForPlan(net, input, {}, Backend::Serial,
                                        ConvAlgo::Im2colGemm, 1);
    EXPECT_EQ(uniform.weights, viaPlan.weights);
    EXPECT_EQ(uniform.sparseMeta, viaPlan.sparseMeta);
    EXPECT_EQ(uniform.activationsPeak, viaPlan.activationsPeak);
    EXPECT_EQ(uniform.scratchPeak, viaPlan.scratchPeak);
}

TEST(MemoryEstimate, MatchesObservedPeakForCsrDeployment)
{
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    config.technique = Technique::WeightPruning;
    config.wpSparsity = 0.7;
    config.format = WeightFormat::Csr;
    InferenceStack stack(config);

    ExecContext ctx;
    const RunReport rep = collectRunReport(stack, ctx, 2);
    EXPECT_EQ(rep.memory.staticActivations,
              rep.memory.observedActivations);
    const Footprint fp = stack.measureFootprint();
    EXPECT_EQ(fp.weights, rep.memory.staticWeights);
    EXPECT_EQ(fp.sparseMeta, rep.memory.staticSparseMeta);
    EXPECT_GT(rep.memory.staticSparseMeta, 0u);
}

TEST(MemoryEstimate, PredictsIm2colScratch)
{
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    ExecContext ctx;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    const RunReport rep = collectRunReport(stack, ctx, 2);
    EXPECT_GT(rep.memory.staticScratch, 0u);
    EXPECT_EQ(rep.memory.staticScratch, rep.memory.observedScratch);
    EXPECT_EQ(rep.memory.staticActivations,
              rep.memory.observedActivations);
}

// At batch 8 the im2col convs fold images into the GEMM's N: the
// [k, g*hw] columns and the wider GEMM's C tiles (one even when
// serial, to store into the NCHW planes) must be mirrored byte for
// byte.
TEST(MemoryEstimate, MatchesObservedPeakForFoldedBatch)
{
    for (const char *model : {"mobilenet", "vgg16"}) {
        StackConfig config;
        config.modelName = model;
        config.widthMult = 0.25;
        InferenceStack stack(config);

        for (const int threads : {1, 2}) {
            SCOPED_TRACE(std::string(model) + " threads " +
                         std::to_string(threads));
            ExecContext ctx;
            ctx.backend =
                threads > 1 ? Backend::OpenMP : Backend::Serial;
            ctx.threads = threads;
            ctx.convAlgo = ConvAlgo::Im2colGemm;
            const RunReport rep = collectRunReport(stack, ctx, 2, 8);
            ASSERT_TRUE(rep.memory.collected);
            EXPECT_GT(rep.memory.staticScratch, 0u);
            EXPECT_EQ(rep.memory.staticScratch,
                      rep.memory.observedScratch);
            EXPECT_EQ(rep.memory.staticActivations,
                      rep.memory.observedActivations);
        }
    }
}

// A conv's BatchNorm and ReLU run in its output store at inference, so
// they add no Activations bytes to the forward, and the estimate
// prices them at 0.
TEST(MemoryEstimate, FusedTailAddsNoActivationBytes)
{
    for (const ConvAlgo algo : {ConvAlgo::Direct, ConvAlgo::Im2colGemm}) {
        SCOPED_TRACE(convAlgoName(algo));
        Rng rng(31);
        Network convOnly("conv");
        convOnly.emplace<Conv2d>("conv", 3, 8, 3, 1, 1, false)
            ->initKaiming(rng);
        Network fused("conv-bn-relu");
        fused.emplace<Conv2d>("conv", 3, 8, 3, 1, 1, false)
            ->initKaiming(rng);
        fused.emplace<BatchNorm2d>("bn", 8);
        fused.emplace<ReLU>("relu");

        const Tensor in = test::randomTensor(Shape{2, 3, 8, 8}, 32);
        auto observedPeak = [&](Network &net) {
            auto &tracker = MemoryTracker::instance();
            const size_t pre =
                tracker.currentBytes(MemClass::Activations);
            tracker.resetPeaks();
            ExecContext ctx;
            ctx.convAlgo = algo;
            (void)net.forward(in, ctx);
            return tracker.peakBytes(MemClass::Activations) - pre;
        };
        const size_t fusedPeak = observedPeak(fused);
        EXPECT_EQ(fusedPeak, observedPeak(convOnly));

        const analysis::MemoryEstimate est =
            analysis::estimateForwardMemory(fused, in.shape(),
                                            Backend::Serial, algo, 1);
        ASSERT_EQ(est.perLayer.size(), 3u);
        EXPECT_EQ(est.perLayer[1].transientBytes, 0u);
        EXPECT_EQ(est.perLayer[2].transientBytes, 0u);
        // The estimate also counts the input the caller holds.
        EXPECT_EQ(est.activationsPeak, in.bytes() + fusedPeak);
    }
}

// ---------------------------------------------------------------------
// Serving-engine pre-flight.
// ---------------------------------------------------------------------

TEST(ServePreflight, BadDeploymentRejectedBeforeWorkersSpawn)
{
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    serveConfig.backend = Backend::OpenMP;
    serveConfig.threads = 0; // the verifier's bad-config rule
    try {
        serve::InferenceEngine engine(stack, serveConfig);
        FAIL() << "engine accepted an OpenMP team of 0 threads";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::BadConfig);
        EXPECT_NE(std::string(e.what()).find("bad-config"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServePreflight, CleanDeploymentStartsAndServes)
{
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    serve::InferenceEngine engine(stack, serveConfig);
    Tensor input(stack.inputShape(1));
    Rng rng(3);
    input.fillNormal(rng, 0.0f, 1.0f);
    Tensor out = engine.submit(std::move(input)).get();
    EXPECT_EQ(out.shape(), (Shape{1, config.classes}));
    engine.shutdown();
}

TEST(ServePreflight, NonFiniteWeightsRejectedBeforeWorkersSpawn)
{
    // A NaN weight would answer every request with NaN; the pre-flight
    // refuses the deployment instead of serving it.
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);
    auto *conv =
        dynamic_cast<Conv2d *>(stack.model().net.layers().front().get());
    ASSERT_NE(conv, nullptr);
    conv->weight()[0] = std::nanf("");

    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    try {
        serve::InferenceEngine engine(stack, serveConfig);
        FAIL() << "engine accepted a NaN weight";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::BadConfig);
        EXPECT_NE(std::string(e.what()).find("non-finite-weight"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Diagnostic code table.
// ---------------------------------------------------------------------

TEST(Diagnostics, CheckNameTableIsExhaustiveAndStable)
{
    // checkName() is backed by a table static_asserted against
    // Check::Count_, so adding a code without a name fails the build;
    // this test pins the runtime properties: every name is non-empty,
    // kebab-case, unique, and never the "?" fallback.
    std::set<std::string> seen;
    for (size_t i = 0; i < static_cast<size_t>(Check::Count_); ++i) {
        const std::string name =
            analysis::checkName(static_cast<Check>(i));
        EXPECT_FALSE(name.empty()) << "code " << i;
        EXPECT_NE("?", name) << "code " << i;
        for (char ch : name)
            EXPECT_TRUE((ch >= 'a' && ch <= 'z') ||
                        (ch >= '0' && ch <= '9') || ch == '-')
                << name;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate name " << name;
    }
    // Spot-pin the spellings tools grep for.
    EXPECT_STREQ("duplicate-layer-name",
                 analysis::checkName(Check::DuplicateLayerName));
    EXPECT_STREQ("non-finite-weight",
                 analysis::checkName(Check::NonFiniteWeight));
    EXPECT_STREQ("error-budget-exceeded",
                 analysis::checkName(Check::ErrorBudgetExceeded));
}

TEST(Verifier, DuplicateLayerNameIsAnError)
{
    // Two layers sharing a name would alias in plan overrides and in
    // every per-layer report; the verifier must refuse the network.
    Network net("dup");
    Rng rng(1);
    net.emplace<Conv2d>("same", 3, 8, 3, 1, 1)->initKaiming(rng);
    net.emplace<Conv2d>("same", 8, 8, 3, 1, 1)->initKaiming(rng);
    const VerifyReport rep = verify(net, Shape{1, 3, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::DuplicateLayerName));

    // Distinct names: clean.
    Network ok("nodup");
    ok.emplace<Conv2d>("a", 3, 8, 3, 1, 1)->initKaiming(rng);
    ok.emplace<Conv2d>("b", 8, 8, 3, 1, 1)->initKaiming(rng);
    EXPECT_TRUE(verify(ok, Shape{1, 3, 8, 8}).ok());
}

} // namespace
} // namespace dlis
