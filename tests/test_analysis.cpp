/**
 * @file
 * Static-analysis tests: the malformed-model corpus (one test per
 * defect class the verifier must catch), the clean-model configuration
 * matrix, byte-exactness of the static memory estimate against the
 * MemoryTracker, and the serving engine's deployment pre-flight.
 */

#include <cmath>
#include <numeric>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "nn/activations.hpp"
#include "nn/models/model.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"
#include "stack/report.hpp"

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
// Malformed-model corpus: six seeded defect classes, one test each.
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

// ---------------------------------------------------------------------
// Additional verifier rules.
// ---------------------------------------------------------------------

TEST(Verifier, OclBackendRejectsSparseFormats)
{
    const VerifyReport rep = verify(csrConvNet(validSlice()),
                                    Shape{1, 1, 8, 8},
                                    Backend::OclHandTuned);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::UnsupportedFormat));
}

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
    const Backend oclBackends[] = {Backend::OclHandTuned,
                                   Backend::OclGemmLib};

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

            // CPU backends support every format.
            for (Backend b : cpuBackends) {
                const VerifyReport rep =
                    verify(stack.model().net, stack.inputShape(1), b);
                EXPECT_TRUE(rep.ok())
                    << model << " x " << weightFormatName(mc.format)
                    << " x " << backendName(b) << ":\n"
                    << rep.str();
            }
            // The simulated OpenCL backends are dense-only.
            for (Backend b : oclBackends) {
                const VerifyReport rep =
                    verify(stack.model().net, stack.inputShape(1), b);
                if (mc.format == WeightFormat::Dense) {
                    EXPECT_TRUE(rep.ok()) << rep.str();
                } else {
                    EXPECT_FALSE(rep.ok())
                        << model << " x "
                        << weightFormatName(mc.format) << " x "
                        << backendName(b);
                    EXPECT_TRUE(rep.has(Check::UnsupportedFormat));
                }
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
        Shape cur = stack.inputShape(1);
        size_t convSeen = 0;
        for (const auto &layer : stack.model().net.layers()) {
            // Rotate algorithms across the layers that actually have
            // an algorithm choice (im2col demands scratch there);
            // everything else runs direct.
            const bool tunable =
                analysis::layerForwardMemory(*layer, cur,
                                             Backend::Serial,
                                             ConvAlgo::Im2colGemm, 1)
                    .scratchBytes > 0;
            LayerExecOverride ov;
            ov.backend = Backend::Serial;
            ov.convAlgo =
                tunable ? algos[convSeen++ % 2] : ConvAlgo::Direct;
            ov.threads = 1;
            overrides[layer->name()] = ov;
            cur = layer->outputShape(cur);
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

// ---------------------------------------------------------------------
// Serving-engine pre-flight.
// ---------------------------------------------------------------------

TEST(ServePreflight, BadDeploymentRejectedBeforeWorkersSpawn)
{
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    config.technique = Technique::WeightPruning;
    config.wpSparsity = 0.5;
    config.format = WeightFormat::Csr;
    InferenceStack stack(config);

    serve::ServeConfig serveConfig;
    serveConfig.workers = 1;
    serveConfig.backend = Backend::OclHandTuned; // no sparse kernels
    try {
        serve::InferenceEngine engine(stack, serveConfig);
        FAIL() << "engine accepted a CSR model on an OpenCL backend";
    } catch (const serve::RejectedError &e) {
        EXPECT_EQ(e.reason(), serve::RejectReason::BadConfig);
        EXPECT_NE(std::string(e.what()).find("unsupported-format"),
                  std::string::npos);
    }
}

TEST(ServePreflight, SimulatedBackendIsRejected)
{
    // The OpenCL backends are estimate-only: a dense model passes the
    // verifier on them, but no worker could run a single request.
    StackConfig config;
    config.modelName = "vgg16";
    config.widthMult = 0.25;
    InferenceStack stack(config);

    for (const Backend b : {Backend::OclHandTuned, Backend::OclGemmLib}) {
        serve::ServeConfig serveConfig;
        serveConfig.workers = 1;
        serveConfig.backend = b;
        try {
            serve::InferenceEngine engine(stack, serveConfig);
            ADD_FAILURE() << "engine accepted " << backendName(b);
        } catch (const serve::RejectedError &e) {
            EXPECT_EQ(e.reason(), serve::RejectReason::BadConfig);
            EXPECT_NE(std::string(e.what()).find("estimate-only"),
                      std::string::npos)
                << e.what();
        }
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
    EXPECT_STREQ("activation-overflow",
                 analysis::checkName(Check::ActivationOverflow));
    EXPECT_STREQ("dead-output",
                 analysis::checkName(Check::DeadOutput));
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

// ---------------------------------------------------------------------
// Numeric-hazard corpus: each seeded hazard next to its clean twin.
// ---------------------------------------------------------------------

analysis::AnalysisReport
analyze(const Network &net, Shape input)
{
    analysis::AnalyzeOptions opts;
    opts.input = std::move(input);
    return analysis::analyzeNetwork(net, opts);
}

TEST(NumericCorpus, NonFiniteWeightIsAnError)
{
    Network bad("nan-weight");
    Rng rng(1);
    Conv2d *conv = bad.emplace<Conv2d>("conv", 1, 2, 3, 1, 1);
    conv->initKaiming(rng);
    conv->weight()[4] = std::nanf("");
    const analysis::AnalysisReport rep =
        analyze(bad, Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::NonFiniteWeight));
    EXPECT_FALSE(rep.ranges.complete); // walk stops at NaN weights

    // Negative running variance poisons the BN scale the same way.
    Network badBn("neg-var");
    badBn.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
    auto *bn = badBn.emplace<BatchNorm2d>("bn", 2);
    bn->runningVar()[0] = -1.0f;
    EXPECT_TRUE(analyze(badBn, Shape{1, 1, 8, 8})
                    .has(Check::NonFiniteWeight));

    // Clean twin: same topology, finite parameters.
    Network good("finite-weight");
    good.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
    good.emplace<BatchNorm2d>("bn", 2);
    const analysis::AnalysisReport cleanRep =
        analyze(good, Shape{1, 1, 8, 8});
    EXPECT_TRUE(cleanRep.ok());
    EXPECT_FALSE(cleanRep.has(Check::NonFiniteWeight));
    EXPECT_TRUE(cleanRep.ranges.complete);
}

TEST(NumericCorpus, ExplodingBnScaleOverflowsFloatRange)
{
    // gamma / sqrt(var + eps) with a huge gamma over a tiny variance:
    // the scale is finite in double, but the scaled activation
    // interval escapes float range — the overflow is caught before
    // any kernel would have produced the Inf.
    Network bad("exploding-bn");
    Rng rng(2);
    bad.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
    auto *bn = bad.emplace<BatchNorm2d>("bn", 2);
    for (size_t c = 0; c < 2; ++c) {
        bn->gamma()[c] = 1e38f;
        bn->runningVar()[c] = 0.0f; // scale ~ 1e38 / sqrt(eps)
    }
    const analysis::AnalysisReport rep =
        analyze(bad, Shape{1, 1, 8, 8});
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(Check::ActivationOverflow));
    EXPECT_FALSE(rep.ranges.complete);

    // Clean twin: default gamma = 1 keeps everything representable.
    Network good("tame-bn");
    good.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
    good.emplace<BatchNorm2d>("bn", 2);
    const analysis::AnalysisReport cleanRep =
        analyze(good, Shape{1, 1, 8, 8});
    EXPECT_TRUE(cleanRep.ok());
    EXPECT_FALSE(cleanRep.has(Check::ActivationOverflow));
}

TEST(NumericCorpus, DeadReluChainIsAWarningNotAnError)
{
    // Zero weights with a negative bias pin every pre-activation to
    // -1: the ReLU output is provably 0 everywhere. That wastes the
    // whole chain but executes fine — Warning severity, ok() stays
    // true.
    Network bad("dead-relu");
    Conv2d *conv = bad.emplace<Conv2d>("conv", 1, 2, 3, 1, 1);
    for (size_t c = 0; c < 2; ++c)
        conv->bias()[c] = -1.0f;
    bad.emplace<ReLU>("relu");
    bad.emplace<Conv2d>("conv2", 2, 2, 3, 1, 1);
    bad.emplace<ReLU>("relu2");

    const analysis::AnalysisReport rep =
        analyze(bad, Shape{1, 1, 8, 8});
    EXPECT_TRUE(rep.has(Check::DeadOutput));
    EXPECT_TRUE(rep.ok()) << "dead outputs must not be Errors";
    bool sawWarning = false;
    for (const analysis::Diagnostic &d : rep.diagnostics)
        sawWarning |= d.check == Check::DeadOutput &&
                      d.severity == Severity::Warning;
    EXPECT_TRUE(sawWarning);

    // Clean twin: Kaiming weights straddle zero, nothing is provably
    // dead.
    Network good("live-relu");
    Rng rng(3);
    good.emplace<Conv2d>("conv", 1, 2, 3, 1, 1)->initKaiming(rng);
    good.emplace<ReLU>("relu");
    const analysis::AnalysisReport cleanRep =
        analyze(good, Shape{1, 1, 8, 8});
    EXPECT_TRUE(cleanRep.ok());
    EXPECT_FALSE(cleanRep.has(Check::DeadOutput));
}

// ---------------------------------------------------------------------
// Property: observed activations inside the static intervals.
// ---------------------------------------------------------------------

TEST(PropertyBounds, RandomConvChainsStayInsideStaticBounds)
{
    // The intervals are exact-arithmetic sets; float execution may
    // land a rounding step outside, so each check allows a fixed
    // relative slack of the interval's magnitude.
    constexpr double kRelSlack = 1e-4;
    const ConvAlgo algos[] = {ConvAlgo::Direct, ConvAlgo::Im2colGemm};
    size_t unitsChecked = 0;

    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        Network net("prop" + std::to_string(seed));
        size_t cin = 1 + rng.uniformInt(3);
        const size_t firstCin = cin;
        const size_t side = 8 + rng.uniformInt(9);
        const int depth = 2 + static_cast<int>(rng.uniformInt(3));
        for (int li = 0; li < depth; ++li) {
            // 3x3 stride-1 padded convs: both algorithms run every
            // layer end to end.
            const size_t cout = 1 + rng.uniformInt(8);
            net.emplace<Conv2d>("c" + std::to_string(li), cin, cout,
                                3, 1, 1)
                ->initKaiming(rng);
            cin = cout;
            if (rng.uniformInt(2))
                net.emplace<ReLU>("r" + std::to_string(li));
        }

        const Shape input{1, firstCin, side, side};
        const analysis::RangeReport ranges = analysis::propagateRanges(
            net, input, analysis::Interval{-1.0, 1.0});
        ASSERT_TRUE(ranges.complete) << "seed " << seed;
        ASSERT_EQ(net.layers().size(), ranges.units.size());

        Tensor in(input);
        in.fillUniform(rng, -1.0f, 1.0f);

        for (ConvAlgo algo : algos) {
            ExecContext ctx;
            ctx.convAlgo = algo;
            Tensor x = in;
            size_t violations = 0;
            for (size_t ui = 0; ui < net.layers().size(); ++ui) {
                x = net.layers()[ui]->forward(x, ctx);
                const analysis::UnitAnalysis &unit = ranges.units[ui];
                const auto &d = x.shape().dims();
                const size_t hw = d.size() == 4 ? d[2] * d[3] : 1;
                for (size_t i = 0; i < x.numel(); ++i) {
                    const analysis::Interval &iv =
                        unit.out.at((i / hw) % d[1]);
                    const double pad =
                        kRelSlack * std::max(1.0, iv.magnitude());
                    if (!iv.contains(x[i], pad) && violations++ == 0)
                        ADD_FAILURE()
                            << "seed " << seed << " unit "
                            << unit.name << " algo "
                            << static_cast<int>(algo) << ": value "
                            << x[i] << " outside " << iv.str();
                }
                ++unitsChecked;
            }
            EXPECT_EQ(0u, violations) << "seed " << seed;
        }
    }
    EXPECT_GE(unitsChecked, 20u * 2u * 2u);
}

} // namespace
} // namespace dlis
