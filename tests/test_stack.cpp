/**
 * @file
 * InferenceStack integration tests: configuration, compression
 * application, memory-footprint shapes (Table IV), MAC accounting, and
 * the calibration model's anchor points.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "stack/baselines.hpp"
#include "stack/calibration.hpp"
#include "stack/inference_stack.hpp"
#include "stack/report.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

StackConfig
smallConfig(const std::string &model, Technique technique)
{
    StackConfig c;
    c.modelName = model;
    c.technique = technique;
    c.widthMult = 0.25;
    return c;
}

TEST(InferenceStack, PlainBuildRunsAndCounts)
{
    InferenceStack stack(smallConfig("vgg16", Technique::None));
    EXPECT_EQ(stack.achievedSparsity(), 0.0);
    EXPECT_EQ(stack.achievedCompressionRate(), 0.0);
    EXPECT_NEAR(stack.macFraction(), 1.0, 1e-9);

    ExecContext ctx;
    const double sec = stack.measureHostSeconds(ctx, 2);
    EXPECT_GT(sec, 0.0);
}

TEST(InferenceStack, WeightPruningHitsTargetAndShrinksMacs)
{
    StackConfig c = smallConfig("vgg16", Technique::WeightPruning);
    c.wpSparsity = 0.8;
    c.format = WeightFormat::Csr;
    InferenceStack stack(c);
    EXPECT_NEAR(stack.achievedSparsity(), 0.8, 0.01);
    EXPECT_LT(stack.macFraction(), 0.25);
    EXPECT_GT(stack.macFraction(), 0.15);
}

TEST(InferenceStack, ChannelPruningHitsTargetRate)
{
    StackConfig c = smallConfig("vgg16", Technique::ChannelPruning);
    c.cpRate = 0.70;
    InferenceStack stack(c);
    EXPECT_NEAR(stack.achievedCompressionRate(), 0.70, 0.03);

    // The pruned network is a genuinely smaller dense network.
    EXPECT_EQ(stack.achievedSparsity(), 0.0);
    ExecContext ctx;
    Tensor in = test::randomTensor(stack.inputShape(), 5);
    Tensor out = stack.model().net.forward(in, ctx);
    EXPECT_EQ(out.shape(), (Shape{1, 10}));
}

TEST(InferenceStack, ChannelPruningWorksOnAllModels)
{
    for (const std::string &model : paperModels()) {
        StackConfig c = smallConfig(model, Technique::ChannelPruning);
        c.cpRate = 0.5;
        InferenceStack stack(c);
        EXPECT_NEAR(stack.achievedCompressionRate(), 0.5, 0.05)
            << model;
        ExecContext ctx;
        Tensor out = stack.model().net.forward(
            test::randomTensor(stack.inputShape(), 6), ctx);
        EXPECT_EQ(out.shape(), (Shape{1, 10})) << model;
    }
}

TEST(InferenceStack, QuantisationPinsSparsity)
{
    StackConfig c = smallConfig("mobilenet", Technique::Quantisation);
    c.ttqSparsity = 0.9213; // Table III MobileNet
    c.format = WeightFormat::Csr;
    InferenceStack stack(c);
    EXPECT_NEAR(stack.achievedSparsity(), 0.9213, 0.01);
}

TEST(InferenceStack, FootprintShapesMatchTableIV)
{
    // The paper's Table IV orderings, asserted on width-reduced
    // models: CSR techniques cost MORE memory than plain; channel
    // pruning costs far less.
    for (const std::string &model : paperModels()) {
        const BaselineRates r = tableIII(model);

        InferenceStack plain(smallConfig(model, Technique::None));
        const size_t plain_mem = plain.measureFootprint().total;

        StackConfig wp_c = smallConfig(model, Technique::WeightPruning);
        wp_c.wpSparsity = r.wpSparsity;
        wp_c.format = WeightFormat::Csr;
        InferenceStack wp(wp_c);
        const Footprint wp_fp = wp.measureFootprint();

        StackConfig cp_c =
            smallConfig(model, Technique::ChannelPruning);
        cp_c.cpRate = r.cpRate;
        InferenceStack cp(cp_c);

        EXPECT_GT(wp_fp.total, plain_mem) << model;
        EXPECT_GT(wp_fp.sparseMeta, 0u) << model;
        EXPECT_LT(cp.measureFootprint().total, plain_mem / 2) << model;
    }
}

/**
 * An inference-only stack holds no training state: neither building
 * it (compression included) nor a forward allocates gradients, the
 * only MemClass::Other tensors a layer owns.
 */
TEST(InferenceStack, BuildHoldsNoTrainingState)
{
    auto &tracker = MemoryTracker::instance();
    for (const std::string &model : paperModels()) {
        const BaselineRates r = tableIII(model);
        for (Technique t :
             {Technique::None, Technique::WeightPruning,
              Technique::ChannelPruning, Technique::Quantisation}) {
            SCOPED_TRACE(model + " / " + techniqueName(t));
            StackConfig c = smallConfig(model, t);
            c.wpSparsity = r.wpSparsity;
            c.cpRate = r.cpRate;
            c.ttqThreshold = r.ttqThreshold;
            if (t == Technique::WeightPruning ||
                t == Technique::Quantisation)
                c.format = WeightFormat::Csr;

            const size_t before = tracker.currentBytes(MemClass::Other);
            InferenceStack stack(c);
            EXPECT_EQ(tracker.currentBytes(MemClass::Other), before);

            ExecContext ctx;
            stack.model().net.forward(Tensor(stack.inputShape(1)), ctx);
            EXPECT_EQ(tracker.currentBytes(MemClass::Other), before);
        }
    }
}

TEST(InferenceStack, MobileNetSuffersWorstCsrBlowup)
{
    // §V-D / Table IV: 1x1-filter layers make MobileNet's CSR
    // footprint ratio the worst of the three models.
    double worst_ratio = 0.0;
    std::string worst_model;
    for (const std::string &model : paperModels()) {
        InferenceStack plain(smallConfig(model, Technique::None));
        const double plain_mem =
            static_cast<double>(plain.measureFootprint().total);

        StackConfig c = smallConfig(model, Technique::WeightPruning);
        c.wpSparsity = tableIII(model).wpSparsity;
        c.format = WeightFormat::Csr;
        InferenceStack wp(c);
        const double ratio =
            static_cast<double>(wp.measureFootprint().total) /
            plain_mem;
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            worst_model = model;
        }
    }
    EXPECT_EQ(worst_model, "mobilenet");
}

TEST(Baselines, PaperConstants)
{
    EXPECT_NEAR(paperBaselineAccuracy("vgg16"), 0.9220, 1e-9);
    EXPECT_NEAR(paperBaselineAccuracy("resnet18"), 0.9432, 1e-9);
    EXPECT_NEAR(paperBaselineAccuracy("mobilenet"), 0.9047, 1e-9);
    EXPECT_THROW(paperBaselineAccuracy("lenet"), FatalError);

    EXPECT_NEAR(tableIII("vgg16").wpSparsity, 0.7654, 1e-9);
    EXPECT_NEAR(tableV("mobilenet").cpRate, 0.96, 1e-9);
    EXPECT_EQ(paperModels().size(), 3u);
}

TEST(Calibration, AnchorsMatchPaper)
{
    // Table V rates must land at 90 % on the calibrated curves.
    for (const std::string &model : paperModels()) {
        const BaselineRates r = tableV(model);
        EXPECT_NEAR(calib::weightPruningAccuracy(model, r.wpSparsity),
                    0.90, 0.005)
            << model;
        EXPECT_NEAR(
            calib::channelPruningAccuracy(model, r.cpRate), 0.90,
            0.005)
            << model;
        EXPECT_NEAR(calib::ttqAccuracy(model, r.ttqThreshold), 0.90,
                    0.01)
            << model;
    }
    // Table III elbows sit at (or very near) the baseline accuracy.
    for (const std::string &model : paperModels()) {
        const BaselineRates r = tableIII(model);
        EXPECT_NEAR(calib::weightPruningAccuracy(model, r.wpSparsity),
                    paperBaselineAccuracy(model), 0.01)
            << model;
    }
}

TEST(Calibration, CurvesAreMonotoneWhereExpected)
{
    for (const std::string &model : paperModels()) {
        double prev = 1.0;
        for (double s = 0.0; s <= 0.95; s += 0.05) {
            const double acc = calib::weightPruningAccuracy(model, s);
            EXPECT_LE(acc, prev + 1e-12) << model << " @" << s;
            prev = acc;
        }
    }
    // MobileNet's TTQ accuracy *rises* with the threshold (Fig 3c).
    EXPECT_LT(calib::ttqAccuracy("mobilenet", 0.05),
              calib::ttqAccuracy("mobilenet", 0.20));
    // VGG/ResNet fall with the threshold.
    EXPECT_GT(calib::ttqAccuracy("vgg16", 0.05),
              calib::ttqAccuracy("vgg16", 0.20));
}

TEST(Report, TableFormatsAndChecks)
{
    TablePrinter t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
    EXPECT_EQ(fmtPercent(0.9047), "90.47%");
    EXPECT_EQ(fmtMb(1024 * 1024), "1.0");
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtSeconds(0.12345), "0.1235");
}

} // namespace
} // namespace dlis
