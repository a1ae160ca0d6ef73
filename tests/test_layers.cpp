/**
 * @file
 * Layer-level tests: shape propagation, channel surgery equivalence
 * (pruned forward == dense forward restricted to kept channels),
 * format switching, and error handling.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "compress/random_pruner.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/fold_bn.hpp"
#include "nn/linear.hpp"
#include "nn/models/model.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::randomTensor;

TEST(Conv2dLayer, OutputShapes)
{
    Conv2d same("c", 3, 8, 3, 1, 1);
    EXPECT_EQ(same.outputShape(Shape{2, 3, 16, 16}),
              (Shape{2, 8, 16, 16}));
    Conv2d down("d", 3, 8, 3, 2, 1);
    EXPECT_EQ(down.outputShape(Shape{1, 3, 16, 16}),
              (Shape{1, 8, 8, 8}));
    Conv2d pw("p", 4, 2, 1, 1, 0);
    EXPECT_EQ(pw.outputShape(Shape{1, 4, 5, 5}), (Shape{1, 2, 5, 5}));
    EXPECT_THROW(same.outputShape(Shape{1, 4, 16, 16}), FatalError);
}

TEST(Conv2dLayer, KeepOutputChannelsMatchesDenseSubset)
{
    Rng rng(1);
    Conv2d conv("c", 3, 6, 3, 1, 1);
    conv.initKaiming(rng);
    Tensor in = randomTensor(Shape{1, 3, 8, 8}, 2);

    ExecContext ctx;
    const Tensor full = conv.forward(in, ctx);

    Conv2d pruned("p", 3, 6, 3, 1, 1);
    pruned.weight() = conv.weight();
    pruned.bias() = conv.bias();
    const std::vector<size_t> keep{1, 3, 4};
    pruned.keepOutputChannels(keep);
    EXPECT_EQ(pruned.cout(), 3u);

    const Tensor out = pruned.forward(in, ctx);
    for (size_t i = 0; i < keep.size(); ++i)
        for (size_t p = 0; p < 64; ++p)
            EXPECT_FLOAT_EQ(out[i * 64 + p],
                            full[keep[i] * 64 + p]);
}

TEST(Conv2dLayer, KeepInputChannelsMatchesZeroedDense)
{
    Rng rng(3);
    Conv2d conv("c", 4, 2, 3, 1, 1);
    conv.initKaiming(rng);
    Tensor in = randomTensor(Shape{1, 4, 6, 6}, 4);

    // Zero the dropped input channels in the dense model.
    Conv2d zeroed("z", 4, 2, 3, 1, 1);
    zeroed.weight() = conv.weight();
    zeroed.bias() = conv.bias();
    const std::vector<size_t> keep{0, 2};
    for (size_t oc = 0; oc < 2; ++oc)
        for (size_t ci : {1ul, 3ul})
            for (size_t kk = 0; kk < 9; ++kk)
                zeroed.weight()[(oc * 4 + ci) * 9 + kk] = 0.0f;

    ExecContext ctx;
    const Tensor ref = zeroed.forward(in, ctx);

    Conv2d pruned("p", 4, 2, 3, 1, 1);
    pruned.weight() = conv.weight();
    pruned.bias() = conv.bias();
    pruned.keepInputChannels(keep);
    // Slice the input to the kept channels.
    Tensor small(Shape{1, 2, 6, 6});
    for (size_t i = 0; i < keep.size(); ++i)
        std::copy_n(in.data() + keep[i] * 36, 36,
                    small.data() + i * 36);
    const Tensor out = pruned.forward(small, ctx);
    EXPECT_LE(out.maxAbsDiff(ref), 1e-5f);
}

TEST(Conv2dLayer, SurgeryRejectsBadKeepLists)
{
    Rng rng(5);
    Conv2d conv("c", 3, 4, 3, 1, 1);
    conv.initKaiming(rng);
    EXPECT_THROW(conv.keepOutputChannels({}), FatalError);
    EXPECT_THROW(conv.keepOutputChannels({0, 0}), FatalError);
    EXPECT_THROW(conv.keepOutputChannels({2, 1}), FatalError);
    EXPECT_THROW(conv.keepOutputChannels({4}), FatalError);
}

TEST(Conv2dLayer, CsrFormatPreservesFunction)
{
    Rng rng(6);
    Conv2d conv("c", 3, 5, 3, 1, 1, /*withBias=*/false);
    conv.initKaiming(rng);
    for (size_t i = 0; i < conv.weight().numel(); i += 2)
        conv.weight()[i] = 0.0f;

    Tensor in = randomTensor(Shape{2, 3, 7, 7}, 7);
    ExecContext ctx;
    const Tensor dense = conv.forward(in, ctx);

    conv.setFormat(WeightFormat::Csr);
    EXPECT_LE(conv.forward(in, ctx).maxAbsDiff(dense), 1e-5f);
    EXPECT_GT(conv.csrWeight().nnz(), 0u);
    // Training on CSR weights is forbidden.
    ExecContext train;
    train.training = true;
    EXPECT_THROW(conv.forward(in, train), FatalError);

    conv.setFormat(WeightFormat::Dense);
    EXPECT_LE(conv.forward(in, ctx).maxAbsDiff(dense), 1e-6f);
}

TEST(LinearLayer, AcceptsFlattenedAnd4dInput)
{
    Rng rng(8);
    Linear fc("fc", 12, 4);
    fc.initKaiming(rng);
    Tensor flat = randomTensor(Shape{2, 12}, 9);
    Tensor spatial = flat.reshaped(Shape{2, 3, 2, 2});
    ExecContext ctx;
    EXPECT_LE(fc.forward(spatial, ctx).maxAbsDiff(
                  fc.forward(flat, ctx)),
              0.0f);
    EXPECT_THROW(fc.outputShape(Shape{2, 13}), FatalError);
}

TEST(LinearLayer, KeepInputChannelsWithSpatial)
{
    Rng rng(10);
    Linear fc("fc", 4 * 2, 3); // 4 channels x 2 spatial
    fc.initKaiming(rng);
    Tensor in = randomTensor(Shape{1, 8}, 11);

    ExecContext ctx;
    // Reference: zero features of dropped channels 1 and 2.
    Linear zeroed("z", 8, 3);
    zeroed.weight() = fc.weight();
    zeroed.bias() = fc.bias();
    for (size_t o = 0; o < 3; ++o)
        for (size_t f : {2ul, 3ul, 4ul, 5ul})
            zeroed.weight()[o * 8 + f] = 0.0f;
    const Tensor ref = zeroed.forward(in, ctx);

    fc.keepInputChannels({0, 3}, 2);
    EXPECT_EQ(fc.inFeatures(), 4u);
    Tensor small(Shape{1, 4});
    small[0] = in[0];
    small[1] = in[1];
    small[2] = in[6];
    small[3] = in[7];
    EXPECT_LE(fc.forward(small, ctx).maxAbsDiff(ref), 1e-5f);
}

TEST(BatchNormLayer, InferenceUsesRunningStats)
{
    BatchNorm2d bn("bn", 2);
    bn.runningMean()[0] = 1.0f;
    bn.runningVar()[0] = 4.0f;
    bn.gamma()[0] = 2.0f;
    bn.beta()[0] = 0.5f;

    Tensor in(Shape{1, 2, 1, 1});
    in[0] = 3.0f;
    ExecContext ctx;
    const Tensor out = bn.forward(in, ctx);
    EXPECT_NEAR(out[0], 2.0f * (3.0f - 1.0f) / 2.0f + 0.5f, 1e-4f);
}

TEST(BatchNormLayer, TrainingNormalisesBatch)
{
    BatchNorm2d bn("bn", 1);
    Tensor in = randomTensor(Shape{4, 1, 4, 4}, 12);
    ExecContext ctx;
    ctx.training = true;
    const Tensor out = bn.forward(in, ctx);
    double sum = 0.0, sq = 0.0;
    for (size_t i = 0; i < out.numel(); ++i) {
        sum += out[i];
        sq += static_cast<double>(out[i]) * out[i];
    }
    const double mean = sum / static_cast<double>(out.numel());
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / static_cast<double>(out.numel()), 1.0, 1e-2);
}

TEST(BatchNormLayer, KeepChannelsShrinksAllStats)
{
    BatchNorm2d bn("bn", 4);
    bn.runningMean()[2] = 7.0f;
    bn.keepChannels({2, 3});
    EXPECT_EQ(bn.channels(), 2u);
    EXPECT_FLOAT_EQ(bn.runningMean()[0], 7.0f);
}

TEST(PoolingLayers, ShapeChecks)
{
    MaxPool2d pool("pool", 2);
    EXPECT_EQ(pool.outputShape(Shape{1, 4, 8, 8}), (Shape{1, 4, 4, 4}));
    EXPECT_THROW(pool.outputShape(Shape{1, 4, 7, 8}), FatalError);

    GlobalAvgPool gap("gap");
    EXPECT_EQ(gap.outputShape(Shape{2, 16, 4, 4}), (Shape{2, 16}));

    Flatten flatten("flat");
    EXPECT_EQ(flatten.outputShape(Shape{2, 3, 4, 4}), (Shape{2, 48}));
}

TEST(ResidualBlockLayer, IdentityAndProjectionShapes)
{
    ResidualBlock id("id", 8, 8, 1);
    EXPECT_EQ(id.projection(), nullptr);
    EXPECT_EQ(id.outputShape(Shape{1, 8, 8, 8}), (Shape{1, 8, 8, 8}));

    ResidualBlock proj("proj", 8, 16, 2);
    EXPECT_NE(proj.projection(), nullptr);
    EXPECT_EQ(proj.outputShape(Shape{1, 8, 8, 8}),
              (Shape{1, 16, 4, 4}));
}

TEST(ResidualBlockLayer, SkipConnectionActuallyAdds)
{
    // With all conv weights zero, bn(0) = beta = 0, so the block
    // reduces to relu(identity).
    ResidualBlock block("b", 4, 4, 1);
    Tensor in = randomTensor(Shape{1, 4, 5, 5}, 13);
    ExecContext ctx;
    const Tensor out = block.forward(in, ctx);
    for (size_t i = 0; i < in.numel(); ++i)
        EXPECT_FLOAT_EQ(out[i], in[i] > 0.0f ? in[i] : 0.0f);
}

TEST(NetworkContainer, LayerManagementAndErrors)
{
    Network net("tiny");
    auto *conv = net.emplace<Conv2d>("c", 3, 4, 3, 1, 1);
    net.emplace<ReLU>("r");
    EXPECT_EQ(net.size(), 2u);
    EXPECT_EQ(&net.layer(0), conv);
    EXPECT_THROW(net.layer(2), FatalError);
    EXPECT_EQ(net.outputShape(Shape{1, 3, 8, 8}), (Shape{1, 4, 8, 8}));

    // Inference-only layers reject backward.
    ExecContext ctx;
    Tensor in = randomTensor(Shape{1, 3, 8, 8}, 14);
    net.forward(in, ctx);
    MaxPool2d pool("p", 2);
    EXPECT_THROW(pool.backward(in, ctx), FatalError);
}

TEST(NetworkContainer, ProfiledForwardReportsAllLayers)
{
    Rng rng(15);
    Network net("tiny");
    net.emplace<Conv2d>("c1", 3, 4, 3, 1, 1)->initKaiming(rng);
    net.emplace<ReLU>("r1");
    net.emplace<MaxPool2d>("p1", 2);

    ExecContext ctx;
    std::vector<LayerTiming> timings;
    net.forwardProfiled(randomTensor(Shape{1, 3, 8, 8}, 16), ctx,
                        timings);
    ASSERT_EQ(timings.size(), 3u);
    EXPECT_EQ(timings[0].name, "c1");
    for (const auto &t : timings)
        EXPECT_GE(t.seconds, 0.0);
}

TEST(DepthwiseLayer, KeepChannelsMatchesSubset)
{
    Rng rng(17);
    DepthwiseConv2d dw("dw", 4, 3, 1, 1);
    dw.initKaiming(rng);
    Tensor in = randomTensor(Shape{1, 4, 6, 6}, 18);
    ExecContext ctx;
    const Tensor full = dw.forward(in, ctx);

    DepthwiseConv2d pruned("p", 4, 3, 1, 1);
    pruned.weight() = dw.weight();
    pruned.keepChannels({0, 2});

    Tensor small(Shape{1, 2, 6, 6});
    std::copy_n(in.data(), 36, small.data());
    std::copy_n(in.data() + 2 * 36, 36, small.data() + 36);
    const Tensor out = pruned.forward(small, ctx);
    for (size_t p = 0; p < 36; ++p) {
        EXPECT_FLOAT_EQ(out[p], full[p]);
        EXPECT_FLOAT_EQ(out[36 + p], full[2 * 36 + p]);
    }
}

/** A BN-folded depthwise conv has a bias; pruning must subset it too. */
TEST(DepthwiseLayer, KeepChannelsMatchesSubsetWithBias)
{
    Rng rng(19);
    Network net("dwbn");
    auto *dw = net.emplace<DepthwiseConv2d>("dw", 4, 3, 1, 1);
    dw->initKaiming(rng);
    auto *bn = net.emplace<BatchNorm2d>("bn", 4);
    for (size_t ch = 0; ch < 4; ++ch) {
        bn->gamma()[ch] = 0.5f + 0.25f * static_cast<float>(ch);
        bn->beta()[ch] = 1.0f - 0.75f * static_cast<float>(ch);
        bn->runningMean()[ch] = 0.1f * static_cast<float>(ch);
        bn->runningVar()[ch] = 1.0f + static_cast<float>(ch);
    }
    ASSERT_EQ(foldBatchNorms(net), 1u);
    ASSERT_TRUE(dw->hasBias());
    Tensor in = randomTensor(Shape{2, 4, 5, 5}, 20);
    ExecContext ctx;
    const Tensor full = net.forward(in, ctx);

    const std::vector<size_t> keep{1, 3};
    dw->keepChannels(keep);
    ASSERT_EQ(dw->bias().numel(), keep.size());
    Tensor small(Shape{2, 2, 5, 5});
    for (size_t img = 0; img < 2; ++img)
        for (size_t i = 0; i < keep.size(); ++i)
            std::copy_n(in.data() + (img * 4 + keep[i]) * 25, 25,
                        small.data() + (img * 2 + i) * 25);
    const Tensor out = dw->forward(small, ctx);
    for (size_t img = 0; img < 2; ++img)
        for (size_t i = 0; i < keep.size(); ++i)
            for (size_t p = 0; p < 25; ++p)
                EXPECT_FLOAT_EQ(out[(img * 2 + i) * 25 + p],
                                full[(img * 4 + keep[i]) * 25 + p])
                    << "image " << img << " kept channel " << keep[i];
}

/** Each layer's gradients() has its parameters()' count and shapes. */
void
expectGradientsFollowParameters(Network &net, const std::string &step)
{
    SCOPED_TRACE(step);
    for (size_t i = 0; i < net.size(); ++i) {
        Layer &layer = net.layer(i);
        const std::vector<Tensor *> params = layer.parameters();
        const std::vector<Tensor *> grads = layer.gradients();
        ASSERT_EQ(grads.size(), params.size()) << layer.name();
        for (size_t t = 0; t < params.size(); ++t) {
            EXPECT_EQ(grads[t]->shape(), params[t]->shape())
                << layer.name() << " tensor " << t;
            EXPECT_EQ(grads[t]->numel(), params[t]->numel())
                << layer.name() << " tensor " << t;
        }
    }
}

/** Sum of |g| over every gradient of @p net. */
double
gradientMass(Network &net)
{
    double mass = 0.0;
    for (const Tensor *g : net.gradients())
        for (size_t i = 0; i < g->numel(); ++i)
            mass += std::fabs((*g)[i]);
    return mass;
}

/** One training forward and backward of a batch of two. */
void
trainingStep(Network &net, uint64_t seed)
{
    ExecContext ctx;
    ctx.training = true;
    const Tensor logits =
        net.forward(randomTensor(Shape{2, 3, 32, 32}, seed), ctx);
    net.backward(randomTensor(logits.shape(), seed + 1), ctx);
}

/**
 * Gradients are training state the layer builds on demand: whatever
 * reshapes a parameter (channel surgery, BN folding's enableBias, a
 * sparse format dropping the dense weights) leaves gradients() shaped
 * like parameters(), and zeroGrad() zeroes every one of them.
 */
TEST(Layer, GradientsFollowParameterShapes)
{
    for (const std::string name : {"mobilenet", "resnet18"}) {
        SCOPED_TRACE(name);
        Rng rng(21);
        Model model = makeModel(name, 10, 0.25, rng);

        trainingStep(model.net, 22);
        expectGradientsFollowParameters(model.net, "backward");
        EXPECT_GT(gradientMass(model.net), 0.0);

        RandomPruner(model, 23).removeChannels(12);
        expectGradientsFollowParameters(model.net, "channel surgery");
        model.net.zeroGrad();
        EXPECT_EQ(gradientMass(model.net), 0.0);

        ASSERT_GT(foldBatchNorms(model.net), 0u);
        expectGradientsFollowParameters(model.net, "bn folding");

        model.setFormat(WeightFormat::Csr);
        expectGradientsFollowParameters(model.net, "csr format");
        model.setFormat(WeightFormat::Dense);
        expectGradientsFollowParameters(model.net, "dense again");

        trainingStep(model.net, 24);
        expectGradientsFollowParameters(model.net, "second backward");
        EXPECT_GT(gradientMass(model.net), 0.0);
        model.net.zeroGrad();
        EXPECT_EQ(gradientMass(model.net), 0.0);
    }
}

} // namespace
} // namespace dlis
