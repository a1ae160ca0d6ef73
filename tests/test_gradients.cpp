/**
 * @file
 * Finite-difference gradient verification for every trainable layer
 * and for a full residual block. This is the property that makes the
 * training engine (and therefore the fine-tuning results of all three
 * compression techniques) trustworthy.
 */

#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::randomTensor;

/** Scalar loss: weighted sum of outputs with fixed weights. */
double
scalarLoss(const Tensor &out)
{
    double loss = 0.0;
    for (size_t i = 0; i < out.numel(); ++i)
        loss += (0.5 + 0.01 * static_cast<double>(i % 7)) * out[i];
    return loss;
}

/** dLoss/dout for scalarLoss. */
Tensor
lossGrad(const Shape &shape)
{
    Tensor g(shape);
    for (size_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(0.5 + 0.01 *
                                        static_cast<double>(i % 7));
    return g;
}

/**
 * Check analytic gradients of @p layer against central differences,
 * for both the input gradient and every parameter gradient.
 */
void
checkLayerGradients(Layer &layer, const Shape &inputShape,
                    uint64_t seed, double tol = 2e-2)
{
    Tensor input = randomTensor(inputShape, seed);
    ExecContext ctx;
    ctx.training = true;

    layer.zeroGrad();
    Tensor out = layer.forward(input, ctx);
    Tensor grad_in = layer.backward(lossGrad(out.shape()), ctx);

    const float eps = 1e-3f;

    // Input gradient (subsampled for speed).
    for (size_t i = 0; i < input.numel();
         i += std::max<size_t>(1, input.numel() / 17)) {
        Tensor plus = input, minus = input;
        plus[i] += eps;
        minus[i] -= eps;
        ExecContext eval; // inference mode keeps BN running stats fixed
        eval.training = true; // but BN must use batch stats like above
        const double lp = scalarLoss(layer.forward(plus, eval));
        const double lm = scalarLoss(layer.forward(minus, eval));
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grad_in[i], numeric,
                    tol * std::max(1.0, std::fabs(numeric)))
            << "input grad mismatch at " << i;
    }

    // Restore the backward-time caches, then parameter gradients.
    layer.zeroGrad();
    out = layer.forward(input, ctx);
    layer.backward(lossGrad(out.shape()), ctx);

    auto params = layer.parameters();
    auto grads = layer.gradients();
    ASSERT_EQ(params.size(), grads.size());
    for (size_t t = 0; t < params.size(); ++t) {
        Tensor &w = *params[t];
        for (size_t i = 0; i < w.numel();
             i += std::max<size_t>(1, w.numel() / 11)) {
            const float orig = w[i];
            ExecContext eval;
            eval.training = true;
            w[i] = orig + eps;
            const double lp = scalarLoss(layer.forward(input, eval));
            w[i] = orig - eps;
            const double lm = scalarLoss(layer.forward(input, eval));
            w[i] = orig;
            const double numeric = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR((*grads[t])[i], numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << "param grad mismatch, tensor " << t << " index "
                << i;
        }
    }
}

TEST(Gradients, Conv2d)
{
    Conv2d conv("conv", 3, 4, 3, 1, 1);
    Rng rng(5);
    conv.initKaiming(rng);
    checkLayerGradients(conv, Shape{2, 3, 5, 5}, 100);
}

TEST(Gradients, Conv2dStride2NoBias)
{
    Conv2d conv("conv", 2, 3, 3, 2, 1, /*withBias=*/false);
    Rng rng(6);
    conv.initKaiming(rng);
    checkLayerGradients(conv, Shape{1, 2, 6, 6}, 101);
}

TEST(Gradients, Conv2dPointwise)
{
    Conv2d conv("pw", 4, 6, 1, 1, 0, /*withBias=*/false);
    Rng rng(7);
    conv.initKaiming(rng);
    checkLayerGradients(conv, Shape{2, 4, 3, 3}, 102);
}

TEST(Gradients, DepthwiseConv2d)
{
    DepthwiseConv2d dw("dw", 3, 3, 1, 1);
    Rng rng(8);
    dw.initKaiming(rng);
    checkLayerGradients(dw, Shape{2, 3, 5, 5}, 103);
}

TEST(Gradients, DepthwiseConv2dStride2)
{
    DepthwiseConv2d dw("dw", 2, 3, 2, 1);
    Rng rng(9);
    dw.initKaiming(rng);
    checkLayerGradients(dw, Shape{1, 2, 6, 6}, 104);
}

/** The bias BN folding adds (enableBias) gets its gradient too. */
TEST(Gradients, DepthwiseConv2dWithBias)
{
    for (size_t stride : {1, 2}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        DepthwiseConv2d dw("dw", 3, 3, stride, 1);
        Rng rng(10 + stride);
        dw.initKaiming(rng);
        dw.enableBias();
        for (size_t ch = 0; ch < 3; ++ch)
            dw.bias()[ch] = 0.1f * static_cast<float>(ch + 1);
        ASSERT_EQ(dw.gradients().size(), 2u);
        checkLayerGradients(dw, Shape{2, 3, 6, 6}, 105 + stride);
    }
}

TEST(Gradients, Linear)
{
    Linear fc("fc", 12, 5);
    Rng rng(10);
    fc.initKaiming(rng);
    checkLayerGradients(fc, Shape{3, 12}, 105);
}

TEST(Gradients, BatchNorm)
{
    BatchNorm2d bn("bn", 3);
    // Non-trivial gamma/beta so their gradients are exercised.
    Rng rng(11);
    bn.gamma().fillUniform(rng, 0.5f, 1.5f);
    bn.beta().fillUniform(rng, -0.5f, 0.5f);
    checkLayerGradients(bn, Shape{4, 3, 3, 3}, 106, 5e-2);
}

TEST(Gradients, ReLU)
{
    ReLU relu("relu");
    checkLayerGradients(relu, Shape{2, 3, 4, 4}, 107);
}

TEST(Gradients, MaxPool)
{
    MaxPool2d pool("pool", 2);
    checkLayerGradients(pool, Shape{1, 2, 4, 4}, 108);
}

TEST(Gradients, GlobalAvgPool)
{
    GlobalAvgPool pool("gap");
    checkLayerGradients(pool, Shape{2, 3, 4, 4}, 109);
}

TEST(Gradients, ResidualBlockIdentity)
{
    ResidualBlock block("block", 3, 3, 1);
    Rng rng(12);
    block.initKaiming(rng);
    checkLayerGradients(block, Shape{2, 3, 4, 4}, 110, 6e-2);
}

TEST(Gradients, ResidualBlockProjection)
{
    ResidualBlock block("block", 2, 4, 2);
    Rng rng(13);
    block.initKaiming(rng);
    checkLayerGradients(block, Shape{2, 2, 6, 6}, 111, 6e-2);
}

TEST(Gradients, FisherProbeAccumulatesNonNegative)
{
    ReLU relu("relu");
    relu.enableFisherProbe(3);
    ExecContext ctx;
    ctx.training = true;
    Tensor in = randomTensor(Shape{2, 3, 4, 4}, 112);
    Tensor out = relu.forward(in, ctx);
    relu.backward(lossGrad(out.shape()), ctx);

    const auto &fisher = relu.fisherInfo();
    ASSERT_EQ(fisher.size(), 3u);
    double total = 0.0;
    for (double f : fisher) {
        EXPECT_GE(f, 0.0);
        total += f;
    }
    EXPECT_GT(total, 0.0);

    relu.resetFisherInfo();
    for (double f : relu.fisherInfo())
        EXPECT_EQ(f, 0.0);
}

} // namespace
} // namespace dlis
