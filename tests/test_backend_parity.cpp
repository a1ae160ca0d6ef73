/**
 * @file
 * Cross-backend differential tests: the three Conv2D execution paths
 * (direct dense, direct CSR, im2col+GEMM) must agree
 * numerically on randomized geometries and on whole paper models, or
 * the serving engine's freedom to pick any backend per worker silently
 * changes answers.
 *
 * Shapes, strides and padding are drawn from a seeded Rng; every
 * assertion carries the offending geometry so a failure reproduces
 * with one SCOPED_TRACE line.
 */

#include <gtest/gtest.h>

#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/models/model.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

/** |a-b| <= tol * max(1, |a|, |b|), elementwise, with shape check. */
void
expectRelClose(const Tensor &ref, const Tensor &got, float tol,
               const std::string &what)
{
    ASSERT_EQ(ref.shape().dims(), got.shape().dims()) << what;
    for (size_t i = 0; i < ref.numel(); ++i) {
        const float a = ref[i], b = got[i];
        const float scale =
            std::max({1.0f, std::abs(a), std::abs(b)});
        ASSERT_LE(std::abs(a - b), tol * scale)
            << what << " diverges at flat index " << i << ": " << a
            << " vs " << b;
    }
}

/** One randomized conv geometry. */
struct Geometry
{
    size_t cin, cout, kernel, stride, pad, h, w, batch;

    std::string
    str() const
    {
        return "cin=" + std::to_string(cin) +
               " cout=" + std::to_string(cout) +
               " k=" + std::to_string(kernel) +
               " stride=" + std::to_string(stride) +
               " pad=" + std::to_string(pad) + " in=[" +
               std::to_string(batch) + ", " + std::to_string(cin) +
               ", " + std::to_string(h) + ", " + std::to_string(w) +
               "]";
    }
};

Geometry
randomGeometry(Rng &rng)
{
    Geometry g;
    g.cin = 1 + rng.uniformInt(8);
    g.cout = 1 + rng.uniformInt(8);
    g.kernel = std::vector<size_t>{1, 3, 3, 5}[rng.uniformInt(4)];
    g.stride = 1 + rng.uniformInt(2);
    g.pad = rng.uniformInt(g.kernel / 2 + 1);
    // Input at least as big as the unpadded kernel.
    g.h = g.kernel + rng.uniformInt(12);
    g.w = g.kernel + rng.uniformInt(12);
    g.batch = 1 + rng.uniformInt(2);
    return g;
}

constexpr float kTol = 1e-4f;
constexpr uint64_t kSeed = 20180923; // print on failure via trace

TEST(BackendParity, RandomizedConvGeometries)
{
    Rng rng(kSeed);
    for (int trial = 0; trial < 24; ++trial) {
        const Geometry g = randomGeometry(rng);
        SCOPED_TRACE("seed=" + std::to_string(kSeed) + " trial=" +
                     std::to_string(trial) + " " + g.str());

        Conv2d conv("conv", g.cin, g.cout, g.kernel, g.stride, g.pad);
        Rng winit = rng.split();
        conv.initKaiming(winit);
        // Zero some weights so the CSR path has real sparsity to walk.
        Rng mask = rng.split();
        Tensor &w = conv.weight();
        for (size_t i = 0; i < w.numel(); ++i)
            if (mask.bernoulli(0.4))
                w[i] = 0.0f;

        const Tensor input = test::randomTensor(
            Shape{g.batch, g.cin, g.h, g.w}, rng.nextU64());

        ExecContext ctx;
        const Tensor ref = conv.forward(input, ctx); // direct dense

        ctx.convAlgo = ConvAlgo::Im2colGemm;
        expectRelClose(ref, conv.forward(input, ctx), kTol,
                       "im2col+GEMM");
        ctx.convAlgo = ConvAlgo::Direct;

        // OpenMP direct (degrades to the serial loop without OpenMP).
        ctx.backend = Backend::OpenMP;
        ctx.threads = 4;
        expectRelClose(ref, conv.forward(input, ctx), kTol,
                       "OpenMP direct");
        ctx.backend = Backend::Serial;
        ctx.threads = 1;

        // Direct CSR, then back to dense (round-trip must be exact).
        conv.setFormat(WeightFormat::Csr);
        expectRelClose(ref, conv.forward(input, ctx), kTol,
                       "direct CSR");
        conv.setFormat(WeightFormat::Dense);
        expectRelClose(ref, conv.forward(input, ctx), 0.0f,
                       "dense after CSR round-trip");
    }
}

TEST(BackendParity, MobileNetDepthwisePointwisePair)
{
    // The MobileNet building block: depthwise 3x3 feeding a pointwise
    // 1x1. Depthwise has one (direct) algorithm, so its parity axis is
    // serial vs OpenMP; the pointwise 1x1 runs all three conv paths.
    Rng rng(kSeed + 2);
    for (const size_t channels : {3u, 8u, 16u}) {
        for (const size_t stride : {1u, 2u}) {
            SCOPED_TRACE("channels=" + std::to_string(channels) +
                         " stride=" + std::to_string(stride));
            DepthwiseConv2d dw("dw", channels, 3, stride, 1);
            Conv2d pw("pw", channels, channels * 2, 1, 1, 0);
            Rng winit = rng.split();
            dw.initKaiming(winit);
            pw.initKaiming(winit);

            const Tensor input = test::randomTensor(
                Shape{2, channels, 14, 14}, rng.nextU64());

            ExecContext ctx;
            const Tensor dwRef = dw.forward(input, ctx);
            const Tensor pwRef = pw.forward(dwRef, ctx);

            ctx.backend = Backend::OpenMP;
            ctx.threads = 4;
            expectRelClose(dwRef, dw.forward(input, ctx), kTol,
                           "depthwise OpenMP");
            ctx.backend = Backend::Serial;
            ctx.threads = 1;

            ctx.convAlgo = ConvAlgo::Im2colGemm;
            expectRelClose(pwRef, pw.forward(dwRef, ctx), kTol,
                           "pointwise im2col+GEMM");
            ctx.convAlgo = ConvAlgo::Direct;

            pw.setFormat(WeightFormat::Csr);
            expectRelClose(pwRef, pw.forward(dwRef, ctx), kTol,
                           "pointwise direct CSR");
            pw.setFormat(WeightFormat::Dense);
        }
    }
}

TEST(BackendParity, PaperModelsAgreeAcrossHostBackends)
{
    // The paper's correctness baseline: every host systems-layer
    // candidate computes the same function on the whole model.
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        SCOPED_TRACE(name);
        Rng rng(3);
        Model m = makeModel(name, 10, 0.25, rng);
        const Tensor in = test::randomTensor(Shape{1, 3, 32, 32}, 4);

        ExecContext serial;
        const Tensor ref = m.net.forward(in, serial);
        for (const int threads : {3, 4}) {
            ExecContext omp;
            omp.backend = Backend::OpenMP;
            omp.threads = threads;
            EXPECT_LE(m.net.forward(in, omp).maxAbsDiff(ref), 1e-6f)
                << "OpenMP x" << threads;
        }
        ExecContext im2col;
        im2col.convAlgo = ConvAlgo::Im2colGemm;
        EXPECT_LE(m.net.forward(in, im2col).maxAbsDiff(ref), 2e-3f);
    }
}

} // namespace
} // namespace dlis
