/**
 * @file
 * Kernel consistency tests: every convolution path (direct dense,
 * per-slice CSR, flat CSR, im2col+GEMM, tiled GEMM)
 * must agree with a trusted naive reference bit-for-bit or within
 * floating-point reassociation tolerance.
 */

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "backend/conv_kernels.hpp"
#include "backend/elementwise_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "backend/linear_kernels.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::expectClose;
using test::randomTensor;

/** Naive reference convolution written independently of the kernels. */
Tensor
referenceConv(const ConvParams &p, const Tensor &input,
              const Tensor &weight, const float *bias)
{
    const size_t ho = p.hout(), wo = p.wout();
    Tensor out(Shape{p.n, p.cout, ho, wo});
    for (size_t img = 0; img < p.n; ++img)
        for (size_t oc = 0; oc < p.cout; ++oc)
            for (size_t oy = 0; oy < ho; ++oy)
                for (size_t ox = 0; ox < wo; ++ox) {
                    double acc = bias ? bias[oc] : 0.0;
                    for (size_t ci = 0; ci < p.cin; ++ci)
                        for (size_t ky = 0; ky < p.kh; ++ky)
                            for (size_t kx = 0; kx < p.kw; ++kx) {
                                const ptrdiff_t iy =
                                    static_cast<ptrdiff_t>(
                                        oy * p.stride + ky) -
                                    static_cast<ptrdiff_t>(p.pad);
                                const ptrdiff_t ix =
                                    static_cast<ptrdiff_t>(
                                        ox * p.stride + kx) -
                                    static_cast<ptrdiff_t>(p.pad);
                                if (iy < 0 ||
                                    iy >= static_cast<ptrdiff_t>(
                                              p.hin) ||
                                    ix < 0 ||
                                    ix >= static_cast<ptrdiff_t>(
                                              p.win))
                                    continue;
                                acc +=
                                    weight.at4(oc, ci, ky, kx) *
                                    input.at4(img, ci, iy, ix);
                            }
                    out.at4(img, oc, oy, ox) =
                        static_cast<float>(acc);
                }
    return out;
}

struct ConvCase
{
    size_t n, cin, hin, win, cout, k, stride, pad;
};

class ConvPathsTest : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvPathsTest, AllPathsMatchReference)
{
    const ConvCase c = GetParam();
    ConvParams p{c.n, c.cin, c.hin, c.win, c.cout, c.k, c.k, c.stride,
                 c.pad};

    Tensor input = randomTensor(Shape{c.n, c.cin, c.hin, c.win}, 1);
    Tensor weight =
        randomTensor(Shape{c.cout, c.cin, c.k, c.k}, 2);
    Tensor bias = randomTensor(Shape{c.cout}, 3);

    // Sparsify half the weights so the CSR paths are exercised with
    // real zeros.
    for (size_t i = 0; i < weight.numel(); i += 2)
        weight[i] = 0.0f;

    const Tensor ref = referenceConv(p, input, weight, bias.data());
    KernelPolicy serial;

    Tensor dense(ref.shape());
    kernels::convDirectDense(p, input.data(), weight.data(),
                             bias.data(), dense.data(), serial);
    expectClose(dense, ref);

    const CsrFilterBank bank = CsrFilterBank::fromFilter(weight);
    Tensor bank_out(ref.shape());
    kernels::convDirectCsrBank(p, input.data(), bank, bias.data(),
                               bank_out.data(), serial);
    expectClose(bank_out, ref);

    // im2col + GEMM path (per image).
    {
        const size_t ck = c.cin * c.k * c.k;
        const size_t spatial = p.hout() * p.wout();
        Tensor out(ref.shape());
        std::vector<float> cols(ck * spatial);
        for (size_t img = 0; img < c.n; ++img) {
            kernels::im2col(
                p, input.data() + img * c.cin * c.hin * c.win,
                cols.data());
            kernels::gemmNaive(
                weight.data(), cols.data(),
                out.data() + img * c.cout * spatial, c.cout, ck,
                spatial);
        }
        for (size_t img = 0; img < c.n; ++img)
            for (size_t oc = 0; oc < c.cout; ++oc)
                for (size_t i = 0; i < spatial; ++i)
                    out[(img * c.cout + oc) * spatial + i] +=
                        bias[oc];
        expectClose(out, ref, 5e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvPathsTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{1, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{2, 4, 7, 9, 3, 3, 1, 1},
                      ConvCase{1, 2, 8, 8, 5, 3, 2, 1},
                      ConvCase{2, 3, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 8, 4, 4, 8, 1, 1, 0},
                      ConvCase{1, 2, 9, 9, 2, 5, 1, 2},
                      ConvCase{1, 3, 10, 10, 4, 3, 2, 1}));

TEST(ConvKernels, OpenMpMatchesSerial)
{
    ConvParams p{2, 3, 12, 12, 8, 3, 3, 1, 1};
    Tensor input = randomTensor(Shape{2, 3, 12, 12}, 10);
    Tensor weight = randomTensor(Shape{8, 3, 3, 3}, 11);

    Tensor serial_out(Shape{2, 8, 12, 12});
    Tensor omp_out(Shape{2, 8, 12, 12});
    kernels::convDirectDense(p, input.data(), weight.data(), nullptr,
                             serial_out.data(), {1});
    kernels::convDirectDense(p, input.data(), weight.data(), nullptr,
                             omp_out.data(), {4});
    expectClose(omp_out, serial_out, 0.0f);
}

TEST(ConvKernels, DepthwiseMatchesGroupedReference)
{
    const size_t c = 6, h = 9, w = 9, k = 3;
    ConvParams p{1, c, h, w, c, k, k, 1, 1};
    Tensor input = randomTensor(Shape{1, c, h, w}, 20);
    Tensor weight = randomTensor(Shape{c, 1, k, k}, 21);

    Tensor out(Shape{1, c, h, w});
    kernels::convDepthwiseDense(p, input.data(), weight.data(), nullptr,
                                out.data(), {1});

    // Reference: per-channel standard conv with cin = cout = 1.
    for (size_t ch = 0; ch < c; ++ch) {
        ConvParams p1{1, 1, h, w, 1, k, k, 1, 1};
        Tensor in1(Shape{1, 1, h, w});
        std::copy_n(input.data() + ch * h * w, h * w, in1.data());
        Tensor w1 = Tensor(Shape{1, 1, k, k});
        std::copy_n(weight.data() + ch * k * k, k * k, w1.data());
        const Tensor ref = referenceConv(p1, in1, w1, nullptr);
        for (size_t i = 0; i < h * w; ++i)
            EXPECT_NEAR(out[ch * h * w + i], ref[i], 1e-4f);
    }
}

TEST(ConvKernels, DepthwiseStride2Shape)
{
    ConvParams p{1, 4, 8, 8, 4, 3, 3, 2, 1};
    EXPECT_EQ(p.hout(), 4u);
    EXPECT_EQ(p.wout(), 4u);
    Tensor input = randomTensor(Shape{1, 4, 8, 8}, 30);
    Tensor weight = randomTensor(Shape{4, 1, 3, 3}, 31);
    Tensor out(Shape{1, 4, 4, 4});
    kernels::convDepthwiseDense(p, input.data(), weight.data(), nullptr,
                                out.data(), {1});
    EXPECT_NE(out.sum(), 0.0);
}

struct GemmCase
{
    size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmTest, BlockedMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    Tensor a = randomTensor(Shape{m, k}, 40);
    Tensor b = randomTensor(Shape{k, n}, 41);

    Tensor ref(Shape{m, n});
    kernels::gemmNaive(a.data(), b.data(), ref.data(), m, k, n);

    Tensor blocked(Shape{m, n});
    kernels::gemmBlocked(a.data(), b.data(), blocked.data(), m, k, n,
                         {1});
    expectClose(blocked, ref, 1e-3f);
}

// The last shape spans three tiles in each of m, n and k, the third
// one partial.
INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmTest,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7},
                      GemmCase{8, 8, 8}, GemmCase{16, 32, 8},
                      GemmCase{33, 17, 65}, GemmCase{64, 64, 64},
                      GemmCase{2 * kernels::kGemmTileM + 5,
                               2 * kernels::kGemmTileK + 3,
                               2 * kernels::kGemmTileN + 9}));

TEST(Gemm, TransposedVariantsMatchNaive)
{
    const size_t m = 7, k = 9, n = 5;
    Tensor a = randomTensor(Shape{m, k}, 50);
    Tensor b = randomTensor(Shape{k, n}, 51);

    Tensor ref(Shape{m, n});
    kernels::gemmNaive(a.data(), b.data(), ref.data(), m, k, n);

    // gemmAtB: C = (A^T)^T * B with At stored [k, m].
    Tensor at(Shape{k, m});
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < k; ++j)
            at[j * m + i] = a[i * k + j];
    Tensor c1(Shape{m, n});
    kernels::gemmAtB(at.data(), b.data(), c1.data(), m, k, n);
    expectClose(c1, ref, 1e-4f);

    // gemmABt: C = A * (B^T)^T with Bt stored [n, k].
    Tensor bt(Shape{n, k});
    for (size_t i = 0; i < k; ++i)
        for (size_t j = 0; j < n; ++j)
            bt[j * k + i] = b[i * n + j];
    Tensor c2(Shape{m, n});
    kernels::gemmABt(a.data(), bt.data(), c2.data(), m, k, n);
    expectClose(c2, ref, 1e-4f);
}

TEST(Im2col, RoundTripThroughCol2im)
{
    ConvParams p{1, 3, 6, 6, 1, 3, 3, 1, 1};
    Tensor input = randomTensor(Shape{1, 3, 6, 6}, 60);
    std::vector<float> cols(kernels::im2colBufferSize(p));
    kernels::im2col(p, input.data(), cols.data());

    // col2im(im2col(x)) multiplies each pixel by its patch coverage.
    Tensor back(Shape{1, 3, 6, 6});
    kernels::col2im(p, cols.data(), back.data());
    // A central pixel is covered by all 9 kernel offsets.
    EXPECT_NEAR(back.at4(0, 0, 3, 3), 9.0f * input.at4(0, 0, 3, 3),
                1e-4f);
    // A corner pixel is covered by only 4.
    EXPECT_NEAR(back.at4(0, 0, 0, 0), 4.0f * input.at4(0, 0, 0, 0),
                1e-4f);
}

TEST(Im2col, Col2imZeroesItsOutputBuffer)
{
    // col2im owns the zeroing of its output: invoking it twice into
    // the same buffer (a recycled arena block full of the previous
    // call's sums) must yield the same result, not doubled garbage.
    ConvParams p{1, 2, 5, 5, 1, 3, 3, 1, 1};
    Tensor input = randomTensor(Shape{1, 2, 5, 5}, 61);
    std::vector<float> cols(kernels::im2colBufferSize(p));
    kernels::im2col(p, input.data(), cols.data());

    Tensor out(Shape{1, 2, 5, 5});
    kernels::col2im(p, cols.data(), out.data());
    const Tensor first = out; // copy of the clean result
    kernels::col2im(p, cols.data(), out.data());
    for (size_t i = 0; i < out.numel(); ++i)
        EXPECT_EQ(out[i], first[i]) << "index " << i;
}

TEST(LinearKernels, CsrMatchesDense)
{
    const size_t batch = 3, in = 17, out = 9;
    Tensor x = randomTensor(Shape{batch, in}, 70);
    Tensor w = randomTensor(Shape{out, in}, 71);
    Tensor bias = randomTensor(Shape{out}, 72);
    for (size_t i = 0; i < w.numel(); i += 3)
        w[i] = 0.0f;

    Tensor dense(Shape{batch, out});
    kernels::linearDense(x.data(), w.data(), bias.data(), dense.data(),
                         batch, in, out, {1});

    const CsrMatrix csr = CsrMatrix::fromDense(w.data(), out, in);
    Tensor sparse(Shape{batch, out});
    kernels::linearCsr(x.data(), csr, bias.data(), sparse.data(), batch,
                       in, out, {1});
    expectClose(sparse, dense, 1e-4f);
}

TEST(Elementwise, ReluClampsNegatives)
{
    Tensor in = randomTensor(Shape{64}, 80);
    Tensor t(in.shape());
    kernels::relu(in.data(), t.data(), t.numel(), {1});
    for (size_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(t[i], in[i] > 0.0f ? in[i] : 0.0f);
}

TEST(Elementwise, SoftmaxRowsSumToOne)
{
    Tensor logits = randomTensor(Shape{5, 10}, 81);
    Tensor probs(Shape{5, 10});
    kernels::softmax(logits.data(), probs.data(), 5, 10);
    for (size_t b = 0; b < 5; ++b) {
        double sum = 0.0;
        for (size_t c = 0; c < 10; ++c) {
            sum += probs[b * 10 + c];
            EXPECT_GT(probs[b * 10 + c], 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Elementwise, SoftmaxIsShiftInvariantAndStable)
{
    Tensor logits(Shape{1, 4});
    logits[0] = 1000.0f;
    logits[1] = 1001.0f;
    logits[2] = 999.0f;
    logits[3] = 1000.5f;
    Tensor probs(Shape{1, 4});
    kernels::softmax(logits.data(), probs.data(), 1, 4);
    double sum = 0.0;
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(std::isfinite(probs[i]));
        sum += probs[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_GT(probs[1], probs[0]);
}

TEST(Elementwise, MaxPoolPicksWindowMaxima)
{
    Tensor in(Shape{1, 1, 4, 4});
    for (size_t i = 0; i < 16; ++i)
        in[i] = static_cast<float>(i);
    Tensor out(Shape{1, 1, 2, 2});
    kernels::maxPool(in.data(), out.data(), 1, 1, 4, 4, 2, {1});
    EXPECT_FLOAT_EQ(out[0], 5.0f);
    EXPECT_FLOAT_EQ(out[1], 7.0f);
    EXPECT_FLOAT_EQ(out[2], 13.0f);
    EXPECT_FLOAT_EQ(out[3], 15.0f);
}

TEST(Pooling, MaxPoolPropagatesNanFromAnyWindowPosition)
{
    // A NaN at any position of a window makes that window's output
    // NaN and leaves every other window's maximum alone, serially and
    // under OpenMP x2 — the output must not depend on where in the
    // window the NaN sits.
    for (const size_t k : {2, 3}) {
        const size_t side = 2 * k;
        for (const int threads : {1, 2}) {
            for (size_t pos = 0; pos < k * k; ++pos) {
                Tensor in(Shape{1, 2, side, side});
                for (size_t i = 0; i < in.numel(); ++i)
                    in[i] = static_cast<float>(i % 7) - 3.0f;
                // Channel 1, window (1, 0), position pos.
                const size_t y = k + pos / k, x = pos % k;
                in[side * side + y * side + x] =
                    std::numeric_limits<float>::quiet_NaN();
                Tensor out(Shape{1, 2, 2, 2});
                kernels::maxPool(in.data(), out.data(), 1, 2, side, side,
                                 k, KernelPolicy{threads});
                for (size_t o = 0; o < out.numel(); ++o) {
                    SCOPED_TRACE(::testing::Message()
                                 << "k=" << k << " threads=" << threads
                                 << " pos=" << pos << " out=" << o);
                    if (o == 4 + 2) {
                        EXPECT_TRUE(std::isnan(out[o]));
                        continue;
                    }
                    const size_t ch = o / 4, oy = o % 4 / 2, ox = o % 2;
                    float best = -1e30f;
                    for (size_t ky = 0; ky < k; ++ky)
                        for (size_t kx = 0; kx < k; ++kx)
                            best = std::max(
                                best, in[ch * side * side +
                                         (oy * k + ky) * side +
                                         ox * k + kx]);
                    EXPECT_EQ(out[o], best);
                }
            }
        }
    }
}

TEST(Elementwise, GlobalAvgPoolAverages)
{
    Tensor in(Shape{2, 3, 2, 2});
    in.fill(2.5f);
    Tensor out(Shape{2, 3});
    kernels::globalAvgPool(in.data(), out.data(), 2, 3, 4, {1});
    for (size_t i = 0; i < 6; ++i)
        EXPECT_FLOAT_EQ(out[i], 2.5f);
}

TEST(Elementwise, BatchNormInferenceFormula)
{
    const size_t n = 1, c = 2, hw = 4;
    Tensor in = randomTensor(Shape{n, c, 2, 2}, 90);
    Tensor out(in.shape());
    const float gamma[] = {2.0f, 0.5f};
    const float beta[] = {1.0f, -1.0f};
    const float mean[] = {0.3f, -0.2f};
    const float var[] = {4.0f, 0.25f};
    kernels::batchNormInference(in.data(), out.data(), n, c, hw, gamma,
                                beta, mean, var, 0.0f, {1});
    for (size_t ch = 0; ch < c; ++ch)
        for (size_t i = 0; i < hw; ++i) {
            const float x = in[ch * hw + i];
            const float expect =
                gamma[ch] * (x - mean[ch]) /
                    std::sqrt(var[ch]) +
                beta[ch];
            EXPECT_NEAR(out[ch * hw + i], expect, 1e-4f);
        }
}

} // namespace
} // namespace dlis
