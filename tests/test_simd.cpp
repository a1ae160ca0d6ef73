/**
 * @file
 * Tail, alignment and parity tests for the SIMD dispatch layer.
 *
 * Every comparison here runs scalar and vector variants of the same
 * kernel in one process by re-pointing the dispatch table with
 * ScopedForceIsa — no environment juggling, no fixture forking. On a
 * host without AVX2 (bestSupportedIsa() == Scalar) the comparisons
 * degenerate to scalar-vs-scalar and still must hold; the ctest twins
 * pinned to DLIS_FORCE_ISA=scalar cover the env-var path end to end,
 * and the twin pinned to a retired name covers its rejection.
 *
 * Size grids deliberately straddle the vector width: 1, vw-1, vw,
 * vw+1 and primes exercise every tail branch of the micro-kernels,
 * and the mis-alignment tests hand the kernels pointers bumped off
 * the arena's 64-byte grain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "backend/conv_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "backend/simd/dispatch.hpp"
#include "backend/simd/isa.hpp"
#include "core/rng.hpp"
#include "sparse/ternary.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

constexpr float kTol = 1e-4f;

/** |a-b| <= tol * max(1, |a|, |b|) over @p count floats. */
void
expectSpanClose(const float *ref, const float *got, size_t count,
                float tol, const std::string &what)
{
    for (size_t i = 0; i < count; ++i) {
        const float scale =
            std::max({1.0f, std::abs(ref[i]), std::abs(got[i])});
        ASSERT_LE(std::abs(ref[i] - got[i]), tol * scale)
            << what << " diverges at flat index " << i << ": "
            << ref[i] << " vs " << got[i];
    }
}

std::vector<float>
randomVec(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(count);
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

TEST(SimdIsa, NamesRoundTrip)
{
    for (simd::SimdIsa isa : {simd::SimdIsa::Scalar, simd::SimdIsa::Avx2}) {
        bool ok = false;
        EXPECT_EQ(simd::parseIsaName(simd::isaName(isa), ok), isa);
        EXPECT_TRUE(ok);
    }
    for (const char *unknown : {"sse9", "neon"}) {
        bool ok = true;
        simd::parseIsaName(unknown, ok);
        EXPECT_FALSE(ok) << unknown;
    }
}

TEST(SimdIsa, ScalarAlwaysSupportedAndBestIsSupported)
{
    EXPECT_TRUE(simd::isaSupported(simd::SimdIsa::Scalar));
    EXPECT_TRUE(simd::isaSupported(simd::bestSupportedIsa()));
    EXPECT_TRUE(simd::isaSupported(simd::activeIsa()));
}

TEST(SimdIsa, ScalarTableIsAllNull)
{
    const simd::MicroKernels &t =
        simd::kernelsFor(simd::SimdIsa::Scalar);
    EXPECT_EQ(t.isa, simd::SimdIsa::Scalar);
    EXPECT_EQ(t.gemmTile, nullptr);
    EXPECT_EQ(t.conv3x3s1, nullptr);
    EXPECT_EQ(t.depthwise3x3, nullptr);
    EXPECT_EQ(t.ternaryConvS1, nullptr);
}

TEST(SimdIsa, ScopedForceSwapsAndRestores)
{
    const simd::SimdIsa before = simd::activeKernels().isa;
    {
        simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
        EXPECT_EQ(simd::activeKernels().isa, simd::SimdIsa::Scalar);
    }
    EXPECT_EQ(simd::activeKernels().isa, before);
}

/**
 * gemmBlocked under the native table vs the scalar table vs
 * gemmNaive, at sizes straddling the AVX2 vector width (8 lanes),
 * half of it, and the micro-kernel's 8-row register tile.
 */
TEST(SimdGemm, TailSizesMatchScalar)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 13, 16, 31, 37};
    uint64_t seed = 100;
    for (size_t m : sizes) {
        for (size_t k : {size_t{1}, size_t{7}, size_t{13},
                         size_t{64}, size_t{65}}) {
            for (size_t n : sizes) {
                const std::string what =
                    "m=" + std::to_string(m) + " k=" +
                    std::to_string(k) + " n=" + std::to_string(n);
                const auto a = randomVec(m * k, seed++);
                const auto b = randomVec(k * n, seed++);
                std::vector<float> ref(m * n), scal(m * n),
                    vec(m * n);
                kernels::gemmNaive(a.data(), b.data(), ref.data(), m,
                                   k, n);
                {
                    simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
                    kernels::gemmBlocked(a.data(), b.data(),
                                         scal.data(), m, k, n,
                                         {1});
                }
                {
                    simd::ScopedForceIsa f(best);
                    kernels::gemmBlocked(a.data(), b.data(),
                                         vec.data(), m, k, n,
                                         {1});
                }
                // Scalar-forced blocked GEMM reorders nothing vs the
                // reference: bit-exact.
                for (size_t i = 0; i < m * n; ++i)
                    ASSERT_EQ(ref[i], scal[i]) << what << " i=" << i;
                expectSpanClose(ref.data(), vec.data(), m * n, kTol,
                                what);
            }
        }
    }
}

/** Larger shapes than the tail grid, including full-tile multiples. */
TEST(SimdGemm, BlockedShapesMatchScalar)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const size_t shapes[][3] = {
        {64, 64, 64}, {127, 33, 65}, {96, 128, 67}, {31, 127, 128}};
    uint64_t seed = 900;
    for (const auto &s : shapes) {
        const size_t m = s[0], k = s[1], n = s[2];
        const auto a = randomVec(m * k, seed++);
        const auto b = randomVec(k * n, seed++);
        std::vector<float> scal(m * n), vec(m * n);
        {
            simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
            kernels::gemmBlocked(a.data(), b.data(), scal.data(), m,
                                 k, n, {1});
        }
        {
            simd::ScopedForceIsa f(best);
            kernels::gemmBlocked(a.data(), b.data(), vec.data(), m, k,
                                 n, {1});
        }
        expectSpanClose(scal.data(), vec.data(), m * n, kTol,
                        "m=" + std::to_string(m));
    }
}

/**
 * The micro-kernels must accept pointers off the arena's 64-byte
 * grain: feed them buffers deliberately bumped by one float.
 */
TEST(SimdGemm, MisalignedBuffersMatchScalar)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const size_t m = 37, k = 29, n = 53;
    const auto a = randomVec(m * k + 1, 7001);
    const auto b = randomVec(k * n + 1, 7002);
    std::vector<float> scal(m * n + 1), vec(m * n + 1);
    {
        simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
        kernels::gemmBlocked(a.data() + 1, b.data() + 1,
                             scal.data() + 1, m, k, n, {1});
    }
    {
        simd::ScopedForceIsa f(best);
        kernels::gemmBlocked(a.data() + 1, b.data() + 1,
                             vec.data() + 1, m, k, n, {1});
    }
    expectSpanClose(scal.data() + 1, vec.data() + 1, m * n, kTol,
                    "misaligned gemm");
}

/**
 * The exact GEMM contract of a vector ISA: every output element is
 * the single-rounded std::fma chain over ascending k, whichever lane
 * (full block or column remainder) and thread computed it. Every
 * n % 8 remainder appears twice. B and C hold exactly k*n and m*n
 * floats, so a live lane reading past the last column trips ASan.
 */
TEST(SimdGemm, VectorGemmIsTheAscendingFmaChain)
{
    if (simd::activeIsa() == simd::SimdIsa::Scalar)
        GTEST_SKIP() << "the scalar table has no fused contract";
    uint64_t seed = 5000;
    for (size_t m : {size_t{1}, size_t{5}, size_t{8}, size_t{13},
                     size_t{256}}) {
        for (size_t k : {size_t{1}, size_t{7}, size_t{64}, size_t{65},
                         size_t{2304}}) {
            for (size_t n = 1; n <= 17; ++n) {
                const auto a = randomVec(m * k, seed++);
                const auto b = randomVec(k * n, seed++);
                std::vector<float> ref(m * n);
                for (size_t i = 0; i < m; ++i)
                    for (size_t j = 0; j < n; ++j) {
                        float acc = 0.0f;
                        for (size_t p = 0; p < k; ++p)
                            acc = std::fma(a[i * k + p], b[p * n + j],
                                           acc);
                        ref[i * n + j] = acc;
                    }
                for (int threads : {1, 4}) {
                    std::vector<float> c(m * n);
                    kernels::gemmBlocked(a.data(), b.data(), c.data(),
                                         m, k, n, {threads});
                    for (size_t i = 0; i < m * n; ++i)
                        ASSERT_EQ(ref[i], c[i])
                            << "m=" << m << " k=" << k << " n=" << n
                            << " threads=" << threads << " i=" << i;
                }
            }
        }
    }
}

/**
 * Regression test for the gemmNaive zero-skip: skipping `av == 0`
 * products also skipped 0 * Inf and 0 * NaN, silently laundering
 * non-finite inputs into finite outputs. Every GEMM variant must
 * propagate them identically now.
 */
TEST(SimdGemm, NonFiniteInputsPropagateInEveryVariant)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const size_t m = 5, k = 7, n = 9;
    auto a = randomVec(m * k, 8101);
    auto b = randomVec(k * n, 8102);
    const float inf = std::numeric_limits<float>::infinity();
    // a[1,3] = 0 against b[3,0] = Inf: c[1,0] must be NaN (0 * Inf),
    // and column 0 rows != 1 must be +/-Inf (finite * Inf dominates).
    a[1 * k + 3] = 0.0f;
    b[3 * n + 0] = inf;
    // a[2,4] = NaN poisons all of row 2.
    a[2 * k + 4] = std::numeric_limits<float>::quiet_NaN();

    std::vector<float> ref(m * n);
    kernels::gemmNaive(a.data(), b.data(), ref.data(), m, k, n);
    ASSERT_TRUE(std::isnan(ref[1 * n + 0])) << "0 * Inf skipped";
    ASSERT_TRUE(std::isinf(ref[0 * n + 0]));
    for (size_t j = 0; j < n; ++j)
        ASSERT_TRUE(std::isnan(ref[2 * n + j])) << "NaN row j=" << j;

    /** Same non-finite class, and same sign for infinities. */
    const auto expectSameClass = [&](const float *got,
                                     const std::string &what) {
        for (size_t i = 0; i < m * n; ++i) {
            if (std::isnan(ref[i])) {
                ASSERT_TRUE(std::isnan(got[i])) << what << " i=" << i;
            } else if (std::isinf(ref[i])) {
                ASSERT_EQ(ref[i], got[i]) << what << " i=" << i;
            } else {
                const float scale = std::max(
                    {1.0f, std::abs(ref[i]), std::abs(got[i])});
                ASSERT_LE(std::abs(ref[i] - got[i]), kTol * scale)
                    << what << " i=" << i;
            }
        }
    };

    std::vector<float> c(m * n);
    {
        simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
        kernels::gemmBlocked(a.data(), b.data(), c.data(), m, k, n,
                             {1});
    }
    expectSameClass(c.data(), "gemmBlocked scalar");
    {
        simd::ScopedForceIsa f(best);
        kernels::gemmBlocked(a.data(), b.data(), c.data(), m, k, n,
                             {1});
    }
    expectSameClass(c.data(), "gemmBlocked native");
    {
        // A^T layout: at[p * m + i] = a[i * k + p].
        std::vector<float> at(k * m);
        for (size_t i = 0; i < m; ++i)
            for (size_t p = 0; p < k; ++p)
                at[p * m + i] = a[i * k + p];
        kernels::gemmAtB(at.data(), b.data(), c.data(), m, k, n);
        expectSameClass(c.data(), "gemmAtB");
    }
    {
        // B^T layout: bt[j * k + p] = b[p * n + j].
        std::vector<float> bt(n * k);
        for (size_t p = 0; p < k; ++p)
            for (size_t j = 0; j < n; ++j)
                bt[j * k + p] = b[p * n + j];
        kernels::gemmABt(a.data(), bt.data(), c.data(), m, k, n);
        expectSameClass(c.data(), "gemmABt");
    }
}

/** One conv geometry for the direct / im2col / ternary parity runs. */
struct ConvCase
{
    ConvParams p;
    std::string
    str() const
    {
        return "cin=" + std::to_string(p.cin) + " cout=" +
               std::to_string(p.cout) + " k=" + std::to_string(p.kh) +
               " s=" + std::to_string(p.stride) + " pad=" +
               std::to_string(p.pad) + " in=" + std::to_string(p.hin) +
               "x" + std::to_string(p.win) + " n=" +
               std::to_string(p.n);
    }
};

// ConvParams is {n, cin, hin, win, cout, kh, kw, stride, pad}.
const ConvCase kConv3x3Cases[] = {
    {{1, 1, 3, 3, 1, 3, 3, 1, 0}},   // single output pixel
    {{1, 2, 5, 4, 3, 3, 3, 1, 1}},   // tiny, no 8-wide interior
    {{2, 3, 9, 9, 4, 3, 3, 1, 1}},   // classic same-pad
    {{1, 3, 12, 17, 5, 3, 3, 1, 0}}, // valid conv, odd width
    {{1, 4, 8, 23, 2, 3, 3, 1, 2}},  // pad 2: two border columns
    {{2, 2, 16, 33, 3, 3, 3, 1, 1}}, // width crosses several blocks
};

TEST(SimdConv, Direct3x3MatchesScalarAcrossGeometries)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    uint64_t seed = 300;
    for (const ConvCase &c : kConv3x3Cases) {
        SCOPED_TRACE(c.str());
        const ConvParams &p = c.p;
        const auto input =
            randomVec(p.n * p.cin * p.hin * p.win, seed++);
        const auto weight =
            randomVec(p.cout * p.cin * p.kh * p.kw, seed++);
        const auto bias = randomVec(p.cout, seed++);
        const size_t outCount = p.n * p.cout * p.hout() * p.wout();
        std::vector<float> scal(outCount), vec(outCount);
        {
            simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
            kernels::convDirectDense(p, input.data(), weight.data(),
                                     bias.data(), scal.data(),
                                     {1});
        }
        {
            simd::ScopedForceIsa f(best);
            kernels::convDirectDense(p, input.data(), weight.data(),
                                     bias.data(), vec.data(),
                                     {1});
        }
        expectSpanClose(scal.data(), vec.data(), outCount, kTol,
                        c.str());
    }
}

/** The straight per-element im2col loop the packer must reproduce. */
void
referenceIm2col(const ConvParams &p, const float *input, float *cols,
                size_t ld)
{
    const size_t ho = p.hout(), wo = p.wout();
    size_t row = 0;
    for (size_t ci = 0; ci < p.cin; ++ci)
        for (size_t ky = 0; ky < p.kh; ++ky)
            for (size_t kx = 0; kx < p.kw; ++kx, ++row)
                for (size_t oy = 0; oy < ho; ++oy)
                    for (size_t ox = 0; ox < wo; ++ox) {
                        const ptrdiff_t iy =
                            static_cast<ptrdiff_t>(oy * p.stride + ky) -
                            static_cast<ptrdiff_t>(p.pad);
                        const ptrdiff_t ix =
                            static_cast<ptrdiff_t>(ox * p.stride + kx) -
                            static_cast<ptrdiff_t>(p.pad);
                        const bool in =
                            iy >= 0 &&
                            iy < static_cast<ptrdiff_t>(p.hin) &&
                            ix >= 0 && ix < static_cast<ptrdiff_t>(p.win);
                        cols[row * ld + oy * wo + ox] =
                            in ? input[(ci * p.hin + iy) * p.win + ix]
                               : 0.0f;
                    }
}

TEST(Im2colPack, MatchesReferenceBitForBit)
{
    // Every gather the packer picks (plane copy, offset table, row
    // spans) over kernels 1/3/5, strides 1/2, pads 0/1/2, planes from
    // 1x1 to 32x32 and groups of 1/3/8 images. Each group is packed
    // inside gemmBlocked's team of 1-4 threads (four row tiles, so
    // the team is not clamped below the request) and must equal the
    // reference loop byte for byte — NaN and -0.0 inputs included, as
    // a pure copy keeps them — and write nothing past the matrix. The
    // GEMM's NCHW-plane store must equal a plain [m, n] GEMM on the
    // reference columns, remapped. A one-image group also goes
    // through kernels::im2col.
    constexpr size_t kCin = 3, kM = 4 * kernels::kGemmTileM, kGuard = 16;
    // 3x48 is a wide plane shorter than a 5x5 kernel's reach: some
    // taps of the row-span gather have no in-bounds output row.
    const std::pair<size_t, size_t> planes[] = {
        {1, 1}, {2, 2}, {2, 3}, {4, 4}, {3, 48}, {32, 32}};
    uint64_t seed = 500;
    for (const size_t kernel : {1, 3, 5})
    for (const size_t stride : {1, 2})
    for (const size_t pad : {0, 1, 2})
    for (const auto &[h, w] : planes)
    for (const size_t imgs : {1, 3, 8}) {
        if (h + 2 * pad < kernel || w + 2 * pad < kernel)
            continue;
        const ConvParams p{imgs, kCin, h, w, kM, kernel, kernel, stride,
                           pad};
        SCOPED_TRACE(::testing::Message()
                     << "k" << kernel << " s" << stride << " p" << pad
                     << " " << h << "x" << w << " imgs=" << imgs);
        const size_t hw = p.hout() * p.wout();
        const size_t rows = kCin * kernel * kernel;
        const size_t n = imgs * hw;
        auto input = randomVec(imgs * kCin * h * w, seed++);
        input[0] = std::numeric_limits<float>::quiet_NaN();
        input.back() = -0.0f;
        std::vector<float> ref(rows * n);
        for (size_t i = 0; i < imgs; ++i)
            referenceIm2col(p, input.data() + i * kCin * h * w,
                            ref.data() + i * hw, n);
        const auto weight = randomVec(kM * rows, seed++);
        std::vector<float> flat(kM * n);
        kernels::gemmBlocked(weight.data(), ref.data(), flat.data(), kM,
                             rows, n, KernelPolicy{1});

        for (const int team : {1, 2, 3, 4}) {
            std::vector<float> cols(rows * n + kGuard, -7.0f);
            std::vector<float> out(kM * n, -9.0f);
            const kernels::Im2colGroup group{p, input.data(), imgs,
                                             cols.data()};
            kernels::gemmBlocked(weight.data(), cols.data(), out.data(),
                                 kM, rows, n, KernelPolicy{team},
                                 {&group, hw});
            ASSERT_EQ(std::memcmp(cols.data(), ref.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << "team=" << team;
            for (size_t g = 0; g < kGuard; ++g)
                ASSERT_EQ(cols[rows * n + g], -7.0f) << "team=" << team;
            for (size_t i = 0; i < kM; ++i)
                for (size_t j = 0; j < n; ++j)
                    ASSERT_EQ(std::memcmp(&out[(j / hw) * kM * hw +
                                               i * hw + j % hw],
                                          &flat[i * n + j], sizeof(float)),
                              0)
                        << "team=" << team << " C(" << i << ", " << j
                        << ")";
        }
        if (imgs == 1) {
            std::vector<float> cols(rows * hw, -7.0f);
            kernels::im2col(p, input.data(), cols.data());
            ASSERT_EQ(std::memcmp(cols.data(), ref.data(),
                                  ref.size() * sizeof(float)),
                      0);
        }
    }
}

const ConvCase kTernaryCases[] = {
    {{1, 2, 5, 4, 3, 3, 3, 1, 1}},
    {{2, 3, 9, 9, 4, 3, 3, 1, 1}},
    {{1, 3, 10, 21, 2, 3, 3, 1, 0}},
    {{1, 2, 9, 17, 3, 5, 5, 1, 2}}, // 5x5 taps
    {{1, 3, 9, 9, 2, 3, 3, 2, 1}},  // stride 2: scalar path
};

TEST(SimdConv, PackedTernaryBitExactAndDecodesDrop)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    uint64_t seed = 700;
    for (const ConvCase &c : kTernaryCases) {
        SCOPED_TRACE(c.str());
        const ConvParams &p = c.p;
        const auto input =
            randomVec(p.n * p.cin * p.hin * p.win, seed++);
        Tensor w = test::randomTensor(
            Shape{p.cout, p.cin, p.kh, p.kw}, seed++);
        const PackedTernary packed = PackedTernary::pack(
            TernaryWeights::quantise(w, 0.3).toDense());
        const auto bias = randomVec(p.cout, seed++);
        const size_t outCount = p.n * p.cout * p.hout() * p.wout();
        std::vector<float> scal(outCount), vec(outCount);

        obs::Counter scalDecodes, vecDecodes;
        KernelPolicy scalPolicy{1};
        scalPolicy.counters.ternaryDecodes = &scalDecodes;
        KernelPolicy vecPolicy{1};
        vecPolicy.counters.ternaryDecodes = &vecDecodes;
        {
            simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
            kernels::convDirectPackedTernary(p, input.data(), packed,
                                             bias.data(), scal.data(),
                                             scalPolicy);
        }
        {
            simd::ScopedForceIsa f(best);
            kernels::convDirectPackedTernary(p, input.data(), packed,
                                             bias.data(), vec.data(),
                                             vecPolicy);
        }
        // The vector variant performs no reassociation: bit-exact.
        for (size_t i = 0; i < outCount; ++i)
            ASSERT_EQ(scal[i], vec[i]) << c.str() << " i=" << i;
        // Block-decoding may only reduce decode work, and must cut it
        // substantially when a vector ISA ran a wide interior.
        EXPECT_LE(vecDecodes.value(), scalDecodes.value()) << c.str();
        if (best != simd::SimdIsa::Scalar && p.stride == 1 &&
            p.kh == 3 && p.win >= 20) {
            EXPECT_LT(2 * vecDecodes.value(), scalDecodes.value())
                << c.str();
        }
    }
}

/**
 * The 3x3 depthwise conv under the native table vs the scalar one.
 * Channel counts straddle the 8-plane block (so blocks straddle images
 * when C % 8 != 0), the spatial sizes run from a single pixel to a
 * 16x16 plane, and every buffer is bumped one float off the arena's
 * grain.
 */
TEST(SimdDepthwise, MatchesScalar)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const size_t kSizes[][2] = {{1, 1}, {2, 2}, {3, 5}, {16, 16}};
    uint64_t seed = 700;
    for (size_t c : {1, 3, 8, 9, 17}) {
        for (size_t n : {1, 3}) {
            for (const auto &hw : kSizes) {
                for (size_t stride : {1, 2}) {
                    for (size_t pad : {0, 1}) {
                        if (hw[0] + 2 * pad < 3 || hw[1] + 2 * pad < 3)
                            continue;
                        for (bool withBias : {true, false}) {
                            const ConvParams p{n, c, hw[0], hw[1], c,
                                               3, 3, stride, pad};
                            const std::string what =
                                ConvCase{p}.str() +
                                (withBias ? " bias" : " no-bias");
                            SCOPED_TRACE(what);
                            const auto input = randomVec(
                                n * c * p.hin * p.win + 1, seed++);
                            const auto weight =
                                randomVec(c * 9 + 1, seed++);
                            const auto bias = randomVec(c + 1, seed++);
                            const float *b =
                                withBias ? bias.data() + 1 : nullptr;
                            const size_t outCount =
                                n * c * p.hout() * p.wout();
                            std::vector<float> scal(outCount + 1),
                                vec(outCount + 1);
                            {
                                simd::ScopedForceIsa f(
                                    simd::SimdIsa::Scalar);
                                kernels::convDepthwiseDense(
                                    p, input.data() + 1,
                                    weight.data() + 1, b,
                                    scal.data() + 1, {1});
                            }
                            {
                                simd::ScopedForceIsa f(best);
                                kernels::convDepthwiseDense(
                                    p, input.data() + 1,
                                    weight.data() + 1, b,
                                    vec.data() + 1, {1});
                            }
                            expectSpanClose(scal.data() + 1,
                                            vec.data() + 1, outCount,
                                            kTol, what);
                        }
                    }
                }
            }
        }
    }
}

/**
 * One plane per lane: every output must be bias plus the std::fma
 * chain over the in-bounds taps in ky/kx order (padding skipped, not
 * added as zero), bit for bit, whatever block it runs in (full block,
 * a block of one, a block that starts at it) and whatever the OpenMP
 * thread count. A block of one must also leave every other plane
 * untouched.
 */
TEST(SimdDepthwise, PlaneResultIndependentOfBlockAndThreads)
{
    const simd::MicroKernels &mk =
        simd::kernelsFor(simd::bestSupportedIsa());
    if (!mk.depthwise3x3)
        GTEST_SKIP() << "no vector depthwise kernel on this ISA";
    simd::ScopedForceIsa f(simd::bestSupportedIsa());
    // ConvParams is {n, cin, hin, win, cout, kh, kw, stride, pad}.
    const ConvParams kCases[] = {
        {3, 9, 5, 4, 9, 3, 3, 2, 1},   // 27 planes: 3 full + 3 live
        {2, 17, 2, 2, 17, 3, 3, 1, 1}, // blocks straddle images
        {1, 5, 7, 7, 5, 3, 3, 1, 0},   // a single partial block
    };
    uint64_t seed = 800;
    for (const ConvParams &p : kCases) {
        SCOPED_TRACE(ConvCase{p}.str());
        const size_t planes = p.n * p.cout;
        const size_t plane = p.hout() * p.wout();
        const auto input =
            randomVec(planes * p.hin * p.win, seed++);
        const auto weight = randomVec(p.cout * 9, seed++);
        const auto bias = randomVec(p.cout, seed++);
        std::vector<float> ref(planes * plane);
        for (size_t q = 0; q < planes; ++q) {
            const float *in = input.data() + q * p.hin * p.win;
            const float *w = weight.data() + q % p.cout * 9;
            for (size_t oy = 0; oy < p.hout(); ++oy) {
                for (size_t ox = 0; ox < p.wout(); ++ox) {
                    float acc = bias[q % p.cout];
                    for (size_t ky = 0; ky < 3; ++ky) {
                        const size_t iy = oy * p.stride + ky;
                        if (iy < p.pad || iy - p.pad >= p.hin)
                            continue;
                        for (size_t kx = 0; kx < 3; ++kx) {
                            const size_t ix = ox * p.stride + kx;
                            if (ix < p.pad || ix - p.pad >= p.win)
                                continue;
                            acc = std::fma(
                                w[ky * 3 + kx],
                                in[(iy - p.pad) * p.win + ix - p.pad],
                                acc);
                        }
                    }
                    ref[q * plane + oy * p.wout() + ox] = acc;
                }
            }
        }
        for (int threads : {1, 2, 4}) {
            std::vector<float> got(planes * plane);
            kernels::convDepthwiseDense(p, input.data(), weight.data(),
                                        bias.data(), got.data(),
                                        {threads});
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(ref[i], got[i])
                    << "threads=" << threads << " i=" << i;
        }
        for (size_t q = 0; q < planes; ++q) {
            std::vector<float> one(planes * plane, -7.0f);
            mk.depthwise3x3(p, input.data(), weight.data(), bias.data(),
                            one.data(), q, 1);
            std::vector<float> from(planes * plane);
            mk.depthwise3x3(p, input.data(), weight.data(), bias.data(),
                            from.data(), q,
                            std::min<size_t>(8, planes - q));
            for (size_t i = 0; i < one.size(); ++i) {
                if (i / plane != q) {
                    ASSERT_EQ(one[i], -7.0f)
                        << "block of plane " << q << " wrote i=" << i;
                    continue;
                }
                ASSERT_EQ(ref[i], one[i]) << "plane " << q << " alone";
                ASSERT_EQ(ref[i], from[i])
                    << "plane " << q << " in lane 0";
            }
        }
    }
}

/** Conv inputs bumped off the 64-byte grain, as the tail contract
 *  requires (the arena aligns, tests deliberately don't). */
TEST(SimdConv, MisalignedConvBuffersMatchScalar)
{
    const simd::SimdIsa best = simd::bestSupportedIsa();
    const ConvParams p{1, 3, 11, 19, 4, 3, 3, 1, 1};
    const auto input =
        randomVec(p.cin * p.hin * p.win + 1, 9001);
    const auto weight =
        randomVec(p.cout * p.cin * p.kh * p.kw + 1, 9002);
    const auto bias = randomVec(p.cout + 1, 9003);
    const size_t outCount = p.cout * p.hout() * p.wout();
    std::vector<float> scal(outCount + 1), vec(outCount + 1);
    {
        simd::ScopedForceIsa f(simd::SimdIsa::Scalar);
        kernels::convDirectDense(p, input.data() + 1,
                                 weight.data() + 1, bias.data() + 1,
                                 scal.data() + 1, {1});
    }
    {
        simd::ScopedForceIsa f(best);
        kernels::convDirectDense(p, input.data() + 1,
                                 weight.data() + 1, bias.data() + 1,
                                 vec.data() + 1, {1});
    }
    expectSpanClose(scal.data() + 1, vec.data() + 1, outCount, kTol,
                    "misaligned conv");
}

} // namespace
} // namespace dlis
