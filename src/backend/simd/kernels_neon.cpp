/**
 * @file
 * NEON micro-kernels (AArch64). Structure mirrors kernels_avx2.cpp
 * with 4-lane vectors; compiled with -ffp-contract=off so the only
 * fused operations are the explicit vfmaq_f32 / std::fma calls and
 * scalar tails round identically to vector lanes. On non-Arm targets
 * this TU compiles to a null-table stub.
 */

#include "backend/simd/kernels.hpp"

#include "backend/simd/dispatch.hpp"

#if defined(__ARM_NEON) || defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace dlis::simd {

namespace {

/**
 * Like gemmPanelAvx2 (MR rows, ascending-p FMA chain), but 4-wide
 * columns and a scalar std::fma tail for the cols % 4 remainder.
 */
template <int MR>
void
gemmPanelNeon(const float *a, size_t lda, const float *b, size_t ldb,
              float *dst, size_t ldc, size_t cols, size_t p0,
              size_t p1)
{
    size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
        float32x4_t acc[MR];
        for (int r = 0; r < MR; ++r)
            acc[r] = vld1q_f32(dst + r * ldc + j);
        for (size_t p = p0; p < p1; ++p) {
            const float32x4_t bv = vld1q_f32(b + p * ldb + j);
            for (int r = 0; r < MR; ++r)
                acc[r] = vfmaq_f32(
                    acc[r], vdupq_n_f32(a[r * lda + p]), bv);
        }
        for (int r = 0; r < MR; ++r)
            vst1q_f32(dst + r * ldc + j, acc[r]);
    }
    for (; j < cols; ++j) {
        for (int r = 0; r < MR; ++r) {
            float acc = dst[r * ldc + j];
            for (size_t p = p0; p < p1; ++p)
                acc = std::fma(a[r * lda + p], b[p * ldb + j], acc);
            dst[r * ldc + j] = acc;
        }
    }
}

void
gemmTileNeon(const float *a, size_t lda, const float *b, size_t ldb,
             float *dst, size_t ldc, size_t rows, size_t cols,
             size_t k, size_t tileK)
{
    const size_t tk = tileK ? tileK : (k ? k : 1);
    for (size_t p0 = 0; p0 < k; p0 += tk) {
        const size_t p1 = std::min(p0 + tk, k);
        size_t i = 0;
        for (; i + 8 <= rows; i += 8)
            gemmPanelNeon<8>(a + i * lda, lda, b, ldb, dst + i * ldc,
                             ldc, cols, p0, p1);
        const float *ar = a + i * lda;
        float *dr = dst + i * ldc;
        switch (rows - i) {
        case 7:
            gemmPanelNeon<7>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 6:
            gemmPanelNeon<6>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 5:
            gemmPanelNeon<5>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 4:
            gemmPanelNeon<4>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 3:
            gemmPanelNeon<3>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 2:
            gemmPanelNeon<2>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        case 1:
            gemmPanelNeon<1>(ar, lda, b, ldb, dr, ldc, cols, p0, p1);
            break;
        default:
            break;
        }
    }
}

/** Scalar border pixel, std::fma-rounded like the vector lanes. */
float
conv3x3PixelFma(const ConvParams &p, const float *in_img,
                const float *w_oc, float bias, size_t oy, size_t ox)
{
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
    const ptrdiff_t iy0 = static_cast<ptrdiff_t>(oy) - pad;
    const ptrdiff_t ix0 = static_cast<ptrdiff_t>(ox) - pad;
    float acc = bias;
    for (size_t ci = 0; ci < p.cin; ++ci) {
        const float *in_ch = in_img + ci * p.hin * p.win;
        const float *w_ci = w_oc + ci * 9;
        for (size_t ky = 0; ky < 3; ++ky) {
            const ptrdiff_t iy = iy0 + static_cast<ptrdiff_t>(ky);
            if (iy < 0 || iy >= hin)
                continue;
            for (size_t kx = 0; kx < 3; ++kx) {
                const ptrdiff_t ix = ix0 + static_cast<ptrdiff_t>(kx);
                if (ix < 0 || ix >= win)
                    continue;
                acc = std::fma(w_ci[ky * 3 + kx],
                               in_ch[iy * win + ix], acc);
            }
        }
    }
    return acc;
}

void
conv3x3s1Neon(const ConvParams &p, const float *input,
              const float *weight, const float *bias, float *output,
              size_t img, size_t oc)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_img = input + img * p.cin * p.hin * p.win;
    const float *w_oc = weight + oc * p.cin * 9;
    float *out_ch = output + (img * p.cout + oc) * ho * wo;
    const float b = bias ? bias[oc] : 0.0f;
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);

    const ptrdiff_t lo =
        std::min(pad, static_cast<ptrdiff_t>(wo));
    const ptrdiff_t hi = std::min(win - 3 + pad,
                                  static_cast<ptrdiff_t>(wo) - 1);

    for (size_t oy = 0; oy < ho; ++oy) {
        float *out_row = out_ch + oy * wo;
        const ptrdiff_t iy0 = static_cast<ptrdiff_t>(oy) - pad;
        size_t ox = 0;
        for (; static_cast<ptrdiff_t>(ox) < lo; ++ox)
            out_row[ox] = conv3x3PixelFma(p, in_img, w_oc, b, oy, ox);
        for (; static_cast<ptrdiff_t>(ox) + 3 <= hi; ox += 4) {
            float32x4_t acc = vdupq_n_f32(b);
            const ptrdiff_t ix = static_cast<ptrdiff_t>(ox) - pad;
            for (size_t ci = 0; ci < p.cin; ++ci) {
                const float *in_ch = in_img + ci * p.hin * p.win;
                const float *w_ci = w_oc + ci * 9;
                for (size_t ky = 0; ky < 3; ++ky) {
                    const ptrdiff_t iy =
                        iy0 + static_cast<ptrdiff_t>(ky);
                    if (iy < 0 || iy >= hin)
                        continue;
                    const float *in_row = in_ch + iy * win + ix;
                    acc = vfmaq_f32(acc, vdupq_n_f32(w_ci[ky * 3]),
                                    vld1q_f32(in_row));
                    acc = vfmaq_f32(acc,
                                    vdupq_n_f32(w_ci[ky * 3 + 1]),
                                    vld1q_f32(in_row + 1));
                    acc = vfmaq_f32(acc,
                                    vdupq_n_f32(w_ci[ky * 3 + 2]),
                                    vld1q_f32(in_row + 2));
                }
            }
            vst1q_f32(out_row + ox, acc);
        }
        for (; ox < wo; ++ox)
            out_row[ox] = conv3x3PixelFma(p, in_img, w_oc, b, oy, ox);
    }
}

void
zeroSpanNeon(float *dst, size_t n)
{
    const float32x4_t z = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i, z);
    for (; i < n; ++i)
        dst[i] = 0.0f;
}

void
copySpanNeon(float *dst, const float *src, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i, vld1q_f32(src + i));
    for (; i < n; ++i)
        dst[i] = src[i];
}

void
im2colS1Neon(const ConvParams &p, const float *input, float *cols, size_t ld)
{
    const size_t ho = p.hout(), wo = p.wout();
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
    size_t row = 0;
    for (size_t ci = 0; ci < p.cin; ++ci) {
        const float *in_ch = input + ci * p.hin * p.win;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            for (size_t kx = 0; kx < p.kw; ++kx, ++row) {
                float *out_row = cols + row * ld;
                const ptrdiff_t shift =
                    static_cast<ptrdiff_t>(kx) - pad;
                const ptrdiff_t ox0 = std::clamp<ptrdiff_t>(
                    -shift, 0, static_cast<ptrdiff_t>(wo));
                const ptrdiff_t ox1 = std::clamp<ptrdiff_t>(
                    win - shift, ox0, static_cast<ptrdiff_t>(wo));
                for (size_t oy = 0; oy < ho; ++oy) {
                    float *dst = out_row + oy * wo;
                    const ptrdiff_t iy =
                        static_cast<ptrdiff_t>(oy + ky) - pad;
                    if (iy < 0 || iy >= hin) {
                        zeroSpanNeon(dst, wo);
                        continue;
                    }
                    zeroSpanNeon(dst, static_cast<size_t>(ox0));
                    copySpanNeon(dst + ox0,
                                 in_ch + iy * win + ox0 + shift,
                                 static_cast<size_t>(ox1 - ox0));
                    zeroSpanNeon(
                        dst + ox1,
                        static_cast<size_t>(
                            static_cast<ptrdiff_t>(wo) - ox1));
                }
            }
        }
    }
}

/** Scalar border pixel, bit-exact against the scalar reference. */
float
ternaryPixel(const ConvParams &p, const float *in_img,
             const PackedTernary &weight, size_t oc, float b,
             size_t oy, size_t ox, uint64_t &decodes)
{
    const size_t filter = p.cin * p.kh * p.kw;
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
    float pos = 0.0f, neg = 0.0f;
    size_t idx = oc * filter;
    for (size_t ci = 0; ci < p.cin; ++ci) {
        const float *in_ch = in_img + ci * p.hin * p.win;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            const ptrdiff_t iy =
                static_cast<ptrdiff_t>(oy + ky) - pad;
            if (iy < 0 || iy >= hin) {
                idx += p.kw;
                continue;
            }
            for (size_t kx = 0; kx < p.kw; ++kx, ++idx) {
                const ptrdiff_t ix =
                    static_cast<ptrdiff_t>(ox + kx) - pad;
                if (ix < 0 || ix >= win)
                    continue;
                const float v = weight.decode(idx);
                ++decodes;
                if (v > 0.0f)
                    pos += in_ch[iy * win + ix];
                else if (v < 0.0f)
                    neg += in_ch[iy * win + ix];
            }
        }
    }
    return b + weight.wp() * pos - weight.wn() * neg;
}

void
ternaryConvS1Neon(const ConvParams &p, const float *input,
                  const PackedTernary &weight, const float *bias,
                  float *output, size_t img, size_t oc,
                  obs::Counter *decodeCounter)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_img = input + img * p.cin * p.hin * p.win;
    float *out_ch = output + (img * p.cout + oc) * ho * wo;
    const float b = bias ? bias[oc] : 0.0f;
    const size_t filter = p.cin * p.kh * p.kw;
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
    uint64_t decodes = 0;

    const float32x4_t bvv = vdupq_n_f32(b);
    const float32x4_t wpv = vdupq_n_f32(weight.wp());
    const float32x4_t wnv = vdupq_n_f32(weight.wn());

    const ptrdiff_t lo =
        std::min(pad, static_cast<ptrdiff_t>(wo));
    const ptrdiff_t hi =
        std::min(win - static_cast<ptrdiff_t>(p.kw) + pad,
                 static_cast<ptrdiff_t>(wo) - 1);

    for (size_t oy = 0; oy < ho; ++oy) {
        float *out_row = out_ch + oy * wo;
        const ptrdiff_t iy0 = static_cast<ptrdiff_t>(oy) - pad;
        size_t ox = 0;
        for (; static_cast<ptrdiff_t>(ox) < lo; ++ox)
            out_row[ox] = ternaryPixel(p, in_img, weight, oc, b, oy,
                                       ox, decodes);
        for (; static_cast<ptrdiff_t>(ox) + 3 <= hi; ox += 4) {
            float32x4_t pos = vdupq_n_f32(0.0f);
            float32x4_t neg = vdupq_n_f32(0.0f);
            const ptrdiff_t ix = static_cast<ptrdiff_t>(ox) - pad;
            size_t idx = oc * filter;
            for (size_t ci = 0; ci < p.cin; ++ci) {
                const float *in_ch = in_img + ci * p.hin * p.win;
                for (size_t ky = 0; ky < p.kh; ++ky) {
                    const ptrdiff_t iy =
                        iy0 + static_cast<ptrdiff_t>(ky);
                    if (iy < 0 || iy >= hin) {
                        idx += p.kw;
                        continue;
                    }
                    const float *in_row = in_ch + iy * win + ix;
                    for (size_t kx = 0; kx < p.kw; ++kx, ++idx) {
                        const float v = weight.decode(idx);
                        ++decodes;
                        if (v > 0.0f)
                            pos = vaddq_f32(
                                pos, vld1q_f32(in_row + kx));
                        else if (v < 0.0f)
                            neg = vaddq_f32(
                                neg, vld1q_f32(in_row + kx));
                    }
                }
            }
            vst1q_f32(out_row + ox,
                      vsubq_f32(vaddq_f32(bvv, vmulq_f32(wpv, pos)),
                                vmulq_f32(wnv, neg)));
        }
        for (; ox < wo; ++ox)
            out_row[ox] = ternaryPixel(p, in_img, weight, oc, b, oy,
                                       ox, decodes);
    }
    if (decodeCounter)
        decodeCounter->add(decodes);
}

} // namespace

const MicroKernels *
neonMicroKernels()
{
    static const MicroKernels table = [] {
        MicroKernels t;
        t.isa = SimdIsa::Neon;
        t.gemmTile = &gemmTileNeon;
        t.conv3x3s1 = &conv3x3s1Neon;
        t.im2colS1 = &im2colS1Neon;
        t.ternaryConvS1 = &ternaryConvS1Neon;
        return t;
    }();
    return &table;
}

} // namespace dlis::simd

#else // !__ARM_NEON

namespace dlis::simd {

const MicroKernels *
neonMicroKernels()
{
    return nullptr;
}

} // namespace dlis::simd

#endif
