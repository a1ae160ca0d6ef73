/**
 * @file
 * AVX2+FMA micro-kernels (x86-64). This translation unit is compiled
 * with -mavx2 -mfma -ffp-contract=off (see backend/CMakeLists.txt):
 * the -m flags are per-file so the rest of the binary stays generic,
 * and contraction is off so the only fused operations are the ones
 * written explicitly (_mm256_fmadd_ps / std::fma) — scalar tails
 * round identically to vector lanes, and the ternary kernel stays
 * bit-exact against the scalar reference.
 */

#include "backend/simd/kernels.hpp"

#include "backend/simd/dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace dlis::simd {

namespace {

/**
 * Lane mask with the low @p span of 8 lanes live (span in [0, 8]).
 * _mm256_maskload_ps with a dead lane neither reads memory nor
 * faults, which is what lets partial interior spans run as one
 * masked vector block instead of per-pixel scalar work.
 */
__m256i
spanMask(size_t span)
{
    alignas(32) static const int32_t kLanes[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kLanes + 8 - span));
}

/**
 * ConvEpilogue::apply on eight lanes of one channel, after an optional
 * bias: separate add, mul, add roundings, then max(y, 0), which is
 * y > 0 ? y : 0 exactly (vmaxps returns its second operand for a NaN
 * or a pair of zeros).
 */
__m256
epilogueAvx2(__m256 y, const float *bias, const ConvEpilogue &ep,
             size_t ch)
{
    if (bias)
        y = _mm256_add_ps(y, _mm256_set1_ps(bias[ch]));
    if (ep.scale) {
        y = _mm256_mul_ps(_mm256_set1_ps(ep.scale[ch]), y);
        y = _mm256_add_ps(y, _mm256_set1_ps(ep.shift[ch]));
    }
    if (ep.relu)
        y = _mm256_max_ps(y, _mm256_setzero_ps());
    return y;
}

/**
 * One MR-row panel of a C tile: dst[r][j] += sum_p a[r][p] * b[p][j]
 * over p in [p0, p1). Columns run eight at a time with one register
 * accumulator per row (MR <= 8 keeps all live values in ymm); the
 * 1..7-column remainder is one masked 8-lane block, so an N<8 GEMM
 * (the 2x2-spatial late layers, N = 4) stays vectorised. Dead lanes
 * neither read nor write memory, and every live lane runs the same
 * single-rounded ascending-p fmadd chain as a full block. A non-null
 * @p ep (the last k block) applies the bias and epilogue of row r to
 * its accumulator before the store.
 */
template <int MR>
void
gemmPanelAvx2(const float *a, size_t lda, const float *b, size_t ldb,
              float *dst, size_t ldc, size_t cols, size_t p0,
              size_t p1, const float *bias, const ConvEpilogue *ep)
{
    auto finish = [&](__m256 acc, int r) {
        return ep ? epilogueAvx2(acc, bias, *ep, static_cast<size_t>(r))
                  : acc;
    };
    size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
        __m256 acc[MR];
        for (int r = 0; r < MR; ++r)
            acc[r] = _mm256_loadu_ps(dst + r * ldc + j);
        for (size_t p = p0; p < p1; ++p) {
            const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
            for (int r = 0; r < MR; ++r)
                acc[r] = _mm256_fmadd_ps(
                    _mm256_broadcast_ss(a + r * lda + p), bv, acc[r]);
        }
        for (int r = 0; r < MR; ++r)
            _mm256_storeu_ps(dst + r * ldc + j, finish(acc[r], r));
    }
    if (j < cols) {
        const __m256i mask = spanMask(cols - j);
        __m256 acc[MR];
        for (int r = 0; r < MR; ++r)
            acc[r] = _mm256_maskload_ps(dst + r * ldc + j, mask);
        for (size_t p = p0; p < p1; ++p) {
            const __m256 bv = _mm256_maskload_ps(b + p * ldb + j, mask);
            for (int r = 0; r < MR; ++r)
                acc[r] = _mm256_fmadd_ps(
                    _mm256_broadcast_ss(a + r * lda + p), bv, acc[r]);
        }
        for (int r = 0; r < MR; ++r)
            _mm256_maskstore_ps(dst + r * ldc + j, mask,
                                finish(acc[r], r));
    }
}

void
gemmTileAvx2(const float *a, size_t lda, const float *b, size_t ldb,
             float *dst, size_t ldc, size_t rows, size_t cols,
             size_t k, size_t tileK, const float *bias,
             const ConvEpilogue &epilogue)
{
    const size_t tk = tileK ? tileK : (k ? k : 1);
    const bool finish = bias || !epilogue.empty();
    for (size_t p0 = 0; p0 < k; p0 += tk) {
        const size_t p1 = std::min(p0 + tk, k);
        size_t i = 0;
        for (; i + 8 <= rows; i += 8) {
            const ConvEpilogue ep = epilogue.from(i);
            gemmPanelAvx2<8>(a + i * lda, lda, b, ldb, dst + i * ldc,
                             ldc, cols, p0, p1, bias ? bias + i : nullptr,
                             finish && p1 == k ? &ep : nullptr);
        }
        const float *ar = a + i * lda;
        float *dr = dst + i * ldc;
        const float *br = bias ? bias + i : nullptr;
        const ConvEpilogue er = epilogue.from(i);
        const ConvEpilogue *ep = finish && p1 == k ? &er : nullptr;
        switch (rows - i) {
        case 7:
            gemmPanelAvx2<7>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 6:
            gemmPanelAvx2<6>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 5:
            gemmPanelAvx2<5>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 4:
            gemmPanelAvx2<4>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 3:
            gemmPanelAvx2<3>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 2:
            gemmPanelAvx2<2>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        case 1:
            gemmPanelAvx2<1>(ar, lda, b, ldb, dr, ldc, cols, p0, p1, br,
                             ep);
            break;
        default:
            break;
        }
    }
}

/**
 * Scalar reference pixel of the 3x3 stride-1 conv, with std::fma for
 * the same single-rounding as the vector lanes (so border pixels and
 * interior pixels obey one rounding rule within this ISA).
 */
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
conv3x3s1Avx2(const ConvParams &p, const float *input,
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

    // Interior columns (all three kx taps in bounds) are [lo, hi];
    // the pad-wide borders on either side fall back to the scalar
    // pixel.
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
        for (; static_cast<ptrdiff_t>(ox) + 7 <= hi; ox += 8) {
            __m256 acc = _mm256_set1_ps(b);
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
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3),
                        _mm256_loadu_ps(in_row), acc);
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3 + 1),
                        _mm256_loadu_ps(in_row + 1), acc);
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3 + 2),
                        _mm256_loadu_ps(in_row + 2), acc);
                }
            }
            _mm256_storeu_ps(out_row + ox, acc);
        }
        // Leftover interior span (1..7 columns): one masked 8-wide
        // block. Without this, the small late-model layers (8x8 and
        // 4x4 feature maps) never fit a full block and the whole
        // layer degrades to per-pixel scalar work. Masked loads
        // return 0 for dead lanes and never fault, so the three-tap
        // reads may nominally extend past the interior; the masked
        // store writes only live lanes. Live lanes see the exact
        // same fmadd chain as a full block.
        if (static_cast<ptrdiff_t>(ox) <= hi) {
            const size_t span =
                static_cast<size_t>(hi + 1) - ox;
            const __m256i mask = spanMask(span);
            __m256 acc = _mm256_set1_ps(b);
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
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3),
                        _mm256_maskload_ps(in_row, mask), acc);
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3 + 1),
                        _mm256_maskload_ps(in_row + 1, mask), acc);
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(w_ci + ky * 3 + 2),
                        _mm256_maskload_ps(in_row + 2, mask), acc);
                }
            }
            _mm256_maskstore_ps(out_row + ox, mask, acc);
            ox += span;
        }
        for (; ox < wo; ++ox)
            out_row[ox] = conv3x3PixelFma(p, in_img, w_oc, b, oy, ox);
    }
}

/**
 * Up to eight consecutive planes of the flattened n*C plane axis of a
 * 3x3 depthwise conv, one plane per lane (plane q is image q / C,
 * channel q % C, so a block may straddle two images). Every lane's
 * bias and nine taps are gathered once per block; each output pixel
 * then gathers its in-bounds input taps at lane stride hin*win and
 * runs the same single-rounded ky/kx fmadd chain as conv3x3PixelFma,
 * then the epilogue (ConvEpilogue::apply's roundings) in the register.
 * Whether a tap is in bounds depends only on the pixel, so padding is
 * skipped for all lanes alike. Dead lanes of a partial block are
 * masked out of every gather and never stored.
 */
void
depthwise3x3Avx2(const ConvParams &p, const float *input,
                 const float *weight, const float *bias,
                 const ConvEpilogue &epilogue, float *output,
                 size_t plane0, size_t planes)
{
    const size_t ho = p.hout(), wo = p.wout();
    const size_t inPlane = p.hin * p.win, outPlane = ho * wo;
    const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
    const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
    const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
    const __m256 live = _mm256_castsi256_ps(spanMask(planes));
    const __m256 zero = _mm256_setzero_ps();

    // Lane l holds plane plane0 + l: its channel picks the bias and
    // taps, and its input plane starts l * hin*win floats along.
    alignas(32) int32_t chan[8] = {}, lane[8];
    for (size_t l = 0; l < 8; ++l) {
        if (l < planes)
            chan[l] = static_cast<int32_t>((plane0 + l) % p.cout);
        lane[l] = static_cast<int32_t>(l * inPlane);
    }
    const __m256i chanIdx =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(chan));
    const __m256i tapIdx =
        _mm256_mullo_epi32(chanIdx, _mm256_set1_epi32(9));
    const __m256i inIdx =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(lane));
    const __m256 b =
        bias ? _mm256_mask_i32gather_ps(zero, bias, chanIdx, live, 4)
             : zero;
    __m256 w[9];
    for (size_t t = 0; t < 9; ++t)
        w[t] = _mm256_mask_i32gather_ps(zero, weight + t, tapIdx, live,
                                        4);
    // The epilogue of each lane's channel, gathered like the bias.
    const bool bn = epilogue.scale != nullptr;
    const __m256 scale =
        bn ? _mm256_mask_i32gather_ps(zero, epilogue.scale, chanIdx,
                                      live, 4)
           : zero;
    const __m256 shift =
        bn ? _mm256_mask_i32gather_ps(zero, epilogue.shift, chanIdx,
                                      live, 4)
           : zero;

    const float *in = input + plane0 * inPlane;
    float *out = output + plane0 * outPlane;
    alignas(32) float res[8];
    for (size_t oy = 0; oy < ho; ++oy) {
        const ptrdiff_t iy0 = static_cast<ptrdiff_t>(oy * p.stride) - pad;
        for (size_t ox = 0; ox < wo; ++ox) {
            const ptrdiff_t ix0 =
                static_cast<ptrdiff_t>(ox * p.stride) - pad;
            __m256 acc = b;
            for (ptrdiff_t ky = 0; ky < 3; ++ky) {
                const ptrdiff_t iy = iy0 + ky;
                if (iy < 0 || iy >= hin)
                    continue;
                for (ptrdiff_t kx = 0; kx < 3; ++kx) {
                    const ptrdiff_t ix = ix0 + kx;
                    if (ix < 0 || ix >= win)
                        continue;
                    acc = _mm256_fmadd_ps(
                        w[ky * 3 + kx],
                        _mm256_mask_i32gather_ps(
                            zero, in + iy * win + ix, inIdx, live, 4),
                        acc);
                }
            }
            if (bn) {
                acc = _mm256_mul_ps(scale, acc);
                acc = _mm256_add_ps(acc, shift);
            }
            if (epilogue.relu)
                acc = _mm256_max_ps(acc, zero);
            _mm256_store_ps(res, acc);
            for (size_t l = 0; l < planes; ++l)
                out[l * outPlane + oy * wo + ox] = res[l];
        }
    }
}

/**
 * Scalar reference pixel of the packed-ternary conv, identical to the
 * loop in packedTernaryConvOneChannel (plain adds, no contraction in
 * this TU) so border pixels stay bit-exact against the scalar ISA.
 */
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
ternaryConvS1Avx2(const ConvParams &p, const float *input,
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

    const __m256 bv = _mm256_set1_ps(b);
    const __m256 wpv = _mm256_set1_ps(weight.wp());
    const __m256 wnv = _mm256_set1_ps(weight.wn());

    // Interior columns where every kx tap is in bounds: one decode()
    // then serves eight output pixels at once.
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
        for (; static_cast<ptrdiff_t>(ox) + 7 <= hi; ox += 8) {
            __m256 pos = _mm256_setzero_ps();
            __m256 neg = _mm256_setzero_ps();
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
                            pos = _mm256_add_ps(
                                pos, _mm256_loadu_ps(in_row + kx));
                        else if (v < 0.0f)
                            neg = _mm256_add_ps(
                                neg, _mm256_loadu_ps(in_row + kx));
                    }
                }
            }
            _mm256_storeu_ps(
                out_row + ox,
                _mm256_sub_ps(
                    _mm256_add_ps(bv, _mm256_mul_ps(wpv, pos)),
                    _mm256_mul_ps(wnv, neg)));
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
avx2MicroKernels()
{
    static const MicroKernels table = [] {
        MicroKernels t;
        t.isa = SimdIsa::Avx2;
        t.gemmTile = &gemmTileAvx2;
        t.conv3x3s1 = &conv3x3s1Avx2;
        t.depthwise3x3 = &depthwise3x3Avx2;
        t.ternaryConvS1 = &ternaryConvS1Avx2;
        return t;
    }();
    return &table;
}

} // namespace dlis::simd

#else // !(__AVX2__ && __FMA__)

namespace dlis::simd {

const MicroKernels *
avx2MicroKernels()
{
    return nullptr;
}

} // namespace dlis::simd

#endif
