#include "backend/conv_kernels.hpp"

#include <algorithm>
#include <cstdint>

#include "backend/simd/dispatch.hpp"

namespace dlis::kernels {

namespace {

/**
 * Serial body: one (image, output-channel) pair of a dense direct conv.
 */
void
denseConvOneChannel(const ConvParams &p, const float *input,
                    const float *weight, const float *bias,
                    float *output, size_t img, size_t oc)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_img = input + img * p.cin * p.hin * p.win;
    const float *w_oc = weight + oc * p.cin * p.kh * p.kw;
    float *out_ch = output + (img * p.cout + oc) * ho * wo;
    const float b = bias ? bias[oc] : 0.0f;

    for (size_t oy = 0; oy < ho; ++oy) {
        for (size_t ox = 0; ox < wo; ++ox) {
            float acc = b;
            const ptrdiff_t iy0 =
                static_cast<ptrdiff_t>(oy * p.stride) -
                static_cast<ptrdiff_t>(p.pad);
            const ptrdiff_t ix0 =
                static_cast<ptrdiff_t>(ox * p.stride) -
                static_cast<ptrdiff_t>(p.pad);
            for (size_t ci = 0; ci < p.cin; ++ci) {
                const float *in_ch = in_img + ci * p.hin * p.win;
                const float *w_ci = w_oc + ci * p.kh * p.kw;
                for (size_t ky = 0; ky < p.kh; ++ky) {
                    const ptrdiff_t iy = iy0 + static_cast<ptrdiff_t>(ky);
                    if (iy < 0 || iy >= static_cast<ptrdiff_t>(p.hin))
                        continue;
                    for (size_t kx = 0; kx < p.kw; ++kx) {
                        const ptrdiff_t ix =
                            ix0 + static_cast<ptrdiff_t>(kx);
                        if (ix < 0 || ix >= static_cast<ptrdiff_t>(p.win))
                            continue;
                        acc += w_ci[ky * p.kw + kx] *
                               in_ch[iy * p.win + ix];
                    }
                }
            }
            out_ch[oy * wo + ox] = acc;
        }
    }
}

/** One (image, output-channel) pair of a per-slice CSR conv. */
void
csrBankConvOneChannel(const ConvParams &p, const float *input,
                      const CsrFilterBank &bank, const float *bias,
                      float *output, size_t img, size_t oc,
                      obs::Counter *rowVisits)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_img = input + img * p.cin * p.hin * p.win;
    float *out_ch = output + (img * p.cout + oc) * ho * wo;
    const float b = bias ? bias[oc] : 0.0f;

    for (size_t i = 0; i < ho * wo; ++i)
        out_ch[i] = b;

    // Row-visit accounting, in LayerCost::sparseRowVisits units (per
    // output pixel, per slice, per kernel row): this scatter kernel
    // hoists the row walk out of the spatial loop, so each of the
    // cin*kh row inspections it performs here stands in for the ho*wo
    // per-pixel walks the paper's gather kernel would do. Charging
    // pixel units keeps observed counts join-able with the predicted
    // LayerCost::sparseRowVisits, exactly.
    if (rowVisits)
        rowVisits->add(static_cast<uint64_t>(p.cin) * p.kh * ho * wo);

    for (size_t ci = 0; ci < p.cin; ++ci) {
        const CsrSlice &s = bank.slice(oc, ci);
        if (s.nnz() == 0)
            continue;
        const float *in_ch = in_img + ci * p.hin * p.win;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            for (int32_t k = s.rowPtr[ky]; k < s.rowPtr[ky + 1]; ++k) {
                const size_t kx = static_cast<size_t>(s.colIdx[k]);
                const float v = s.values[k];
                for (size_t oy = 0; oy < ho; ++oy) {
                    const ptrdiff_t iy =
                        static_cast<ptrdiff_t>(oy * p.stride + ky) -
                        static_cast<ptrdiff_t>(p.pad);
                    if (iy < 0 || iy >= static_cast<ptrdiff_t>(p.hin))
                        continue;
                    for (size_t ox = 0; ox < wo; ++ox) {
                        const ptrdiff_t ix =
                            static_cast<ptrdiff_t>(ox * p.stride + kx) -
                            static_cast<ptrdiff_t>(p.pad);
                        if (ix < 0 ||
                            ix >= static_cast<ptrdiff_t>(p.win))
                            continue;
                        out_ch[oy * wo + ox] +=
                            v * in_ch[iy * p.win + ix];
                    }
                }
            }
        }
    }
}

/** One (image, output-channel) pair of a packed-ternary conv. */
void
packedTernaryConvOneChannel(const ConvParams &p, const float *input,
                            const PackedTernary &weight,
                            const float *bias, float *output,
                            size_t img, size_t oc,
                            obs::Counter *decodeCounter)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_img = input + img * p.cin * p.hin * p.win;
    float *out_ch = output + (img * p.cout + oc) * ho * wo;
    const float b = bias ? bias[oc] : 0.0f;
    const size_t filter = p.cin * p.kh * p.kw;
    const float wp = weight.wp(), wn = weight.wn();
    uint64_t decodes = 0;

    for (size_t oy = 0; oy < ho; ++oy) {
        for (size_t ox = 0; ox < wo; ++ox) {
            // Two accumulators: the multiply happens once per pixel.
            float pos = 0.0f, neg = 0.0f;
            size_t idx = oc * filter;
            for (size_t ci = 0; ci < p.cin; ++ci) {
                const float *in_ch = in_img + ci * p.hin * p.win;
                for (size_t ky = 0; ky < p.kh; ++ky) {
                    const ptrdiff_t iy =
                        static_cast<ptrdiff_t>(oy * p.stride + ky) -
                        static_cast<ptrdiff_t>(p.pad);
                    if (iy < 0 ||
                        iy >= static_cast<ptrdiff_t>(p.hin)) {
                        idx += p.kw;
                        continue;
                    }
                    for (size_t kx = 0; kx < p.kw; ++kx, ++idx) {
                        const ptrdiff_t ix =
                            static_cast<ptrdiff_t>(
                                ox * p.stride + kx) -
                            static_cast<ptrdiff_t>(p.pad);
                        if (ix < 0 ||
                            ix >= static_cast<ptrdiff_t>(p.win))
                            continue;
                        const float v = weight.decode(idx);
                        ++decodes;
                        if (v > 0.0f)
                            pos += in_ch[iy * p.win + ix];
                        else if (v < 0.0f)
                            neg += in_ch[iy * p.win + ix];
                    }
                }
            }
            out_ch[oy * wo + ox] = b + wp * pos - wn * neg;
        }
    }
    if (decodeCounter)
        decodeCounter->add(decodes);
}

/** One (image, channel) pair of a depthwise direct conv. */
void
depthwiseConvOneChannel(const ConvParams &p, const float *input,
                        const float *weight, const float *bias,
                        const ConvEpilogue &epilogue, float *output,
                        size_t img, size_t ch)
{
    const size_t ho = p.hout(), wo = p.wout();
    const float *in_ch =
        input + (img * p.cin + ch) * p.hin * p.win;
    const float *w_ch = weight + ch * p.kh * p.kw;
    float *out_ch = output + (img * p.cout + ch) * ho * wo;
    const float b = bias ? bias[ch] : 0.0f;

    for (size_t oy = 0; oy < ho; ++oy) {
        for (size_t ox = 0; ox < wo; ++ox) {
            float acc = b;
            for (size_t ky = 0; ky < p.kh; ++ky) {
                const ptrdiff_t iy =
                    static_cast<ptrdiff_t>(oy * p.stride + ky) -
                    static_cast<ptrdiff_t>(p.pad);
                if (iy < 0 || iy >= static_cast<ptrdiff_t>(p.hin))
                    continue;
                for (size_t kx = 0; kx < p.kw; ++kx) {
                    const ptrdiff_t ix =
                        static_cast<ptrdiff_t>(ox * p.stride + kx) -
                        static_cast<ptrdiff_t>(p.pad);
                    if (ix < 0 || ix >= static_cast<ptrdiff_t>(p.win))
                        continue;
                    acc += w_ch[ky * p.kw + kx] *
                           in_ch[iy * p.win + ix];
                }
            }
            out_ch[oy * wo + ox] = epilogue.apply(acc, ch);
        }
    }
}

} // namespace

void
convDirectDense(const ConvParams &p, const float *input,
                const float *weight, const float *bias, float *output,
                const KernelPolicy &policy, const ConvEpilogue &epilogue)
{
    const size_t hw = p.hout() * p.wout();
    // The 3x3 stride-1 shape (most convs in the paper's models) has a
    // vectorised variant; everything else runs the reference loop.
    const simd::MicroKernels &mk = simd::activeKernels();
    if (mk.conv3x3s1 && p.kh == 3 && p.kw == 3 && p.stride == 1) {
        forEachImageChannel(p.n, p.cout, policy,
            [&](size_t img, size_t oc) {
                mk.conv3x3s1(p, input, weight, bias, output, img, oc);
                epilogue.applyPlane(output + (img * p.cout + oc) * hw,
                                    hw, oc);
            });
        return;
    }
    forEachImageChannel(p.n, p.cout, policy,
        [&](size_t img, size_t oc) {
            denseConvOneChannel(p, input, weight, bias, output, img, oc);
            epilogue.applyPlane(output + (img * p.cout + oc) * hw, hw,
                                oc);
        });
}

void
convDirectCsrBank(const ConvParams &p, const float *input,
                  const CsrFilterBank &bank, const float *bias,
                  float *output, const KernelPolicy &policy,
                  const ConvEpilogue &epilogue)
{
    DLIS_CHECK(bank.outChannels() == p.cout &&
               bank.inChannels() == p.cin && bank.kernelH() == p.kh &&
               bank.kernelW() == p.kw,
               "filter bank is [", bank.outChannels(), ", ",
               bank.inChannels(), ", ", bank.kernelH(), ", ",
               bank.kernelW(), "], conv expects [", p.cout, ", ", p.cin,
               ", ", p.kh, ", ", p.kw, "]");
    const size_t hw = p.hout() * p.wout();
    forEachImageChannel(p.n, p.cout, policy,
        [&](size_t img, size_t oc) {
            csrBankConvOneChannel(p, input, bank, bias, output, img, oc,
                                  policy.counters.csrRowVisits);
            epilogue.applyPlane(output + (img * p.cout + oc) * hw, hw,
                                oc);
        });
}

void
convDirectPackedTernary(const ConvParams &p, const float *input,
                        const PackedTernary &weight, const float *bias,
                        float *output, const KernelPolicy &policy,
                        const ConvEpilogue &epilogue)
{
    DLIS_CHECK(weight.numel() == p.cout * p.cin * p.kh * p.kw,
               "packed ternary weight has ", weight.numel(),
               " codes, conv expects ", p.cout * p.cin * p.kh * p.kw);
    const size_t hw = p.hout() * p.wout();
    // Stride 1 lets the vector variant reuse one decode across a
    // whole block of output pixels (bit-exact; ternary_decodes counts
    // the decode() calls actually made, so it drops accordingly).
    const simd::MicroKernels &mk = simd::activeKernels();
    if (mk.ternaryConvS1 && p.stride == 1) {
        forEachImageChannel(p.n, p.cout, policy,
            [&](size_t img, size_t oc) {
                mk.ternaryConvS1(p, input, weight, bias, output, img,
                                 oc, policy.counters.ternaryDecodes);
                epilogue.applyPlane(output + (img * p.cout + oc) * hw,
                                    hw, oc);
            });
        return;
    }
    forEachImageChannel(p.n, p.cout, policy,
        [&](size_t img, size_t oc) {
            packedTernaryConvOneChannel(p, input, weight, bias, output,
                                        img, oc,
                                        policy.counters.ternaryDecodes);
            epilogue.applyPlane(output + (img * p.cout + oc) * hw, hw,
                                oc);
        });
}

void
convDepthwiseDense(const ConvParams &p, const float *input,
                   const float *weight, const float *bias, float *output,
                   const KernelPolicy &policy,
                   const ConvEpilogue &epilogue)
{
    DLIS_CHECK(p.cout == p.cin, "depthwise conv needs cout == cin, got ",
               p.cout, " vs ", p.cin);
    // The 3x3 variant runs one plane per vector lane, so the parallel
    // loop is over blocks of eight consecutive (image, channel) planes
    // and the batch fills the lanes as well as the channels do. Its
    // gathers take 32-bit offsets, which bounds the plane size.
    const simd::MicroKernels &mk = simd::activeKernels();
    if (mk.depthwise3x3 && p.kh == 3 && p.kw == 3 &&
        p.hin * p.win <= INT32_MAX / 8 && p.cout <= INT32_MAX / 9) {
        const size_t planes = p.n * p.cout;
        forEachImageChannel(1, (planes + 7) / 8, policy,
            [&](size_t, size_t block) {
                const size_t q0 = block * 8;
                mk.depthwise3x3(p, input, weight, bias, epilogue, output,
                                q0, std::min<size_t>(8, planes - q0));
            });
        return;
    }
    forEachImageChannel(p.n, p.cout, policy,
        [&](size_t img, size_t ch) {
            depthwiseConvOneChannel(p, input, weight, bias, epilogue,
                                    output, img, ch);
        });
}

} // namespace dlis::kernels
