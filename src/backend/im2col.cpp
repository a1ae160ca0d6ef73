#include "backend/im2col.hpp"

#include <algorithm>

#include "backend/gemm.hpp"
#include "backend/simd/dispatch.hpp"

namespace dlis::kernels {

size_t
im2colBufferSize(const ConvParams &p)
{
    return p.cin * p.kh * p.kw * p.hout() * p.wout();
}

size_t
im2colGroupImages(const ConvParams &p)
{
    const size_t hw = p.hout() * p.wout();
    return std::min(p.n, (kGemmTileN + hw - 1) / hw);
}

bool
im2colIsIdentity(const ConvParams &p)
{
    return p.kh == 1 && p.kw == 1 && p.stride == 1 && p.pad == 0;
}

void
im2col(const ConvParams &p, const float *input, float *cols, size_t rowStride)
{
    const size_t ho = p.hout(), wo = p.wout();
    const size_t ld = rowStride ? rowStride : ho * wo;
    // At stride 1 every column row is a contiguous input span plus
    // zero padding; the vector variant is bit-exact (pure copies).
    const simd::MicroKernels &mk = simd::activeKernels();
    if (mk.im2colS1 && p.stride == 1) {
        mk.im2colS1(p, input, cols, ld);
        return;
    }
    size_t row = 0;
    for (size_t ci = 0; ci < p.cin; ++ci) {
        const float *in_ch = input + ci * p.hin * p.win;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            for (size_t kx = 0; kx < p.kw; ++kx, ++row) {
                float *out_row = cols + row * ld;
                for (size_t oy = 0; oy < ho; ++oy) {
                    const ptrdiff_t iy =
                        static_cast<ptrdiff_t>(oy * p.stride + ky) -
                        static_cast<ptrdiff_t>(p.pad);
                    for (size_t ox = 0; ox < wo; ++ox) {
                        const ptrdiff_t ix =
                            static_cast<ptrdiff_t>(ox * p.stride + kx) -
                            static_cast<ptrdiff_t>(p.pad);
                        float v = 0.0f;
                        if (iy >= 0 &&
                            iy < static_cast<ptrdiff_t>(p.hin) &&
                            ix >= 0 &&
                            ix < static_cast<ptrdiff_t>(p.win)) {
                            v = in_ch[iy * p.win + ix];
                        }
                        out_row[oy * wo + ox] = v;
                    }
                }
            }
        }
    }
}

void
col2im(const ConvParams &p, const float *cols, float *input)
{
    // The scatter-add below accumulates with +=, so the image buffer
    // is zeroed here rather than trusting callers to pre-clear it —
    // a second invocation into the same buffer used to silently sum
    // both results (scratch reuse made that garbage, not zeros).
    std::fill(input, input + p.cin * p.hin * p.win, 0.0f);
    const size_t ho = p.hout(), wo = p.wout();
    const size_t out_spatial = ho * wo;
    size_t row = 0;
    for (size_t ci = 0; ci < p.cin; ++ci) {
        float *in_ch = input + ci * p.hin * p.win;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            for (size_t kx = 0; kx < p.kw; ++kx, ++row) {
                const float *in_row = cols + row * out_spatial;
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
                        in_ch[iy * p.win + ix] += in_row[oy * wo + ox];
                    }
                }
            }
        }
    }
}

} // namespace dlis::kernels
