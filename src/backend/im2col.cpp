#include "backend/im2col.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "backend/gemm.hpp"

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

namespace {

/**
 * Offset-table capacity of the narrow-plane gather, in entries of one
 * channel's kh*kw*hout*wout column block (4 KiB of stack). A 3x3
 * conv takes the table path up to hout*wout = 113, i.e. planes up to
 * 10x10, where a row span would hold at most 10 floats.
 */
constexpr size_t kGatherTable = 1024;

/**
 * The output range [lo, hi) over which kernel tap @p tap reads inside
 * the input along one axis: output o reads input o*stride + tap - pad,
 * which must lie in [0, extent). Clamped to [0, out].
 */
std::pair<size_t, size_t>
tapRange(size_t tap, size_t pad, size_t stride, size_t extent, size_t out)
{
    const ptrdiff_t s = static_cast<ptrdiff_t>(stride);
    const ptrdiff_t o = static_cast<ptrdiff_t>(out);
    const ptrdiff_t shift =
        static_cast<ptrdiff_t>(tap) - static_cast<ptrdiff_t>(pad);
    const ptrdiff_t first = shift >= 0 ? 0 : (s - 1 - shift) / s;
    const ptrdiff_t end = static_cast<ptrdiff_t>(extent) - shift;
    const ptrdiff_t last = end <= 0 ? 0 : (end + s - 1) / s;
    const ptrdiff_t lo = std::min(first, o);
    return {static_cast<size_t>(lo),
            static_cast<size_t>(std::clamp(last, lo, o))};
}

/**
 * Run @p body(in, out) for tasks [task0, task1) of @p group: in is
 * task t's input channel plane, out the first float of its @p kk
 * column rows (imgs*hw floats apart). Task t = ci*imgs + i is channel
 * ci of image i, at column offset i*@p hw.
 */
template <typename Body>
void
forEachTask(const Im2colGroup &group, size_t task0, size_t task1, size_t kk,
            size_t hw, Body &&body)
{
    const ConvParams &p = group.p;
    const size_t plane = p.hin * p.win;
    const size_t ld = group.imgs * hw;
    size_t ci = task0 / group.imgs, i = task0 % group.imgs;
    for (size_t t = task0; t < task1; ++t) {
        body(group.input + (i * p.cin + ci) * plane,
             group.cols + ci * kk * ld + i * hw);
        if (++i == group.imgs) {
            i = 0;
            ++ci;
        }
    }
}

} // namespace

void
im2colPack(const Im2colGroup &group, size_t task0, size_t task1)
{
    const ConvParams &p = group.p;
    const size_t ho = p.hout(), wo = p.wout(), hw = ho * wo;
    const size_t kk = p.kh * p.kw;
    const size_t ld = group.imgs * hw;

    if (im2colIsIdentity(p)) {
        auto copyPlane = [&](const float *in, float *out) {
            for (size_t s = 0; s < hw; ++s)
                out[s] = in[s];
        };
        forEachTask(group, task0, task1, kk, hw, copyPlane);
        return;
    }

    if (kk * hw <= kGatherTable) {
        // table[r*hw + s]: offset of column r's element s within the
        // channel plane, or -1 for a padding zero.
        const ptrdiff_t pad = static_cast<ptrdiff_t>(p.pad);
        const ptrdiff_t hin = static_cast<ptrdiff_t>(p.hin);
        const ptrdiff_t win = static_cast<ptrdiff_t>(p.win);
        int32_t table[kGatherTable];
        int32_t *e = table;
        for (size_t ky = 0; ky < p.kh; ++ky) {
            for (size_t kx = 0; kx < p.kw; ++kx) {
                for (size_t oy = 0; oy < ho; ++oy) {
                    const ptrdiff_t iy =
                        static_cast<ptrdiff_t>(oy * p.stride + ky) - pad;
                    for (size_t ox = 0; ox < wo; ++ox) {
                        const ptrdiff_t ix =
                            static_cast<ptrdiff_t>(ox * p.stride + kx) - pad;
                        const bool inside =
                            iy >= 0 && iy < hin && ix >= 0 && ix < win;
                        const ptrdiff_t at = iy * win + ix;
                        *e++ = inside ? static_cast<int32_t>(at) : -1;
                    }
                }
            }
        }
        auto gather = [&](const float *in, float *out) {
            for (size_t r = 0; r < kk; ++r, out += ld) {
                const int32_t *row = table + r * hw;
                for (size_t s = 0; s < hw; ++s)
                    out[s] = row[s] >= 0 ? in[row[s]] : 0.0f;
            }
        };
        forEachTask(group, task0, task1, kk, hw, gather);
        return;
    }

    // Wide planes: per (row, output row), one input span (contiguous at
    // stride 1) between zero fills. Inside [oy0, oy1) x [ox0, ox1) the
    // input indices below are in bounds, so no subtraction wraps.
    auto copySpans = [&](const float *in, float *out) {
        for (size_t ky = 0; ky < p.kh; ++ky) {
            const auto [oy0, oy1] = tapRange(ky, p.pad, p.stride, p.hin, ho);
            for (size_t kx = 0; kx < p.kw; ++kx, out += ld) {
                const auto [ox0, ox1] =
                    tapRange(kx, p.pad, p.stride, p.win, wo);
                std::fill_n(out, oy0 * wo, 0.0f);
                for (size_t oy = oy0; oy < oy1; ++oy) {
                    float *d = out + oy * wo;
                    const float *row =
                        in + (oy * p.stride + ky - p.pad) * p.win;
                    std::fill_n(d, ox0, 0.0f);
                    if (p.stride == 1) {
                        std::copy_n(row + (ox0 + kx - p.pad), ox1 - ox0,
                                    d + ox0);
                    } else {
                        for (size_t ox = ox0; ox < ox1; ++ox)
                            d[ox] = row[ox * p.stride + kx - p.pad];
                    }
                    std::fill_n(d + ox1, wo - ox1, 0.0f);
                }
                std::fill_n(out + oy1 * wo, (ho - oy1) * wo, 0.0f);
            }
        }
    };
    forEachTask(group, task0, task1, kk, hw, copySpans);
}

void
im2col(const ConvParams &p, const float *input, float *cols)
{
    im2colPack({p, input, 1, cols}, 0, p.cin);
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
