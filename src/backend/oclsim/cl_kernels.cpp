#include "backend/oclsim/cl_kernels.hpp"

#include <cstring>
#include <vector>

#include "core/error.hpp"

namespace dlis::oclsim {

namespace {

/** Round @p v up to a multiple of @p to. */
size_t
roundUp(size_t v, size_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

void
clConvDirect(CommandQueue &queue, const ConvParams &p, const float *input,
             const float *weight, const float *bias, float *output,
             const HandTunedConfig &cfg)
{
    const size_t ho = p.hout(), wo = p.wout();

    NDRange range;
    range.global = {roundUp(wo, cfg.wgX), roundUp(ho, cfg.wgY),
                    p.n * p.cout};
    range.local = {cfg.wgX, cfg.wgY, 1};

    const size_t reduce_len = p.cin * p.kh * p.kw;
    const size_t vw = cfg.vectorWidth;

    // One work-item's gathered receptive field (its register tile),
    // simulated device memory like clGemmTiled's accumulator tile. The
    // queue runs work-items one at a time on this thread, so one
    // buffer sized to the layer serves them all.
    std::vector<float> patch(reduce_len); // dlis-lint: allow(kernel-heap-alloc)

    queue.enqueue(range, [&, ho, wo, reduce_len, vw](const WorkItem &wi) {
        const size_t ox = wi.global[0];
        const size_t oy = wi.global[1];
        if (ox >= wo || oy >= ho)
            return; // padding work-item
        const size_t img = wi.global[2] / p.cout;
        const size_t oc = wi.global[2] % p.cout;

        const float *in_img = input + img * p.cin * p.hin * p.win;
        const float *w_oc = weight + oc * reduce_len;

        // Gather the receptive field into a contiguous register tile,
        // then reduce in vector-width chunks — this mirrors the
        // float16 vectorisation of the hand-tuned kernel.
        size_t idx = 0;
        for (size_t ci = 0; ci < p.cin; ++ci) {
            const float *in_ch = in_img + ci * p.hin * p.win;
            for (size_t ky = 0; ky < p.kh; ++ky) {
                const ptrdiff_t iy =
                    static_cast<ptrdiff_t>(oy * p.stride + ky) -
                    static_cast<ptrdiff_t>(p.pad);
                for (size_t kx = 0; kx < p.kw; ++kx, ++idx) {
                    const ptrdiff_t ix =
                        static_cast<ptrdiff_t>(ox * p.stride + kx) -
                        static_cast<ptrdiff_t>(p.pad);
                    patch[idx] =
                        (iy >= 0 &&
                         iy < static_cast<ptrdiff_t>(p.hin) &&
                         ix >= 0 && ix < static_cast<ptrdiff_t>(p.win))
                            ? in_ch[iy * p.win + ix]
                            : 0.0f;
                }
            }
        }

        float lanes[16] = {};
        size_t i = 0;
        for (; i + vw <= reduce_len; i += vw)
            for (size_t l = 0; l < vw; ++l)
                lanes[l] += w_oc[i + l] * patch[i + l];
        float acc = bias ? bias[oc] : 0.0f;
        for (size_t l = 0; l < vw; ++l)
            acc += lanes[l];
        for (; i < reduce_len; ++i)
            acc += w_oc[i] * patch[i];

        output[(img * p.cout + oc) * ho * wo + oy * wo + ox] = acc;
    });
}

void
clGemmTiled(CommandQueue &queue, const float *a, const float *b, float *c,
            size_t m, size_t k, size_t n, size_t tile)
{
    DLIS_CHECK(tile > 0, "tile must be positive");

    NDRange range;
    range.global = {roundUp(n, tile), roundUp(m, tile), 1};
    range.local = {tile, tile, 1};

    // Local memory: one tile of A and one tile of B.
    const size_t local_bytes = 2 * tile * tile * sizeof(float);

    std::memset(c, 0, m * n * sizeof(float));

    queue.enqueueGroups(range, local_bytes,
        [&, m, k, n, tile](const WorkGroup &wg, float *local_mem) {
            float *a_tile = local_mem;
            float *b_tile = local_mem + tile * tile;
            const size_t row0 = wg.id[1] * tile;
            const size_t col0 = wg.id[0] * tile;

            // Barrier-phased: each phase (1) cooperatively loads one
            // K-tile of A and B into local memory, (2) barriers,
            // (3) accumulates. Phases are explicit loops here, which
            // is exactly what the barrier guarantees on a device.
            // Models the device's per-work-group registers, not
            // host scratch; the simulator has no arena to draw on.
            std::vector<float> acc(tile * tile, 0.0f); // dlis-lint: allow(kernel-heap-alloc)
            for (size_t k0 = 0; k0 < k; k0 += tile) {
                // Phase 1: cooperative load (each work-item one elem).
                for (size_t ly = 0; ly < tile; ++ly) {
                    for (size_t lx = 0; lx < tile; ++lx) {
                        const size_t ar = row0 + ly, ac = k0 + lx;
                        a_tile[ly * tile + lx] =
                            (ar < m && ac < k) ? a[ar * k + ac] : 0.0f;
                        const size_t br = k0 + ly, bc = col0 + lx;
                        b_tile[ly * tile + lx] =
                            (br < k && bc < n) ? b[br * n + bc] : 0.0f;
                    }
                }
                // (barrier)
                // Phase 2: accumulate the tile product.
                const size_t kmax = std::min(tile, k - k0);
                for (size_t ly = 0; ly < tile; ++ly)
                    for (size_t lx = 0; lx < tile; ++lx)
                        for (size_t p = 0; p < kmax; ++p)
                            acc[ly * tile + lx] +=
                                a_tile[ly * tile + p] *
                                b_tile[p * tile + lx];
                // (barrier)
            }
            for (size_t ly = 0; ly < tile; ++ly) {
                const size_t r = row0 + ly;
                if (r >= m)
                    continue;
                for (size_t lx = 0; lx < tile; ++lx) {
                    const size_t cc = col0 + lx;
                    if (cc < n)
                        c[r * n + cc] = acc[ly * tile + lx];
                }
            }
        });
}

} // namespace dlis::oclsim
