#include "backend/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "backend/simd/dispatch.hpp"
#include "core/error.hpp"
#include "core/scratch_arena.hpp"

#if DLIS_HAVE_OPENMP
#include <omp.h>
#endif

namespace dlis::kernels {

void
gemmNaive(const float *a, const float *b, float *c, size_t m, size_t k,
          size_t n, bool accumulate)
{
    if (!accumulate)
        std::memset(c, 0, m * n * sizeof(float));
    // No zero-skip on a[i,p]: skipping would drop NaN/Inf propagation
    // (0 * Inf = NaN) and make the reference diverge from every other
    // GEMM variant on non-finite inputs.
    for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p) {
            const float av = a[i * k + p];
            const float *brow = b + p * n;
            float *crow = c + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmBlocked(const float *a, const float *b, float *c, size_t m, size_t k,
            size_t n, const KernelPolicy &policy,
            const GemmConvFusion &fusion)
{
    constexpr size_t tm = kGemmTileM, tn = kGemmTileN, tk = kGemmTileK;
    const size_t panel = fusion.imageCols ? fusion.imageCols : n;
    const Im2colGroup *pack = fusion.packB;
    DLIS_ASSERT(!pack || pack->cols == b,
                "gemmBlocked packs B into packB->cols");

    if (policy.counters.gemmCalls)
        policy.counters.gemmCalls->add(1);
    if (policy.counters.gemmMacs)
        policy.counters.gemmMacs->add(static_cast<uint64_t>(m) * k * n);

#if DLIS_HAVE_OPENMP
    const size_t nthreads =
        policy.threads > 1 ? static_cast<size_t>(policy.threads) : 1;
#else
    const size_t nthreads = 1;
#endif

    const size_t rowTiles = (m + tm - 1) / tm;
    const size_t colTiles = (n + tn - 1) / tn;
    const size_t tiles = rowTiles * colTiles;

    // Per-thread C tiles come from the context's arena (or a
    // call-local one for standalone calls), carved out before the
    // parallel region: the arena is single-consumer. Only a parallel
    // run, or a C split into image planes, needs them — the team is
    // clamped to the tile count, and a single-threaded or single-tile
    // call into a plain C (every small serving-path GEMM) accumulates
    // directly into C and carves nothing, which is mirrored
    // byte-for-byte by analysis/memory_estimate.
    const size_t teams = std::min(nthreads, tiles);
    ScratchArena localArena;
    ScratchArena &ar = policy.arena ? *policy.arena : localArena;
    ScratchArena::Scope scope(ar, policy.counters);
    const bool carve = teams > 1 || panel < n;
    float *ctiles = carve ? ar.allocFloats(teams * tm * tn) : nullptr;

    const simd::MicroKernels &mk = simd::activeKernels();

    // Each task owns one output tile end-to-end: zero its
    // destination (a private accumulator when parallel or planar, the
    // C tile itself otherwise), sweep the K dimension in ascending p
    // order (the same per-element addition chain as a straight i/p/j
    // loop, so results are bit-identical for every thread count),
    // then copy out, splitting each row at image-plane boundaries. No
    // two parallel tasks touch the same C cacheline.
    auto tile_body = [&](size_t t, float *ctile) {
        const size_t i0 = (t / colTiles) * tm;
        const size_t j0 = (t % colTiles) * tn;
        const size_t rows = std::min(tm, m - i0);
        const size_t cols = std::min(tn, n - j0);
        float *dst = ctile ? ctile : c + i0 * n + j0;
        const size_t ldc = ctile ? cols : n;
        for (size_t i = 0; i < rows; ++i)
            std::memset(dst + i * ldc, 0, cols * sizeof(float));
        if (mk.gemmTile) {
            mk.gemmTile(a + i0 * k, k, b + j0, n, dst, ldc, rows, cols,
                        k, tk);
        } else {
            for (size_t p0 = 0; p0 < k; p0 += tk) {
                const size_t p1 = std::min(p0 + tk, k);
                for (size_t i = 0; i < rows; ++i) {
                    const float *arow = a + (i0 + i) * k;
                    float *crow = dst + i * ldc;
                    for (size_t p = p0; p < p1; ++p) {
                        const float av = arow[p];
                        const float *brow = b + p * n + j0;
                        for (size_t j = 0; j < cols; ++j)
                            crow[j] += av * brow[j];
                    }
                }
            }
        }
        if (!ctile)
            return;
        for (size_t j = j0; j < j0 + cols;) {
            const size_t img = j / panel, s = j % panel;
            const size_t len = std::min(panel - s, j0 + cols - j);
            float *out = c + img * m * panel + i0 * panel + s;
            for (size_t i = 0; i < rows; ++i)
                std::memcpy(out + i * panel, ctile + i * cols + (j - j0),
                            len * sizeof(float));
            j += len;
        }
    };

#if DLIS_HAVE_OPENMP
    if (teams > 1) {
        if (policy.counters.ompRegions)
            policy.counters.ompRegions->add(1);
        #pragma omp parallel num_threads(static_cast<int>(teams))
        {
            const size_t tid = static_cast<size_t>(omp_get_thread_num());
            if (pack) {
                // Split by the team actually granted, which may be
                // smaller than the one requested.
                const size_t nt = static_cast<size_t>(omp_get_num_threads());
                const size_t tasks = pack->tasks();
                im2colPack(*pack, tasks * tid / nt, tasks * (tid + 1) / nt);
                #pragma omp barrier
            }
            // The region's closing barrier is the only one the tile
            // loop needs.
            #pragma omp for schedule(dynamic) nowait
            for (size_t t = 0; t < tiles; ++t)
                tile_body(t, ctiles + tid * tm * tn);
        }
        return;
    }
#endif
    if (pack)
        im2colPack(*pack, 0, pack->tasks());
    for (size_t t = 0; t < tiles; ++t)
        tile_body(t, ctiles);
}

void
gemmAtB(const float *a, const float *b, float *c, size_t m, size_t k,
        size_t n, bool accumulate)
{
    if (!accumulate)
        std::memset(c, 0, m * n * sizeof(float));
    // Same no-zero-skip rule as gemmNaive: non-finite inputs must
    // propagate identically across every GEMM variant.
    for (size_t p = 0; p < k; ++p) {
        const float *arow = a + p * m;
        const float *brow = b + p * n;
        for (size_t i = 0; i < m; ++i) {
            const float av = arow[i];
            float *crow = c + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmABt(const float *a, const float *b, float *c, size_t m, size_t k,
        size_t n, bool accumulate)
{
    if (!accumulate)
        std::memset(c, 0, m * n * sizeof(float));
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b + j * k;
            float acc = 0.0f;
            for (size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] += acc;
        }
    }
}

} // namespace dlis::kernels
