#include "backend/winograd.hpp"

#include "core/error.hpp"
#include "core/scratch_arena.hpp"

namespace dlis::kernels {

bool
winogradApplicable(const ConvParams &p)
{
    return p.kh == 3 && p.kw == 3 && p.stride == 1;
}

size_t
winogradMultiplies(const ConvParams &p)
{
    const size_t tiles_y = (p.hout() + 1) / 2;
    const size_t tiles_x = (p.wout() + 1) / 2;
    return p.n * p.cout * p.cin * tiles_y * tiles_x * 16;
}

namespace {

/** U = G g G^T for one 3x3 filter g; U is 4x4. */
void
transformFilter(const float *g, float *u)
{
    // G = [1, 0, 0; 1/2, 1/2, 1/2; 1/2, -1/2, 1/2; 0, 0, 1]
    float t[4][3];
    for (int col = 0; col < 3; ++col) {
        const float g0 = g[0 * 3 + col];
        const float g1 = g[1 * 3 + col];
        const float g2 = g[2 * 3 + col];
        t[0][col] = g0;
        t[1][col] = 0.5f * (g0 + g1 + g2);
        t[2][col] = 0.5f * (g0 - g1 + g2);
        t[3][col] = g2;
    }
    for (int row = 0; row < 4; ++row) {
        const float t0 = t[row][0], t1 = t[row][1], t2 = t[row][2];
        u[row * 4 + 0] = t0;
        u[row * 4 + 1] = 0.5f * (t0 + t1 + t2);
        u[row * 4 + 2] = 0.5f * (t0 - t1 + t2);
        u[row * 4 + 3] = t2;
    }
}

/** V = B^T d B for one 4x4 input tile d. */
void
transformInput(const float d[4][4], float v[4][4])
{
    // B^T = [1, 0, -1, 0; 0, 1, 1, 0; 0, -1, 1, 0; 0, 1, 0, -1]
    float t[4][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = d[0][col] - d[2][col];
        t[1][col] = d[1][col] + d[2][col];
        t[2][col] = d[2][col] - d[1][col];
        t[3][col] = d[1][col] - d[3][col];
    }
    for (int row = 0; row < 4; ++row) {
        v[row][0] = t[row][0] - t[row][2];
        v[row][1] = t[row][1] + t[row][2];
        v[row][2] = t[row][2] - t[row][1];
        v[row][3] = t[row][1] - t[row][3];
    }
}

/** Y = A^T m A for one 4x4 element-product accumulator m; Y is 2x2. */
void
transformOutput(const float m[4][4], float y[2][2])
{
    // A^T = [1, 1, 1, 0; 0, 1, -1, -1]
    float t[2][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = m[0][col] + m[1][col] + m[2][col];
        t[1][col] = m[1][col] - m[2][col] - m[3][col];
    }
    for (int row = 0; row < 2; ++row) {
        y[row][0] = t[row][0] + t[row][1] + t[row][2];
        y[row][1] = t[row][1] - t[row][2] - t[row][3];
    }
}

} // namespace

void
convWinograd(const ConvParams &p, const float *input, const float *weight,
             const float *bias, float *output,
             const KernelPolicy &policy)
{
    DLIS_CHECK(winogradApplicable(p),
               "Winograd F(2x2,3x3) needs a 3x3 stride-1 convolution");

    const size_t ho = p.hout(), wo = p.wout();
    const size_t tiles_y = (ho + 1) / 2;
    const size_t tiles_x = (wo + 1) / 2;

    // Pre-transform every filter once: U[oc][ci] is 4x4. The transform
    // buffer lives in the context's scratch arena (call-local fallback
    // for standalone calls) so repeat forwards allocate nothing.
    ScratchArena localArena;
    ScratchArena &ar = policy.arena ? *policy.arena : localArena;
    ScratchArena::Scope scope(ar, policy.counters);
    float *u = ar.allocFloats(p.cout * p.cin * 16);
    for (size_t oc = 0; oc < p.cout; ++oc)
        for (size_t ci = 0; ci < p.cin; ++ci)
            transformFilter(weight + (oc * p.cin + ci) * 9,
                            u + (oc * p.cin + ci) * 16);

    auto tile_body = [&](size_t img, size_t oc) {
        const float *in_img = input + img * p.cin * p.hin * p.win;
        float *out_ch = output + (img * p.cout + oc) * ho * wo;
        const float b = bias ? bias[oc] : 0.0f;

        for (size_t ty = 0; ty < tiles_y; ++ty) {
            for (size_t tx = 0; tx < tiles_x; ++tx) {
                float m[4][4] = {};
                for (size_t ci = 0; ci < p.cin; ++ci) {
                    // Gather the 4x4 input tile (with padding).
                    float d[4][4];
                    const float *in_ch =
                        in_img + ci * p.hin * p.win;
                    for (int dy = 0; dy < 4; ++dy) {
                        const ptrdiff_t iy =
                            static_cast<ptrdiff_t>(ty * 2 + dy) -
                            static_cast<ptrdiff_t>(p.pad);
                        for (int dx = 0; dx < 4; ++dx) {
                            const ptrdiff_t ix =
                                static_cast<ptrdiff_t>(tx * 2 + dx) -
                                static_cast<ptrdiff_t>(p.pad);
                            d[dy][dx] =
                                (iy >= 0 &&
                                 iy < static_cast<ptrdiff_t>(p.hin) &&
                                 ix >= 0 &&
                                 ix < static_cast<ptrdiff_t>(p.win))
                                    ? in_ch[iy * p.win + ix]
                                    : 0.0f;
                        }
                    }
                    float v[4][4];
                    transformInput(d, v);
                    const float *u_f =
                        u + (oc * p.cin + ci) * 16;
                    for (int e = 0; e < 16; ++e)
                        m[e / 4][e % 4] += u_f[e] * v[e / 4][e % 4];
                }
                float y[2][2];
                transformOutput(m, y);
                for (int dy = 0; dy < 2; ++dy) {
                    const size_t oy = ty * 2 + dy;
                    if (oy >= ho)
                        continue;
                    for (int dx = 0; dx < 2; ++dx) {
                        const size_t ox = tx * 2 + dx;
                        if (ox >= wo)
                            continue;
                        out_ch[oy * wo + ox] = y[dy][dx] + b;
                    }
                }
            }
        }
    };

    forEachImageChannel(p.n, p.cout, policy, tile_body);
}

} // namespace dlis::kernels
