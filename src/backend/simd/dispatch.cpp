#include "backend/simd/dispatch.hpp"

#include <atomic>

#include "backend/simd/kernels.hpp"
#include "core/error.hpp"

namespace dlis::simd {

namespace {

// All-null: the reference loops at the call sites are the scalar
// implementation.
const MicroKernels kScalarKernels{};

std::atomic<const MicroKernels *> g_active{nullptr};

} // namespace

const MicroKernels &
kernelsFor(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return kScalarKernels;
    case SimdIsa::Avx2: {
        const MicroKernels *t = avx2MicroKernels();
        DLIS_CHECK(t, "AVX2 micro-kernels were not built into this "
                      "binary (non-x86 build)");
        return *t;
    }
    }
    return kScalarKernels;
}

const MicroKernels &
activeKernels()
{
    const MicroKernels *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // Benign race: every thread resolves the same table.
        t = &kernelsFor(activeIsa());
        g_active.store(t, std::memory_order_release);
    }
    return *t;
}

ScopedForceIsa::ScopedForceIsa(SimdIsa isa)
    : prev_(&activeKernels())
{
    g_active.store(&kernelsFor(isa), std::memory_order_release);
}

ScopedForceIsa::~ScopedForceIsa()
{
    g_active.store(prev_, std::memory_order_release);
}

} // namespace dlis::simd
