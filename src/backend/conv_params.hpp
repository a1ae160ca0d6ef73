/**
 * @file
 * Shared convolution geometry used by every backend kernel.
 */

#ifndef DLIS_BACKEND_CONV_PARAMS_HPP
#define DLIS_BACKEND_CONV_PARAMS_HPP

#include <cstddef>

#include "core/error.hpp"
#include "obs/counters.hpp"

namespace dlis {

class ScratchArena;

/** Geometry of a 2-D convolution (square stride/padding). */
struct ConvParams
{
    size_t n = 1;      //!< batch size
    size_t cin = 0;    //!< input channels
    size_t hin = 0;    //!< input height
    size_t win = 0;    //!< input width
    size_t cout = 0;   //!< output channels
    size_t kh = 0;     //!< kernel height
    size_t kw = 0;     //!< kernel width
    size_t stride = 1; //!< spatial stride
    size_t pad = 0;    //!< zero padding on every side

    /** Output height. */
    size_t
    hout() const
    {
        DLIS_CHECK(hin + 2 * pad >= kh, "conv kernel taller than input");
        return (hin + 2 * pad - kh) / stride + 1;
    }

    /** Output width. */
    size_t
    wout() const
    {
        DLIS_CHECK(win + 2 * pad >= kw, "conv kernel wider than input");
        return (win + 2 * pad - kw) / stride + 1;
    }

    /** Multiply-accumulates for a dense direct convolution. */
    size_t
    macs() const
    {
        return n * cout * hout() * wout() * cin * kh * kw;
    }
};

/** Threading policy (and observability handles) handed to kernels. */
struct KernelPolicy
{
    int threads = 1; //!< OpenMP thread count (1 = serial path)
    /**
     * Counter handles the kernel publishes into (all-null = not
     * measured; layers fill them from ExecContext::metrics so counts
     * are attributed per layer). Not part of the threading policy
     * proper, but carried here so every kernel signature stays
     * unchanged and the disabled path costs one branch.
     */
    obs::KernelCounters counters{};
    /**
     * Scratch arena the kernel draws workspaces from (not owned; the
     * ExecContext owns it, one per worker). Null means "no context" —
     * kernels then fall back to a call-local arena, which restores the
     * old allocate-per-call behaviour for standalone kernel calls.
     */
    ScratchArena *arena = nullptr;
    /**
     * Serving request the current forward is executing on behalf of
     * (0 = not request-attributed). Spans recorded below the layer
     * level inherit this id so a request's trace stays connected from
     * enqueue through the kernels that served it.
     */
    uint64_t traceFlowId = 0;
};

/**
 * The kernels' one parallel driver: run @p body(image, channel) over
 * the flattened (image x channel) loop, serially or as one OpenMP
 * parallel region with dynamic scheduling per the paper's §IV-D
 * (counted in omp_regions when counters are attached).
 */
template <typename Body>
void
forEachImageChannel(size_t images, size_t channels,
                    const KernelPolicy &policy, Body &&body)
{
    const size_t total = images * channels;
#if DLIS_HAVE_OPENMP
    if (policy.threads > 1) {
        if (policy.counters.ompRegions)
            policy.counters.ompRegions->add(1);
        #pragma omp parallel for schedule(dynamic) \
            num_threads(policy.threads)
        for (size_t i = 0; i < total; ++i)
            body(i / channels, i % channels);
        return;
    }
#else
    (void)policy;
#endif
    for (size_t i = 0; i < total; ++i)
        body(i / channels, i % channels);
}

} // namespace dlis

#endif // DLIS_BACKEND_CONV_PARAMS_HPP
