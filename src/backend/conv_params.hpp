/**
 * @file
 * Shared convolution geometry used by every backend kernel.
 */

#ifndef DLIS_BACKEND_CONV_PARAMS_HPP
#define DLIS_BACKEND_CONV_PARAMS_HPP

#include <atomic>
#include <cstddef>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
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

/**
 * What a conv does to each output value where it stores it, after its
 * bias: an inference BatchNorm's y = scale[c]*y, then y + shift[c],
 * then a ReLU's y > 0 ? y : 0. Each operation rounds on its own, in
 * the order the unfused BatchNorm2d and ReLU layers run them (no FMA
 * contraction), so a fused output is bit-identical to the
 * layer-by-layer one, NaN and -0.0 included. The default does nothing.
 */
struct ConvEpilogue
{
    const float *scale = nullptr; //!< per output channel; null = no BN
    const float *shift = nullptr; //!< per output channel, with scale
    bool relu = false;            //!< clamp at zero, last

    /** True when apply() is the identity. */
    bool empty() const { return !scale && !relu; }

    /** Output @p y of channel @p ch after the epilogue. */
    float
    apply(float y, size_t ch) const
    {
        if (scale) {
            y = scale[ch] * y;
            y = y + shift[ch];
        }
        return relu ? (y > 0.0f ? y : 0.0f) : y;
    }

    /** apply() over @p count values of channel @p ch, in place. */
    void
    applyPlane(float *plane, size_t count, size_t ch) const
    {
        if (empty())
            return;
        for (size_t i = 0; i < count; ++i)
            plane[i] = apply(plane[i], ch);
    }

    /** The same epilogue with channel @p ch0 as channel 0. */
    ConvEpilogue
    from(size_t ch0) const
    {
        ConvEpilogue e = *this;
        if (scale) {
            e.scale += ch0;
            e.shift += ch0;
        }
        return e;
    }
};

/** Threading policy (and observability handles) handed to kernels. */
struct KernelPolicy
{
    int threads = 1; //!< worker-team width (1 = serial path)
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
 * The kernels' one parallel loop: run @p body(image, channel) over the
 * flattened (image x channel) loop, serially or on the calling
 * thread's worker team, each task taking the next index from one
 * shared counter (the paper's §IV-D dynamic schedule; one team wake,
 * counted in omp_regions when counters are attached).
 */
template <typename Body>
void
forEachImageChannel(size_t images, size_t channels,
                    const KernelPolicy &policy, Body &&body)
{
    const size_t total = images * channels;
    if (policy.threads > 1) {
        if (policy.counters.ompRegions)
            policy.counters.ompRegions->add(1);
        std::atomic<size_t> next{0};
        auto task = [&](size_t, size_t) {
            for (size_t i; (i = next.fetch_add(1)) < total;)
                body(i / channels, i % channels);
        };
        team::run(static_cast<size_t>(policy.threads), task);
        return;
    }
    for (size_t i = 0; i < total; ++i)
        body(i / channels, i % channels);
}

} // namespace dlis

#endif // DLIS_BACKEND_CONV_PARAMS_HPP
