/**
 * @file
 * Dense float tensor in NCHW layout.
 *
 * The Tensor is the universal currency of the library: activations,
 * weights, gradients, and im2col buffers are all Tensors. Storage is a
 * contiguous row-major float buffer; every allocation is registered with
 * the MemoryTracker so the paper's memory-footprint tables can be
 * reproduced exactly.
 */

#ifndef DLIS_CORE_TENSOR_HPP
#define DLIS_CORE_TENSOR_HPP

#include <vector>

#include "core/error.hpp"
#include "core/memory_tracker.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"

namespace dlis {

/** A dense float tensor with tracked storage. */
class Tensor
{
  public:
    /** An empty tensor (rank 0, no storage). */
    Tensor() = default;

    /** Zero-initialised tensor of the given shape. */
    explicit Tensor(Shape shape, MemClass mc = MemClass::Activations);

    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    Tensor(Tensor &&) noexcept = default;
    Tensor &operator=(Tensor &&) noexcept = default;

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** Total element count. */
    size_t numel() const { return data_.size(); }

    /** Bytes of dense payload (numel * sizeof(float)). */
    size_t bytes() const { return data_.size() * sizeof(float); }

    /** Raw storage pointers. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access (checked). */
    float &at(size_t i);
    float at(size_t i) const;

    /** Flat element access (unchecked). */
    float &operator[](size_t i) { return data_[i]; }
    float operator[](size_t i) const { return data_[i]; }

    /** 4-D NCHW element access (unchecked except in debug builds). */
    float &
    at4(size_t n, size_t c, size_t h, size_t w)
    {
        return data_[offset4(n, c, h, w)];
    }

    /** 4-D NCHW element access, const. */
    float
    at4(size_t n, size_t c, size_t h, size_t w) const
    {
        return data_[offset4(n, c, h, w)];
    }

    /** Flat offset of an NCHW coordinate. */
    size_t
    offset4(size_t n, size_t c, size_t h, size_t w) const
    {
        const auto &d = shape_.dims();
        return ((n * d[1] + c) * d[2] + h) * d[3] + w;
    }

    /** Set every element to @p value. */
    void fill(float value);

    /** Fill with N(mean, stddev) draws from @p rng. */
    void fillNormal(Rng &rng, float mean, float stddev);

    /** Fill with U[lo, hi) draws from @p rng. */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Kaiming-He init for a conv/fc weight (fan-in from shape). */
    void fillKaiming(Rng &rng);

    /** Reinterpret as a new shape with identical numel. */
    Tensor reshaped(Shape newShape) const;

    /** Number of zero-valued elements. */
    size_t countZeros() const;

    /** Fraction of zero-valued elements in [0, 1]. */
    double sparsity() const;

    /** Elementwise a += b. Shapes must match. */
    void addInPlace(const Tensor &other);

    /** Elementwise scale by @p s. */
    void scaleInPlace(float s);

    /**
     * Max absolute difference against @p other (shapes must match);
     * +inf when any difference is NaN, so a NaN never hides as 0.
     */
    float maxAbsDiff(const Tensor &other) const;

    /** Sum of all elements. */
    double sum() const;

    /** True when shape and every element match exactly. */
    bool operator==(const Tensor &other) const;

  private:
    Shape shape_;
    std::vector<float> data_;
    TrackedBytes tracked_;
    MemClass memClass_ = MemClass::Activations;
};

} // namespace dlis

#endif // DLIS_CORE_TENSOR_HPP
