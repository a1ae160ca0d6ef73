#include "core/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace dlis {

Tensor::Tensor(Shape shape, MemClass mc)
    : shape_(std::move(shape)),
      data_(shape_.numel(), 0.0f),
      tracked_(mc, shape_.numel() * sizeof(float)),
      memClass_(mc)
{}

Tensor::Tensor(const Tensor &other)
    : shape_(other.shape_),
      data_(other.data_),
      tracked_(other.memClass_, other.bytes()),
      memClass_(other.memClass_)
{}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this != &other) {
        shape_ = other.shape_;
        data_ = other.data_;
        tracked_ = TrackedBytes(other.memClass_, other.bytes());
        memClass_ = other.memClass_;
    }
    return *this;
}

float &
Tensor::at(size_t i)
{
    DLIS_CHECK(i < data_.size(),
               "index ", i, " out of range for ", data_.size(), " elems");
    return data_[i];
}

float
Tensor::at(size_t i) const
{
    DLIS_CHECK(i < data_.size(),
               "index ", i, " out of range for ", data_.size(), " elems");
    return data_[i];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.normal(mean, stddev));
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::fillKaiming(Rng &rng)
{
    // Fan-in = product of all dims except the first (output) dim.
    DLIS_CHECK(shape_.rank() >= 2, "Kaiming init needs rank >= 2, got ",
               shape_.str());
    size_t fan_in = 1;
    for (size_t i = 1; i < shape_.rank(); ++i)
        fan_in *= shape_[i];
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    fillNormal(rng, 0.0f, stddev);
}

Tensor
Tensor::reshaped(Shape newShape) const
{
    DLIS_CHECK(newShape.numel() == numel(),
               "reshape ", shape_.str(), " -> ", newShape.str(),
               " changes element count");
    Tensor out(std::move(newShape), memClass_);
    out.data_ = data_;
    return out;
}

size_t
Tensor::countZeros() const
{
    return static_cast<size_t>(
        std::count(data_.begin(), data_.end(), 0.0f));
}

double
Tensor::sparsity() const
{
    if (data_.empty())
        return 0.0;
    return static_cast<double>(countZeros()) /
           static_cast<double>(data_.size());
}

void
Tensor::addInPlace(const Tensor &other)
{
    DLIS_CHECK(shape_ == other.shape_, "addInPlace shape mismatch: ",
               shape_.str(), " vs ", other.shape_.str());
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
Tensor::scaleInPlace(float s)
{
    for (auto &v : data_)
        v *= s;
}

float
Tensor::maxAbsDiff(const Tensor &other) const
{
    DLIS_CHECK(shape_ == other.shape_, "maxAbsDiff shape mismatch: ",
               shape_.str(), " vs ", other.shape_.str());
    float worst = 0.0f;
    for (size_t i = 0; i < data_.size(); ++i) {
        const float d = std::fabs(data_[i] - other.data_[i]);
        if (std::isnan(d))
            return HUGE_VALF;
        worst = std::max(worst, d);
    }
    return worst;
}

double
Tensor::sum() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += v;
    return acc;
}

bool
Tensor::operator==(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

} // namespace dlis
