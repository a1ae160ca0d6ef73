#include "backend/linear_kernels.hpp"

#include "core/error.hpp"

namespace dlis::kernels {

void
linearDense(const float *in, const float *weight, const float *bias,
            float *out, size_t batch, size_t inFeatures,
            size_t outFeatures, const KernelPolicy &policy)
{
    auto body = [&](size_t b, size_t o) {
        const float *in_row = in + b * inFeatures;
        const float *w_row = weight + o * inFeatures;
        float acc = bias ? bias[o] : 0.0f;
        for (size_t i = 0; i < inFeatures; ++i)
            acc += w_row[i] * in_row[i];
        out[b * outFeatures + o] = acc;
    };

    forEachImageChannel(batch, outFeatures, policy, body);
}

void
linearCsr(const float *in, const CsrMatrix &weight, const float *bias,
          float *out, size_t batch, size_t inFeatures, size_t outFeatures,
          const KernelPolicy &policy)
{
    DLIS_CHECK(weight.rows() == outFeatures &&
               weight.cols() == inFeatures,
               "CSR weight is ", weight.rows(), "x", weight.cols(),
               ", linear expects ", outFeatures, "x", inFeatures);
    const auto &row_ptr = weight.rowPtr();
    const auto &col_idx = weight.colIdx();
    const auto &vals = weight.values();
    // One CSR row walk per (batch item, output feature) — the same
    // unit LayerCost::sparseRowVisits predicts for a sparse FC layer.
    if (policy.counters.csrRowVisits)
        policy.counters.csrRowVisits->add(
            static_cast<uint64_t>(batch) * outFeatures);
    for (size_t b = 0; b < batch; ++b) {
        const float *in_row = in + b * inFeatures;
        float *out_row = out + b * outFeatures;
        for (size_t o = 0; o < outFeatures; ++o) {
            float acc = bias ? bias[o] : 0.0f;
            for (int32_t k = row_ptr[o]; k < row_ptr[o + 1]; ++k)
                acc += vals[k] * in_row[col_idx[k]];
            out_row[o] = acc;
        }
    }
}

} // namespace dlis::kernels
