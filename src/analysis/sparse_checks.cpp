#include "analysis/sparse_checks.hpp"

#include <cmath>
#include <sstream>

namespace dlis::analysis {

namespace {

std::string
sliceLabel(const std::string &where, size_t oc, size_t ci)
{
    std::ostringstream oss;
    oss << where << "[oc=" << oc << ",ci=" << ci << "]";
    return oss.str();
}

/** Shared row_ptr/colIdx/values checks over raw CSR arrays. */
void
verifyCsrArrays(const std::vector<int32_t> &rowPtr,
                const std::vector<int32_t> &colIdx,
                size_t valueCount, size_t rows, size_t cols,
                const std::string &where, std::vector<Diagnostic> &out)
{
    if (rowPtr.size() != rows + 1) {
        diag(out, Severity::Error, Check::BadRowPtr, where,
             "row_ptr has " + std::to_string(rowPtr.size()) +
                 " entries, expected " + std::to_string(rows + 1));
        return; // row walks below would index out of bounds
    }
    if (rowPtr.front() != 0)
        diag(out, Severity::Error, Check::BadRowPtr, where,
             "row_ptr[0] is " + std::to_string(rowPtr.front()) +
                 ", expected 0");
    bool monotone = true;
    for (size_t r = 0; r + 1 < rowPtr.size(); ++r) {
        if (rowPtr[r + 1] < rowPtr[r]) {
            monotone = false;
            diag(out, Severity::Error, Check::BadRowPtr, where,
                 "row_ptr not monotone at row " + std::to_string(r) +
                     " (" + std::to_string(rowPtr[r]) + " -> " +
                     std::to_string(rowPtr[r + 1]) + ")");
            break;
        }
    }
    if (static_cast<size_t>(rowPtr.back()) != colIdx.size())
        diag(out, Severity::Error, Check::BadRowPtr, where,
             "row_ptr ends at " + std::to_string(rowPtr.back()) +
                 " but " + std::to_string(colIdx.size()) +
                 " column indices are stored");
    if (colIdx.size() != valueCount)
        diag(out, Severity::Error, Check::SizeMismatch, where,
             std::to_string(colIdx.size()) + " column indices vs " +
                 std::to_string(valueCount) + " values");

    for (size_t i = 0; i < colIdx.size(); ++i) {
        if (colIdx[i] < 0 ||
            static_cast<size_t>(colIdx[i]) >= cols) {
            diag(out, Severity::Error, Check::ColumnOutOfRange, where,
                 "column index " + std::to_string(colIdx[i]) +
                     " outside [0, " + std::to_string(cols) + ")");
            break;
        }
    }
    if (!monotone)
        return; // row ranges are meaningless
    for (size_t r = 0; r + 1 < rowPtr.size(); ++r) {
        const size_t lo = static_cast<size_t>(rowPtr[r]);
        const size_t hi = std::min(static_cast<size_t>(rowPtr[r + 1]),
                                   colIdx.size());
        for (size_t i = lo; i + 1 < hi; ++i) {
            if (colIdx[i] >= colIdx[i + 1]) {
                diag(out, Severity::Error, Check::UnsortedColumns,
                     where,
                     "columns of row " + std::to_string(r) +
                         " not strictly increasing (" +
                         std::to_string(colIdx[i]) + " then " +
                         std::to_string(colIdx[i + 1]) + ")");
                return;
            }
        }
    }
}

/** The non-finite-weight Error for a CSR image's values. */
void
nonFiniteValues(const std::string &where, std::vector<Diagnostic> &out)
{
    diag(out, Severity::Error, Check::NonFiniteWeight, where,
         "CSR values contain NaN/Inf; every forward is poisoned");
}

} // namespace

bool
allFinite(const float *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

void
verifyCsrSlice(const CsrSlice &slice, size_t kh, size_t kw,
               const std::string &where, std::vector<Diagnostic> &out)
{
    verifyCsrArrays(slice.rowPtr, slice.colIdx, slice.values.size(),
                    kh, kw, where, out);
}

void
verifyCsrFilterBank(const CsrFilterBank &bank, const std::string &where,
                    std::vector<Diagnostic> &out)
{
    size_t expectedBytes = 0;
    bool finite = true;
    for (size_t oc = 0; oc < bank.outChannels(); ++oc) {
        for (size_t ci = 0; ci < bank.inChannels(); ++ci) {
            const CsrSlice &s = bank.slice(oc, ci);
            verifyCsrSlice(s, bank.kernelH(), bank.kernelW(),
                           sliceLabel(where, oc, ci), out);
            finite = finite && allFinite(s.values.data(), s.values.size());
            expectedBytes += s.values.size() * sizeof(float) +
                             s.rowPtr.size() * sizeof(int32_t) +
                             s.colIdx.size() * sizeof(int32_t) +
                             CsrFilterBank::perSliceOverheadBytes;
        }
    }
    if (!finite)
        nonFiniteValues(where, out);
    if (bank.storageBytes() != expectedBytes)
        diag(out, Severity::Error, Check::ByteAccounting, where,
             "storageBytes() reports " +
                 std::to_string(bank.storageBytes()) +
                 " but the arrays hold " +
                 std::to_string(expectedBytes) + " bytes");
}

void
verifyCsrMatrix(const CsrMatrix &m, const std::string &where,
                std::vector<Diagnostic> &out)
{
    verifyCsrArrays(m.rowPtr(), m.colIdx(), m.values().size(),
                    m.rows(), m.cols(), where, out);
    if (!allFinite(m.values().data(), m.values().size()))
        nonFiniteValues(where, out);
    const size_t expectedBytes =
        m.values().size() * sizeof(float) +
        m.colIdx().size() * sizeof(int32_t) +
        m.rowPtr().size() * sizeof(int32_t);
    if (m.storageBytes() != expectedBytes)
        diag(out, Severity::Error, Check::ByteAccounting, where,
             "storageBytes() reports " +
                 std::to_string(m.storageBytes()) +
                 " but the arrays hold " +
                 std::to_string(expectedBytes) + " bytes");
}

void
verifyPackedTernary(const PackedTernary &packed,
                    const std::string &where,
                    std::vector<Diagnostic> &out)
{
    if (packed.shape().numel() != packed.numel())
        diag(out, Severity::Error, Check::SizeMismatch, where,
             "shape " + packed.shape().str() + " has " +
                 std::to_string(packed.shape().numel()) +
                 " elements but " + std::to_string(packed.numel()) +
                 " codes are stored");
    const size_t expectedWords = (packed.numel() + 3) / 4;
    if (packed.words().size() != expectedWords) {
        diag(out, Severity::Error, Check::SizeMismatch, where,
             std::to_string(packed.words().size()) +
                 " code words for " + std::to_string(packed.numel()) +
                 " elements (expected " +
                 std::to_string(expectedWords) + ")");
        return; // code scan below could read out of bounds
    }
    for (size_t i = 0; i < packed.numel(); ++i) {
        if (packed.code(i) == 3) {
            diag(out, Severity::Error, Check::BadTernaryCode, where,
                 "reserved code 0b11 at element " + std::to_string(i) +
                     " (decodes to 0 and corrupts the layer)");
            break;
        }
    }
    if (!std::isfinite(packed.wp()) || !std::isfinite(packed.wn()) ||
        packed.wp() < 0.0f || packed.wn() < 0.0f)
        diag(out, Severity::Error, Check::BadTernaryScale, where,
             "codebook scales wp=" + std::to_string(packed.wp()) +
                 " wn=" + std::to_string(packed.wn()) +
                 " must be finite and non-negative");
}

} // namespace dlis::analysis
