/**
 * @file
 * Structural invariants of the deployment weight formats.
 *
 * CSR and packed-ternary images are built from dense tensors inside
 * the library, but deployment loads them from external artefacts
 * (Conv2d::setCsrWeight / setPackedWeight trust the caller). These
 * checks prove an image is well-formed *before* a kernel walks it:
 * a non-monotone row_ptr or out-of-range column index would read out
 * of bounds mid-inference, where no check exists on the hot path,
 * and a NaN/Inf value would poison every output it reaches.
 */

#ifndef DLIS_ANALYSIS_SPARSE_CHECKS_HPP
#define DLIS_ANALYSIS_SPARSE_CHECKS_HPP

#include "analysis/diagnostic.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_filter_bank.hpp"
#include "sparse/packed_ternary.hpp"

namespace dlis::analysis {

/** True when none of the @p n values at @p p is NaN or Inf. */
bool allFinite(const float *p, size_t n);

/**
 * Verify one CSR slice: row_ptr has @p kh + 1 entries, starts at 0,
 * is monotone non-decreasing and ends at nnz; colIdx and values agree
 * in length; column indices are strictly increasing within each row
 * and inside [0, @p kw).
 */
void verifyCsrSlice(const CsrSlice &slice, size_t kh, size_t kw,
                    const std::string &where,
                    std::vector<Diagnostic> &out);

/**
 * Verify every slice of a filter bank plus the bank-level byte
 * accounting (storageBytes == values + metadata, recomputed from the
 * arrays themselves) and the finiteness of every stored value.
 */
void verifyCsrFilterBank(const CsrFilterBank &bank,
                         const std::string &where,
                         std::vector<Diagnostic> &out);

/**
 * Verify a flat CSR matrix (the Linear-layer deployment format):
 * its arrays, byte accounting and finite values.
 */
void verifyCsrMatrix(const CsrMatrix &m, const std::string &where,
                     std::vector<Diagnostic> &out);

/**
 * Verify a packed-ternary image: the word array covers every element,
 * no element uses the reserved code 0b11 (which decodes to 0 and
 * silently corrupts the layer), and the codebook scales are finite
 * and non-negative.
 */
void verifyPackedTernary(const PackedTernary &packed,
                         const std::string &where,
                         std::vector<Diagnostic> &out);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_SPARSE_CHECKS_HPP
