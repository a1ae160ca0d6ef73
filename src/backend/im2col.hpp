/**
 * @file
 * im2col / col2im transforms.
 *
 * im2col rearranges image blocks into columns so convolution becomes a
 * GEMM: weights [O, C*KH*KW] x cols [C*KH*KW, HO*WO]. This is the
 * transformation the paper pairs with the CLBlast-style GEMM path
 * (§IV-D); the scratch buffer it allocates is part of the memory
 * footprint story.
 *
 * Conv2d folds a group of images into the GEMM's N: each image's
 * columns land side by side in one [C*KH*KW, g*HO*WO] matrix (the
 * row-stride argument of im2col), so small-spatial layers multiply
 * their weights against up to about one GEMM column tile at once.
 */

#ifndef DLIS_BACKEND_IM2COL_HPP
#define DLIS_BACKEND_IM2COL_HPP

#include "backend/conv_params.hpp"

namespace dlis::kernels {

/** Number of floats the im2col buffer needs for one image. */
size_t im2colBufferSize(const ConvParams &p);

/**
 * Images one im2col+GEMM call folds into the GEMM's N dimension:
 * enough for g*hout*wout to reach one kGemmTileN column tile
 * (ceil(kGemmTileN / (hout*wout))), capped at the batch p.n. Layers
 * whose output plane already fills a tile get 1, i.e. one image per
 * GEMM. Conv2d and analysis/memory_estimate both size their scratch
 * from this rule.
 */
size_t im2colGroupImages(const ConvParams &p);

/**
 * True when the column matrix of one image *is* the image: a 1x1,
 * stride-1, unpadded conv, whose [cin, hin*win] input is already the
 * GEMM's B, so a one-image group needs no im2col copy at all.
 */
bool im2colIsIdentity(const ConvParams &p);

/**
 * Expand one image (CHW) into columns.
 *
 * @param p        conv geometry (n is ignored; single image)
 * @param input    CHW input, cin*hin*win floats
 * @param cols     output, [cin*kh*kw, rowStride] row-major; this image
 *                 fills the first hout*wout floats of every row
 * @param rowStride floats between consecutive column rows (0 means
 *                 hout*wout, a buffer holding only this image)
 */
void im2col(const ConvParams &p, const float *input, float *cols,
            size_t rowStride = 0);

/**
 * Inverse scatter-add of im2col (used by conv backward): zeroes the
 * CHW image buffer, then accumulates the columns back into it. The
 * buffer is fully overwritten — callers need not (and should not rely
 * on) pre-zeroing it; overlapping kernel windows still sum within the
 * single call, which is the gradient semantics conv backward needs.
 */
void col2im(const ConvParams &p, const float *cols, float *input);

} // namespace dlis::kernels

#endif // DLIS_BACKEND_IM2COL_HPP
