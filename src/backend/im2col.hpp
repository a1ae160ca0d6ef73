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
 * columns land side by side in one [C*KH*KW, g*HO*WO] matrix, so
 * small-spatial layers multiply their weights against up to about one
 * GEMM column tile at once. The group is packed by im2colPack, inside
 * the GEMM's own parallel team (kernels::gemmBlocked's packB); the
 * one-image im2col is the same packer run over the whole range.
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
 * A group of imgs consecutive NCHW images whose im2col columns sit
 * side by side in one [cin*kh*kw, imgs*hout*wout] row-major matrix:
 * image i fills floats [i*hout*wout, (i+1)*hout*wout) of every row.
 * Packing it splits into tasks() tasks; task t = ci*imgs + i writes
 * the kh*kw rows of input channel ci for image i. Tasks write disjoint
 * floats, so any split of [0, tasks()) packs the same matrix.
 */
struct Im2colGroup
{
    ConvParams p;                 //!< conv geometry (p.n is ignored)
    const float *input = nullptr; //!< first image, imgs*cin*hin*win floats
    size_t imgs = 1;              //!< images in the group
    float *cols = nullptr;        //!< the [cin*kh*kw, imgs*hw] matrix

    size_t tasks() const { return imgs * p.cin; }
};

/**
 * Pack tasks [task0, task1) of @p group. Pure copies and zero fills,
 * so every split is bit-identical to one whole-range call. Each call
 * picks its gather from the geometry: a 1x1 stride-1 unpadded conv
 * copies each plane as one span; a narrow plane (kh*kw*hout*wout at
 * most 1024) gathers through one offset table built per call, so it
 * pays no per-(row, output row) overhead; wider planes copy one input
 * span per (row, output row).
 */
void im2colPack(const Im2colGroup &group, size_t task0, size_t task1);

/**
 * Expand one image (CHW) into a [cin*kh*kw, hout*wout] column matrix:
 * im2colPack over the whole range of a one-image group. Conv backward
 * uses it.
 *
 * @param p      conv geometry (n is ignored; single image)
 * @param input  CHW input, cin*hin*win floats
 * @param cols   output, cin*kh*kw*hout*wout floats
 */
void im2col(const ConvParams &p, const float *input, float *cols);

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
