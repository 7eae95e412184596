#pragma once

/**
 * @file
 * NGC intra prediction: six predictors over power-of-two block sizes
 * (4..32: 8..32 luma, half that for chroma), including two 45-degree
 * angular modes that VBC lacks. The encoder and the decoder share this
 * one function, so both sides see the same neighbors.
 *
 * Each call reads the block's neighbors once into a stack edge buffer:
 * the top row (x-1 .. x+2n, clamped at the plane's right edge) and the
 * left column (y .. y+n-1). Every mode then predicts from that buffer:
 * V and H copy and fill rows, and both diagonals filter their edge
 * line once and copy shifted rows out of it.
 */

#include <cstdint>

#include "ngc/ngc_types.h"
#include "video/plane.h"

namespace vbench::ngc {

/**
 * Generate an n x n prediction for the block at (x, y).
 *
 * @param mode predictor; must satisfy ngcIntraAvailable(mode, x, y,
 *        slice_top).
 * @param n block size, at most kSbSize; the block must lie inside
 *        the plane.
 * @param slice_top first pixel row of the enclosing entropy slice;
 *        rows above it are treated as outside the frame so slices
 *        decode independently. 0 (the default) is the frame top.
 */
void ngcIntraPredict(NgcIntraMode mode, const video::Plane &recon, int x,
                     int y, int n, uint8_t *out, int slice_top = 0);

/**
 * Availability of a predictor at a block position. Blocks on the
 * slice's first pixel row (`slice_top`) have no top neighbor, exactly
 * like blocks on the frame top.
 */
bool ngcIntraAvailable(NgcIntraMode mode, int x, int y,
                       int slice_top = 0);

} // namespace vbench::ngc
