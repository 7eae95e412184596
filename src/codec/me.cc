#include "codec/me.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "codec/golomb.h"
#include "codec/interp.h"
#include "kernels/kernel_ops.h"

namespace vbench::codec {

namespace {

/** Search state shared by the strategies. */
struct SearchState {
    const MeContext &ctx;
    int min_mx, max_mx, min_my, max_my;  ///< full-pel MV bounds
    const uint8_t *src_ptr;
    int src_stride;
    MotionVector best;      ///< half-pel
    uint32_t best_cost = UINT32_MAX;
    uint32_t best_sad = 0;
    uint32_t candidates = 0;
    uint64_t decisions = 0; ///< improvement bits for the branch model
    int n_decisions = 0;

    explicit
    SearchState(const MeContext &c)
        : ctx(c),
          src_ptr(c.src->row(c.block_y) + c.block_x),
          src_stride(c.src->width())
    {
        // Keep every read (including +1 for half-pel) inside the pad.
        const int margin = kRefPad - 2;
        min_mx = -(c.block_x + margin);
        max_mx = c.ref->width() + margin - c.block_w - c.block_x;
        min_my = -(c.block_y + margin);
        max_my = c.ref->height() + margin - c.block_h - c.block_y;
    }

    /** True when a full-pel MV repeats the current best (not re-scored). */
    bool
    repeatsBest(MotionVector mv) const
    {
        return candidates > 0 && mv == best;
    }

    /** Cost of a full-pel candidate; updates best. */
    void
    tryFullPel(int mx, int my)
    {
        mx = clampInt(mx, min_mx, max_mx);
        my = clampInt(my, min_my, max_my);
        if (!repeatsBest(fullPelMv(mx, my)))
            scoreFullPel(mx, my);
    }

    /** SAD-score an already clamped full-pel candidate; updates best. */
    void
    scoreFullPel(int mx, int my)
    {
        const uint8_t *ref_ptr =
            ctx.ref->ptr(ctx.block_x + mx, ctx.block_y + my);
        const uint32_t sad = sadBlock(src_ptr, src_stride, ref_ptr,
                                      ctx.ref->stride(), ctx.block_w,
                                      ctx.block_h);
        finish(fullPelMv(mx, my), sad);
    }

    /**
     * Count n candidates whose costs are known not to beat best_cost,
     * without scoring them: exactly the bookkeeping finish() does for
     * as many non-improving candidates (a 0 decision bit each).
     */
    void
    reject(uint32_t n)
    {
        candidates += n;
        n_decisions = std::min(64, n_decisions + static_cast<int>(n));
    }

    /** Cost of a half-pel candidate (interpolating); updates best. */
    void
    tryHalfPel(MotionVector mv)
    {
        mv.x = static_cast<int16_t>(
            clampInt(mv.x, min_mx * 2, max_mx * 2));
        mv.y = static_cast<int16_t>(
            clampInt(mv.y, min_my * 2, max_my * 2));
        if (mv == best)
            return;
        uint8_t temp[32 * 32];  // max block any codec searches
        motionCompensate(*ctx.ref, ctx.block_x, ctx.block_y, mv,
                         ctx.block_w, ctx.block_h, temp);
        const uint32_t distortion = ctx.satd_subpel
            ? satdBlock(src_ptr, src_stride, temp, ctx.block_w,
                        ctx.block_w, ctx.block_h)
            : sadBlock(src_ptr, src_stride, temp, ctx.block_w,
                       ctx.block_w, ctx.block_h);
        finish(mv, distortion);
    }

    /**
     * Re-score the current best with SATD so integer and sub-pel
     * candidates compete in the same metric.
     */
    void
    rescoreWithSatd()
    {
        uint8_t temp[32 * 32];
        motionCompensate(*ctx.ref, ctx.block_x, ctx.block_y, best,
                         ctx.block_w, ctx.block_h, temp);
        best_sad = satdBlock(src_ptr, src_stride, temp, ctx.block_w,
                             ctx.block_w, ctx.block_h);
        best_cost = best_sad +
            static_cast<uint32_t>(ctx.lambda * mvBits(best, ctx.pred) +
                                  0.5);
    }

    void
    finish(MotionVector mv, uint32_t sad)
    {
        ++candidates;
        const uint32_t bits = mvBits(mv, ctx.pred);
        const uint32_t cost =
            sad + static_cast<uint32_t>(ctx.lambda * bits + 0.5);
        const bool improved = cost < best_cost;
        if (n_decisions < 64) {
            decisions |= static_cast<uint64_t>(improved) << n_decisions;
            ++n_decisions;
        }
        if (improved) {
            best_cost = cost;
            best_sad = sad;
            best = mv;
        }
    }

    static MotionVector
    fullPelMv(int mx, int my)
    {
        return MotionVector{static_cast<int16_t>(mx * 2),
                            static_cast<int16_t>(my * 2)};
    }
};

const int kSmallDiamond[4][2] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};
const int kHexagon[6][2] = {
    {-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2},
};

/**
 * Final 3x3 square refinement. Axis-only patterns stall when the best
 * position is diagonally adjacent; the square pass fixes that, as in
 * x264's SQUARE/UMH endgames.
 */
void
squareRefine(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                state.tryFullPel(center.x / 2 + dx, center.y / 2 + dy);
            }
        }
        if (state.best == center)
            break;
    }
}

void
diamondSearch(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (const auto &d : kSmallDiamond) {
            state.tryFullPel(center.x / 2 + d[0], center.y / 2 + d[1]);
        }
        if (state.best == center)
            break;
    }
    squareRefine(state, 2);
}

void
hexSearch(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (const auto &d : kHexagon) {
            state.tryFullPel(center.x / 2 + d[0], center.y / 2 + d[1]);
        }
        if (state.best == center)
            break;
    }
    squareRefine(state, 2);
}

/**
 * Exhaustive full-pel search by successive elimination (SEA, Li &
 * Salari 1995; x264's "esa"). It visits the same (2R+1)^2 clamped
 * raster as a brute-force scan, in the same order, and reaches the
 * same result, but calls the SAD kernel only for candidates that
 * could still win.
 *
 * Split the block into four quadrants. By the triangle inequality,
 * SAD >= sum_q |S_q - R_q|, where S_q and R_q are the pixel sums of
 * source and reference quadrant q. Adding the candidate's rate term
 * (the same rounded lambda * mvBits that finish() adds) gives a lower
 * bound on its cost. A candidate whose bound already reaches best_cost
 * cannot improve on it, so it is rejected unscored: it still counts
 * as a candidate with a 0 decision bit, so MeResult and the probe's
 * kernel records match the brute-force scan exactly.
 *
 * The reference quadrant sums come from an integral image of the
 * search window, built per call: no state outlives the search or is
 * shared between threads.
 */
void
fullSearch(SearchState &state)
{
    const MeContext &ctx = state.ctx;
    const int w = ctx.block_w;
    const int h = ctx.block_h;
    const int hw = w / 2;
    const int hh = h / 2;
    const int cx = clampInt((ctx.pred.x + 1) / 2, state.min_mx,
                            state.max_mx);
    const int cy = clampInt((ctx.pred.y + 1) / 2, state.min_my,
                            state.max_my);
    // The distinct positions the clamped raster visits.
    const int x0 = std::max(cx - ctx.range, state.min_mx);
    const int x1 = std::min(cx + ctx.range, state.max_mx);
    const int y0 = std::max(cy - ctx.range, state.min_my);
    const int y1 = std::min(cy + ctx.range, state.max_my);
    const int nx = x1 - x0 + 1;

    // Source quadrant sums.
    int32_t src_sum[4] = {0, 0, 0, 0};
    for (int y = 0; y < h; ++y) {
        const uint8_t *row = state.src_ptr + y * state.src_stride;
        int32_t *sum = src_sum + (y < hh ? 0 : 2);
        for (int x = 0; x < hw; ++x)
            sum[0] += row[x];
        for (int x = hw; x < w; ++x)
            sum[1] += row[x];
    }

    // MV bits grow with |mv - pred|, so each component's largest bit
    // count sits at one end of its range.
    const uint32_t max_bits =
        std::max(seBits(2 * x0 - ctx.pred.x), seBits(2 * x1 - ctx.pred.x)) +
        std::max(seBits(2 * y0 - ctx.pred.y), seBits(2 * y1 - ctx.pred.y));

    // One scratch block: the integral image of the window
    // [x0, x1 + w) x [y0, y1 + h) with a zero first row and column,
    // two band rows, the bound row, each column's MV x bits and the
    // rate term per MV bit count.
    const int iw = nx + w;
    const int ih = y1 - y0 + 1 + h;
    const size_t istride = static_cast<size_t>(iw) + 1;
    const size_t isize = istride * (static_cast<size_t>(ih) + 1);
    std::vector<uint32_t> scratch(isize + 2 * istride + 2 * nx + max_bits +
                                  1);
    uint32_t *integral = scratch.data();
    uint32_t *top_band = integral + isize;
    uint32_t *bot_band = top_band + istride;
    uint32_t *bound = bot_band + istride;
    uint32_t *x_bits = bound + nx;
    uint32_t *rate = x_bits + nx;

    // Unsigned wraparound keeps every rectangle difference exact.
    for (int y = 0; y < ih; ++y) {
        const uint8_t *in =
            ctx.ref->ptr(ctx.block_x + x0, ctx.block_y + y0 + y);
        const uint32_t *above = integral + y * istride;
        uint32_t *out = integral + (y + 1) * istride;
        uint32_t run = 0;
        for (int x = 0; x < iw; ++x) {
            run += in[x];
            out[x + 1] = above[x + 1] + run;
        }
    }

    for (int i = 0; i < nx; ++i)
        x_bits[i] = seBits(2 * (x0 + i) - ctx.pred.x);
    for (uint32_t b = 0; b <= max_bits; ++b)
        rate[b] = static_cast<uint32_t>(ctx.lambda * b + 0.5);

    // Rejections are batched: they only bump the candidate count and
    // append 0 decision bits, so flushing them before the next scored
    // candidate keeps the exact order.
    uint32_t rejected = 0;
    int bound_row = INT_MIN;
    for (int my = -ctx.range; my <= ctx.range; ++my) {
        const int y = clampInt(cy + my, state.min_my, state.max_my);
        if (y != bound_row) {
            // Cost bounds of row y, one per column.
            bound_row = y;
            const uint32_t *top = integral + (y - y0) * istride;
            const uint32_t *mid = top + hh * istride;
            const uint32_t *bot = top + h * istride;
            for (int c = 0; c <= iw; ++c) {
                top_band[c] = mid[c] - top[c];
                bot_band[c] = bot[c] - mid[c];
            }
            const auto quad = [](const uint32_t *band, int from, int to) {
                return static_cast<int32_t>(band[to] - band[from]);
            };
            for (int i = 0; i < nx; ++i) {
                bound[i] = static_cast<uint32_t>(
                    std::abs(src_sum[0] - quad(top_band, i, i + hw)) +
                    std::abs(src_sum[1] - quad(top_band, i + hw, i + w)) +
                    std::abs(src_sum[2] - quad(bot_band, i, i + hw)) +
                    std::abs(src_sum[3] - quad(bot_band, i + hw, i + w)));
            }
            const uint32_t y_bits = seBits(2 * y - ctx.pred.y);
            for (int i = 0; i < nx; ++i)
                bound[i] += rate[x_bits[i] + y_bits];
        }
        for (int mx = -ctx.range; mx <= ctx.range; ++mx) {
            const int x = clampInt(cx + mx, state.min_mx, state.max_mx);
            if (state.repeatsBest(SearchState::fullPelMv(x, y)))
                continue;
            if (bound[x - x0] >= state.best_cost) {
                ++rejected;
                continue;
            }
            state.reject(rejected);
            rejected = 0;
            state.scoreFullPel(x, y);
        }
    }
    state.reject(rejected);
}

} // namespace

uint32_t
sadBlock(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
         int w, int h)
{
    return kernels::ops().sad(a, a_stride, b, b_stride, w, h);
}

uint32_t
satdBlock(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    return kernels::ops().satd(a, a_stride, b, b_stride, w, h);
}

uint32_t
mvBits(MotionVector mv, MotionVector pred)
{
    return seBits(mv.x - pred.x) + seBits(mv.y - pred.y);
}

MeResult
motionSearch(const MeContext &ctx)
{
    SearchState state(ctx);

    // Seed candidates: zero MV, the predictor, and (when the caller
    // supplied one) the extra hint. The hint matters at slice heads,
    // where the rate predictor resets to zero but real motion hasn't:
    // without it the pattern search walks from (0,0) every time.
    state.tryFullPel(0, 0);
    state.tryFullPel((ctx.pred.x + 1) / 2, (ctx.pred.y + 1) / 2);
    if (ctx.has_seed)
        state.tryFullPel((ctx.seed.x + 1) / 2, (ctx.seed.y + 1) / 2);

    switch (ctx.kind) {
      case SearchKind::Diamond:
        diamondSearch(state, ctx.range);
        break;
      case SearchKind::Hex:
        hexSearch(state, ctx.range);
        break;
      case SearchKind::Full:
        fullSearch(state);
        break;
    }

    uint32_t subpel_evals = 0;
    if (ctx.subpel) {
        if (ctx.satd_subpel)
            state.rescoreWithSatd();
        for (int iter = 0; iter < ctx.subpel_iters; ++iter) {
            const MotionVector center = state.best;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0)
                        continue;
                    state.tryHalfPel(
                        MotionVector{static_cast<int16_t>(center.x + dx),
                                     static_cast<int16_t>(center.y + dy)});
                    ++subpel_evals;
                }
            }
            if (state.best == center)
                break;
        }
    }

    if (ctx.probe) {
        const uint64_t area = static_cast<uint64_t>(ctx.block_w) *
            ctx.block_h;
        const uint64_t sad_units =
            std::max<uint64_t>(1, state.candidates * area / 256);
        ctx.probe->record(
            uarch::KernelId::Sad, sad_units, state.decisions,
            state.n_decisions,
            {uarch::MemRegion{state.src_ptr,
                              static_cast<uint32_t>(ctx.block_w),
                              static_cast<uint32_t>(ctx.block_h),
                              static_cast<uint32_t>(state.src_stride),
                              false},
             uarch::MemRegion{
                 ctx.ref->ptr(ctx.block_x - ctx.range,
                              ctx.block_y - ctx.range / 2),
                 static_cast<uint32_t>(ctx.block_w + 2 * ctx.range),
                 static_cast<uint32_t>(ctx.block_h + ctx.range),
                 static_cast<uint32_t>(ctx.ref->stride()), false}});
        ctx.probe->record(uarch::KernelId::MotionSearchCtl,
                          state.candidates, state.decisions,
                          state.n_decisions);
        if (subpel_evals > 0) {
            ctx.probe->record(uarch::KernelId::SubpelInterp,
                              std::max<uint64_t>(1,
                                                 subpel_evals * area / 256));
        }
    }

    MeResult result;
    result.mv = state.best;
    result.cost = state.best_cost;
    result.sad = state.best_sad;
    result.candidates = state.candidates;
    return result;
}

} // namespace vbench::codec
