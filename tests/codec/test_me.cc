/**
 * @file
 * Motion estimation: the searches must find known displacements.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>

#include "codec/me.h"
#include "video/rng.h"

namespace vbench::codec {
namespace {

using video::Plane;

/**
 * Textured plane whose SAD landscape is unimodal within the search
 * window: dominant low-frequency structure (period ~60 px, so no
 * aliases inside a +-16 px search) plus light noise for uniqueness.
 * Gradient-descent searches (diamond/hex) need this to be a fair test;
 * with real video they rely on MV predictors for the same reason.
 */
Plane
texturedPlane(int w, int h, uint64_t seed)
{
    video::Rng rng(seed);
    Plane p(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>(
                128 + 55 * std::sin(x * 0.105) + 45 * std::cos(y * 0.093) +
                rng.range(-4, 4));
    return p;
}

/** Shift a plane by (dx, dy) with edge clamping. */
Plane
shifted(const Plane &src, int dx, int dy)
{
    Plane out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            out.at(x, y) = src.atClamped(x - dx, y - dy);
    return out;
}

TEST(Sad, ZeroForIdenticalBlocks)
{
    const Plane p = texturedPlane(64, 64, 1);
    EXPECT_EQ(sadBlock(p.row(8) + 8, 64, p.row(8) + 8, 64, 16, 16), 0u);
}

TEST(Sad, MatchesManualComputation)
{
    const Plane a = texturedPlane(32, 32, 2);
    const Plane b = texturedPlane(32, 32, 3);
    uint32_t manual = 0;
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            manual += std::abs(a.at(4 + c, 4 + r) - b.at(4 + c, 4 + r));
    EXPECT_EQ(sadBlock(a.row(4) + 4, 32, b.row(4) + 4, 32, 8, 8), manual);
}

TEST(MvBits, ZeroDeltaIsCheapest)
{
    const MotionVector pred{6, -4};
    const uint32_t zero_cost = mvBits(pred, pred);
    EXPECT_EQ(zero_cost, 2u);  // two 1-bit ue(0)
    EXPECT_GT(mvBits(MotionVector{20, 0}, pred), zero_cost);
}

// gtest has no printer for this struct, so it names each case by a
// hex dump of the object, and ctest registers the dump as the test
// name. Implicit padding would leak stack bytes into that name and
// change it from build to build, so the gap after `kind` is a member:
// `tag` holds the bytes each case is registered under.
struct SearchCase {
    SearchKind kind;
    std::array<uint8_t, 3> tag;
    int range;
    int dx, dy;  ///< true full-pel displacement
};
static_assert(offsetof(SearchCase, range) == 4 && sizeof(SearchCase) == 16,
              "SearchCase must have no padding");

class SearchSweep : public ::testing::TestWithParam<SearchCase>
{
};

TEST_P(SearchSweep, RecoversTrueMotion)
{
    const SearchCase param = GetParam();
    const Plane ref_src = texturedPlane(128, 96, 44);
    // Current frame is the reference with content shifted by
    // (dx, dy): cur(x) = ref(x - dx), so the MV pointing from a
    // current block into the reference is exactly (-dx, -dy).
    const Plane cur = shifted(ref_src, param.dx, param.dy);
    const RefPlane ref(ref_src);

    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.pred = MotionVector{0, 0};
    me.lambda = 1.0;
    me.kind = param.kind;
    me.range = param.range;
    me.subpel = false;
    const MeResult result = motionSearch(me);
    EXPECT_EQ(result.mv.x, -param.dx * 2);
    EXPECT_EQ(result.mv.y, -param.dy * 2);
    EXPECT_LT(result.sad, 16u * 16u * 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SearchSweep,
    ::testing::Values(
        SearchCase{SearchKind::Full, {}, 8, 5, -3},
        SearchCase{SearchKind::Full, {0x00, 0x01, 0x1B}, 8, -7, 6},
        SearchCase{SearchKind::Diamond, {0xDA, 0x48, 0x00}, 16, 3, 2},
        SearchCase{SearchKind::Hex, {}, 16, 6, -5},
        SearchCase{SearchKind::Hex, {}, 16, -9, 8},
        SearchCase{SearchKind::Diamond, {}, 16, 0, 0}));

TEST(MotionSearch, SubpelRefinementImprovesHalfPelShift)
{
    // Build a half-pel shifted current frame: cur(x) = avg(ref(x),
    // ref(x+1)) so the best match is at mv.x = +1 (half-pel).
    const Plane ref_src = texturedPlane(128, 96, 55);
    Plane cur(128, 96);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 128; ++x)
            cur.at(x, y) =
                static_cast<uint8_t>((ref_src.at(x, y) +
                                      ref_src.atClamped(x + 1, y) + 1) /
                                     2);
    const RefPlane ref(ref_src);

    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.lambda = 1.0;
    me.kind = SearchKind::Hex;
    me.range = 16;

    me.subpel = false;
    const MeResult integer_only = motionSearch(me);
    me.subpel = true;
    const MeResult refined = motionSearch(me);
    EXPECT_LT(refined.sad, integer_only.sad);
    EXPECT_EQ(refined.mv.x, 1);
    EXPECT_EQ(refined.mv.y, 0);
}

TEST(MotionSearch, PredictorBiasBreaksTies)
{
    // On a flat frame every position has equal SAD; the cost model
    // must prefer the predictor.
    Plane flat(64, 64, 100);
    const RefPlane ref(flat);
    MeContext me;
    me.src = &flat;
    me.ref = &ref;
    me.block_x = 16;
    me.block_y = 16;
    me.pred = MotionVector{4, 4};
    me.lambda = 4.0;
    me.kind = SearchKind::Hex;
    me.range = 8;
    me.subpel = false;
    const MeResult result = motionSearch(me);
    // Zero MV and predictor both cost ~nothing in SAD; either is
    // acceptable, but cost must reflect mv bits.
    EXPECT_LE(mvBits(result.mv, me.pred), mvBits(MotionVector{16, 0},
                                                 me.pred));
}

TEST(MotionSearch, FullSearchNeverWorseThanHex)
{
    const Plane ref_src = texturedPlane(160, 128, 66);
    const Plane cur = shifted(ref_src, -6, 7);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 64;
    me.block_y = 48;
    me.lambda = 1.0;
    me.subpel = false;

    me.kind = SearchKind::Hex;
    me.range = 16;
    const MeResult hex = motionSearch(me);
    me.kind = SearchKind::Full;
    me.range = 10;
    const MeResult full = motionSearch(me);
    EXPECT_LE(full.cost, hex.cost);
    EXPECT_GT(full.candidates, hex.candidates);
}

TEST(Satd, ZeroForIdenticalBlocks)
{
    const Plane p = texturedPlane(64, 64, 21);
    EXPECT_EQ(satdBlock(p.row(8) + 8, 64, p.row(8) + 8, 64, 16, 16), 0u);
}

TEST(Satd, PenalizesStructuredResidualMoreThanSad)
{
    // A flat DC offset concentrates into one Hadamard coefficient —
    // cheap to code. A random-sign residual of the same SAD spreads
    // over all coefficients: SATD must charge it more. That transform
    // awareness is the reason the metric exists.
    video::Rng rng(31);
    Plane a(16, 16, 100);
    Plane dc(16, 16, 108);
    Plane noisy(16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            noisy.at(x, y) =
                static_cast<uint8_t>(100 + (rng.below(2) ? 8 : -8));
    const uint32_t sad_dc = sadBlock(a.data(), 16, dc.data(), 16, 16, 16);
    const uint32_t sad_noisy =
        sadBlock(a.data(), 16, noisy.data(), 16, 16, 16);
    EXPECT_EQ(sad_dc, sad_noisy);  // same SAD by construction
    const uint32_t satd_dc =
        satdBlock(a.data(), 16, dc.data(), 16, 16, 16);
    const uint32_t satd_noisy =
        satdBlock(a.data(), 16, noisy.data(), 16, 16, 16);
    EXPECT_GT(satd_noisy, 2 * satd_dc);
}

TEST(Satd, SubpelRefinementStillFindsHalfPelShift)
{
    const Plane ref_src = texturedPlane(128, 96, 57);
    Plane cur(128, 96);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 128; ++x)
            cur.at(x, y) =
                static_cast<uint8_t>((ref_src.at(x, y) +
                                      ref_src.atClamped(x + 1, y) + 1) /
                                     2);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.lambda = 1.0;
    me.kind = SearchKind::Hex;
    me.range = 16;
    me.subpel = true;
    me.satd_subpel = true;
    const MeResult result = motionSearch(me);
    EXPECT_EQ(result.mv.x, 1);
    EXPECT_EQ(result.mv.y, 0);
}

TEST(MotionSearch, ClampsNearFrameBorder)
{
    const Plane ref_src = texturedPlane(64, 64, 77);
    const Plane cur = shifted(ref_src, 30, 30);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 0;
    me.block_y = 0;
    me.lambda = 1.0;
    me.kind = SearchKind::Full;
    me.range = 60;  // would escape the pad without clamping
    me.subpel = true;
    const MeResult result = motionSearch(me);  // must not crash
    EXPECT_GT(result.candidates, 100u);
}

} // namespace
} // namespace vbench::codec
