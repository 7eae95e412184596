/**
 * @file
 * Motion estimation: the searches must find known displacements, and
 * the successive-elimination full search must reproduce a brute-force
 * scan exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "codec/me.h"
#include "uarch/probe.h"
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

/**
 * Reference full-pel search: the brute-force scan motionSearch ran
 * before successive elimination, with its seeds, clamp, duplicate
 * skip and decision bits, SAD-scoring every candidate.
 */
struct BruteForce {
    MeResult result;
    uint64_t decisions = 0;
    int n_decisions = 0;
};

BruteForce
bruteForceFullSearch(const MeContext &ctx)
{
    const int margin = kRefPad - 2;
    const int min_mx = -(ctx.block_x + margin);
    const int max_mx = ctx.ref->width() + margin - ctx.block_w - ctx.block_x;
    const int min_my = -(ctx.block_y + margin);
    const int max_my =
        ctx.ref->height() + margin - ctx.block_h - ctx.block_y;
    const uint8_t *src = ctx.src->row(ctx.block_y) + ctx.block_x;

    BruteForce out;
    MeResult &r = out.result;
    r.cost = UINT32_MAX;
    const auto tryFullPel = [&](int mx, int my) {
        mx = std::clamp(mx, min_mx, max_mx);
        my = std::clamp(my, min_my, max_my);
        const MotionVector mv{static_cast<int16_t>(mx * 2),
                              static_cast<int16_t>(my * 2)};
        if (r.candidates > 0 && mv == r.mv)
            return;
        // Plain per-pixel SAD, independent of the kernel tables.
        uint32_t sad = 0;
        for (int y = 0; y < ctx.block_h; ++y) {
            const uint8_t *a = src + y * ctx.src->width();
            const uint8_t *b =
                ctx.ref->ptr(ctx.block_x + mx, ctx.block_y + my + y);
            for (int x = 0; x < ctx.block_w; ++x)
                sad += static_cast<uint32_t>(std::abs(a[x] - b[x]));
        }
        ++r.candidates;
        const uint32_t cost =
            sad + static_cast<uint32_t>(ctx.lambda * mvBits(mv, ctx.pred) +
                                        0.5);
        const bool improved = cost < r.cost;
        if (out.n_decisions < 64) {
            out.decisions |= static_cast<uint64_t>(improved)
                << out.n_decisions;
            ++out.n_decisions;
        }
        if (improved) {
            r.cost = cost;
            r.sad = sad;
            r.mv = mv;
        }
    };

    tryFullPel(0, 0);
    tryFullPel((ctx.pred.x + 1) / 2, (ctx.pred.y + 1) / 2);
    if (ctx.has_seed)
        tryFullPel((ctx.seed.x + 1) / 2, (ctx.seed.y + 1) / 2);
    const int cx = std::clamp((ctx.pred.x + 1) / 2, min_mx, max_mx);
    const int cy = std::clamp((ctx.pred.y + 1) / 2, min_my, max_my);
    for (int my = -ctx.range; my <= ctx.range; ++my)
        for (int mx = -ctx.range; mx <= ctx.range; ++mx)
            tryFullPel(cx + mx, cy + my);
    return out;
}

/** Keeps the decision bits of the motion-search control record. */
class DecisionProbe : public uarch::UarchProbe
{
  public:
    using UarchProbe::record;

    void
    record(uarch::KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions, std::initializer_list<uarch::MemRegion>) override
    {
        if (id != uarch::KernelId::MotionSearchCtl)
            return;
        ++records;
        candidates = units;
        decisions = decision_bits;
        this->n_decisions = n_decisions;
    }

    int records = 0;
    uint64_t candidates = 0;
    uint64_t decisions = 0;
    int n_decisions = 0;
};

TEST(FullSearch, MatchesBruteForceScanExactly)
{
    constexpr int kW = 112;
    constexpr int kH = 80;
    // Textured content with real motion; unrelated noise (weak
    // bounds); a flat frame where every candidate's SAD ties and the
    // earlier raster candidate must keep winning; and a flat block
    // over a reference that is brighter everywhere, where every SAD
    // equals its quadrant bound, so a bound that overshoots by even 1
    // drops a winner.
    const Plane textured_ref = texturedPlane(kW, kH, 91);
    const Plane textured_cur = shifted(textured_ref, 3, -2);
    Plane noise_ref(kW, kH);
    Plane noise_cur(kW, kH);
    Plane brighter_ref(kW, kH);
    video::Rng rng(92);
    for (int y = 0; y < kH; ++y) {
        for (int x = 0; x < kW; ++x) {
            noise_ref.at(x, y) = static_cast<uint8_t>(rng.below(256));
            noise_cur.at(x, y) = static_cast<uint8_t>(rng.below(256));
            brighter_ref.at(x, y) = static_cast<uint8_t>(80 + rng.below(8));
        }
    }
    const Plane flat(kW, kH, 77);
    struct Content {
        const char *name;
        const Plane *cur;
        const Plane *ref;
    };
    const Content contents[] = {{"textured", &textured_cur, &textured_ref},
                                {"noise", &noise_cur, &noise_ref},
                                {"flat", &flat, &flat},
                                {"tight", &flat, &brighter_ref}};

    int searches = 0;
    for (const Content &content : contents) {
        const RefPlane ref(*content.ref);
        for (const int bs : {8, 16, 32}) {
            // The four corners, where the clamp folds candidates onto
            // each other, and one interior block.
            const int xs[] = {0, kW - bs, 0, kW - bs, 40};
            const int ys[] = {0, 0, kH - bs, kH - bs, 32};
            for (int pos = 0; pos < 5; ++pos) {
                for (const int range : {4, 7, 12, 24, kRefPad + 16}) {
                    for (const bool seeded : {false, true}) {
                        for (const double lambda : {0.0, 1.0, 60.0}) {
                            MeContext ctx;
                            ctx.src = content.cur;
                            ctx.ref = &ref;
                            ctx.block_x = xs[pos];
                            ctx.block_y = ys[pos];
                            ctx.block_w = bs;
                            ctx.block_h = bs;
                            ctx.pred = MotionVector{-7, 5};
                            ctx.seed = MotionVector{12, -9};
                            ctx.has_seed = seeded;
                            ctx.lambda = lambda;
                            ctx.kind = SearchKind::Full;
                            ctx.range = range;
                            ctx.subpel = false;
                            DecisionProbe probe;
                            ctx.probe = &probe;

                            const BruteForce want =
                                bruteForceFullSearch(ctx);
                            const MeResult got = motionSearch(ctx);
                            SCOPED_TRACE(testing::Message()
                                         << content.name << " bs=" << bs
                                         << " at (" << xs[pos] << ","
                                         << ys[pos] << ") range=" << range
                                         << " seeded=" << seeded
                                         << " lambda=" << lambda);
                            EXPECT_EQ(got.mv, want.result.mv);
                            EXPECT_EQ(got.cost, want.result.cost);
                            EXPECT_EQ(got.sad, want.result.sad);
                            EXPECT_EQ(got.candidates,
                                      want.result.candidates);
                            ASSERT_EQ(probe.records, 1);
                            EXPECT_EQ(probe.candidates,
                                      want.result.candidates);
                            EXPECT_EQ(probe.decisions, want.decisions);
                            EXPECT_EQ(probe.n_decisions, want.n_decisions);
                            ++searches;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(searches, 4 * 3 * 5 * 5 * 2 * 3);
}

} // namespace
} // namespace vbench::codec
