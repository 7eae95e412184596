/**
 * @file
 * Golden stream digests, both codecs: FNV-1a hashes and sizes of VBC
 * and NGC streams over a small matrix of the encoder's frame modes —
 * single and multi-slice entropy, Cqp / Abr / TwoPass rate control,
 * a segment chain that carries rate-controller state (rc_in) and
 * whole-clip pass-one stats across the cut, a frame size the
 * macroblock and superblock grids do not divide, and the presets that
 * run the exhaustive full-pel motion search.
 *
 * Unlike test_frame_threads and test_slices, which compare encodes
 * within one build, these values pin the bytes across commits: a
 * refactor of the encoders' frame skeleton must reproduce every one
 * of them unchanged. Each case is encoded serially and on a 3-wide
 * wavefront, and both must match the table. A second hash folds in
 * the per-frame statistics and the exported rate-control state, which
 * downstream code (rate control of the next segment, reports) reads.
 *
 * When an intended bitstream change lands, regenerate the table from
 * the failure messages (each prints its replacement row).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "ngc/ngc_encoder.h"
#include "service/segment.h"
#include "video/synth.h"

namespace vbench::codec {
namespace {

enum class Codec { Vbc, Ngc, NgcVp9 };  // NgcVp9: NGC's Vp9Like profile

struct Case {
    const char *name;
    Codec codec;
    int width;
    int height;
    int slices;
    RcMode mode;
    int effort;         ///< VBC effort (NGC: speed = effort)
    bool chained;       ///< two-segment chain with rc_in carry
};

struct Golden {
    const char *name;
    size_t bytes;
    uint64_t stream_hash;
    uint64_t stats_hash;
};

// 160x128 divides both grids (16-px macroblocks, 32-px superblocks);
// 200x120 divides neither, so the last column and row pad.
const Case kCases[] = {
    {"vbc_cqp_s1", Codec::Vbc, 160, 128, 1, RcMode::Cqp, 5, false},
    {"vbc_cqp_s4", Codec::Vbc, 160, 128, 4, RcMode::Cqp, 5, false},
    {"vbc_cqp_vlc_s4", Codec::Vbc, 160, 128, 4, RcMode::Cqp, 3, false},
    {"vbc_abr_s1", Codec::Vbc, 200, 120, 1, RcMode::Abr, 5, false},
    {"vbc_abr_s4", Codec::Vbc, 200, 120, 4, RcMode::Abr, 5, false},
    {"vbc_twopass_s1", Codec::Vbc, 200, 120, 1, RcMode::TwoPass, 5,
     false},
    {"vbc_twopass_s4", Codec::Vbc, 200, 120, 4, RcMode::TwoPass, 5,
     false},
    {"vbc_abr_chain_s4", Codec::Vbc, 200, 120, 4, RcMode::Abr, 5, true},
    {"vbc_twopass_chain_s1", Codec::Vbc, 200, 120, 1, RcMode::TwoPass, 5,
     true},
    {"vbc_twopass_chain_s4", Codec::Vbc, 200, 120, 4, RcMode::TwoPass, 5,
     true},
    {"ngc_cqp_s1", Codec::Ngc, 160, 128, 1, RcMode::Cqp, 1, false},
    {"ngc_cqp_s4", Codec::Ngc, 160, 128, 4, RcMode::Cqp, 1, false},
    {"ngc_abr_s1", Codec::Ngc, 200, 120, 1, RcMode::Abr, 1, false},
    {"ngc_abr_s4", Codec::Ngc, 200, 120, 4, RcMode::Abr, 1, false},
    {"ngc_twopass_s1", Codec::Ngc, 200, 120, 1, RcMode::TwoPass, 1,
     false},
    {"ngc_twopass_s4", Codec::Ngc, 200, 120, 4, RcMode::TwoPass, 1,
     false},
    {"ngc_abr_chain_s4", Codec::Ngc, 200, 120, 4, RcMode::Abr, 1, true},
    {"ngc_twopass_chain_s1", Codec::Ngc, 200, 120, 1, RcMode::TwoPass, 1,
     true},
    {"ngc_twopass_chain_s4", Codec::Ngc, 200, 120, 4, RcMode::TwoPass, 1,
     true},
    // The exhaustive (SearchKind::Full) integer search: VBC efforts 8
    // and 9 and NGC's Vp9Like profile at speed 0.
    {"vbc_e9_twopass_s1", Codec::Vbc, 200, 120, 1, RcMode::TwoPass, 9,
     false},
    {"vbc_e9_twopass_chain_s1", Codec::Vbc, 200, 120, 1, RcMode::TwoPass,
     9, true},
    {"vbc_e8_cqp_s1", Codec::Vbc, 160, 128, 1, RcMode::Cqp, 8, false},
    {"ngc_vp9_cqp_s1", Codec::NgcVp9, 160, 128, 1, RcMode::Cqp, 0, false},
};

const Golden kGolden[] = {
    {"vbc_cqp_s1", 1406,
     0xec3ccdcf3843f491ull, 0x7bd10942dd3977adull},
    {"vbc_cqp_s4", 1947,
     0x9c0a460b52f9f2acull, 0xf4e64233440433d2ull},
    {"vbc_cqp_vlc_s4", 2592,
     0x0ef382817dfa7257ull, 0xca0c70d9ecc57c5aull},
    {"vbc_abr_s1", 1313,
     0xa3e846645e96c29bull, 0x3729032dcfe1c110ull},
    {"vbc_abr_s4", 1666,
     0x42c8ac5fd4ae6a84ull, 0x0f222b59cd2857e7ull},
    {"vbc_twopass_s1", 3289,
     0xec28cfbcf86939d5ull, 0x471fb845af3f5d31ull},
    {"vbc_twopass_s4", 3020,
     0xef58d493a4800d96ull, 0x6745c2dbc3fd51dfull},
    {"vbc_abr_chain_s4", 1504,
     0xb78a031a32525458ull, 0xb78887f3719dbc6full},
    {"vbc_twopass_chain_s1", 3306,
     0x985d70ab001875c1ull, 0xf2a1d6fcbb7fd251ull},
    {"vbc_twopass_chain_s4", 3243,
     0xb750c8f2d81986abull, 0xaf40689cd301bbbbull},
    {"ngc_cqp_s1", 1259,
     0x2bd4ce7510d032a5ull, 0x8caaa6858cfa3752ull},
    {"ngc_cqp_s4", 1700,
     0x374165465f99e8c8ull, 0xa84cddddee0ce137ull},
    {"ngc_abr_s1", 1250,
     0x89a4081416fb4d53ull, 0x1c029e75f6c5e337ull},
    {"ngc_abr_s4", 1523,
     0x82e4ce6f36e2155full, 0xe201a43115cbb6e9ull},
    {"ngc_twopass_s1", 2405,
     0x2c31f865733509c2ull, 0x3c38fd6b24a8cd57ull},
    {"ngc_twopass_s4", 2132,
     0xec1f72b11eb36dcbull, 0xb0a17f8c63853948ull},
    {"ngc_abr_chain_s4", 1486,
     0x13b594d9d9eb5b55ull, 0x64bb5b7a2901ee98ull},
    {"ngc_twopass_chain_s1", 2455,
     0xcd82a14463b689cfull, 0x23f91865b7904bb8ull},
    {"ngc_twopass_chain_s4", 2166,
     0x5173ddc91be252aeull, 0x101d7c8e5a0caba9ull},
    {"vbc_e9_twopass_s1", 3266,
     0xebb5ab9de4cbffb3ull, 0xca391cb11e118b8aull},
    {"vbc_e9_twopass_chain_s1", 3279,
     0xe2f50227f3674eb0ull, 0xc67435e5508cdc95ull},
    {"vbc_e8_cqp_s1", 1410,
     0xb26942f7abd74e7aull, 0x5eb2c49647ef9944ull},
    {"ngc_vp9_cqp_s1", 1267,
     0x7674912139a73901ull, 0x1bbb6bd52c8f4346ull},
};

video::Video
clip(int width, int height)
{
    return video::synthesize(
        video::presetFor(video::ContentClass::Natural, width, height, 30.0,
                         6, 2024),
        "golden");
}

void
fnvBytes(uint64_t &h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
}

template <class T>
void
fnvValue(uint64_t &h, T v)
{
    fnvBytes(h, &v, sizeof v);
}

struct Digest {
    size_t bytes = 0;
    uint64_t stream_hash = 0xCBF29CE484222325ull;
    uint64_t stats_hash = 0xCBF29CE484222325ull;

    void
    add(const EncodeResult &r)
    {
        bytes += r.stream.size();
        fnvBytes(stream_hash, r.stream.data(), r.stream.size());
        for (const FrameStats &f : r.frames) {
            fnvValue(stats_hash, static_cast<int>(f.type));
            fnvValue(stats_hash, f.qp);
            fnvValue(stats_hash, static_cast<uint64_t>(f.bytes));
            fnvValue(stats_hash, f.intra_mbs);
            fnvValue(stats_hash, f.skip_mbs);
        }
        fnvValue(stats_hash, r.rc_state.spent_bits);
        fnvValue(stats_hash, r.rc_state.planned_bits);
        fnvValue(stats_hash, r.rc_state.frames_done);
    }
};

RateControlConfig
rcFor(const Case &c)
{
    RateControlConfig rc;
    rc.mode = c.mode;
    rc.qp = 29;
    // ~0.12 bit/pixel at 30 fps: tight enough that rate control
    // moves the quantizer frame to frame.
    rc.bitrate_bps = 0.12 * c.width * c.height * 30.0;
    return rc;
}

/**
 * The chained cases mirror the service's split-and-stitch chain: each
 * segment is its own encode, rc_in carries the controller state across
 * the cut, and two-pass reads whole-clip stats from per-segment first
 * passes (codec::collectPassOneStats / ngc::collectNgcPassOneStats).
 */
template <class Config, class Encoder, class CollectStats>
Digest
encodeCase(const Case &c, Config cfg, const CollectStats &collect)
{
    const video::Video source = clip(c.width, c.height);
    Digest d;
    if (!c.chained) {
        d.add(Encoder(cfg).encode(source));
        return d;
    }
    constexpr int kSegmentFrames = 3;
    const std::vector<video::Video> parts =
        service::splitVideo(source, kSegmentFrames);
    cfg.segment_frames = kSegmentFrames;
    PassOneStats whole_clip;
    if (c.mode == RcMode::TwoPass) {
        for (const video::Video &part : parts) {
            const PassOneStats s = collect(cfg, part);
            whole_clip.pass_qp = s.pass_qp;
            whole_clip.frame_bits.insert(whole_clip.frame_bits.end(),
                                         s.frame_bits.begin(),
                                         s.frame_bits.end());
        }
        cfg.pass_one = &whole_clip;
    }
    for (const video::Video &part : parts) {
        const EncodeResult r = Encoder(cfg).encode(part);
        d.add(r);
        cfg.rc_in = r.rc_state;
    }
    return d;
}

Digest
encodeAt(const Case &c, int frame_threads)
{
    if (c.codec == Codec::Vbc) {
        EncoderConfig cfg;
        cfg.rc = rcFor(c);
        cfg.effort = c.effort;
        cfg.gop = 4;
        cfg.slice_count = c.slices;
        cfg.frame_threads = frame_threads;
        return encodeCase<EncoderConfig, Encoder>(
            c, cfg, [](const EncoderConfig &k, const video::Video &v) {
                return collectPassOneStats(k, v);
            });
    }
    ngc::NgcConfig cfg;
    cfg.rc = rcFor(c);
    if (c.codec == Codec::NgcVp9)
        cfg.profile = ngc::NgcProfile::Vp9Like;
    cfg.speed = c.effort;
    cfg.gop = 4;
    cfg.slice_count = c.slices;
    cfg.frame_threads = frame_threads;
    return encodeCase<ngc::NgcConfig, ngc::NgcEncoder>(
        c, cfg, [](const ngc::NgcConfig &k, const video::Video &v) {
            return ngc::collectNgcPassOneStats(k, v);
        });
}

const Golden *
goldenFor(const char *name)
{
    for (const Golden &g : kGolden)
        if (std::strcmp(g.name, name) == 0)
            return &g;
    return nullptr;
}

std::string
row(const char *name, const Digest &d)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %zu, 0x%016llxull, 0x%016llxull},", name,
                  d.bytes,
                  static_cast<unsigned long long>(d.stream_hash),
                  static_cast<unsigned long long>(d.stats_hash));
    return buf;
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class GoldenStreams : public ::testing::TestWithParam<Case>
{};

TEST_P(GoldenStreams, MatchPinnedDigest)
{
    const Case &c = GetParam();
    const Golden *g = goldenFor(c.name);
    for (const int threads : {1, 3}) {
        const Digest d = encodeAt(c, threads);
        ASSERT_NE(g, nullptr) << "no golden row; add " << row(c.name, d);
        EXPECT_EQ(d.bytes, g->bytes) << row(c.name, d);
        EXPECT_EQ(d.stream_hash, g->stream_hash) << row(c.name, d);
        EXPECT_EQ(d.stats_hash, g->stats_hash) << row(c.name, d);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenStreams, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace vbench::codec
