/**
 * @file
 * Bit-exactness of intra-frame wavefront parallelism: for VBC and NGC,
 * every frame_threads width must produce the byte-identical stream the
 * serial encoder produces — same bytes, same decoded pixels, same
 * scores. This is the contract that makes VBENCH_FRAME_THREADS a pure
 * performance knob. Labeled into the `thread` suite alongside the
 * scheduler tests (`ctest -L thread`).
 */

#include <gtest/gtest.h>

#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "metrics/psnr.h"
#include "ngc/ngc_decoder.h"
#include "ngc/ngc_encoder.h"
#include "video/synth.h"

namespace vbench {
namespace {

const std::vector<int> kWidths = {1, 2, 4, 7};

video::Video
testClip(int w = 192, int h = 128, int frames = 6,
         video::ContentClass content = video::ContentClass::Natural,
         uint64_t seed = 7)
{
    return video::synthesize(
        video::presetFor(content, w, h, 30.0, frames, seed), "clip");
}

/** Encode the clip at every width and require byte-identical output. */
void
expectVbcBitExact(const video::Video &clip, codec::EncoderConfig cfg)
{
    cfg.frame_threads = 1;
    const codec::EncodeResult serial = codec::Encoder(cfg).encode(clip);
    ASSERT_FALSE(serial.stream.empty());
    const auto serial_decoded = codec::decode(serial.stream);
    ASSERT_TRUE(serial_decoded.has_value());
    const double serial_psnr =
        metrics::videoPsnr(clip, *serial_decoded);

    for (int threads : kWidths) {
        cfg.frame_threads = threads;
        const codec::EncodeResult result =
            codec::Encoder(cfg).encode(clip);
        ASSERT_EQ(result.stream, serial.stream)
            << "frame_threads=" << threads;
        const auto decoded = codec::decode(result.stream);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(metrics::videoPsnr(clip, *decoded), serial_psnr)
            << "frame_threads=" << threads;
    }
}

void
expectNgcBitExact(const video::Video &clip, ngc::NgcConfig cfg)
{
    cfg.frame_threads = 1;
    const codec::EncodeResult serial =
        ngc::NgcEncoder(cfg).encode(clip);
    ASSERT_FALSE(serial.stream.empty());
    const auto serial_decoded = ngc::ngcDecode(serial.stream);
    ASSERT_TRUE(serial_decoded.has_value());
    const double serial_psnr =
        metrics::videoPsnr(clip, *serial_decoded);

    for (int threads : kWidths) {
        cfg.frame_threads = threads;
        const codec::EncodeResult result =
            ngc::NgcEncoder(cfg).encode(clip);
        ASSERT_EQ(result.stream, serial.stream)
            << "frame_threads=" << threads;
        const auto decoded = ngc::ngcDecode(result.stream);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(metrics::videoPsnr(clip, *decoded), serial_psnr)
            << "frame_threads=" << threads;
    }
}

codec::EncoderConfig
vbcCqp(int qp, int effort)
{
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = qp;
    cfg.effort = effort;
    cfg.gop = 4;
    return cfg;
}

TEST(FrameThreadsVbc, LowEffortVlc)
{
    expectVbcBitExact(testClip(), vbcCqp(30, 2));
}

TEST(FrameThreadsVbc, HighEffortArithAdaptiveQuant)
{
    // Effort 8 turns on arithmetic coding, adaptive quant, scene cuts
    // and multiple references — the order-dependent coder state the
    // serial entropy pass exists to protect.
    expectVbcBitExact(testClip(), vbcCqp(26, 8));
}

TEST(FrameThreadsVbc, MidEffortNoisyContent)
{
    expectVbcBitExact(
        testClip(176, 144, 5, video::ContentClass::Noisy, 21),
        vbcCqp(34, 5));
}

TEST(FrameThreadsVbc, UnalignedDimensions)
{
    // 150x98 pads to 160x112: partial edge macroblocks plus an MB-row
    // count that divides unevenly across every tested width.
    expectVbcBitExact(testClip(150, 98, 4), vbcCqp(28, 5));
}

TEST(FrameThreadsVbc, AbrRateControl)
{
    // ABR threads per-frame QP choices through the shared rate
    // controller state; wavefront analysis must not perturb it.
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Abr;
    cfg.rc.bitrate_bps = 400e3;
    cfg.effort = 5;
    cfg.gop = 4;
    expectVbcBitExact(testClip(), cfg);
}

TEST(FrameThreadsVbc, FullSearchTwoPassEffort9)
{
    // Effort 9 is the exhaustive full-pel search over four references
    // under two-pass rate control: the Popular reference encode.
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::TwoPass;
    cfg.rc.bitrate_bps = 400e3;
    cfg.effort = 9;
    cfg.gop = 4;
    expectVbcBitExact(testClip(), cfg);
}

TEST(FrameThreadsVbc, WidthsBeyondRowCountClampSafely)
{
    // 64 rows requested, 4 macroblock rows available.
    codec::EncoderConfig cfg = vbcCqp(30, 3);
    cfg.frame_threads = 1;
    const codec::EncodeResult serial =
        codec::Encoder(cfg).encode(testClip(96, 64, 3));
    cfg.frame_threads = 64;
    const codec::EncodeResult wide =
        codec::Encoder(cfg).encode(testClip(96, 64, 3));
    EXPECT_EQ(wide.stream, serial.stream);
}

ngc::NgcConfig
ngcCqp(int qp, ngc::NgcProfile profile)
{
    ngc::NgcConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = qp;
    cfg.profile = profile;
    cfg.gop = 4;
    return cfg;
}

TEST(FrameThreadsNgc, HevcLikeProfile)
{
    expectNgcBitExact(testClip(),
                      ngcCqp(28, ngc::NgcProfile::HevcLike));
}

TEST(FrameThreadsNgc, Vp9LikeProfile)
{
    expectNgcBitExact(testClip(),
                      ngcCqp(28, ngc::NgcProfile::Vp9Like));
}

TEST(FrameThreadsNgc, Vp9LikeFullSearchSpeed0)
{
    // Speed 0 is the Vp9Like profile's exhaustive full-pel search.
    ngc::NgcConfig cfg = ngcCqp(28, ngc::NgcProfile::Vp9Like);
    cfg.speed = 0;
    expectNgcBitExact(testClip(), cfg);
}

TEST(FrameThreadsNgc, UnalignedDimensionsNoisyContent)
{
    expectNgcBitExact(
        testClip(150, 100, 4, video::ContentClass::Noisy, 33),
        ngcCqp(32, ngc::NgcProfile::HevcLike));
}

} // namespace
} // namespace vbench
