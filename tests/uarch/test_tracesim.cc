/**
 * @file
 * Trace simulator integration tests: synthetic kernel streams and real
 * instrumented encodes must produce the paper's qualitative trends.
 */

#include <gtest/gtest.h>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "ngc/ngc_encoder.h"
#include "uarch/tracesim.h"
#include "video/rng.h"
#include "video/synth.h"

namespace vbench::uarch {
namespace {

TEST(TraceSim, EmptyRunIsAllZero)
{
    TraceSimulator sim;
    const UarchReport rep = sim.report();
    EXPECT_EQ(rep.instructions, 0);
    EXPECT_EQ(rep.l1i_mpki, 0);
}

TEST(TraceSim, RecordsAccumulateWork)
{
    TraceSimulator sim;
    sim.record(KernelId::Sad, 100);
    sim.record(KernelId::Sad, 50);
    const UarchReport rep = sim.report();
    EXPECT_DOUBLE_EQ(rep.work[KernelId::Sad], 150.0);
    EXPECT_GT(rep.instructions, 0);
}

TEST(TraceSim, SmallKernelSetFitsInIcache)
{
    // Two kernels looping forever: after warmup, no I$ misses.
    TraceSimulator sim;
    for (int i = 0; i < 2000; ++i) {
        sim.record(KernelId::Sad, 64);
        sim.record(KernelId::TransformFwd, 16);
    }
    const UarchReport rep = sim.report();
    EXPECT_LT(rep.l1i_mpki, 0.5);
}

TEST(TraceSim, LargeKernelSetThrashesIcache)
{
    // Interleaving every kernel exceeds 32 KiB of code: the I$ MPKI
    // must be clearly higher than the two-kernel case.
    TraceSimulator small_sim;
    TraceSimulator big_sim;
    for (int i = 0; i < 500; ++i) {
        small_sim.record(KernelId::Sad, 64);
        small_sim.record(KernelId::TransformFwd, 16);
        for (int k = 0; k < kNumKernels; ++k)
            big_sim.record(static_cast<KernelId>(k), 16);
    }
    EXPECT_GT(big_sim.report().l1i_mpki,
              2.0 * small_sim.report().l1i_mpki);
}

TEST(TraceSim, RandomDecisionBitsRaiseBranchMpki)
{
    TraceSimulator predictable;
    TraceSimulator random;
    video::Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        predictable.record(KernelId::ModeDecision, 8, 0xFF, 8);
        random.record(KernelId::ModeDecision, 8, rng.next(), 8);
    }
    EXPECT_GT(random.report().branch_mpki,
              predictable.report().branch_mpki * 1.5);
}

TEST(TraceSim, StreamingDataMissesInLlc)
{
    TraceSimConfig cfg;
    cfg.caches.l3 = {1024 * 1024, 16, 64};  // 1 MiB LLC
    TraceSimulator sim(cfg);
    // Stream 64 MiB of "pixels" through one kernel.
    std::vector<uint8_t> buffer(1 << 20);
    for (int pass = 0; pass < 64; ++pass) {
        sim.record(KernelId::FrameCopy, buffer.size() / 64, 0, 0,
                   {MemRegion{buffer.data(),
                              static_cast<uint32_t>(buffer.size()), 1, 0,
                              false}});
    }
    EXPECT_GT(sim.report().l3_mpki, 0.5);
}

TEST(TraceSim, SamplingKeepsRatiosStable)
{
    // MPKI with 1:4 sampling should approximate unsampled MPKI.
    TraceSimConfig full_cfg;
    TraceSimConfig sampled_cfg;
    sampled_cfg.sample_shift = 2;
    TraceSimulator full(full_cfg);
    TraceSimulator sampled(sampled_cfg);
    video::Rng rng(7);
    for (int i = 0; i < 8000; ++i) {
        const KernelId k = static_cast<KernelId>(rng.below(kNumKernels));
        const uint64_t bits = rng.next();
        full.record(k, 32, bits, 16);
        sampled.record(k, 32, bits, 16);
    }
    const UarchReport a = full.report();
    const UarchReport b = sampled.report();
    EXPECT_NEAR(b.l1i_mpki, a.l1i_mpki, a.l1i_mpki * 0.5 + 0.1);
    EXPECT_NEAR(b.branch_mpki, a.branch_mpki, a.branch_mpki * 0.5 + 0.1);
}

/** End-to-end: instrumented transcodes of easy vs hard content. */
class InstrumentedEncode : public ::testing::Test
{
  protected:
    UarchReport
    profile(video::ContentClass content, double scale)
    {
        const video::SynthParams p = video::presetFor(
            content, 192, 160, 30.0, 6, 31, scale);
        const video::Video clip = video::synthesize(p);

        TraceSimulator sim;
        codec::EncoderConfig cfg;
        cfg.rc.mode = codec::RcMode::Cqp;
        cfg.rc.qp = 26;
        cfg.effort = 5;
        cfg.gop = 0;
        cfg.probe = &sim;
        codec::Encoder encoder(cfg);
        const codec::EncodeResult result = encoder.encode(clip);

        codec::DecoderConfig dcfg;
        dcfg.probe = &sim;
        EXPECT_TRUE(codec::decode(result.stream, dcfg).has_value());
        return sim.report();
    }
};

TEST_F(InstrumentedEncode, ProbeDoesNotPerturbTheBitstream)
{
    // Instrumentation must be observational: attaching a probe may not
    // change a single encode decision (the Platform scenario and all
    // uarch figures rest on this).
    const video::Video clip = video::synthesize(video::presetFor(
        video::ContentClass::Gaming, 160, 128, 30.0, 5, 77));
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 27;
    cfg.effort = 6;

    codec::Encoder plain(cfg);
    const codec::ByteBuffer without = plain.encode(clip).stream;

    TraceSimulator sim;
    cfg.probe = &sim;
    codec::Encoder probed(cfg);
    const codec::ByteBuffer with = probed.encode(clip).stream;

    EXPECT_EQ(without, with);
    EXPECT_GT(sim.report().instructions, 0);

    // Same contract for the next-generation encoder.
    ngc::NgcConfig ncfg;
    ncfg.rc.mode = codec::RcMode::Cqp;
    ncfg.rc.qp = 27;
    ncfg.speed = 1;
    const codec::ByteBuffer ngc_without =
        ngc::NgcEncoder(ncfg).encode(clip).stream;
    TraceSimulator ngc_sim;
    ncfg.probe = &ngc_sim;
    const codec::ByteBuffer ngc_with =
        ngc::NgcEncoder(ncfg).encode(clip).stream;
    EXPECT_EQ(ngc_without, ngc_with);
    EXPECT_GT(ngc_sim.report().instructions, 0);
}

/**
 * Records the probe's kernel stream as an FNV-1a fingerprint over
 * every (KernelId, units, decision_bits, n_decisions) in order. Memory
 * regions are left out: their addresses differ from run to run.
 */
class FingerprintProbe : public UarchProbe
{
  public:
    using UarchProbe::record;

    void
    record(KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions, std::initializer_list<MemRegion>) override
    {
        mix(static_cast<uint64_t>(id));
        mix(units);
        mix(decision_bits);
        mix(static_cast<uint64_t>(n_decisions));
        ++records;
    }

    uint64_t hash = 0xCBF29CE484222325ull;
    uint64_t records = 0;

  private:
    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xFF;
            hash *= 0x100000001B3ull;
        }
    }
};

video::Video
fingerprintClip()
{
    // Unaligned width: the padded edge column goes through the probe
    // path too.
    return video::synthesize(video::presetFor(
        video::ContentClass::Sports, 136, 96, 30.0, 4, 5150));
}

TEST(ProbeFingerprint, VbcKernelStreamIsPinned)
{
    // The fused probe path (analysis interleaved with entropy coding)
    // must emit exactly this kernel-record sequence; the uarch models
    // and every figure built on them consume it in order.
    FingerprintProbe probe;
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.effort = 6;
    cfg.gop = 3;
    cfg.probe = &probe;
    codec::Encoder(cfg).encode(fingerprintClip());
    EXPECT_EQ(probe.records, 4275u);
    EXPECT_EQ(probe.hash, 0x7daf5668c62c603eull);
}

// The exhaustive (SearchKind::Full) integer search: every candidate
// it visits counts in the motion-search records, so these pin its
// candidate and decision-bit stream too.
TEST(ProbeFingerprint, VbcEffort9KernelStreamIsPinned)
{
    FingerprintProbe probe;
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.effort = 9;
    cfg.gop = 3;
    cfg.probe = &probe;
    codec::Encoder(cfg).encode(fingerprintClip());
    EXPECT_EQ(probe.records, 4956u);
    EXPECT_EQ(probe.hash, 0x25c7e7880ecc6db9ull);
}

TEST(ProbeFingerprint, VbcEffort8KernelStreamIsPinned)
{
    FingerprintProbe probe;
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.effort = 8;
    cfg.gop = 3;
    cfg.probe = &probe;
    codec::Encoder(cfg).encode(fingerprintClip());
    EXPECT_EQ(probe.records, 4956u);
    EXPECT_EQ(probe.hash, 0xc93583a777390202ull);
}

TEST(ProbeFingerprint, NgcVp9Speed0KernelStreamIsPinned)
{
    FingerprintProbe probe;
    ngc::NgcConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.profile = ngc::NgcProfile::Vp9Like;
    cfg.speed = 0;
    cfg.gop = 3;
    cfg.probe = &probe;
    ngc::NgcEncoder(cfg).encode(fingerprintClip());
    EXPECT_EQ(probe.records, 5019u);
    EXPECT_EQ(probe.hash, 0xe54a9fc27c11652full);
}

TEST(ProbeFingerprint, NgcKernelStreamIsPinned)
{
    FingerprintProbe probe;
    ngc::NgcConfig cfg;
    cfg.rc.mode = codec::RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.speed = 1;
    cfg.gop = 3;
    cfg.probe = &probe;
    ngc::NgcEncoder(cfg).encode(fingerprintClip());
    EXPECT_EQ(probe.records, 5055u);
    EXPECT_EQ(probe.hash, 0xdeea7111af23fbe5ull);
}

TEST_F(InstrumentedEncode, ComplexContentExecutesMoreInstructionsPerPixel)
{
    const UarchReport quiet =
        profile(video::ContentClass::Slideshow, 1.0);
    const UarchReport noisy = profile(video::ContentClass::Noisy, 1.5);
    EXPECT_GT(noisy.instructions, 1.2 * quiet.instructions);
}

TEST_F(InstrumentedEncode, ComplexContentHasWorseFrontend)
{
    const UarchReport quiet =
        profile(video::ContentClass::Slideshow, 1.0);
    const UarchReport noisy = profile(video::ContentClass::Noisy, 1.5);
    EXPECT_GT(noisy.l1i_mpki, quiet.l1i_mpki);
    EXPECT_GT(noisy.branch_mpki, quiet.branch_mpki);
}

TEST_F(InstrumentedEncode, ScalarFractionDominates)
{
    const UarchReport rep = profile(video::ContentClass::Natural, 1.0);
    const double scalar = rep.cycles.scalarFraction();
    EXPECT_GT(scalar, 0.40);
    EXPECT_LT(scalar, 0.85);
}

TEST_F(InstrumentedEncode, TopDownFractionsAreSane)
{
    const UarchReport rep = profile(video::ContentClass::Natural, 1.0);
    EXPECT_NEAR(rep.topdown.total(), 1.0, 1e-9);
    EXPECT_GT(rep.topdown.retiring, 0.2);
    EXPECT_LT(rep.topdown.frontend, 0.5);
}

} // namespace
} // namespace vbench::uarch
