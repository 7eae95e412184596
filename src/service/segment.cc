#include "service/segment.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "codec/stitch.h"
#include "ngc/ngc_bitstream.h"

namespace vbench::service {

std::vector<video::Video>
splitVideo(const video::Video &source, int segment_frames)
{
    std::vector<video::Video> segments;
    if (segment_frames <= 0 || source.empty())
        return segments;
    for (int begin = 0; begin < source.frameCount();
         begin += segment_frames) {
        const int end =
            std::min(begin + segment_frames, source.frameCount());
        video::Video seg(source.width(), source.height(), source.fps(),
                         source.name());
        for (int i = begin; i < end; ++i)
            seg.append(source.frame(i));
        segments.push_back(std::move(seg));
    }
    return segments;
}

namespace {

/**
 * The segment chain for one codec: `Encoder` runs each segment,
 * `collect` is the codec's pass-one stats collector and `stitch` its
 * stream stitcher.
 */
template <class Encoder, class Config, class Collect, class Stitch>
SegmentedEncodeResult
encodeSegmented(const Config &base, const video::Video &source,
                int segment_frames, const Collect &collect,
                const Stitch &stitch)
{
    SegmentedEncodeResult result;
    const std::vector<video::Video> parts =
        splitVideo(source, segment_frames);
    if (parts.empty()) {
        result.error = "no segments (empty source or segment_frames<=0)";
        return result;
    }

    Config cfg = base;
    cfg.segment_frames = segment_frames;
    cfg.rc_in.reset();
    cfg.pass_one = nullptr;

    // Two-pass exactness: pass 1 is a closed-GOP constant-QP encode,
    // so each segment's pass-1 frame bits equal the whole-file pass's
    // — concatenating them reproduces the whole-clip stat table, and
    // every segment's controller then computes the same budgets the
    // whole-file encode would.
    codec::PassOneStats whole_clip_stats;
    if (cfg.rc.mode == codec::RcMode::TwoPass) {
        for (const video::Video &part : parts) {
            const codec::PassOneStats s = collect(cfg, part);
            whole_clip_stats.frame_bits.insert(
                whole_clip_stats.frame_bits.end(), s.frame_bits.begin(),
                s.frame_bits.end());
        }
        cfg.pass_one = &whole_clip_stats;
    }

    std::optional<codec::RcSnapshot> carry;
    for (const video::Video &part : parts) {
        Config seg_cfg = cfg;
        seg_cfg.rc_in = carry;
        codec::EncodeResult encoded = Encoder(seg_cfg).encode(part);
        carry = encoded.rc_state;
        result.segments.push_back(std::move(encoded.stream));
    }

    const std::optional<codec::ByteBuffer> stitched =
        stitch(result.segments);
    if (!stitched) {
        result.error = "segment streams did not stitch";
        return result;
    }
    result.stitched = *stitched;
    result.ok = true;
    return result;
}

} // namespace

SegmentedEncodeResult
encodeSegmentedVbc(const codec::EncoderConfig &base,
                   const video::Video &source, int segment_frames)
{
    return encodeSegmented<codec::Encoder>(base, source, segment_frames,
                                           codec::collectPassOneStats,
                                           codec::stitchStreams);
}

SegmentedEncodeResult
encodeSegmentedNgc(const ngc::NgcConfig &base, const video::Video &source,
                   int segment_frames)
{
    return encodeSegmented<ngc::NgcEncoder>(base, source, segment_frames,
                                            ngc::collectNgcPassOneStats,
                                            ngc::stitchNgcStreams);
}

} // namespace vbench::service
