#pragma once

/**
 * @file
 * VBC encoder: the software transcoder core (libx264 analogue).
 */

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "codec/preset.h"
#include "codec/ratecontrol.h"
#include "codec/types.h"
#include "obs/trace.h"
#include "uarch/probe.h"
#include "video/video.h"

namespace vbench::codec {

/** Full encoder configuration. */
struct EncoderConfig {
    RateControlConfig rc;
    int gop = 30;            ///< I-frame interval; <= 0 means first only
    int effort = 5;          ///< 0..9 preset dial (paper §2.2)
    int entropy_override = -1;  ///< -1 auto, else EntropyMode value
    int deblock_override = -1;  ///< -1 auto, else 0/1
    /// Explicit tool set, bypassing the effort dial (used by the
    /// fixed-function hardware encoder models, whose tools are frozen
    /// in silicon rather than selected by a preset).
    std::optional<ToolPreset> tools_override;
    uarch::UarchProbe *probe = nullptr;
    /// Stage tracer; null (the default) falls back to the
    /// env-configured obs::globalTracer(), and with neither attached
    /// every instrumentation point costs one branch, same contract as
    /// the null probe.
    obs::Tracer *tracer = nullptr;
    /// Trace track frames are committed to (the hardware models run
    /// this encoder with frozen tools and relabel their timeline).
    obs::Track track = obs::Track::VbcEncode;
    /**
     * Intra-frame wavefront parallelism: macroblock rows analyzed in
     * flight at once. <= 0 resolves VBENCH_FRAME_THREADS through the
     * sched::decideFrameThreads() oversubscription guard; callers that
     * already ran the guard (core::transcode) pass the decided width.
     * The bitstream is bit-exact for every value — entropy coding is
     * a serial pass over the completed row records. Forced to 1 when a
     * uarch probe is attached (probes assume serial recording).
     */
    int frame_threads = 0;
    /**
     * Entropy slice bands per frame. Each slice is a horizontal band of
     * whole MB rows with its own length-prefixed bitstream segment;
     * entropy contexts, the QP-delta chain, and spatial prediction
     * (intra neighbors, the MV predictor) reset at the slice head, so
     * the entropy pass runs slice-parallel on the wavefront worker set.
     * <= 0 resolves VBENCH_SLICES (core::RuntimeConfig); 1 is the
     * legacy single-segment payload, byte-identical to pre-slice
     * streams at every thread width. Clamped to the frame's MB row
     * count and codec::kMaxSlices. Forced to 1 when a uarch probe is
     * attached (probes take the fused serial path).
     */
    int slice_count = 0;
    /// Cooperative cancellation: checked between rows and frames; a
    /// cancelled encode returns a truncated (unusable) result quickly.
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Split-and-stitch: force an IDR and restart the GOP phase every N
     * source frames (<= 0 off). With the phase reset, frame k of a
     * segment encode picks the same type as frame k of the whole-file
     * encode, which is what makes stitched segment streams byte-equal
     * to the whole-file closed-GOP stream (see codec/stitch.h).
     */
    int segment_frames = 0;
    /// Rate-controller state carried in from the preceding segment of
    /// a split-and-stitch chain; empty starts fresh.
    std::optional<RcSnapshot> rc_in;
    /**
     * Two-pass only: whole-clip pass-1 stats collected externally (via
     * collectPassOneStats on each segment, concatenated). When set the
     * internal analysis pass is skipped and budget lookups are shifted
     * by rc_in->frames_done so each segment reads its global budgets.
     * When null, two-pass runs its own pass 1 over the given input.
     */
    const PassOneStats *pass_one = nullptr;
};

/** Per-frame outcome. */
struct FrameStats {
    FrameType type = FrameType::I;
    int qp = 0;
    size_t bytes = 0;       ///< frame record size incl. headers
    uint32_t intra_mbs = 0;
    uint32_t skip_mbs = 0;
};

/** Encode outcome: the bitstream plus statistics. */
struct EncodeResult {
    ByteBuffer stream;
    std::vector<FrameStats> frames;
    /// Rate-controller state after the last frame — feed into the next
    /// segment's EncoderConfig::rc_in to chain a split-and-stitch
    /// encode.
    RcSnapshot rc_state;

    size_t totalBytes() const { return stream.size(); }
};

/**
 * The encoder. One instance encodes one clip (stateless between
 * encode() calls apart from configuration).
 */
class Encoder
{
  public:
    explicit Encoder(const EncoderConfig &config);

    /**
     * Encode a clip. Two-pass rate control runs both passes
     * internally (wall-clock cost is visible to the caller, exactly
     * as the paper's speed metric requires).
     */
    EncodeResult encode(const video::Video &source);

    /** The tool preset the configured effort resolves to. */
    const ToolPreset &tools() const { return tools_; }

  private:
    EncoderConfig config_;
    ToolPreset tools_;
};

/**
 * The effective entropy slice count of a configured one: values > 0
 * stand, 0 (or below) means VBENCH_SLICES (core::RuntimeConfig). Every
 * encoder and every caller that pins the count into a job description
 * resolves it here.
 */
int resolveSliceCount(int slice_count);

/**
 * Run the two-pass analysis pass (the same fast constant-QP encode
 * Encoder::encode runs internally) and return its per-frame stats.
 * Segment chains concatenate the stats of every segment — pass 1 is
 * closed-GOP constant-QP, so per-segment frame bits equal the
 * whole-file ones — and hand the result to EncoderConfig::pass_one.
 */
PassOneStats collectPassOneStats(const EncoderConfig &config,
                                 const video::Video &source);

} // namespace vbench::codec
