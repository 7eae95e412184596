#pragma once

/**
 * @file
 * Rate control: constant QP, CRF, single-pass ABR, and two-pass ABR
 * (paper §2.2). The controller picks a frame QP before encoding and is
 * told the spent bits afterwards.
 */

#include <cstdint>
#include <vector>

#include "codec/types.h"

namespace vbench::codec {

/**
 * Finest quantizer bitrate-driven modes will use. Below this QP extra
 * bits buy nothing visible, so ABR/two-pass saturate instead of
 * spending the whole budget on trivially-compressible content (the
 * qpmin behaviour of production encoders).
 */
inline constexpr int kMinRateControlQp = 12;

/** Rate control modes. */
enum class RcMode : uint8_t {
    Cqp,      ///< fixed quantizer
    Crf,      ///< constant rate factor: fixed quality, free bitrate
    Abr,      ///< single-pass average bitrate with feedback
    TwoPass,  ///< bitrate with per-frame budgets from a first pass
};

/** Controller configuration. */
struct RateControlConfig {
    RcMode mode = RcMode::Crf;
    int qp = 26;               ///< for Cqp
    double crf = 23.0;         ///< for Crf (QP-scaled, as in libx264)
    double bitrate_bps = 0.0;  ///< for Abr / TwoPass
    double fps = 30.0;
    double pixels_per_frame = 0;  ///< for the initial-QP model
    /// Finest QP bitrate-driven modes may pick. Production software
    /// saturates at kMinRateControlQp; fixed-function hardware rate
    /// control keeps spending (its low-entropy failure mode).
    int min_qp = kMinRateControlQp;
    int ip_qp_offset = 3;      ///< I frames run this much finer
};

/** The fixed quantizer every two-pass analysis pass encodes at. */
inline constexpr int kFirstPassQp = 30;

/** First-pass per-frame complexity record. */
struct PassOneStats {
    std::vector<double> frame_bits;  ///< bits each frame took in pass 1
    int pass_qp = kFirstPassQp;      ///< QP pass 1 ran at
};

/**
 * Serializable mid-stream controller state: everything the feedback
 * loop accumulates while encoding. Exported after a segment encode and
 * restored into the next segment's controller, it makes a chain of
 * independent segment encodes spend bits exactly like one whole-file
 * encode would — the split-and-stitch pipeline's rate-control carry
 * (see docs/SERVICE.md).
 */
struct RcSnapshot {
    double spent_bits = 0;    ///< bits emitted so far
    double planned_bits = 0;  ///< bits budgeted so far
    int frames_done = 0;      ///< frames completed so far
};

/**
 * Frame-level rate controller. For TwoPass, feed setPassOneStats()
 * before the second pass.
 */
class RateController
{
  public:
    explicit RateController(const RateControlConfig &config);

    /** QP to encode the next frame at. */
    int frameQp(FrameType type, int frame_index) const;

    /** Report the bits the frame actually consumed. */
    void frameDone(FrameType type, double bits);

    /** Install first-pass statistics (switches budgeting on). */
    void setPassOneStats(const PassOneStats &stats);

    /** Target bits for a frame (0 when not bitrate-constrained). */
    double targetBits(int frame_index) const;

    /** Export the accumulated feedback state (segment chaining). */
    RcSnapshot snapshot() const;

    /**
     * Resume mid-stream from a prior segment's snapshot. Local frame
     * indices are shifted by @p budget_index_offset when looking up
     * two-pass budgets; pass the snapshot's frames_done when the
     * installed PassOneStats cover the whole clip (exact chaining), or
     * 0 when they cover only this segment. Defaults to frames_done.
     */
    void restore(const RcSnapshot &state, int budget_index_offset = -1);

  private:
    int abrQp(FrameType type) const;

    RateControlConfig config_;
    PassOneStats pass_one_;
    std::vector<double> budgets_;  ///< per-frame bit budgets (two-pass)
    double spent_bits_ = 0;
    double planned_bits_ = 0;
    int frames_done_ = 0;
    int index_offset_ = 0;  ///< local→global frame index (segments)
    int base_qp_ = 26;
};

} // namespace vbench::codec
