#pragma once

/**
 * @file
 * The frame-level skeleton both software encoders share. VBC
 * (macroblocks) and NGC (superblock quadtrees) differ in everything
 * inside a cell; around the cells they run the same per-sequence
 * machine, written here once:
 *
 *  - frame-thread and slice resolution (a uarch probe forces both to
 *    1), the sched::WavefrontRunner, per-worker stage accumulators;
 *  - the frame loop: GOP/segment frame typing, rate control
 *    (frameQp / frameDone), the reconstruction and reference list,
 *    the length-prefixed frame record, frame stats, the per-frame
 *    trace commit, cooperative cancellation;
 *  - the three frame modes:
 *     1. fused probe path — analysis and entropy interleaved cell by
 *        cell, so the probe sees the kernel-record order the uarch
 *        models expect;
 *     2. analysis — every cell, wavefront-parallel across rows at the
 *        policy's lag (one WavefrontRow span per row);
 *     3. entropy — a serial raster pass into the frame payload at one
 *        slice, or one band per worker into length-prefixed segments
 *        at several (one EntropySlice span per band).
 *
 * A codec is a policy class deriving from FrameDriver<Policy, Worker>
 * (CRTP, so every per-cell call is a direct call). It provides:
 *
 *   static constexpr int kLag;   // wavefront lag in cells
 *   void writeHeader(ByteBuffer &out) const;
 *   FrameType frameType(int index, FrameType gop_type) const;
 *   void beginFrame();               // FrameSetup, after src_ is padded
 *   void analyzeCell(int row, int col, Worker &worker);
 *   std::unique_ptr<SyntaxWriter> makeWriter(ByteBuffer &out) const;
 *   SliceState beginSlice() const;   // per-slice coder state
 *   void writeCell(int row, int col, SyntaxWriter &writer,
 *                  FrameStats &stats, SliceState &slice);
 *   void deblock();                  // in-loop filter on recon_
 *   // probe hooks (fused path only)
 *   uarch::KernelId entropyKernel() const;
 *   void mixEntropyHash(uint64_t &hash, int row, int col) const;
 *   uint64_t rateControlUnits() const;
 *
 * The policy reads the geometry, the slice bands, the frame's type and
 * QP, the padded source src_, recon_ and refs_ from the driver's
 * protected members. `Worker` is its per-wavefront-slot scratch; it
 * must carry `obs::StageAccum accum` and `obs::StageAccum *acc`
 * members.
 *
 * The same header holds the rate-control wrapper every encoder's
 * encode() runs through (encodeRateControlled): two-pass
 * orchestration and segment-chain (rc_in) restore, written once.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "codec/bitstream.h"
#include "codec/encoder.h"
#include "codec/ratecontrol.h"
#include "codec/refplane.h"
#include "codec/syntax.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sched/frame_threads.h"
#include "sched/wavefront.h"
#include "uarch/probe.h"
#include "video/video.h"

namespace vbench::codec {

template <class Policy, class Worker>
class FrameDriver
{
  public:
    /** Encode every frame of the source with the policy's cells. */
    EncodeResult
    run()
    {
        EncodeResult result;
        self().writeHeader(result.stream);

        for (int i = 0; i < source_.frameCount(); ++i) {
            if (cancelledNow())
                break;
            const uint64_t frame_start = tracer_ ? obs::nowNs() : 0;
            if (acc_)
                accum_.reset();
            frame_type_ = self().frameType(i, gopFrameType(i));
            {
                obs::ScopedStage rc(acc_, obs::Stage::RateControl);
                frame_qp_ = rate_.frameQp(frame_type_, i);
            }
            FrameStats stats;
            const ByteBuffer payload =
                encodeFrame(source_.frame(i), i, stats);
            if (cancelled_)
                break;  // truncated payload, result abandoned upstream
            appendU32(result.stream,
                      static_cast<uint32_t>(payload.size() + 1));
            result.stream.push_back(packFrameByte(frame_type_, frame_qp_));
            result.stream.insert(result.stream.end(), payload.begin(),
                                 payload.end());
            stats.type = frame_type_;
            stats.qp = frame_qp_;
            stats.bytes = payload.size() + 5;
            result.frames.push_back(stats);
            {
                obs::ScopedStage rc(acc_, obs::Stage::RateControl);
                rate_.frameDone(frame_type_, (payload.size() + 5) * 8.0);
            }
            if (tracer_)
                tracer_->addFrame(track_, i, frame_start, obs::nowNs(),
                                  accum_);
        }
        result.rc_state = rate_.snapshot();
        return result;
    }

  protected:
    /**
     * `config` is the codec's configuration (EncoderConfig or
     * NgcConfig: probe, tracer, cancel, gop, segment_frames,
     * frame_threads and slice_count are read); frames are padded to
     * whole `cell_size` cells (a power of two), and up to `max_refs`
     * reconstructed frames stay referenceable.
     */
    template <class Config>
    FrameDriver(const Config &config, obs::Track track, int cell_size,
                int max_refs, const video::Video &source,
                RateController &rate)
        : source_(source), rate_(rate), probe_(config.probe),
          tracer_(config.tracer ? config.tracer : obs::globalTracer()),
          acc_(tracer_ ? &accum_ : nullptr), cancel_(config.cancel),
          track_(track), gop_(config.gop),
          segment_frames_(config.segment_frames), max_refs_(max_refs),
          padded_w_((source.width() + cell_size - 1) & ~(cell_size - 1)),
          padded_h_((source.height() + cell_size - 1) & ~(cell_size - 1)),
          cols_(padded_w_ / cell_size), rows_(padded_h_ / cell_size)
    {
        int threads = config.frame_threads > 0
            ? std::min(config.frame_threads, sched::kMaxFrameThreads)
            : sched::decideFrameThreads(0).threads;
        // A uarch probe assumes serial, single-writer recording; the
        // wavefront would interleave its kernel stream nondeterministically.
        if (probe_)
            threads = 1;
        frame_threads_ = std::clamp(threads, 1, std::max(1, rows_));
        wctx_ = std::vector<Worker>(static_cast<size_t>(frame_threads_));
        for (Worker &wc : wctx_)
            wc.acc = tracer_ ? &wc.accum : nullptr;
        if (frame_threads_ > 1)
            runner_ = std::make_unique<sched::WavefrontRunner>(
                frame_threads_);
        if (tracer_)
            row_start_ns_.resize(static_cast<size_t>(rows_), 0);

        int slices = resolveSliceCount(config.slice_count);
        // The fused probe path interleaves analysis with a single
        // serial entropy writer; slices would change both the bytes
        // and the kernel-record order the uarch models expect.
        if (probe_)
            slices = 1;
        slice_count_ = std::clamp(
            slices, 1,
            std::min(static_cast<int>(kMaxSlices), std::max(1, rows_)));
        slice_row_start_.resize(static_cast<size_t>(slice_count_) + 1);
        for (int s = 0; s <= slice_count_; ++s)
            slice_row_start_[static_cast<size_t>(s)] =
                sliceRowStart(rows_, slice_count_, s);
        slice_top_row_.resize(static_cast<size_t>(rows_), 0);
        for (int s = 0; s < slice_count_; ++s)
            for (int r = slice_row_start_[static_cast<size_t>(s)];
                 r < slice_row_start_[static_cast<size_t>(s) + 1]; ++r)
                slice_top_row_[static_cast<size_t>(r)] =
                    slice_row_start_[static_cast<size_t>(s)];
    }

    static void
    toRational(double fps, uint32_t &num, uint32_t &den)
    {
        if (std::abs(fps - std::round(fps)) < 1e-9) {
            num = static_cast<uint32_t>(std::lround(fps));
            den = 1;
        } else {
            num = static_cast<uint32_t>(std::lround(fps * 1000));
            den = 1000;
        }
    }

    const video::Video &source_;
    RateController &rate_;
    uarch::UarchProbe *probe_;
    obs::Tracer *tracer_;
    obs::StageAccum accum_;   ///< the current frame's stage shares
    obs::StageAccum *acc_;    ///< &accum_ when tracing, else null
    const std::atomic<bool> *cancel_;
    obs::Track track_;
    int gop_;
    int segment_frames_;
    int max_refs_;
    int padded_w_;
    int padded_h_;
    int cols_;   ///< cells per row
    int rows_;   ///< cell rows

    int slice_count_ = 1;
    /// Band boundaries: slice s spans cell rows [start[s], start[s+1]).
    std::vector<int> slice_row_start_;
    /// Per cell row, the first row of its slice (spatial prediction
    /// must not read above it — slices decode independently).
    std::vector<int> slice_top_row_;

    FrameType frame_type_ = FrameType::I;  ///< frame being encoded
    int frame_qp_ = 0;                     ///< its rate-control QP
    video::Frame src_;                     ///< its source, padded
    video::Frame recon_;                   ///< its reconstruction
    std::deque<RefFrame> refs_;            ///< newest first

  private:
    Policy &self() { return static_cast<Policy &>(*this); }

    bool
    cancelledNow() const
    {
        return cancel_ && cancel_->load(std::memory_order_relaxed);
    }

    FrameType
    gopFrameType(int index) const
    {
        // Segment boundaries restart the GOP phase, so a segment
        // encode's frame k decides its type exactly like the
        // whole-file encode's frame k (split-and-stitch contract).
        const int phase = segment_frames_ > 0 ? index % segment_frames_
                                              : index;
        if (phase == 0)
            return FrameType::I;
        if (gop_ > 0 && phase % gop_ == 0)
            return FrameType::I;
        return FrameType::P;
    }

    /** Pad the source frame to whole cells by edge replication. */
    void
    padSource(const video::Frame &original)
    {
        src_ = video::Frame(padded_w_, padded_h_);
        video::padPlaneInto(original.y(), src_.y());
        video::padPlaneInto(original.u(), src_.u());
        video::padPlaneInto(original.v(), src_.v());
        if (probe_)
            probe_->record(uarch::KernelId::FrameCopy,
                           src_.pixelCount() / 64, 0, 0,
                           {uarch::MemRegion{
                               original.y().data(),
                               static_cast<uint32_t>(original.y().size()),
                               1, 0, false}});
    }

    /** Encode one frame and return its entropy payload. */
    ByteBuffer
    encodeFrame(const video::Frame &original, int frame_index,
                FrameStats &stats)
    {
        {
            obs::ScopedStage setup(acc_, obs::Stage::FrameSetup);
            if (frame_type_ == FrameType::I)
                refs_.clear();
            recon_ = video::Frame(padded_w_, padded_h_);
            padSource(original);
            self().beginFrame();
        }
        ByteBuffer payload;
        if (probe_) {
            encodeFused(payload, stats);
        } else if (!analyzeFrame(frame_index) ||
                   !writeFrame(payload, stats, frame_index)) {
            cancelled_ = true;
            return payload;
        }
        self().deblock();
        {
            obs::ScopedStage setup(acc_, obs::Stage::FrameSetup);
            refs_.push_front(RefFrame{RefPlane(recon_.y()),
                                      RefPlane(recon_.u()),
                                      RefPlane(recon_.v())});
            while (static_cast<int>(refs_.size()) > std::max(1, max_refs_))
                refs_.pop_back();
        }
        return payload;
    }

    /**
     * Fused serial path (a probe forces frame_threads = 1 and
     * slice_count = 1): entropy emission interleaves with every cell,
     * so the probe sees the exact kernel-record ordering the uarch
     * models (I-cache pressure in particular) expect. The stream is
     * identical to the two-phase path — analysis never reads writer
     * state.
     */
    void
    encodeFused(ByteBuffer &payload, FrameStats &stats)
    {
        Worker &wc = wctx_[0];
        const std::unique_ptr<SyntaxWriter> writer =
            self().makeWriter(payload);
        auto slice = self().beginSlice();
        const uarch::KernelId entropy_kernel = self().entropyKernel();
        double bits_done = 0;
        for (int row = 0; row < rows_; ++row) {
            for (int col = 0; col < cols_; ++col) {
                self().analyzeCell(row, col, wc);
                {
                    obs::ScopedStage ec(wc.acc, obs::Stage::EntropyCoding);
                    self().writeCell(row, col, *writer, stats, slice);
                }
                // Mix real coefficient data into the entropy decision
                // hash (probe-only state; the two-phase path never
                // reads it).
                self().mixEntropyHash(entropy_hash_, row, col);
                const double bits = writer->bitsWritten();
                probe_->record(
                    entropy_kernel,
                    std::max<uint64_t>(
                        1, static_cast<uint64_t>(bits - bits_done)),
                    entropy_hash_, 64);
                bits_done = bits;
            }
        }
        mergeWorkerStages();
        {
            obs::ScopedStage ec(acc_, obs::Stage::EntropyCoding);
            writer->finish();
        }
        probe_->record(uarch::KernelId::RateControl,
                       self().rateControlUnits());
    }

    /** Phase 1: analyze every cell; false if cancelled. */
    bool
    analyzeFrame(int frame_index)
    {
        const bool complete = runGrid(
            rows_, cols_, Policy::kLag, [&](int row, int col, int slot) {
                if (tracer_ && col == 0)
                    row_start_ns_[static_cast<size_t>(row)] = obs::nowNs();
                self().analyzeCell(row, col,
                                   wctx_[static_cast<size_t>(slot)]);
                if (tracer_ && col == cols_ - 1)
                    tracer_->addSpan(
                        track_, obs::Stage::WavefrontRow, frame_index,
                        row_start_ns_[static_cast<size_t>(row)],
                        obs::nowNs());
            });
        mergeWorkerStages();
        return complete;
    }

    /**
     * Phase 2: the entropy pass; false if cancelled. Single-slice
     * emits straight into the frame payload in raster order
     * (byte-identical to the pre-slice format); multi-slice emits each
     * band into its own buffer — coder state restarts at every slice
     * head, so bands are independent and run on the wavefront worker
     * set.
     */
    bool
    writeFrame(ByteBuffer &payload, FrameStats &stats, int frame_index)
    {
        if (slice_count_ == 1) {
            // Deblock and reference bookkeeping stay out of this
            // scope: they must not count toward the entropy tail the
            // slice bench compares against.
            obs::ScopedStage ec(acc_, obs::Stage::EntropyCoding);
            writeBand(0, payload, stats);
            return true;
        }

        std::vector<ByteBuffer> slice_bufs(
            static_cast<size_t>(slice_count_));
        std::vector<FrameStats> slice_stats(
            static_cast<size_t>(slice_count_));
        // One "row" per slice, no cross-row dependencies.
        const bool complete =
            runGrid(slice_count_, 1, /*lag=*/0, [&](int s, int, int slot) {
                const uint64_t start_ns = tracer_ ? obs::nowNs() : 0;
                {
                    obs::ScopedStage ec(
                        wctx_[static_cast<size_t>(slot)].acc,
                        obs::Stage::EntropyCoding);
                    writeBand(s, slice_bufs[static_cast<size_t>(s)],
                              slice_stats[static_cast<size_t>(s)]);
                }
                if (tracer_)
                    tracer_->addSpan(track_, obs::Stage::EntropySlice,
                                     frame_index, start_ns, obs::nowNs());
            });
        mergeWorkerStages();
        if (!complete)
            return false;
        for (const FrameStats &ss : slice_stats) {
            stats.intra_mbs += ss.intra_mbs;
            stats.skip_mbs += ss.skip_mbs;
        }
        for (const ByteBuffer &buf : slice_bufs) {
            appendU32(payload, static_cast<uint32_t>(buf.size()));
            payload.insert(payload.end(), buf.begin(), buf.end());
        }
        return true;
    }

    /** Entropy-code slice band `s` into `out` with fresh coder state. */
    void
    writeBand(int s, ByteBuffer &out, FrameStats &stats)
    {
        const std::unique_ptr<SyntaxWriter> writer = self().makeWriter(out);
        auto slice = self().beginSlice();
        for (int row = slice_row_start_[static_cast<size_t>(s)];
             row < slice_row_start_[static_cast<size_t>(s) + 1]; ++row)
            for (int col = 0; col < cols_; ++col)
                self().writeCell(row, col, *writer, stats, slice);
        writer->finish();
    }

    /**
     * Run `cell` over a rows x cols grid: on the wavefront runner when
     * frame_threads > 1, else serially with a cancellation check per
     * row. False if cancelled.
     */
    template <class Cell>
    bool
    runGrid(int rows, int cols, int lag, const Cell &cell)
    {
        if (frame_threads_ > 1)
            return runner_->run(rows, cols, lag, cell, cancel_);
        for (int row = 0; row < rows; ++row) {
            if (cancelledNow())
                return false;
            for (int col = 0; col < cols; ++col)
                cell(row, col, 0);
        }
        return true;
    }

    /** Fold every worker's stage shares into the frame's. */
    void
    mergeWorkerStages()
    {
        if (!acc_)
            return;
        for (Worker &wc : wctx_) {
            accum_.addFrom(wc.accum);
            wc.accum.reset();
        }
    }

    int frame_threads_ = 1;
    std::unique_ptr<sched::WavefrontRunner> runner_;
    std::vector<Worker> wctx_;
    std::vector<uint64_t> row_start_ns_;
    bool cancelled_ = false;
    uint64_t entropy_hash_ = 0;
};

/**
 * A codec config turned into its first-pass (analysis) config:
 * constant QP kFirstPassQp over `source`, no carried rate-control
 * state. The codec then picks its fast tools.
 */
template <class Config>
Config
firstPassConfig(Config config, const video::Video &source)
{
    config.rc.mode = RcMode::Cqp;
    config.rc.qp = kFirstPassQp;
    config.rc.fps = source.fps();
    config.rc.pixels_per_frame =
        static_cast<double>(source.pixelsPerFrame());
    config.rc_in.reset();
    config.pass_one = nullptr;
    return config;
}

/** Per-frame first-pass bits, the table two-pass budgets from. */
inline PassOneStats
passOneStatsFrom(const EncodeResult &first)
{
    PassOneStats stats;
    for (const FrameStats &f : first.frames)
        stats.frame_bits.push_back(f.bytes * 8.0);
    return stats;
}

/**
 * Rate-controlled encode of `source` under `config` (EncoderConfig or
 * NgcConfig). Builds the controller and hands it to
 * `encode(RateController &)`, the codec's sequence encode. Two-pass
 * first installs pass-one stats: the config's whole-clip table when
 * given, else the stats of `first_pass()` (the codec's analysis
 * encode, wall-clock visible to the caller). A segment chain's rc_in
 * is restored last.
 */
template <class Config, class FirstPass, class Encode>
EncodeResult
encodeRateControlled(const Config &config, const video::Video &source,
                     FirstPass &&first_pass, Encode &&encode)
{
    RateControlConfig rc = config.rc;
    rc.fps = source.fps();
    rc.pixels_per_frame = static_cast<double>(source.pixelsPerFrame());

    if (rc.mode == RcMode::TwoPass) {
        PassOneStats stats;
        if (config.pass_one) {
            stats = *config.pass_one;
        } else {
            EncodeResult first = first_pass();
            if (config.cancel &&
                config.cancel->load(std::memory_order_relaxed))
                return first;  // abandoned upstream; skip second pass
            stats = passOneStatsFrom(first);
        }

        RateController rate(rc);
        rate.setPassOneStats(stats);
        // With whole-clip stats, local frame indices shift by the
        // frames already encoded; with segment-local stats the budget
        // table starts at this segment's frame 0.
        if (config.rc_in)
            rate.restore(*config.rc_in,
                         config.pass_one ? config.rc_in->frames_done : 0);
        return encode(rate);
    }

    RateController rate(rc);
    if (config.rc_in)
        rate.restore(*config.rc_in);
    return encode(rate);
}

} // namespace vbench::codec
