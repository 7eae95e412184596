#include "codec/decoder.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>

#include "codec/bitstream.h"
#include "codec/deblock.h"
#include "codec/interp.h"
#include "codec/intra.h"
#include "codec/mbinfo.h"
#include "codec/recon.h"
#include "codec/refplane.h"
#include "codec/residual.h"
#include "codec/syntax.h"

namespace vbench::codec {

namespace {

using uarch::KernelId;
using uarch::MemRegion;
using video::Frame;
using video::Plane;
using video::Video;

/** Per-sequence decoder state. */
class DecoderState
{
  public:
    DecoderState(const StreamHeader &header, uarch::UarchProbe *probe)
        : header_(header), probe_(probe),
          padded_w_((header.width + kMbSize - 1) & ~(kMbSize - 1)),
          padded_h_((header.height + kMbSize - 1) & ~(kMbSize - 1)),
          mb_cols_(padded_w_ / kMbSize), mb_rows_(padded_h_ / kMbSize)
    {
    }

    /** Decode one frame payload; false on malformed syntax. */
    bool
    decodeFrame(const uint8_t *payload, size_t size, Video &out)
    {
        if (size < 1)
            return false;
        const FrameType type = frameTypeFromByte(payload[0]);
        const int frame_qp = frameQpFromByte(payload[0]);
        // The header byte carries 6 QP bits (0..63); values past kMaxQp
        // never come from an encoder and would overrun the QP-indexed
        // deblock threshold tables.
        if (frame_qp < kMinQp || frame_qp > kMaxQp)
            return false;
        if (type == FrameType::I)
            refs_.clear();
        if (type == FrameType::P && refs_.empty())
            return false;

        recon_ = Frame(padded_w_, padded_h_);
        grid_ = MbGrid(mb_cols_, mb_rows_);

        // Each slice is a self-contained segment: fresh entropy
        // contexts, fresh QP-delta chain, prediction bounded by the
        // slice head.
        if (!walkSliceSegments(
                payload + 1, size - 1,
                static_cast<int>(header_.slice_count), mb_rows_,
                [&](const uint8_t *seg, size_t seg_size, int row_begin,
                    int row_end) {
                    return decodeSlice(seg, seg_size, type, frame_qp,
                                       row_begin, row_end);
                }))
            return false;

        if (header_.deblock)
            deblockFrame(recon_, grid_, probe_);

        refs_.push_front(RefFrame{RefPlane(recon_.y()),
                                  RefPlane(recon_.u()),
                                  RefPlane(recon_.v())});
        while (refs_.size() > std::max<size_t>(1, header_.num_refs))
            refs_.pop_back();

        out.append(cropOutput());
        return true;
    }

  private:
    Frame
    cropOutput() const
    {
        Frame out(header_.width, header_.height);
        video::padPlaneInto(recon_.y(), out.y());
        video::padPlaneInto(recon_.u(), out.u());
        video::padPlaneInto(recon_.v(), out.v());
        return out;
    }

    /** Decode MB rows [row_begin, row_end) from one slice segment. */
    bool
    decodeSlice(const uint8_t *seg, size_t seg_size, FrameType type,
                int frame_qp, int row_begin, int row_end)
    {
        std::unique_ptr<SyntaxReader> reader;
        if (header_.entropy == EntropyMode::Arith)
            reader = std::make_unique<ArithSyntaxReader>(seg, seg_size);
        else
            reader = std::make_unique<VlcSyntaxReader>(seg, seg_size);
        last_qp_ = frame_qp;

        double bits_done = 0;
        for (int mby = row_begin; mby < row_end; ++mby) {
            for (int mbx = 0; mbx < mb_cols_; ++mbx) {
                if (!decodeMacroblock(*reader, type, frame_qp, mbx, mby,
                                      row_begin))
                    return false;
                if (probe_) {
                    const double bits = reader->bitsConsumed();
                    probe_->record(
                        KernelId::DecodeParse,
                        std::max<uint64_t>(
                            1, static_cast<uint64_t>(bits - bits_done)),
                        parse_hash_, 64);
                    bits_done = bits;
                }
            }
        }
        return true;
    }

    bool
    decodeMacroblock(SyntaxReader &reader, FrameType type, int frame_qp,
                     int mbx, int mby, int slice_top)
    {
        const int x = mbx * kMbSize;
        const int y = mby * kMbSize;
        const int cx = mbx * 8;
        const int cy = mby * 8;
        MbInfo &info = grid_.at(mbx, mby);
        const MotionVector pred_mv = mvPredictor(grid_, mbx, mby,
                                                 slice_top);

        if (probe_)
            probe_->record(KernelId::Dispatch, 1);

        uint8_t pred_y[kMbSize * kMbSize];
        uint8_t pred_u[64];
        uint8_t pred_v[64];

        if (type == FrameType::P && reader.bit(ctx::kMbSkip)) {
            // Skip: predictor MV on reference 0, no residual. The MV is
            // clamped exactly as the encoder's skip candidate was
            // (identity for valid streams; bounds-safety for hostile
            // predictor chains).
            const MotionVector skip_mv = clampMvForBlock(
                pred_mv, x, y, kMbSize, kMbSize, padded_w_, padded_h_);
            info.mode = MbMode::Skip;
            info.mv = skip_mv;
            info.ref = 0;
            info.qp = static_cast<uint8_t>(last_qp_);
            info.coded = false;
            motionCompensate(refs_[0].y, x, y, skip_mv, kMbSize, kMbSize,
                             pred_y);
            const MotionVector cmv{static_cast<int16_t>(skip_mv.x >> 1),
                                   static_cast<int16_t>(skip_mv.y >> 1)};
            motionCompensate(refs_[0].u, cx, cy, cmv, 8, 8, pred_u);
            motionCompensate(refs_[0].v, cx, cy, cmv, 8, 8, pred_v);
            copyPrediction(recon_.y(), x, y, kMbSize, pred_y);
            copyPrediction(recon_.u(), cx, cy, 8, pred_u);
            copyPrediction(recon_.v(), cx, cy, 8, pred_v);
            return true;
        }

        MbMode mode = MbMode::Intra;
        if (type == FrameType::P) {
            if (reader.bit(ctx::kMbMode0)) {
                mode = MbMode::Inter16;
            } else {
                mode = reader.bit(ctx::kMbMode1) ? MbMode::Inter8
                                                 : MbMode::Intra;
            }
        }

        IntraMode luma_mode = IntraMode::Dc;
        IntraMode chroma_mode = IntraMode::Dc;
        MotionVector mv[4];
        int ref = 0;

        if (mode == MbMode::Intra) {
            int m = reader.bit(ctx::kIntraLuma);
            m |= reader.bit(ctx::kIntraLuma + 1) << 1;
            luma_mode = static_cast<IntraMode>(m);
            int cm = reader.bit(ctx::kIntraChroma);
            cm |= reader.bit(ctx::kIntraChroma + 1) << 1;
            chroma_mode = static_cast<IntraMode>(cm);
            if (!intraModeAvailable(luma_mode, x, y,
                                    slice_top * kMbSize) ||
                !intraModeAvailable(chroma_mode, cx, cy,
                                    slice_top * 8)) {
                return false;
            }
        } else {
            if (header_.num_refs > 1) {
                const uint32_t r = reader.ue(ctx::kRefIdx, 2);
                if (r >= refs_.size())
                    return false;
                ref = static_cast<int>(r);
            }
            const int parts = mode == MbMode::Inter8 ? 4 : 1;
            const int bs = mode == MbMode::Inter8 ? 8 : kMbSize;
            for (int part = 0; part < parts; ++part) {
                const int32_t dx = reader.se(ctx::kMvX, 4);
                const int32_t dy = reader.se(ctx::kMvY, 4);
                mv[part].x = static_cast<int16_t>(pred_mv.x + dx);
                mv[part].y = static_cast<int16_t>(pred_mv.y + dy);
                // Every compensated read (including the +1 sample of
                // half-pel filters) must stay inside the reference
                // padding, for this partition's actual position and
                // size.
                const int px = x + (part & 1) * 8;
                const int py = y + (part >> 1) * 8;
                const int ix = px + (mv[part].x >> 1);
                const int iy = py + (mv[part].y >> 1);
                if (ix < -kRefPad || iy < -kRefPad ||
                    ix + bs + 1 > padded_w_ + kRefPad ||
                    iy + bs + 1 > padded_h_ + kRefPad) {
                    return false;
                }
            }
        }

        int qp_mb = frame_qp;
        if (header_.adaptive_quant) {
            qp_mb = last_qp_ + reader.se(ctx::kQpDelta, 2);
            if (qp_mb < kMinQp || qp_mb > kMaxQp)
                return false;
            last_qp_ = qp_mb;
        }

        // Predictions.
        if (mode == MbMode::Intra) {
            intraPredict(luma_mode, recon_.y(), x, y, kMbSize, pred_y,
                         slice_top * kMbSize);
            intraPredict(chroma_mode, recon_.u(), cx, cy, 8, pred_u,
                         slice_top * 8);
            intraPredict(chroma_mode, recon_.v(), cx, cy, 8, pred_v,
                         slice_top * 8);
        } else if (mode == MbMode::Inter16) {
            motionCompensate(refs_[ref].y, x, y, mv[0], kMbSize, kMbSize,
                             pred_y);
            const MotionVector cmv{static_cast<int16_t>(mv[0].x >> 1),
                                   static_cast<int16_t>(mv[0].y >> 1)};
            motionCompensate(refs_[ref].u, cx, cy, cmv, 8, 8, pred_u);
            motionCompensate(refs_[ref].v, cx, cy, cmv, 8, 8, pred_v);
        } else {
            for (int part = 0; part < 4; ++part) {
                uint8_t temp[8 * 8];
                motionCompensate(refs_[ref].y, x + (part & 1) * 8,
                                 y + (part >> 1) * 8, mv[part], 8, 8,
                                 temp);
                for (int r = 0; r < 8; ++r)
                    for (int c = 0; c < 8; ++c)
                        pred_y[((part >> 1) * 8 + r) * kMbSize +
                               (part & 1) * 8 + c] = temp[r * 8 + c];
                uint8_t ctemp[4 * 4];
                const MotionVector cmv{
                    static_cast<int16_t>(mv[part].x >> 1),
                    static_cast<int16_t>(mv[part].y >> 1)};
                motionCompensate(refs_[ref].u, cx + (part & 1) * 4,
                                 cy + (part >> 1) * 4, cmv, 4, 4, ctemp);
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        pred_u[((part >> 1) * 4 + r) * 8 +
                               (part & 1) * 4 + c] = ctemp[r * 4 + c];
                motionCompensate(refs_[ref].v, cx + (part & 1) * 4,
                                 cy + (part >> 1) * 4, cmv, 4, 4, ctemp);
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        pred_v[((part >> 1) * 4 + r) * 8 +
                               (part & 1) * 4 + c] = ctemp[r * 4 + c];
            }
        }

        // Residuals.
        int16_t levels_y[16 * 16];
        int16_t levels_u[4 * 16];
        int16_t levels_v[4 * 16];
        int nonzero = 0;
        for (int b = 0; b < 16; ++b) {
            const int n = readResidualBlock(reader, levels_y + b * 16,
                                            true);
            if (n < 0)
                return false;
            nonzero += n;
        }
        for (int b = 0; b < 4; ++b) {
            const int n = readResidualBlock(reader, levels_u + b * 16,
                                            false);
            if (n < 0)
                return false;
            nonzero += n;
        }
        for (int b = 0; b < 4; ++b) {
            const int n = readResidualBlock(reader, levels_v + b * 16,
                                            false);
            if (n < 0)
                return false;
            nonzero += n;
        }

        int coded_blocks =
            reconstructBlock(recon_.y(), x, y, kMbSize, pred_y, levels_y,
                             qp_mb);
        coded_blocks += reconstructBlock(recon_.u(), cx, cy, 8, pred_u,
                                         levels_u, qp_mb);
        coded_blocks += reconstructBlock(recon_.v(), cx, cy, 8, pred_v,
                                         levels_v, qp_mb);
        if (probe_ && coded_blocks > 0) {
            probe_->record(KernelId::Dequant, coded_blocks);
            probe_->record(KernelId::TransformInv, coded_blocks);
            probe_->record(KernelId::Reconstruct, 24,
                           static_cast<uint64_t>(coded_blocks), 6);
        }

        info.mode = mode;
        info.mv = mv[0];
        info.ref = static_cast<int8_t>(ref);
        info.qp = static_cast<uint8_t>(qp_mb);
        info.coded = nonzero != 0;
        // Fold coefficient statistics into the parse decision hash so
        // the branch model sees real data-dependent outcomes.
        parse_hash_ = parse_hash_ * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(nonzero);
        return true;
    }

    StreamHeader header_;
    uarch::UarchProbe *probe_;
    int padded_w_;
    int padded_h_;
    int mb_cols_;
    int mb_rows_;

    Frame recon_;
    MbGrid grid_;
    std::deque<RefFrame> refs_;
    int last_qp_ = 26;
    uint64_t parse_hash_ = 0;
};

} // namespace

std::optional<Video>
decode(const uint8_t *data, size_t size, const DecoderConfig &config)
{
    return decodeStreams(
        data, size, kMagic, parseStreamHeader,
        [&](const StreamHeader &header) {
            return DecoderState(header, config.probe);
        },
        [&](DecoderState &state, const uint8_t *payload, size_t len,
            Video &out) {
            obs::ScopedSpan span(config.tracer, obs::Track::Decode,
                                 obs::Stage::DecodeFrame, out.frameCount());
            return state.decodeFrame(payload, len, out);
        });
}

} // namespace vbench::codec
