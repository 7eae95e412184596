#include "ngc/ngc_decoder.h"

#include <algorithm>
#include <cstdlib>
#include <deque>

#include "codec/deblock.h"
#include "codec/interp.h"
#include "codec/refplane.h"
#include "codec/syntax.h"
#include "codec/transform.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_bitstream.h"
#include "ngc/ngc_intra.h"
#include "ngc/ngc_residual.h"
#include "ngc/transform8.h"

namespace vbench::ngc {

namespace {

using codec::FrameType;
using codec::MbGrid;
using codec::MotionVector;
using codec::RefFrame;
using codec::RefPlane;
using codec::SyntaxReader;
using uarch::KernelId;
using video::Frame;
using video::Plane;
using video::Video;

namespace ctx = codec::ctx;

class NgcDecoderState
{
  public:
    NgcDecoderState(const NgcStreamHeader &header, uarch::UarchProbe *probe)
        : header_(header), probe_(probe),
          padded_w_((header.width + kSbSize - 1) & ~(kSbSize - 1)),
          padded_h_((header.height + kSbSize - 1) & ~(kSbSize - 1)),
          sb_cols_(padded_w_ / kSbSize), sb_rows_(padded_h_ / kSbSize)
    {
    }

    bool
    decodeFrame(const uint8_t *payload, size_t size, Video &out)
    {
        if (size < 1)
            return false;
        const FrameType type = codec::frameTypeFromByte(payload[0]);
        qp_ = codec::frameQpFromByte(payload[0]);
        // The header byte carries 6 QP bits (0..63); values past kMaxQp
        // never come from an encoder and would overrun the QP-indexed
        // deblock threshold tables.
        if (qp_ < codec::kMinQp || qp_ > codec::kMaxQp)
            return false;
        if (type == FrameType::I)
            refs_.clear();
        if (type == FrameType::P && refs_.empty())
            return false;

        recon_ = Frame(padded_w_, padded_h_);
        cells_ = CellGrid(padded_w_ / 8, padded_h_ / 8);

        // Each slice is a self-contained segment with fresh arithmetic
        // contexts.
        if (!codec::walkSliceSegments(
                payload + 1, size - 1,
                static_cast<int>(header_.slice_count), sb_rows_,
                [&](const uint8_t *seg, size_t seg_size, int row_begin,
                    int row_end) {
                    return decodeSlice(seg, seg_size, type, row_begin,
                                       row_end);
                }))
            return false;

        if (header_.deblock)
            deblockMapped();

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
        auto crop = [](const Plane &in, Plane &dst) {
            for (int y = 0; y < dst.height(); ++y) {
                const uint8_t *src_row = in.row(y);
                uint8_t *dst_row = dst.row(y);
                for (int x = 0; x < dst.width(); ++x)
                    dst_row[x] = src_row[x];
            }
        };
        crop(recon_.y(), out.y());
        crop(recon_.u(), out.u());
        crop(recon_.v(), out.v());
        return out;
    }

    void
    deblockMapped()
    {
        MbGrid grid(padded_w_ / 16, padded_h_ / 16);
        for (int mby = 0; mby < grid.rows(); ++mby) {
            for (int mbx = 0; mbx < grid.cols(); ++mbx) {
                codec::MbInfo &info = grid.at(mbx, mby);
                bool any_intra = false;
                bool any_coded = false;
                for (int dy = 0; dy < 2; ++dy) {
                    for (int dx = 0; dx < 2; ++dx) {
                        const CellInfo &cell =
                            cells_.at(mbx * 2 + dx, mby * 2 + dy);
                        any_intra |= cell.mode == CuMode::Intra;
                        any_coded |= cell.coded;
                    }
                }
                const CellInfo &cell = cells_.at(mbx * 2, mby * 2);
                info.mode = any_intra ? codec::MbMode::Intra
                                      : codec::MbMode::Inter16;
                info.mv = cell.mv;
                info.ref = cell.ref;
                info.qp = static_cast<uint8_t>(qp_);
                info.coded = any_coded;
            }
        }
        codec::deblockFrame(recon_, grid, probe_);
    }

    /** Decode SB rows [row_begin, row_end) from one slice segment. */
    bool
    decodeSlice(const uint8_t *seg, size_t seg_size, FrameType type,
                int row_begin, int row_end)
    {
        codec::ArithSyntaxReader reader(seg, seg_size,
                                        nctx::kNumContexts);
        const int slice_top_px = row_begin * kSbSize;
        double bits_done = 0;
        for (int sby = row_begin; sby < row_end; ++sby) {
            for (int sbx = 0; sbx < sb_cols_; ++sbx) {
                if (!decodeTree(reader, sbx * kSbSize, sby * kSbSize,
                                kSbSize, 0, type, slice_top_px)) {
                    return false;
                }
                if (probe_) {
                    const double bits = reader.bitsConsumed();
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
    decodeTree(SyntaxReader &reader, int x, int y, int size, int depth,
               FrameType type, int slice_top_px)
    {
        bool split = false;
        if (size > kMinCu)
            split = reader.bit(nctx::kSplit + std::min(depth, 1)) != 0;
        if (split) {
            const int half = size / 2;
            for (int q = 0; q < 4; ++q) {
                if (!decodeTree(reader, x + (q & 1) * half,
                                y + (q >> 1) * half, half, depth + 1,
                                type, slice_top_px)) {
                    return false;
                }
            }
            return true;
        }
        return decodeLeaf(reader, x, y, size, type, slice_top_px);
    }

    bool
    decodeLeaf(SyntaxReader &reader, int x, int y, int size,
               FrameType type, int slice_top_px)
    {
        if (probe_)
            probe_->record(KernelId::Dispatch, size * size / 256 + 1);

        const MotionVector pred_mv =
            cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
        const int csize = size / 2;
        const int cx = x / 2;
        const int cy = y / 2;

        uint8_t pred_y[kSbSize * kSbSize];
        uint8_t pred_u[16 * 16];
        uint8_t pred_v[16 * 16];

        bool skip = false;
        bool inter = false;
        MotionVector mv{};
        int ref = 0;
        NgcIntraMode intra_mode = NgcIntraMode::Dc;

        if (type == FrameType::P)
            skip = reader.bit(nctx::kSkip) != 0;

        if (skip) {
            mv = codec::clampMvForBlock(pred_mv, x, y, size, size,
                                        padded_w_, padded_h_);
            inter = true;
        } else if (type == FrameType::P &&
                   reader.bit(nctx::kIsInter) != 0) {
            inter = true;
            if (header_.num_refs > 1) {
                const uint32_t r = reader.ue(ctx::kRefIdx, 2);
                if (r >= refs_.size())
                    return false;
                ref = static_cast<int>(r);
            }
            mv.x = static_cast<int16_t>(pred_mv.x +
                                        reader.se(ctx::kMvX, 4));
            mv.y = static_cast<int16_t>(pred_mv.y +
                                        reader.se(ctx::kMvY, 4));
            // Every compensated read (including the +1 of half-pel
            // filtering) must stay inside the reference padding.
            const int ix = x + (mv.x >> 1);
            const int iy = y + (mv.y >> 1);
            if (ix < -codec::kRefPad || iy < -codec::kRefPad ||
                ix + size + 1 > padded_w_ + codec::kRefPad ||
                iy + size + 1 > padded_h_ + codec::kRefPad) {
                return false;
            }
        } else {
            const uint32_t m = reader.ue(nctx::kIntraMode, 3);
            if (m >= kNgcIntraModes)
                return false;
            intra_mode = static_cast<NgcIntraMode>(m);
            if (!ngcIntraAvailable(intra_mode, x, y, slice_top_px))
                return false;
        }

        // Predictions.
        if (inter) {
            codec::motionCompensate(refs_[ref].y, x, y, mv, size, size,
                                    pred_y);
            const MotionVector cmv{static_cast<int16_t>(mv.x >> 1),
                                   static_cast<int16_t>(mv.y >> 1)};
            codec::motionCompensate(refs_[ref].u, cx, cy, cmv, csize,
                                    csize, pred_u);
            codec::motionCompensate(refs_[ref].v, cx, cy, cmv, csize,
                                    csize, pred_v);
        } else {
            const int ctop = slice_top_px / 2;
            ngcIntraPredict(intra_mode, recon_.y(), x, y, size, pred_y,
                            slice_top_px);
            const NgcIntraMode cmode =
                ngcIntraAvailable(intra_mode, cx, cy, ctop)
                    ? intra_mode
                    : NgcIntraMode::Dc;
            ngcIntraPredict(cmode, recon_.u(), cx, cy, csize, pred_u,
                            ctop);
            ngcIntraPredict(cmode, recon_.v(), cx, cy, csize, pred_v,
                            ctop);
        }

        int nonzero = 0;
        if (skip) {
            copyBlock(recon_.y(), x, y, size, pred_y, size);
            copyBlock(recon_.u(), cx, cy, csize, pred_u, csize);
            copyBlock(recon_.v(), cx, cy, csize, pred_v, csize);
        } else {
            // Luma TUs.
            const int tus = size / 8;
            int inv_blocks = 0;
            for (int ty = 0; ty < tus; ++ty) {
                for (int tx = 0; tx < tus; ++tx) {
                    int16_t dc[4];
                    int16_t ac[64];
                    const int n = readTu8(reader, dc, ac, true);
                    if (n < 0)
                        return false;
                    nonzero += n;
                    int16_t residual[64];
                    inverseTransform8x8(dc, ac, qp_, residual);
                    addBlock(recon_.y(), x + tx * 8, y + ty * 8, 8,
                             pred_y + ty * 8 * size + tx * 8, size,
                             residual, 8);
                    ++inv_blocks;
                }
            }
            // Chroma TUs.
            const int ctus = csize >= 8 ? csize / 8 : 0;
            for (int plane = 0; plane < 2; ++plane) {
                Plane &rplane = plane == 0 ? recon_.u() : recon_.v();
                const uint8_t *pred_c = plane == 0 ? pred_u : pred_v;
                if (ctus > 0) {
                    for (int ty = 0; ty < ctus; ++ty) {
                        for (int tx = 0; tx < ctus; ++tx) {
                            int16_t dc[4];
                            int16_t ac[64];
                            const int n = readTu8(reader, dc, ac, false);
                            if (n < 0)
                                return false;
                            nonzero += n;
                            int16_t residual[64];
                            inverseTransform8x8(dc, ac, qp_, residual);
                            addBlock(rplane, cx + tx * 8, cy + ty * 8, 8,
                                     pred_c + ty * 8 * csize + tx * 8,
                                     csize, residual, 8);
                            ++inv_blocks;
                        }
                    }
                } else {
                    int16_t levels[16];
                    if (codec::readResidualBlock(reader, levels, false) <
                        0) {
                        return false;
                    }
                    int32_t coefs[16];
                    int16_t residual[16];
                    codec::dequantize4x4(levels, coefs, qp_);
                    codec::inverseTransform4x4(coefs, residual);
                    addBlock(rplane, cx, cy, 4, pred_c, 4, residual, 4);
                    ++inv_blocks;
                }
            }
            if (probe_ && inv_blocks > 0) {
                probe_->record(KernelId::Dequant, inv_blocks * 4);
                probe_->record(KernelId::TransformInv, inv_blocks * 4);
                probe_->record(KernelId::Reconstruct,
                               static_cast<uint64_t>(size) * size / 16,
                               static_cast<uint64_t>(inv_blocks), 6);
            }
        }

        for (int dy = 0; dy < size / 8; ++dy) {
            for (int dx = 0; dx < size / 8; ++dx) {
                CellInfo &cell = cells_.at(x / 8 + dx, y / 8 + dy);
                cell.mode = skip ? CuMode::Skip
                                 : (inter ? CuMode::Inter : CuMode::Intra);
                cell.mv = inter ? mv : MotionVector{};
                cell.ref = static_cast<int8_t>(ref);
                cell.coded = nonzero != 0;
            }
        }
        parse_hash_ = parse_hash_ * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(nonzero);
        return true;
    }

    static void
    copyBlock(Plane &dst, int x, int y, int n, const uint8_t *src,
              int stride)
    {
        kernels::ops().copy2d(src, stride, dst.row(y) + x, dst.width(),
                              n, n);
    }

    static void
    addBlock(Plane &dst, int x, int y, int n, const uint8_t *pred,
             int pred_stride, const int16_t *residual, int res_stride)
    {
        kernels::ops().addClampBlock(pred, pred_stride, residual,
                                     res_stride, dst.row(y) + x,
                                     dst.width(), n, n);
    }

    NgcStreamHeader header_;
    uarch::UarchProbe *probe_;
    int padded_w_;
    int padded_h_;
    int sb_cols_;
    int sb_rows_;

    Frame recon_;
    CellGrid cells_;
    std::deque<RefFrame> refs_;
    int qp_ = 26;
    uint64_t parse_hash_ = 0;
};

} // namespace

std::optional<Video>
ngcDecode(const uint8_t *data, size_t size, const NgcDecoderConfig &config)
{
    return codec::decodeStreams(
        data, size, kNgcMagic, parseNgcHeader,
        [&](const NgcStreamHeader &header) {
            return NgcDecoderState(header, config.probe);
        },
        [](NgcDecoderState &state, const uint8_t *payload, size_t len,
           Video &out) { return state.decodeFrame(payload, len, out); });
}

} // namespace vbench::ngc
