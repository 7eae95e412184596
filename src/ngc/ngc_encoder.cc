#include "ngc/ngc_encoder.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "codec/deblock.h"
#include "codec/frame_driver.h"
#include "codec/interp.h"
#include "codec/me.h"
#include "codec/syntax.h"
#include "codec/transform.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_bitstream.h"
#include "ngc/ngc_intra.h"
#include "ngc/ngc_residual.h"
#include "ngc/transform8.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace vbench::ngc {

namespace {

using codec::ByteBuffer;
using codec::EncodeResult;
using codec::FrameStats;
using codec::FrameType;
using codec::MbGrid;
using codec::MeContext;
using codec::MeResult;
using codec::MotionVector;
using codec::RateController;
using codec::SearchKind;
using codec::SyntaxWriter;
using uarch::KernelId;
using video::Frame;
using video::Plane;
using video::Video;

namespace ctx = codec::ctx;

/** Search/tool parameters resolved from (profile, speed). */
struct NgcTools {
    SearchKind search = SearchKind::Hex;
    int range = 16;
    bool subpel = true;
    int subpel_iters = 2;
    int refs = 2;
    int max_depth = 2;       ///< 0: SB only, 1: +16, 2: +8
    double lambda_scale = 1.0;
};

NgcTools
toolsFor(NgcProfile profile, int speed)
{
    NgcTools t;
    switch (std::clamp(speed, 0, 2)) {
      case 0:
        t.range = 32;
        t.subpel_iters = 3;
        t.refs = 3;
        t.max_depth = 2;
        break;
      case 1:
        t.range = 16;
        t.subpel_iters = 2;
        t.refs = 2;
        t.max_depth = 2;
        break;
      case 2:
        t.range = 8;
        t.subpel_iters = 1;
        t.refs = 1;
        t.max_depth = 1;
        break;
    }
    if (profile == NgcProfile::Vp9Like) {
        // VP9-like: even deeper search, slightly lower lambda (spends
        // bits for quality), exhaustive at the slowest speed.
        t.lambda_scale = 0.9;
        if (speed == 0) {
            t.search = SearchKind::Full;
            t.range = 8;
            t.refs = 3;
        }
    }
    return t;
}

/** One node of the partition plan. */
struct CuPlan {
    bool split = false;
    uint32_t cost = UINT32_MAX;
    MeResult me;
    int ref = 0;
    uint32_t inter_cost = UINT32_MAX;
    NgcIntraMode intra_mode = NgcIntraMode::Dc;
    uint32_t intra_cost = UINT32_MAX;
    int child[4] = {-1, -1, -1, -1};
};

/**
 * Everything the serial entropy pass needs about one analyzed leaf CU.
 * Residual levels live in the owning SbRecord's shared coefficient
 * vector (fixed per-leaf arrays sized for the worst case would cost
 * tens of megabytes per frame), consumed by a sequential cursor in the
 * exact order analysis appended them.
 */
struct LeafRecord {
    uint8_t size = 0;
    bool use_inter = false;
    bool skip = false;
    NgcIntraMode intra_mode = NgcIntraMode::Dc;
    MotionVector mv;
    MotionVector pred_mv;
    int8_t ref = 0;
    int32_t nonzero = 0;   ///< feeds the entropy decision hash
};

/**
 * Analyzed state of one superblock: the quadtree shape (pre-order
 * split flags), its leaves, and their residual levels. Produced —
 * possibly in parallel, in wavefront order — by analysis; replayed
 * strictly in raster order by the entropy pass, which is how the
 * arithmetic-coded stream stays byte-identical for every thread count.
 */
struct SbRecord {
    std::vector<uint8_t> splits;
    std::vector<LeafRecord> leaves;
    std::vector<int16_t> coeffs;

    void
    clear()
    {
        splits.clear();
        leaves.clear();
        coeffs.clear();
    }
};

/** Per-worker scratch: the CU plan arena and stage accumulator. */
struct NgcWorkerCtx {
    obs::StageAccum accum;          ///< per-worker stage nanoseconds
    obs::StageAccum *acc = nullptr; ///< &accum when tracing, else null
    std::vector<CuPlan> arena;
};

/**
 * The NGC frame policy for codec::FrameDriver (frame loop, wavefront,
 * slices and the probe path live there); one instance per pass.
 * Cells are kSbSize superblocks: analysis plans and codes each
 * quadtree into an SbRecord, and the entropy pass replays the records
 * in raster order with fresh arithmetic contexts per slice.
 */
class NgcSequencer : public codec::FrameDriver<NgcSequencer, NgcWorkerCtx>
{
  public:
    /// The diagonal-down-left intra predictor reads the top row out to
    /// x + 2*size — one full superblock past the top-right neighbor
    /// plus its first column — so row r may trail row r-1 by 3.
    static constexpr int kLag = 3;

    NgcSequencer(const NgcConfig &config, const NgcTools &tools,
                 const Video &source, RateController &rate)
        : FrameDriver(config, obs::Track::NgcEncode, kSbSize, tools.refs,
                      source, rate),
          config_(config), tools_(tools)
    {
        sb_records_.resize(static_cast<size_t>(cols_) * rows_);
    }

  private:
    friend class codec::FrameDriver<NgcSequencer, NgcWorkerCtx>;

    /** Slices carry no coder state beyond the fresh contexts. */
    struct SliceState {};

    void
    writeHeader(ByteBuffer &out) const
    {
        NgcStreamHeader header;
        header.width = source_.width();
        header.height = source_.height();
        toRational(source_.fps(), header.fps_num, header.fps_den);
        header.frame_count = static_cast<uint32_t>(source_.frameCount());
        header.profile = config_.profile;
        header.num_refs = static_cast<uint32_t>(tools_.refs);
        header.slice_count = static_cast<uint32_t>(slice_count_);
        writeNgcHeader(out, header);
    }

    FrameType frameType(int, FrameType gop_type) const { return gop_type; }

    void
    beginFrame()
    {
        cells_ = CellGrid(padded_w_ / 8, padded_h_ / 8);
        lambda_sad_ = codec::sadLambda(frame_qp_) * tools_.lambda_scale;
    }

    void
    analyzeCell(int row, int col, NgcWorkerCtx &wc)
    {
        analyzeSuperblock(col, row, frame_type_, wc);
    }

    std::unique_ptr<SyntaxWriter>
    makeWriter(ByteBuffer &out) const
    {
        return std::make_unique<codec::ArithSyntaxWriter>(
            out, nctx::kNumContexts);
    }

    SliceState beginSlice() const { return {}; }

    void
    writeCell(int row, int col, SyntaxWriter &writer, FrameStats &stats,
              SliceState &)
    {
        SbCursor cur;
        writeTree(sb_records_[static_cast<size_t>(row) * cols_ + col], cur,
                  kSbSize, 0, frame_type_, writer, stats);
    }

    KernelId entropyKernel() const { return KernelId::EntropyArith; }

    void
    mixEntropyHash(uint64_t &hash, int row, int col) const
    {
        for (const LeafRecord &leaf :
             sb_records_[static_cast<size_t>(row) * cols_ + col].leaves)
            hash = hash * 0x9E3779B97F4A7C15ull +
                static_cast<uint64_t>(leaf.nonzero);
    }

    uint64_t
    rateControlUnits() const
    {
        return static_cast<uint64_t>(cols_) * rows_ * 4;
    }

    void
    deblock()
    {
        obs::ScopedStage db(acc_, obs::Stage::Deblock);
        deblockMapped();
    }

    /** Map 8x8 cell info onto the 16x16 deblock grid and filter. */
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
                info.qp = static_cast<uint8_t>(frame_qp_);
                info.coded = any_coded;
            }
        }
        codec::deblockFrame(recon_, grid, probe_);
    }

    // ----- Superblock analysis (wavefront-parallel) ------------------

    void
    analyzeSuperblock(int sbx, int sby, FrameType type, NgcWorkerCtx &wc)
    {
        SbRecord &rec =
            sb_records_[static_cast<size_t>(sby) * cols_ + sbx];
        rec.clear();
        int root;
        {
            obs::ScopedStage ps(wc.acc, obs::Stage::PartitionSearch);
            wc.arena.clear();
            root = planCu(sbx * kSbSize, sby * kSbSize, kSbSize, 0, type,
                          wc);
        }
        analyzeTree(root, sbx * kSbSize, sby * kSbSize, kSbSize, type, wc,
                    rec);
    }

    // ----- Partition planning ---------------------------------------

    /** Plan a CU; returns the arena index. Costs are SAD-domain. */
    int
    planCu(int x, int y, int size, int depth, FrameType type,
           NgcWorkerCtx &wc)
    {
        std::vector<CuPlan> &arena = wc.arena;
        const int idx = static_cast<int>(arena.size());
        arena.emplace_back();

        // Spatial prediction stops at the slice boundary: intra treats
        // the slice-top row like the frame edge and the cell MV
        // predictor ignores neighbors above it, so every slice decodes
        // with no cross-slice state.
        const int slice_top_px =
            slice_top_row_[static_cast<size_t>(y / kSbSize)] * kSbSize;
        uint32_t intra_tried = 0;
        {
            // Intra estimate on the current reconstruction state.
            uint8_t pred[kSbSize * kSbSize];
            CuPlan &node = arena[idx];
            for (int m = 0; m < kNgcIntraModes; ++m) {
                const NgcIntraMode mode = static_cast<NgcIntraMode>(m);
                if (!ngcIntraAvailable(mode, x, y, slice_top_px))
                    continue;
                ngcIntraPredict(mode, recon_.y(), x, y, size, pred,
                                slice_top_px);
                ++intra_tried;
                const uint32_t sad = codec::satdBlock(
                    src_.y().row(y) + x, padded_w_, pred, size, size,
                    size);
                const uint32_t cost = sad +
                    static_cast<uint32_t>(lambda_sad_ * 8) +
                    (type == FrameType::P ? sad / 4 : 0);
                if (cost < node.intra_cost) {
                    node.intra_cost = cost;
                    node.intra_mode = mode;
                }
            }
        }
        if (probe_ && intra_tried > 0)
            probe_->record(KernelId::IntraPredict,
                           intra_tried * size * size / 256 + 1);

        if (type == FrameType::P && !refs_.empty()) {
            const MotionVector pred_mv =
                cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
            // CUs on a slice-head row lose their top neighbors for
            // rate prediction; peek across the boundary for a search
            // seed only (encoder-side, never in the bitstream). CUs
            // below the head — and everything at slice_count == 1 —
            // get no seed, so single-slice streams stay bit-identical.
            MotionVector seed_mv;
            bool has_seed = false;
            if (slice_top_px > 0 && y == slice_top_px) {
                seed_mv = cellMvPredictor(cells_, x / 8, y / 8, 0);
                has_seed = seed_mv.x != pred_mv.x ||
                    seed_mv.y != pred_mv.y;
            }
            for (int r = 0;
                 r < static_cast<int>(refs_.size()) && r < tools_.refs;
                 ++r) {
                MeContext me;
                me.src = &src_.y();
                me.ref = &refs_[r].y;
                me.block_x = x;
                me.block_y = y;
                me.block_w = size;
                me.block_h = size;
                me.pred = pred_mv;
                me.seed = seed_mv;
                me.has_seed = has_seed;
                me.lambda = lambda_sad_;
                me.kind = tools_.search;
                me.range = tools_.range;
                me.subpel = tools_.subpel;
                me.subpel_iters = tools_.subpel_iters;
                me.satd_subpel = true;  // next-gen: always SATD subpel
                me.probe = probe_;
                const MeResult res = codec::motionSearch(me);
                CuPlan &node = arena[idx];
                const uint32_t cost = res.cost +
                    static_cast<uint32_t>(lambda_sad_ * (r == 0 ? 1 : 3));
                if (cost < node.inter_cost) {
                    node.inter_cost = cost;
                    node.me = res;
                    node.ref = r;
                }
            }
        }

        {
            CuPlan &node = arena[idx];
            node.cost = std::min(node.intra_cost, node.inter_cost);
        }

        const int max_size_for_depth =
            kSbSize >> tools_.max_depth;  // smallest allowed leaf
        if (size > kMinCu && size > max_size_for_depth) {
            const int half = size / 2;
            int children[4];
            uint32_t split_cost =
                static_cast<uint32_t>(lambda_sad_ * 6);  // tree overhead
            for (int q = 0; q < 4; ++q) {
                children[q] = planCu(x + (q & 1) * half,
                                     y + (q >> 1) * half, half, depth + 1,
                                     type, wc);
                split_cost += arena[children[q]].cost;
            }
            CuPlan &node = arena[idx];
            if (split_cost < node.cost) {
                node.split = true;
                node.cost = split_cost;
                for (int q = 0; q < 4; ++q)
                    node.child[q] = children[q];
            }
            if (probe_)
                probe_->record(KernelId::ModeDecision, 2,
                               node.split ? 1 : 0, 1);
        }
        return idx;
    }

    // ----- Leaf analysis --------------------------------------------

    void
    analyzeTree(int idx, int x, int y, int size, FrameType type,
                NgcWorkerCtx &wc, SbRecord &rec)
    {
        const CuPlan &node = wc.arena[idx];
        if (size > kMinCu)
            rec.splits.push_back(node.split ? 1 : 0);
        if (node.split) {
            const int half = size / 2;
            for (int q = 0; q < 4; ++q) {
                analyzeTree(node.child[q], x + (q & 1) * half,
                            y + (q >> 1) * half, half, type, wc, rec);
            }
            return;
        }
        analyzeLeaf(node, x, y, size, type, wc, rec);
    }

    void
    analyzeLeaf(const CuPlan &node, int x, int y, int size, FrameType type,
                NgcWorkerCtx &wc, SbRecord &rec)
    {
        if (probe_)
            probe_->record(KernelId::Dispatch, size * size / 256 + 1);

        const int slice_top_px =
            slice_top_row_[static_cast<size_t>(y / kSbSize)] * kSbSize;
        const MotionVector pred_mv =
            cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
        const bool inter_valid =
            type == FrameType::P && node.inter_cost != UINT32_MAX;

        // Re-evaluate intra against the true reconstruction (the plan
        // estimate may have used stale in-SB neighbors).
        NgcIntraMode intra_mode = NgcIntraMode::Dc;
        uint32_t intra_cost = UINT32_MAX;
        {
            obs::ScopedStage intra_stage(wc.acc,
                                         obs::Stage::IntraDecision);
            uint8_t pred[kSbSize * kSbSize];
            for (int m = 0; m < kNgcIntraModes; ++m) {
                const NgcIntraMode mode = static_cast<NgcIntraMode>(m);
                if (!ngcIntraAvailable(mode, x, y, slice_top_px))
                    continue;
                ngcIntraPredict(mode, recon_.y(), x, y, size, pred,
                                slice_top_px);
                const uint32_t sad = codec::satdBlock(
                    src_.y().row(y) + x, padded_w_, pred, size, size,
                    size);
                const uint32_t cost = sad +
                    static_cast<uint32_t>(lambda_sad_ * 8) +
                    (type == FrameType::P ? sad / 4 : 0);
                if (cost < intra_cost) {
                    intra_cost = cost;
                    intra_mode = mode;
                }
            }
        }

        const bool use_inter =
            inter_valid && node.inter_cost <= intra_cost;
        if (probe_)
            probe_->record(KernelId::ModeDecision, 2, use_inter ? 1 : 0,
                           1);

        // Predictions and residuals. Declarations stay outside the
        // timing scope; the reconstruction and record sections below
        // consume them.
        uint8_t pred_y[kSbSize * kSbSize];
        uint8_t pred_u[16 * 16];
        uint8_t pred_v[16 * 16];
        const int csize = size / 2;
        const int cx = x / 2;
        const int cy = y / 2;
        MotionVector mv{};
        int ref = 0;
        const bool intra = !use_inter;
        const int tus = size / 8;
        // Chroma uses hierarchical TUs when the chroma CU is at least 8
        // wide, plain 4x4 otherwise.
        const int ctus = csize >= 8 ? csize / 8 : 0;
        int16_t dc_y[16][4];
        int16_t ac_y[16][64];
        int16_t dc_c[2][4][4];
        int16_t ac_c[2][4][64];
        int16_t levels4_c[2][16];
        int nonzero = 0;
        // Manual start/stop (no early return below) keeps the large
        // prediction+residual section at its natural indentation.
        const uint64_t tq_start = wc.acc ? obs::nowNs() : 0;
        if (use_inter) {
            mv = node.me.mv;
            ref = node.ref;
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

        // Residuals.
        for (int ty = 0; ty < tus; ++ty) {
            for (int tx = 0; tx < tus; ++tx) {
                int16_t residual[64];
                kernels::ops().diffBlock(
                    src_.y().row(y + ty * 8) + x + tx * 8,
                    src_.y().width(), pred_y + ty * 8 * size + tx * 8,
                    size, residual, 8, 8, 8);
                nonzero += forwardTransform8x8(residual,
                                               dc_y[ty * tus + tx],
                                               ac_y[ty * tus + tx], frame_qp_,
                                               intra);
            }
        }

        for (int plane = 0; plane < 2; ++plane) {
            const Plane &splane = plane == 0 ? src_.u() : src_.v();
            const uint8_t *pred_c = plane == 0 ? pred_u : pred_v;
            if (ctus > 0) {
                for (int ty = 0; ty < ctus; ++ty) {
                    for (int tx = 0; tx < ctus; ++tx) {
                        int16_t residual[64];
                        kernels::ops().diffBlock(
                            splane.row(cy + ty * 8) + cx + tx * 8,
                            splane.width(),
                            pred_c + ty * 8 * csize + tx * 8, csize,
                            residual, 8, 8, 8);
                        nonzero += forwardTransform8x8(
                            residual, dc_c[plane][ty * ctus + tx],
                            ac_c[plane][ty * ctus + tx], frame_qp_, intra);
                    }
                }
            } else {
                int16_t residual[16];
                kernels::ops().diffBlock(splane.row(cy) + cx,
                                         splane.width(), pred_c, 4,
                                         residual, 4, 4, 4);
                int32_t coefs[16];
                codec::forwardTransform4x4(residual, coefs);
                nonzero += codec::quantize4x4(coefs, levels4_c[plane],
                                              frame_qp_, intra);
            }
        }
        if (probe_) {
            probe_->record(KernelId::TransformFwd,
                           static_cast<uint64_t>(size) * size / 16 + 8);
            probe_->record(KernelId::Quant,
                           static_cast<uint64_t>(size) * size / 16 + 8,
                           nonzero != 0, 1);
        }
        if (wc.acc)
            wc.acc->add(obs::Stage::TransformQuant,
                        obs::nowNs() - tq_start);

        const bool coded = nonzero != 0;
        const bool skip = use_inter && ref == 0 && mv == pred_mv && !coded;

        // --- Record for the serial entropy pass. ---
        LeafRecord leaf;
        leaf.size = static_cast<uint8_t>(size);
        leaf.use_inter = use_inter;
        leaf.skip = skip;
        leaf.intra_mode = intra_mode;
        leaf.mv = mv;
        leaf.pred_mv = pred_mv;
        leaf.ref = static_cast<int8_t>(ref);
        leaf.nonzero = nonzero;
        rec.leaves.push_back(leaf);
        if (!skip) {
            // Coefficient layout (matches writeLeaf's cursor walk):
            // luma TUs as 4 DC + 64 AC each, then per chroma plane
            // either its TUs in the same shape or one 16-level block.
            for (int t = 0; t < tus * tus; ++t) {
                rec.coeffs.insert(rec.coeffs.end(), dc_y[t], dc_y[t] + 4);
                rec.coeffs.insert(rec.coeffs.end(), ac_y[t],
                                  ac_y[t] + 64);
            }
            for (int plane = 0; plane < 2; ++plane) {
                if (ctus > 0) {
                    for (int t = 0; t < ctus * ctus; ++t) {
                        rec.coeffs.insert(rec.coeffs.end(),
                                          dc_c[plane][t],
                                          dc_c[plane][t] + 4);
                        rec.coeffs.insert(rec.coeffs.end(),
                                          ac_c[plane][t],
                                          ac_c[plane][t] + 64);
                    }
                } else {
                    rec.coeffs.insert(rec.coeffs.end(), levels4_c[plane],
                                      levels4_c[plane] + 16);
                }
            }
        }

        // --- Reconstruction. ---
        {
            obs::ScopedStage recon(wc.acc, obs::Stage::Reconstruct);
            reconstructLeaf(x, y, size, pred_y, pred_u, pred_v, skip, tus,
                            dc_y, ac_y, ctus, dc_c, ac_c, levels4_c);
        }

        // --- Cell state. ---
        for (int dy = 0; dy < size / 8; ++dy) {
            for (int dx = 0; dx < size / 8; ++dx) {
                CellInfo &cell = cells_.at(x / 8 + dx, y / 8 + dy);
                cell.mode = skip ? CuMode::Skip
                                 : (use_inter ? CuMode::Inter
                                              : CuMode::Intra);
                cell.mv = use_inter ? mv : MotionVector{};
                cell.ref = static_cast<int8_t>(ref);
                cell.coded = coded;
            }
        }
    }

    // ----- Serial entropy pass --------------------------------------

    /** Cursors into one SbRecord during replay. */
    struct SbCursor {
        size_t split = 0;
        size_t leaf = 0;
        size_t coeff = 0;
    };

    /**
     * Replay one analyzed quadtree in the exact traversal order the
     * analysis recorded it. The only raster-order coder state — the
     * arithmetic contexts, frame stats, and the entropy hash — is
     * touched here, which is what makes the stream thread-count
     * invariant.
     */
    void
    writeTree(SbRecord &rec, SbCursor &cur, int size, int depth,
              FrameType type, SyntaxWriter &writer, FrameStats &stats)
    {
        bool split = false;
        if (size > kMinCu) {
            split = rec.splits[cur.split++] != 0;
            writer.bit(split ? 1 : 0, nctx::kSplit + std::min(depth, 1));
        }
        if (split) {
            for (int q = 0; q < 4; ++q)
                writeTree(rec, cur, size / 2, depth + 1, type, writer,
                          stats);
            return;
        }
        writeLeaf(rec, cur, type, writer, stats);
    }

    void
    writeLeaf(SbRecord &rec, SbCursor &cur, FrameType type,
              SyntaxWriter &writer, FrameStats &stats)
    {
        const LeafRecord &leaf = rec.leaves[cur.leaf++];
        const int size = leaf.size;
        const int tus = size / 8;
        const int csize = size / 2;
        const int ctus = csize >= 8 ? csize / 8 : 0;

        if (type == FrameType::P)
            writer.bit(leaf.skip ? 1 : 0, nctx::kSkip);
        if (!leaf.skip) {
            if (type == FrameType::P)
                writer.bit(leaf.use_inter ? 1 : 0, nctx::kIsInter);
            if (leaf.use_inter) {
                if (tools_.refs > 1)
                    writer.ue(static_cast<uint32_t>(leaf.ref),
                              ctx::kRefIdx, 2);
                writer.se(leaf.mv.x - leaf.pred_mv.x, ctx::kMvX, 4);
                writer.se(leaf.mv.y - leaf.pred_mv.y, ctx::kMvY, 4);
            } else {
                writer.ue(static_cast<int>(leaf.intra_mode),
                          nctx::kIntraMode, 3);
            }
            const int16_t *coeffs = rec.coeffs.data();
            for (int t = 0; t < tus * tus; ++t) {
                writeTu8(writer, coeffs + cur.coeff,
                         coeffs + cur.coeff + 4, true);
                cur.coeff += 68;
            }
            for (int plane = 0; plane < 2; ++plane) {
                if (ctus > 0) {
                    for (int t = 0; t < ctus * ctus; ++t) {
                        writeTu8(writer, coeffs + cur.coeff,
                                 coeffs + cur.coeff + 4, false);
                        cur.coeff += 68;
                    }
                } else {
                    codec::writeResidualBlock(writer, coeffs + cur.coeff,
                                              false);
                    cur.coeff += 16;
                }
            }
        } else {
            ++stats.skip_mbs;
        }
        if (!leaf.use_inter)
            ++stats.intra_mbs;
    }

    void
    reconstructLeaf(int x, int y, int size, const uint8_t *pred_y,
                    const uint8_t *pred_u, const uint8_t *pred_v,
                    bool skip, int tus, const int16_t (*dc_y)[4],
                    const int16_t (*ac_y)[64], int ctus,
                    const int16_t (*dc_c)[4][4],
                    const int16_t (*ac_c)[4][64],
                    const int16_t (*levels4_c)[16])
    {
        const int csize = size / 2;
        const int cx = x / 2;
        const int cy = y / 2;
        int inv_blocks = 0;
        if (skip) {
            copyBlock(recon_.y(), x, y, size, pred_y, size);
            copyBlock(recon_.u(), cx, cy, csize, pred_u, csize);
            copyBlock(recon_.v(), cx, cy, csize, pred_v, csize);
        } else {
            for (int ty = 0; ty < tus; ++ty) {
                for (int tx = 0; tx < tus; ++tx) {
                    int16_t residual[64];
                    inverseTransform8x8(dc_y[ty * tus + tx],
                                        ac_y[ty * tus + tx], frame_qp_,
                                        residual);
                    addBlock(recon_.y(), x + tx * 8, y + ty * 8, 8,
                             pred_y + ty * 8 * size + tx * 8, size,
                             residual, 8);
                    ++inv_blocks;
                }
            }
            for (int plane = 0; plane < 2; ++plane) {
                Plane &rplane = plane == 0 ? recon_.u() : recon_.v();
                const uint8_t *pred_c = plane == 0 ? pred_u : pred_v;
                if (ctus > 0) {
                    for (int ty = 0; ty < ctus; ++ty) {
                        for (int tx = 0; tx < ctus; ++tx) {
                            int16_t residual[64];
                            inverseTransform8x8(
                                dc_c[plane][ty * ctus + tx],
                                ac_c[plane][ty * ctus + tx], frame_qp_,
                                residual);
                            addBlock(rplane, cx + tx * 8, cy + ty * 8, 8,
                                     pred_c + ty * 8 * csize + tx * 8,
                                     csize, residual, 8);
                            ++inv_blocks;
                        }
                    }
                } else {
                    int32_t coefs[16];
                    int16_t residual[16];
                    codec::dequantize4x4(levels4_c[plane], coefs, frame_qp_);
                    codec::inverseTransform4x4(coefs, residual);
                    addBlock(rplane, cx, cy, 4, pred_c, 4, residual, 4);
                    ++inv_blocks;
                }
            }
        }
        if (probe_ && inv_blocks > 0) {
            probe_->record(KernelId::Dequant, inv_blocks * 4);
            probe_->record(KernelId::TransformInv, inv_blocks * 4);
            probe_->record(
                KernelId::Reconstruct,
                static_cast<uint64_t>(size) * size / 16,
                static_cast<uint64_t>(inv_blocks), 6,
                {uarch::MemRegion{recon_.y().row(y) + x,
                                  static_cast<uint32_t>(size),
                                  static_cast<uint32_t>(size),
                                  static_cast<uint32_t>(padded_w_),
                                  true}});
        }
    }

    static void
    copyBlock(Plane &dst, int x, int y, int n, const uint8_t *src,
              int stride)
    {
        kernels::ops().copy2d(src, stride, dst.row(y) + x, dst.width(),
                              n, n);
    }

    /** recon = clamp(pred + residual) over an n x n block. */
    static void
    addBlock(Plane &dst, int x, int y, int n, const uint8_t *pred,
             int pred_stride, const int16_t *residual, int res_stride)
    {
        kernels::ops().addClampBlock(pred, pred_stride, residual,
                                     res_stride, dst.row(y) + x,
                                     dst.width(), n, n);
    }

    const NgcConfig &config_;
    const NgcTools &tools_;
    std::vector<SbRecord> sb_records_;

    CellGrid cells_;
    double lambda_sad_ = 1.0;
};

} // namespace

NgcEncoder::NgcEncoder(const NgcConfig &config) : config_(config) {}

namespace {

/** First pass: fast speed, fixed quantizer, gather complexity. */
EncodeResult
ngcEncodeFirstPass(const NgcConfig &config, const video::Video &source)
{
    NgcConfig pass1_cfg = codec::firstPassConfig(config, source);
    pass1_cfg.speed = 2;
    RateController pass1_rate(pass1_cfg.rc);
    const NgcTools pass1_tools = toolsFor(config.profile, 2);
    return NgcSequencer(pass1_cfg, pass1_tools, source, pass1_rate).run();
}

} // namespace

codec::PassOneStats
collectNgcPassOneStats(const NgcConfig &config, const video::Video &source)
{
    return codec::passOneStatsFrom(ngcEncodeFirstPass(config, source));
}

EncodeResult
NgcEncoder::encode(const video::Video &source)
{
    const NgcTools tools = toolsFor(config_.profile, config_.speed);
    return codec::encodeRateControlled(
        config_, source, [&] { return ngcEncodeFirstPass(config_, source); },
        [&](RateController &rate) {
            return NgcSequencer(config_, tools, source, rate).run();
        });
}

} // namespace vbench::ngc
