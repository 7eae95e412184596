#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/encoder.h"
#include "codec/stitch.h"
#include "core/report.h"
#include "core/runtime_config.h"
#include "core/transcoder.h"
#include "fleet/fleet.h"
#include "ngc/ngc_bitstream.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "rpc/remote_pool.h"
#include "sched/frame_threads.h"
#include "sched/scheduler.h"
#include "service/admission.h"
#include "service/executor.h"
#include "service/segment_job.h"
#include "video/video.h"

namespace vbench::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dispatcher sleep after a pass that finished no request.
constexpr std::chrono::microseconds kPollInterval{500};

/**
 * Rate-control modes whose controller state crosses segment
 * boundaries. Chained rungs submit segment k+1 only after segment k
 * returned its RcSnapshot; constant-quality rungs fan out at once.
 */
bool
isChained(const core::TranscodeRequest &request)
{
    return request.rc.mode == codec::RcMode::Abr ||
        request.rc.mode == codec::RcMode::TwoPass;
}

std::optional<codec::ByteBuffer>
stitchForKind(core::EncoderKind kind,
              std::vector<codec::ByteBuffer> streams)
{
    switch (kind) {
      case core::EncoderKind::Vbc:
        return codec::stitchStreams(streams);
      case core::EncoderKind::NgcHevc:
      case core::EncoderKind::NgcVp9:
        return ngc::stitchNgcStreams(streams);
      default:
        // Hardware model backends are driven per whole request; the
        // single stream passes through unstitched.
        if (streams.size() == 1)
            return std::move(streams[0]);
        return std::nullopt;
    }
}

/**
 * The in-process side of the execution seam: the sched::Scheduler
 * pool behind the SegmentExecutor interface. This is the default and
 * the behavior every earlier PR shipped — VBENCH_WORKERS=proc swaps
 * in rpc::RemotePool without the dispatcher noticing.
 */
class LocalExecutor final : public SegmentExecutor
{
  public:
    explicit LocalExecutor(const sched::SchedulerConfig &config)
        : scheduler_(config)
    {
    }

    sched::JobHandle
    submit(SegmentJob job,
           std::shared_ptr<const video::Video> original) override
    {
        return scheduler_.submit(
            toTranscodeJob(std::move(job), std::move(original)));
    }

    int workers() const override { return scheduler_.workers(); }
    size_t queueCapacity() const override
    {
        return scheduler_.queueCapacity();
    }
    size_t activeJobs() const override
    {
        return sched::activeTranscodeJobs();
    }
    void drainObs() override { scheduler_.mergeObsShards(); }

  private:
    sched::Scheduler scheduler_;
};

/** One segment of a rung, from submit through collection. */
struct SegmentSlot {
    codec::ByteBuffer stream;  ///< the encoded (or cached) segment
    sched::JobHandle handle;   ///< reset once collected; none on a hit
    std::string label;         ///< job label (exemplars, fleet rows)
    /// Child span of the request root, set at submit.
    obs::SpanContext span;
    /// Fleet booking (invalid without a fleet).
    fleet::Ticket ticket;
    /// Availability on the monotonic ns clock (the critical-path and
    /// latency origin, so components decompose without residue).
    uint64_t avail_ns = 0;
    /// Cache key of a probed miss, so collection can offer the encode
    /// back; empty on a hit or without a cache.
    std::optional<cache::CacheKey> key;
};

/** One ladder rung's segment chain while the request is active. */
struct RungRun {
    std::string name;
    core::TranscodeRequest tmpl;
    bool chained = false;
    int next_submit = 0;  ///< first segment not yet submitted
    int done = 0;         ///< segments completed
    bool failed = false;  ///< any segment transcode failed
    std::optional<codec::RcSnapshot> carry;
    std::vector<SegmentSlot> segs;  ///< by segment index
};

/** A request between admission and completion. */
struct ActiveRequest {
    const ServiceRequest *req = nullptr;
    int segments = 0;
    std::vector<RungRun> rungs;
    obs::SpanContext span;   ///< the request's trace root
    uint64_t offer_ns = 0;   ///< when the request entered admission
};

// Segment inputs when the corpus was pre-cut, the whole clip as a
// single "segment" otherwise (segmenting off, or splitStream declined
// the stream).
const std::shared_ptr<const codec::ByteBuffer> &
segInput(const CorpusClip &clip, int k)
{
    return clip.seg_universal.empty()
        ? clip.universal
        : clip.seg_universal[static_cast<size_t>(k)];
}

const std::shared_ptr<const video::Video> &
segOriginal(const CorpusClip &clip, int k)
{
    return clip.seg_original.empty()
        ? clip.original
        : clip.seg_original[static_cast<size_t>(k)];
}

std::string
segmentTag(const RungRun &rr, int k)
{
    return rr.name + ".s" + std::to_string(k);
}

/**
 * The state of one TranscodeService::run, shared by its stages. The
 * run loop is admit -> submit -> collect until every request has
 * completed or been shed; report() then exports the scorecard.
 */
class ServiceRun
{
  public:
    ServiceRun(const ServiceConfig &config, const Corpus &corpus,
               const std::vector<ServiceRequest> &workload);
    // The telemetry gauges hold `this`.
    ServiceRun(const ServiceRun &) = delete;
    ServiceRun &operator=(const ServiceRun &) = delete;

    bool
    drained() const
    {
        return out_.completed + out_.dropped >= pending_.size();
    }

    /** Arrivals into the AdmissionQueue, then EDF/FIFO activation. */
    void admit();
    /** Cache probe, fleet placement and executor submit. */
    void submit();
    /**
     * Score, settle and cache every finished job; finish the requests
     * whose segments are all done. Returns whether any request
     * finished this pass.
     */
    bool collect();
    /** End-of-run export: scorecard, metrics, run reports. */
    ServiceResult report();

  private:
    void startTelemetry();
    void submitSegment(ActiveRequest &ar, RungRun &rr, int k,
                       double avail);
    void collectSegment(const ServiceRequest &req, RungRun &rr, int k);
    bool finishSegment(const ServiceRequest &req, const RungRun &rr,
                       int k, uint64_t job_end_ns, obs::CriticalPath cp,
                       bool ok, double cost_dollars, double psnr_db,
                       bool cache_hit);
    void finishRequest(ActiveRequest &ar);
    void reportFleet();
    void reportRpc();
    void reportCache();
    void reportTelemetry();

    /// Workload seconds -> the shared monotonic ns clock.
    uint64_t
    toNs(double service_seconds) const
    {
        return t0_ns_ +
            static_cast<uint64_t>(std::max(0.0, service_seconds) * 1e9);
    }

    const ServiceConfig &config_;
    const Corpus &corpus_;
    // One trace sink for the whole run: request span trees recorded
    // here, and the scheduler merges its per-worker timelines (encode
    // slices, flow ends) into the same tracer so the tree connects.
    obs::Tracer *tracer_;
    obs::MetricsRegistry *metrics_;
    std::unique_ptr<SegmentExecutor> owned_exec_;
    SegmentExecutor *exec_ = nullptr;
    size_t inflight_cap_ = 0;
    size_t max_active_ = 0;
    std::optional<fleet::Fleet> fleet_;
    std::vector<const ServiceRequest *> pending_;  ///< by arrival
    std::map<uint64_t, const ServiceRequest *> by_id_;
    size_t next_arrival_ = 0;
    AdmissionQueue admission_;
    SlaScorer scorer_;
    /// Admitted requests not yet dispatched: root span + offer time
    /// (moved into the ActiveRequest when admission polls them).
    std::map<uint64_t, std::pair<obs::SpanContext, uint64_t>> queued_;
    std::map<uint64_t, ActiveRequest> active_;
    std::vector<uint64_t> finished_;  ///< requests finished this pass
    // Jobs submitted and not yet collected. Atomic because the
    // telemetry sampler reads it from its own thread.
    std::atomic<size_t> inflight_{0};
    ServiceResult out_;
    obs::TelemetrySampler sampler_;
    uint64_t t0_ns_ = 0;
    double t0_ = 0;
};

ServiceRun::ServiceRun(const ServiceConfig &config, const Corpus &corpus,
                       const std::vector<ServiceRequest> &workload)
    : config_(config), corpus_(corpus),
      tracer_(config.tracer ? config.tracer : obs::globalTracer()),
      metrics_(config.metrics
                   ? config.metrics
                   : (obs::metricsEnabled() ? &obs::globalMetrics()
                                            : nullptr)),
      admission_(config.admission_capacity)
{
    for (const ServiceRequest &req : workload) {
        if (req.clip >= corpus_.clips.size() || req.rungs.empty())
            continue;
        pending_.push_back(&req);
        by_id_[req.id] = &req;
    }
    std::sort(pending_.begin(), pending_.end(),
              [](const ServiceRequest *a, const ServiceRequest *b) {
                  return a->arrival_s != b->arrival_s
                      ? a->arrival_s < b->arrival_s
                      : a->id < b->id;
              });

    // The execution seam (service/executor.h, docs/RPC.md): the
    // dispatcher submits SegmentJobs and collects JobHandles; WHERE a
    // segment encodes is the executor's business. A caller-supplied
    // executor wins; otherwise VBENCH_WORKERS picks the in-process
    // scheduler pool (local, default) or a pool of fork/exec'd
    // vbench_worker child processes (proc).
    exec_ = config_.executor;
    if (exec_ == nullptr) {
        const core::RuntimeConfig rt = core::freshRuntimeConfig();
        if (rt.workers_mode == "proc") {
            rpc::RemotePoolConfig rpc_config;
            rpc_config.workers = config_.workers;
            rpc_config.worker_binary = rt.worker_bin;
            rpc_config.timeout_ms = rt.rpc_timeout_ms;
            rpc_config.retries = rt.rpc_retries;
            rpc_config.hedge_pct = rt.hedge_pct;
            rpc_config.tracer = tracer_;
            owned_exec_ =
                std::make_unique<rpc::RemotePool>(std::move(rpc_config));
        } else {
            sched::SchedulerConfig sched_config;
            sched_config.workers = config_.workers;
            sched_config.merge_metrics = config_.metrics;
            sched_config.merge_tracer = config_.tracer;
            owned_exec_ = std::make_unique<LocalExecutor>(sched_config);
        }
        exec_ = owned_exec_.get();
    }

    // Keep submitted-but-unfinished jobs under workers + queue slots so
    // submit() never blocks the dispatcher.
    inflight_cap_ = static_cast<size_t>(exec_->workers()) +
        exec_->queueCapacity();
    max_active_ = config_.max_active_requests > 0
        ? config_.max_active_requests
        : static_cast<size_t>(exec_->workers()) + 2;

    // The modeled heterogeneous fleet (docs/FLEET.md): placements and
    // dollar accounting only — execution stays on the local pool.
    if (config_.fleet != nullptr &&
        fleet::validateFleetConfig(*config_.fleet).empty()) {
        fleet_.emplace(*config_.fleet, config_.fleet_model
                           ? *config_.fleet_model
                           : fleet::PerfModel{});
        if (tracer_) {
            int fw = 0;
            for (const fleet::WorkerTypeSpec &t : config_.fleet->types)
                for (int i = 0; i < t.count; ++i, ++fw)
                    tracer_->nameRow(
                        obs::fleetTid(fw),
                        "fleet " + t.name + " #" + std::to_string(i));
        }
    }

    if (config_.enable_telemetry)
        startTelemetry();

    t0_ns_ = obs::nowNs();
    t0_ = static_cast<double>(t0_ns_) * 1e-9;
}

void
ServiceRun::startTelemetry()
{
    // Live telemetry: gauge probes snapshotted on a background thread
    // while the dispatcher plays the workload, every 10 ms (the
    // sampler's default). Every probe reads thread-safe state only
    // (the admission queue's own lock, atomics, the metrics registry's
    // lock).
    sampler_.addGauge("service.queue_depth", [this] {
        return static_cast<double>(admission_.size());
    });
    sampler_.addGauge("service.inflight_jobs", [this] {
        return static_cast<double>(
            inflight_.load(std::memory_order_relaxed));
    });
    SegmentExecutor *exec = exec_;
    const int workers = exec->workers();
    sampler_.addGauge("service.worker_utilization", [exec, workers] {
        return static_cast<double>(exec->activeJobs()) /
            static_cast<double>(workers > 0 ? workers : 1);
    });
    if (exec->remote()) {
        // Child-process pool health (stats() is a thread-safe
        // snapshot; mutex-guarded like every other gauge source).
        sampler_.addGauge("service.rpc.workers_alive", [exec] {
            const ExecutorStats s = exec->stats();
            double alive = 0;
            for (const ExecutorWorkerInfo &w : s.workers)
                alive += w.alive ? 1 : 0;
            return alive;
        });
        sampler_.addGauge("service.rpc.inflight", [exec] {
            return static_cast<double>(exec->stats().inflight);
        });
    }
    sampler_.addGauge("service.shed_requests", [this] {
        return static_cast<double>(admission_.shed());
    });
    // Worker shards merge at the end of the run, so this gauge is
    // authoritative at the final stop() sample and a lower bound while
    // jobs are still in flight.
    obs::MetricsRegistry *m = metrics_;
    sampler_.addGauge("service.frame_threads_clamped", [m] {
        return m ? static_cast<double>(
                       m->counter("encode.frame_threads_clamped").value())
                 : 0.0;
    });
    if (config_.cache) {
        // Output-cache gauges (mutex-guarded accessors, safe from the
        // sampler thread). Like every service gauge, the final
        // synchronous stop() sample lands after the run drains, so the
        // last point is the run's authoritative value.
        cache::TranscodeCache *tc = config_.cache;
        sampler_.addGauge("service.cache_hit_rate",
                          [tc] { return tc->hitRate(); });
        sampler_.addGauge("service.cache_resident_bytes", [tc] {
            return static_cast<double>(tc->residentBytes());
        });
    }
    if (fleet_) {
        // Per-type modeled busy fraction, sampled on the fleet's own
        // clock (mutex-guarded, safe from the sampler thread).
        const double fleet_t0 = obs::nowSeconds();
        for (size_t t = 0; t < fleet_->config().types.size(); ++t)
            sampler_.addGauge(
                "fleet.util." + fleet_->config().types[t].name,
                [&f = *fleet_, t, fleet_t0] {
                    const std::vector<double> util =
                        f.typeUtilization(obs::nowSeconds() - fleet_t0);
                    return t < util.size() ? util[t] : 0.0;
                });
    }
    sampler_.start();
}

void
ServiceRun::admit()
{
    // Arrivals due by now enter the bounded admission queue; a full
    // queue sheds the request (load shedding, not blocking).
    const double now = obs::nowSeconds() - t0_;
    while (next_arrival_ < pending_.size() &&
           pending_[next_arrival_]->arrival_s <= now) {
        const ServiceRequest *req = pending_[next_arrival_++];
        scorer_.recordArrival(req->scenario);
        const double deadline = req->live_paced
            ? req->arrival_s + req->segment_deadline_s
            : kInf;
        if (admission_.offer(req->id, deadline)) {
            ++out_.admitted;
            // Root of this request's trace tree. Minted whether or not
            // a tracer is attached, so exemplar trace ids are stable;
            // events are only recorded when tracing.
            queued_[req->id] = {obs::SpanContext::newTrace(),
                                obs::nowNs()};
            if (tracer_)
                tracer_->nameRow(obs::requestTid(req->id),
                                 "request " + std::to_string(req->id) +
                                     " (" +
                                     core::toString(req->scenario) + ")");
        } else {
            scorer_.recordDrop(req->scenario);
            ++out_.dropped;
        }
    }

    // Admit queued requests (earliest finite deadline first, FIFO
    // otherwise) up to the active-request cap.
    while (active_.size() < max_active_) {
        const std::optional<Admitted> next = admission_.poll();
        if (!next)
            break;
        const ServiceRequest *req = by_id_.at(next->key);
        const CorpusClip &clip = corpus_.clips[req->clip];
        ActiveRequest ar;
        ar.req = req;
        ar.segments = std::max(1, clip.segmentCount());
        if (const auto it = queued_.find(req->id); it != queued_.end()) {
            ar.span = it->second.first;
            ar.offer_ns = it->second.second;
            queued_.erase(it);
        }
        if (tracer_ && ar.span.valid())
            // Admission wait: offer -> EDF/FIFO dispatch.
            tracer_->addScope({"admission_wait", ar.span.child(),
                               obs::requestTid(req->id), ar.offer_ns,
                               obs::nowNs() - ar.offer_ns});
        for (const RungSpec &spec : req->rungs) {
            RungRun rr;
            rr.name = spec.name;
            rr.tmpl = spec.request;
            rr.tmpl.segment_frames =
                clip.segmentCount() > 0 ? corpus_.segment_frames : 0;
            // Pin the entropy slice count into the job description
            // now: slices change the encoded bytes, so the cache key
            // and any remote worker must see the resolved value, never
            // "read your own VBENCH_SLICES".
            rr.tmpl.slice_count =
                codec::resolveSliceCount(rr.tmpl.slice_count);
            rr.chained = isChained(rr.tmpl);
            rr.segs.resize(static_cast<size_t>(ar.segments));
            ar.rungs.push_back(std::move(rr));
        }
        active_.emplace(req->id, std::move(ar));
    }
}

void
ServiceRun::submit()
{
    // Submit every segment that is ready: chained rungs wait for the
    // previous segment's RcSnapshot, Live requests wait for the
    // segment to exist (the stream is still being produced).
    for (auto &[id, ar] : active_) {
        const ServiceRequest &req = *ar.req;
        const CorpusClip &clip = corpus_.clips[req.clip];
        const double seg_duration = clip.segmentCount() > 0
            ? corpus_.segment_frames / clip.spec.fps
            : clip.original->duration();
        for (RungRun &rr : ar.rungs) {
            while (rr.next_submit < ar.segments &&
                   inflight_ < inflight_cap_) {
                const int k = rr.next_submit;
                if (rr.chained && k > rr.done)
                    break;
                const double avail = req.live_paced
                    ? req.arrival_s + k * seg_duration
                    : req.arrival_s;
                if (req.live_paced && obs::nowSeconds() - t0_ < avail)
                    break;
                submitSegment(ar, rr, k, avail);
                ++rr.next_submit;
            }
        }
    }
}

void
ServiceRun::submitSegment(ActiveRequest &ar, RungRun &rr, int k,
                          double avail)
{
    const ServiceRequest &req = *ar.req;
    const CorpusClip &clip = corpus_.clips[req.clip];
    SegmentSlot &slot = rr.segs[static_cast<size_t>(k)];
    // The wire boundary: everything a worker needs is a SegmentJob —
    // input bytes, params, RC carry.
    SegmentJob sj;
    sj.request_id = req.id;
    sj.rung = rr.name;
    sj.segment_index = k;
    sj.scenario = req.scenario;
    sj.input = *segInput(clip, k);
    sj.params = rr.tmpl;
    if (rr.chained && k > 0)
        sj.params.rc_in = rr.carry;
    // One child span per segment: the scheduler hangs the worker-side
    // encode slice and the flow-arrow end off it
    // (sched::Scheduler::runJob).
    sj.params.span =
        ar.span.valid() ? ar.span.child() : obs::SpanContext{};
    slot.label = sj.label();
    slot.span = sj.params.span;
    slot.avail_ns = toNs(avail);

    // Output cache (docs/CACHE.md): probe the canonical transcode
    // identity before booking any compute. A hit completes the segment
    // right here — stream and RC out-state byte-identical to a fresh
    // encode — so a chained rung's next segment can submit in this
    // same pass. pass_one stats are host-local and uncacheable (never
    // set on service jobs; guarded anyway).
    if (config_.cache && sj.params.pass_one == nullptr) {
        const cache::CacheKey key = sj.cacheKey();
        std::optional<cache::CachedSegment> got =
            config_.cache->lookup(key, obs::nowSeconds() - t0_);
        if (got) {
            const uint64_t end_ns = obs::nowNs();
            if (finishSegment(req, rr, k, end_ns, obs::CriticalPath{},
                              true, 0.0, got->psnr_db, true))
                tracer_->addScope({"cache_hit " + segmentTag(rr, k),
                                   slot.span.child(),
                                   obs::requestTid(req.id),
                                   slot.avail_ns,
                                   end_ns > slot.avail_ns
                                       ? end_ns - slot.avail_ns
                                       : 0});
            slot.stream = std::move(got->stream);
            if (rr.chained)
                rr.carry = got->rc_out;
            ++rr.done;
            return;
        }
        slot.key = key;
    }
    if (fleet_) {
        fleet::JobMeta meta;
        meta.pixels =
            static_cast<double>(segOriginal(clip, k)->totalPixels());
        meta.work_scalar_s = fleet_->model().scalarWorkSeconds(meta.pixels);
        meta.ready_s = avail;
        meta.deadline_s = req.live_paced
            ? avail + req.segment_deadline_s
            : req.arrival_s + req.request_deadline_s;
        meta.scenario = req.scenario;
        slot.ticket = fleet_->place(meta, obs::nowSeconds() - t0_);
    }
    slot.handle = exec_->submit(std::move(sj), segOriginal(clip, k));
    ++inflight_;
}

/**
 * The one finish path for cache hits and executed segments: score the
 * segment over [avail, end] and trace its `segment <rung>.s<k>` scope.
 * `job_end_ns` is the job's own end timestamp (0 when it never ran:
 * scored on the poll clock, not traced). A hit never queues or
 * encodes, so its whole latency is pre-dispatch wait. Returns whether
 * the scope was traced, so the caller can hang its children off it.
 */
bool
ServiceRun::finishSegment(const ServiceRequest &req, const RungRun &rr,
                          int k, uint64_t job_end_ns, obs::CriticalPath cp,
                          bool ok, double cost_dollars, double psnr_db,
                          bool cache_hit)
{
    const SegmentSlot &slot = rr.segs[static_cast<size_t>(k)];
    const uint64_t end_ns = job_end_ns ? job_end_ns : obs::nowNs();
    const double done_at = static_cast<double>(end_ns - t0_ns_) * 1e-9;
    const uint64_t dur_ns =
        end_ns > slot.avail_ns ? end_ns - slot.avail_ns : 0;
    const double latency = static_cast<double>(dur_ns) * 1e-9;
    const bool hit = req.live_paced
        ? latency <= req.segment_deadline_s
        : done_at <= req.arrival_s + req.request_deadline_s;
    if (cache_hit)
        cp.rc_chain_ms = latency * 1e3;
    const CorpusClip &clip = corpus_.clips[req.clip];
    scorer_.recordSegment(req.scenario, latency, hit,
                          segOriginal(clip, k)->totalPixels(), ok,
                          slot.span.trace_id, cp, slot.label,
                          cost_dollars, psnr_db, cache_hit);
    if (!tracer_ || !slot.span.valid() || job_end_ns == 0)
        return false;
    tracer_->addScope({"segment " + segmentTag(rr, k), slot.span,
                       obs::requestTid(req.id), slot.avail_ns, dur_ns});
    return true;
}

bool
ServiceRun::collect()
{
    // Collect completions and score them against the SLA.
    finished_.clear();
    for (auto &[id, ar] : active_) {
        bool all_done = true;
        for (RungRun &rr : ar.rungs) {
            for (int k = 0; k < rr.next_submit; ++k)
                collectSegment(*ar.req, rr, k);
            all_done = all_done && rr.done == ar.segments;
        }
        if (!all_done)
            continue;
        finishRequest(ar);
        finished_.push_back(id);
    }
    for (uint64_t id : finished_)
        active_.erase(id);
    return !finished_.empty();
}

void
ServiceRun::collectSegment(const ServiceRequest &req, RungRun &rr, int k)
{
    SegmentSlot &slot = rr.segs[static_cast<size_t>(k)];
    if (!slot.handle.valid() || !slot.handle.finished())
        return;
    const sched::JobResult &jr = slot.handle.wait();
    // Close the critical-path decomposition: the scheduler filled
    // queue_wait and encode over [submit, end]; rc_chain is the
    // pre-queue wait [avail, submit] (RC-carry predecessor for chained
    // rungs, admission/dispatch delay for the rest). All on one clock,
    // so the components tile [avail, end] — exactly the scored latency.
    obs::CriticalPath cp = jr.outcome.critical_path;
    cp.rc_chain_ms = jr.submit_ns > slot.avail_ns
        ? static_cast<double>(jr.submit_ns - slot.avail_ns) * 1e-6
        : 0.0;
    // Settle the fleet booking against the measured encode time: the
    // modeled worker charges what the job actually cost on its machine
    // type.
    double cost_dollars = 0;
    if (fleet_ && slot.ticket.valid()) {
        cost_dollars = fleet_->settle(slot.ticket, jr.seconds);
        if (tracer_)
            tracer_->addScope(
                {slot.label,
                 slot.span.valid() ? slot.span.child() : obs::SpanContext{},
                 obs::fleetTid(slot.ticket.worker),
                 toNs(slot.ticket.start_s),
                 static_cast<uint64_t>(
                     std::max(0.0, slot.ticket.exec_s) * 1e9)});
    }
    if (finishSegment(req, rr, k, jr.end_ns, cp, jr.ok(), cost_dollars,
                      jr.outcome.m.psnr_db, false)) {
        const int32_t rtid = obs::requestTid(req.id);
        const std::string tag = segmentTag(rr, k);
        if (rr.chained && k > 0 && jr.submit_ns > slot.avail_ns)
            tracer_->addScope({"rc_chain " + tag, slot.span.child(), rtid,
                               slot.avail_ns,
                               jr.submit_ns - slot.avail_ns});
        tracer_->addScope({"queued " + tag, slot.span.child(), rtid,
                           jr.submit_ns,
                           jr.start_ns > jr.submit_ns
                               ? jr.start_ns - jr.submit_ns
                               : 0});
        // Flow arrow: queued slice here -> encode slice on the worker
        // row (end recorded by the scheduler at job start).
        tracer_->addFlow(
            {"dispatch", slot.span.span_id, rtid, jr.submit_ns, true});
    }
    if (jr.ok()) {
        slot.stream = jr.outcome.stream;
        if (rr.chained)
            rr.carry = jr.outcome.rc_state;
        // Offer the encoded miss back; whether it is stored is the
        // cache policy's dollar call.
        if (config_.cache && slot.key) {
            cache::CachedSegment cs;
            cs.stream = jr.outcome.stream;
            cs.rc_out = jr.outcome.rc_state;
            cs.psnr_db = jr.outcome.m.psnr_db;
            cs.bitrate_bpps = jr.outcome.m.bitrate_bpps;
            cs.speed_mpix_s = jr.outcome.m.speed_mpix_s;
            cs.encode_seconds = jr.seconds;
            config_.cache->insert(*slot.key, std::move(cs),
                                  obs::nowSeconds() - t0_);
        }
    } else {
        rr.failed = true;
        // Unblock the chain: later segments start fresh rather than
        // never running.
        if (rr.chained)
            rr.carry.reset();
    }
    slot.handle = sched::JobHandle();
    ++rr.done;
    --inflight_;
}

void
ServiceRun::finishRequest(ActiveRequest &ar)
{
    const ServiceRequest &req = *ar.req;
    bool any_failed = false;
    for (RungRun &rr : ar.rungs) {
        if (rr.failed) {
            any_failed = true;
            ++out_.stitch_failures;
            continue;
        }
        std::vector<codec::ByteBuffer> streams;
        streams.reserve(rr.segs.size());
        for (SegmentSlot &slot : rr.segs)
            streams.push_back(std::move(slot.stream));
        const uint64_t stitch_start = obs::nowNs();
        std::optional<codec::ByteBuffer> delivery =
            stitchForKind(rr.tmpl.kind, std::move(streams));
        const uint64_t stitch_end = obs::nowNs();
        if (delivery && config_.collect_outputs)
            out_.outputs.emplace(std::to_string(req.id) + "." + rr.name,
                                 std::move(*delivery));
        scorer_.recordStitch(
            req.scenario,
            static_cast<double>(stitch_end - stitch_start) * 1e-6);
        if (tracer_ && ar.span.valid())
            tracer_->addScope({"stitch " + rr.name, ar.span.child(),
                               obs::requestTid(req.id), stitch_start,
                               stitch_end - stitch_start});
        ++(delivery ? out_.stitched_rungs : out_.stitch_failures);
    }
    if (any_failed)
        ++out_.failed_requests;
    ++out_.completed;
    if (tracer_ && ar.span.valid()) {
        // The request's root slice: arrival through the last stitch.
        // Everything above (admission_wait, segments, rc_chain/queued,
        // stitches) nests inside it, and the worker-side encode slices
        // connect by parent span id and the dispatch flow arrows.
        const uint64_t arrival_ns = toNs(req.arrival_s);
        const uint64_t done_ns = obs::nowNs();
        tracer_->addScope({"request " + std::to_string(req.id), ar.span,
                           obs::requestTid(req.id), arrival_ns,
                           done_ns > arrival_ns ? done_ns - arrival_ns
                                                : 0});
    }
}

ServiceResult
ServiceRun::report()
{
    out_.wall_seconds = obs::nowSeconds() - t0_;
    // Merge worker shards before the sampler's final synchronous
    // sample so gauges fed by merged counters (frame-thread clamps)
    // end on the authoritative value.
    exec_->drainObs();
    sampler_.stop();
    out_.telemetry = sampler_.snapshot();
    out_.sla = scorer_.report(out_.wall_seconds);
    if (config_.cache) {
        // Snapshot with rent accrued through the end of the run; the
        // SlaReport rollup mirrors the headline numbers so scorecards
        // and benches read one struct.
        out_.cache_stats = config_.cache->stats(out_.wall_seconds);
        const cache::CacheStats &cs = out_.cache_stats;
        SlaReport &sla = out_.sla;
        sla.cache_enabled = true;
        sla.cache_hits = cs.hits;
        sla.cache_misses = cs.misses;
        sla.cache_hit_rate = cs.hitRate();
        sla.cache_resident_bytes = cs.resident_bytes;
        sla.cache_storage_dollars = cs.storage_dollars;
        sla.cache_compute_dollars = cs.compute_dollars;
        sla.cache_saved_dollars = cs.saved_dollars;
        sla.cache_total_dollars = cs.totalDollars();
    }
    if (metrics_)
        scorer_.exportMetrics(*metrics_);
    scorer_.emitRunReports(out_.sla);
    if (fleet_)
        reportFleet();
    if (exec_->remote())
        reportRpc();
    if (config_.cache)
        reportCache();
    if (!out_.telemetry.empty())
        reportTelemetry();
    // Prometheus/OpenMetrics snapshot (VBENCH_PROM_OUT): counters and
    // histograms from the metrics sink plus the latest gauge samples.
    if (obs::promEnabled() &&
        obs::writePromFile(obs::config().prom_path, metrics_,
                           config_.enable_telemetry ? &sampler_
                                                    : nullptr))
        obs::markPromWritten();
    return std::move(out_);
}

core::RunReport
serviceReport(const char *label, double wall_seconds)
{
    core::RunReport r;
    r.label = label;
    r.backend = "service";
    r.seconds = wall_seconds;
    return r;
}

void
ServiceRun::reportFleet()
{
    out_.fleet_usage = fleet_->typeUsage();
    out_.fleet_cost_dollars = fleet_->totalCost();
    core::RunReport fr = serviceReport("service.fleet", out_.wall_seconds);
    fr.extra.emplace_back("workers",
                          static_cast<double>(fleet_->workerCount()));
    fr.extra.emplace_back(
        "types", static_cast<double>(fleet_->config().types.size()));
    fr.extra.emplace_back("total_cost_dollars", out_.fleet_cost_dollars);
    for (const fleet::TypeUsage &u : out_.fleet_usage) {
        fr.extra.emplace_back(u.name + ".count",
                              static_cast<double>(u.count));
        fr.extra.emplace_back(u.name + ".jobs",
                              static_cast<double>(u.jobs));
        fr.extra.emplace_back(u.name + ".busy_s", u.busy_seconds);
        fr.extra.emplace_back(u.name + ".cost_dollars", u.cost_dollars);
        fr.extra.emplace_back(
            u.name + ".util",
            u.count > 0 && out_.wall_seconds > 0
                ? u.busy_seconds /
                    (static_cast<double>(u.count) * out_.wall_seconds)
                : 0.0);
    }
    fr.extra_str.emplace_back(
        "topology", fleet::formatFleetSpec(fleet_->config().types));
    fr.extra_str.emplace_back("policy",
                              fleet::policyName(fleet_->config().policy));
    fr.extra_str.emplace_back("model", fleet_->model().source);
    core::emitRunReport(fr);
}

void
ServiceRun::reportRpc()
{
    // The rpc supervision scorecard (docs/RPC.md): counters into the
    // metrics sink (service.rpc.* — the bench smoke gate and the prom
    // snapshot read these) and a service.rpc run report with one
    // pid/tier/jobs/respawns row per child worker slot (obs_lint
    // --require-rpc schema-checks it). One field list feeds both.
    const ExecutorStats rs = exec_->stats();
    const std::pair<const char *, uint64_t> fields[] = {
        {"dispatched", rs.dispatched},
        {"completed", rs.completed},
        {"retries", rs.retries},
        {"respawns", rs.respawns},
        {"worker_deaths", rs.worker_deaths},
        {"timeouts", rs.timeouts},
        {"protocol_errors", rs.protocol_errors},
        {"hedges", rs.hedges},
        {"hedge_wins", rs.hedge_wins},
        {"hedge_losses", rs.hedge_losses},
        {"degraded_local", rs.degraded_local},
        {"kills_injected", rs.kills_injected},
    };
    core::RunReport rr = serviceReport("service.rpc", out_.wall_seconds);
    rr.extra.emplace_back("workers",
                          static_cast<double>(rs.workers.size()));
    for (const auto &[name, value] : fields) {
        if (metrics_)
            metrics_->counter(std::string("service.rpc.") + name)
                .add(value);
        rr.extra.emplace_back(name, static_cast<double>(value));
    }
    for (size_t w = 0; w < rs.workers.size(); ++w) {
        const ExecutorWorkerInfo &wi = rs.workers[w];
        const std::string prefix = "w" + std::to_string(w);
        rr.extra.emplace_back(prefix + ".pid", static_cast<double>(wi.pid));
        rr.extra.emplace_back(prefix + ".jobs",
                              static_cast<double>(wi.jobs));
        rr.extra.emplace_back(prefix + ".respawns",
                              static_cast<double>(wi.respawns));
        rr.extra.emplace_back(prefix + ".alive", wi.alive ? 1.0 : 0.0);
        rr.extra_str.emplace_back(prefix + ".tier", wi.tier);
    }
    core::emitRunReport(rr);
}

void
ServiceRun::reportCache()
{
    // Counters into the metrics sink (service.cache.*) and a
    // service.cache run report, from one list of the shared fields.
    // Counters are integral, so dollars count micro-dollars (the
    // service.cost_microdollars convention); the report keeps dollars.
    const cache::CacheStats &cs = out_.cache_stats;
    const cache::CacheConfig &cc = config_.cache->config();
    const std::pair<const char *, uint64_t> counts[] = {
        {"lookups", cs.lookups},   {"hits", cs.hits},
        {"misses", cs.misses},     {"inserts", cs.inserts},
        {"admitted", cs.admitted}, {"rejected", cs.rejected},
        {"evictions", cs.evictions},
        {"resident_bytes", cs.resident_bytes},
    };
    const std::pair<const char *, double> dollars[] = {
        {"storage", cs.storage_dollars},
        {"compute", cs.compute_dollars},
        {"saved", cs.saved_dollars},
    };
    core::RunReport cr = serviceReport("service.cache", out_.wall_seconds);
    for (const auto &[name, value] : counts) {
        if (metrics_)
            metrics_->counter(std::string("service.cache.") + name)
                .add(value);
        cr.extra.emplace_back(name, static_cast<double>(value));
    }
    for (const auto &[name, value] : dollars) {
        if (metrics_)
            metrics_
                ->counter(std::string("service.cache.") + name +
                          "_microdollars")
                .add(static_cast<uint64_t>(value * 1e6));
        cr.extra.emplace_back(std::string(name) + "_dollars", value);
    }
    cr.extra.emplace_back("hit_rate", cs.hitRate());
    cr.extra.emplace_back("resident_entries",
                          static_cast<double>(cs.resident_entries));
    cr.extra.emplace_back("capacity_bytes",
                          static_cast<double>(cc.capacity_bytes));
    cr.extra.emplace_back("total_dollars", cs.totalDollars());
    cr.extra_str.emplace_back("policy", cache::policyName(cc.policy));
    core::emitRunReport(cr);
}

void
ServiceRun::reportTelemetry()
{
    core::RunReport tr =
        serviceReport("service.telemetry", out_.wall_seconds);
    tr.extra.emplace_back("ticks",
                          static_cast<double>(sampler_.tickCount()));
    for (const obs::TelemetrySeries &s : out_.telemetry) {
        tr.extra.emplace_back(s.name + ".points",
                              static_cast<double>(s.points.size()));
        tr.extra.emplace_back(s.name + ".last", s.last());
        tr.extra.emplace_back(s.name + ".max", s.max());
        tr.extra.emplace_back(s.name + ".mean", s.mean());
    }
    core::emitRunReport(tr);
}

} // namespace

TranscodeService::TranscodeService(const ServiceConfig &config,
                                   const Corpus &corpus)
    : config_(config), corpus_(corpus)
{
}

ServiceResult
TranscodeService::run(const std::vector<ServiceRequest> &workload)
{
    ServiceRun run(config_, corpus_, workload);
    while (!run.drained()) {
        run.admit();
        run.submit();
        if (!run.collect())
            std::this_thread::sleep_for(kPollInterval);
    }
    return run.report();
}

} // namespace vbench::service
