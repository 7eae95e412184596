#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <atomic>

#include "codec/encoder.h"
#include "codec/stitch.h"
#include "core/runtime_config.h"
#include "core/transcoder.h"
#include "fleet/fleet.h"
#include "ngc/ngc_bitstream.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "core/report.h"
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

/** One ladder rung's segment chain while the request is active. */
struct RungRun {
    std::string name;
    core::TranscodeRequest tmpl;
    bool chained = false;
    int next_submit = 0;  ///< first segment not yet submitted
    int done = 0;         ///< segments completed
    bool failed = false;  ///< any segment transcode failed
    std::optional<codec::RcSnapshot> carry;
    std::vector<codec::ByteBuffer> streams;  ///< by segment
    std::vector<sched::JobHandle> handles;   ///< by segment
    std::vector<double> avail;  ///< availability time per segment
    std::vector<std::string> labels;         ///< job label per segment
    /// Per-segment span (child of the request root), set at submit.
    std::vector<obs::SpanContext> seg_spans;
    /// Per-segment fleet booking (invalid tickets without a fleet).
    std::vector<fleet::Ticket> tickets;
    /// Availability on the monotonic ns clock (the critical-path and
    /// latency origin, so components decompose without residue).
    std::vector<uint64_t> avail_ns;
    /// Per-segment cache key, remembered at submit so the collect loop
    /// can offer the encoded miss back (key_valid gates entries — a
    /// segment that hit, or ran without a cache, has none).
    std::vector<cache::CacheKey> keys;
    std::vector<uint8_t> key_valid;
};

/** A request between admission and completion. */
struct ActiveRequest {
    const ServiceRequest *req = nullptr;
    int segments = 0;
    std::vector<RungRun> rungs;
    obs::SpanContext span;   ///< the request's trace root
    uint64_t offer_ns = 0;   ///< when the request entered admission
};

} // namespace

TranscodeService::TranscodeService(const ServiceConfig &config,
                                   const Corpus &corpus)
    : config_(config), corpus_(corpus)
{
}

ServiceResult
TranscodeService::run(const std::vector<ServiceRequest> &workload)
{
    ServiceResult out;

    std::vector<const ServiceRequest *> pending;
    std::map<uint64_t, const ServiceRequest *> by_id;
    for (const ServiceRequest &req : workload) {
        if (req.clip >= corpus_.clips.size() || req.rungs.empty())
            continue;
        pending.push_back(&req);
        by_id[req.id] = &req;
    }
    std::sort(pending.begin(), pending.end(),
              [](const ServiceRequest *a, const ServiceRequest *b) {
                  return a->arrival_s != b->arrival_s
                      ? a->arrival_s < b->arrival_s
                      : a->id < b->id;
              });

    // One trace sink for the whole run: request span trees recorded
    // here, and the scheduler merges its per-worker timelines (encode
    // slices, flow ends) into the same tracer so the tree connects.
    obs::Tracer *tracer =
        config_.tracer ? config_.tracer : obs::globalTracer();

    // The execution seam (service/executor.h, docs/RPC.md): the
    // dispatcher submits SegmentJobs and collects JobHandles; WHERE a
    // segment encodes is the executor's business. A caller-supplied
    // executor wins; otherwise VBENCH_WORKERS picks the in-process
    // scheduler pool (local, default) or a pool of fork/exec'd
    // vbench_worker child processes (proc).
    std::unique_ptr<SegmentExecutor> owned_exec;
    SegmentExecutor *exec = config_.executor;
    if (exec == nullptr) {
        const core::RuntimeConfig rt = core::freshRuntimeConfig();
        if (rt.workers_mode == "proc") {
            rpc::RemotePoolConfig rpc_config;
            rpc_config.workers = config_.workers;
            rpc_config.worker_binary = rt.worker_bin;
            rpc_config.timeout_ms = rt.rpc_timeout_ms;
            rpc_config.retries = rt.rpc_retries;
            rpc_config.hedge_pct = rt.hedge_pct;
            rpc_config.tracer = tracer;
            owned_exec =
                std::make_unique<rpc::RemotePool>(std::move(rpc_config));
        } else {
            sched::SchedulerConfig sched_config;
            sched_config.workers = config_.workers;
            sched_config.queue_capacity = config_.queue_capacity;
            sched_config.merge_metrics = config_.metrics;
            sched_config.merge_tracer = config_.tracer;
            owned_exec = std::make_unique<LocalExecutor>(sched_config);
        }
        exec = owned_exec.get();
    }

    // Keep submitted-but-unfinished jobs under workers + queue slots so
    // submit() never blocks the dispatcher.
    const size_t inflight_cap = static_cast<size_t>(exec->workers()) +
        exec->queueCapacity();
    const size_t max_active = config_.max_active_requests > 0
        ? config_.max_active_requests
        : static_cast<size_t>(exec->workers()) + 2;

    // The modeled heterogeneous fleet (docs/FLEET.md): placements and
    // dollar accounting only — execution stays on the local pool.
    std::optional<fleet::Fleet> fleet;
    if (config_.fleet != nullptr &&
        fleet::validateFleetConfig(*config_.fleet).empty()) {
        fleet.emplace(*config_.fleet, config_.fleet_model
                          ? *config_.fleet_model
                          : fleet::PerfModel{});
        if (tracer) {
            int fw = 0;
            for (const fleet::WorkerTypeSpec &t :
                 config_.fleet->types)
                for (int i = 0; i < t.count; ++i, ++fw)
                    tracer->nameRow(
                        obs::fleetTid(fw),
                        "fleet " + t.name + " #" + std::to_string(i));
        }
    }

    AdmissionQueue admission(config_.admission_capacity);
    SlaScorer scorer;
    std::map<uint64_t, ActiveRequest> active;
    /// Admitted requests not yet dispatched: root span + offer time
    /// (moved into the ActiveRequest when admission.poll() picks them).
    std::map<uint64_t, std::pair<obs::SpanContext, uint64_t>> queued;

    // Jobs submitted to the scheduler and not yet collected. Atomic
    // because the telemetry sampler reads it from its own thread.
    std::atomic<size_t> inflight{0};

    // Live telemetry: gauge probes snapshotted on a background thread
    // while the dispatcher plays the workload. Every probe reads
    // thread-safe state only (the admission queue's own lock, atomics,
    // the metrics registry's lock).
    obs::MetricsRegistry *gauge_metrics = config_.metrics
        ? config_.metrics
        : (obs::metricsEnabled() ? &obs::globalMetrics() : nullptr);
    obs::TelemetrySampler::Config tele_config;
    if (config_.telemetry_interval_s > 0)
        tele_config.interval_s = config_.telemetry_interval_s;
    obs::TelemetrySampler sampler(tele_config);
    if (config_.enable_telemetry) {
        sampler.addGauge("service.queue_depth", [&admission] {
            return static_cast<double>(admission.size());
        });
        sampler.addGauge("service.inflight_jobs", [&inflight] {
            return static_cast<double>(
                inflight.load(std::memory_order_relaxed));
        });
        const int workers = exec->workers();
        sampler.addGauge("service.worker_utilization", [exec, workers] {
            return static_cast<double>(exec->activeJobs()) /
                static_cast<double>(workers > 0 ? workers : 1);
        });
        if (exec->remote()) {
            // Child-process pool health (stats() is a thread-safe
            // snapshot; mutex-guarded like every other gauge source).
            sampler.addGauge("service.rpc.workers_alive", [exec] {
                const ExecutorStats s = exec->stats();
                double alive = 0;
                for (const ExecutorWorkerInfo &w : s.workers)
                    alive += w.alive ? 1 : 0;
                return alive;
            });
            sampler.addGauge("service.rpc.inflight", [exec] {
                return static_cast<double>(exec->activeJobs());
            });
        }
        sampler.addGauge("service.shed_requests", [&admission] {
            return static_cast<double>(admission.shed());
        });
        // Worker shards merge at the end of the run, so this gauge is
        // authoritative at the final stop() sample and a lower bound
        // while jobs are still in flight.
        sampler.addGauge("service.frame_threads_clamped",
                         [gauge_metrics] {
                             return gauge_metrics
                                 ? static_cast<double>(
                                       gauge_metrics
                                           ->counter("encode.frame_"
                                                     "threads_clamped")
                                           .value())
                                 : 0.0;
                         });
        if (config_.cache) {
            // Output-cache gauges (mutex-guarded accessors, safe from
            // the sampler thread). Like every service gauge, the final
            // synchronous stop() sample lands after the run drains, so
            // the last point is the run's authoritative value.
            cache::TranscodeCache *tc = config_.cache;
            sampler.addGauge("service.cache_hit_rate", [tc] {
                return tc->hitRate();
            });
            sampler.addGauge("service.cache_resident_bytes", [tc] {
                return static_cast<double>(tc->residentBytes());
            });
        }
        if (fleet) {
            // Per-type modeled busy fraction, sampled on the fleet's
            // own clock (mutex-guarded, safe from the sampler thread).
            const double fleet_t0 = obs::nowSeconds();
            for (size_t t = 0; t < fleet->config().types.size(); ++t)
                sampler.addGauge(
                    "fleet.util." + fleet->config().types[t].name,
                    [&f = *fleet, t, fleet_t0] {
                        const std::vector<double> util =
                            f.typeUtilization(obs::nowSeconds() -
                                              fleet_t0);
                        return t < util.size() ? util[t] : 0.0;
                    });
        }
        sampler.start();
    }

    // Segment inputs when the corpus was pre-cut, the whole clip as a
    // single "segment" otherwise (segmenting off, or splitStream
    // declined the stream).
    const auto segInput = [](const CorpusClip &clip, int k) {
        return clip.seg_universal.empty()
            ? clip.universal
            : clip.seg_universal[static_cast<size_t>(k)];
    };
    const auto segOriginal = [](const CorpusClip &clip, int k) {
        return clip.seg_original.empty()
            ? clip.original
            : clip.seg_original[static_cast<size_t>(k)];
    };

    const uint64_t t0_ns = obs::nowNs();
    const double t0 = static_cast<double>(t0_ns) * 1e-9;
    // Workload seconds -> the shared monotonic ns clock.
    const auto toNs = [t0_ns](double service_seconds) {
        return t0_ns +
            static_cast<uint64_t>(
                std::max(0.0, service_seconds) * 1e9);
    };
    size_t next_arrival = 0;

    while (out.completed + out.dropped < pending.size()) {
        const double now = obs::nowSeconds() - t0;

        // Arrivals due by now enter the bounded admission queue; a
        // full queue sheds the request (load shedding, not blocking).
        while (next_arrival < pending.size() &&
               pending[next_arrival]->arrival_s <= now) {
            const ServiceRequest *req = pending[next_arrival++];
            scorer.recordArrival(req->scenario);
            const double deadline = req->live_paced
                ? req->arrival_s + req->segment_deadline_s
                : kInf;
            if (admission.offer(req->id, deadline)) {
                ++out.admitted;
                // Root of this request's trace tree. Minted whether or
                // not a tracer is attached, so exemplar trace ids are
                // stable; events are only recorded when tracing.
                queued[req->id] = {obs::SpanContext::newTrace(),
                                   obs::nowNs()};
                if (tracer)
                    tracer->nameRow(
                        obs::requestTid(req->id),
                        "request " + std::to_string(req->id) + " (" +
                            core::toString(req->scenario) + ")");
            } else {
                scorer.recordDrop(req->scenario);
                ++out.dropped;
            }
        }

        // Admit queued requests (earliest finite deadline first, FIFO
        // otherwise) up to the active-request cap.
        while (active.size() < max_active) {
            const std::optional<Admitted> next = admission.poll();
            if (!next)
                break;
            const ServiceRequest *req = by_id[next->key];
            const CorpusClip &clip = corpus_.clips[req->clip];
            ActiveRequest ar;
            ar.req = req;
            ar.segments = std::max(1, clip.segmentCount());
            if (const auto it = queued.find(req->id);
                it != queued.end()) {
                ar.span = it->second.first;
                ar.offer_ns = it->second.second;
                queued.erase(it);
            }
            if (tracer && ar.span.valid()) {
                // Admission wait: offer -> EDF/FIFO dispatch.
                obs::ScopeEvent wait;
                wait.name = "admission_wait";
                wait.span = ar.span.child();
                wait.tid = obs::requestTid(req->id);
                wait.start_ns = ar.offer_ns;
                wait.dur_ns = obs::nowNs() - ar.offer_ns;
                tracer->addScope(std::move(wait));
            }
            for (const RungSpec &spec : req->rungs) {
                RungRun rr;
                rr.name = spec.name;
                rr.tmpl = spec.request;
                rr.tmpl.segment_frames =
                    clip.segmentCount() > 0 ? corpus_.segment_frames : 0;
                // Pin the entropy slice count into the job description
                // now: slices change the encoded bytes, so the cache
                // key and any remote worker must see the resolved
                // value, never "read your own VBENCH_SLICES".
                rr.tmpl.slice_count =
                    codec::resolveSliceCount(rr.tmpl.slice_count);
                rr.chained = isChained(rr.tmpl);
                rr.streams.resize(static_cast<size_t>(ar.segments));
                rr.handles.resize(static_cast<size_t>(ar.segments));
                rr.avail.resize(static_cast<size_t>(ar.segments), 0.0);
                rr.labels.resize(static_cast<size_t>(ar.segments));
                rr.seg_spans.resize(static_cast<size_t>(ar.segments));
                rr.tickets.resize(static_cast<size_t>(ar.segments));
                rr.avail_ns.resize(static_cast<size_t>(ar.segments), 0);
                rr.keys.resize(static_cast<size_t>(ar.segments));
                rr.key_valid.resize(static_cast<size_t>(ar.segments), 0);
                ar.rungs.push_back(std::move(rr));
            }
            active.emplace(req->id, std::move(ar));
        }

        // Submit every segment that is ready: chained rungs wait for
        // the previous segment's RcSnapshot, Live requests wait for
        // the segment to exist (the stream is still being produced).
        for (auto &[id, ar] : active) {
            const ServiceRequest &req = *ar.req;
            const CorpusClip &clip = corpus_.clips[req.clip];
            const double seg_duration = clip.segmentCount() > 0
                ? corpus_.segment_frames / clip.spec.fps
                : clip.original->duration();
            for (RungRun &rr : ar.rungs) {
                while (rr.next_submit < ar.segments &&
                       inflight < inflight_cap) {
                    const int k = rr.next_submit;
                    if (rr.chained && k > rr.done)
                        break;
                    const double avail = req.live_paced
                        ? req.arrival_s + k * seg_duration
                        : req.arrival_s;
                    if (req.live_paced &&
                        obs::nowSeconds() - t0 < avail)
                        break;
                    // The wire boundary: everything a worker needs is
                    // a SegmentJob — input bytes, params, RC carry.
                    SegmentJob sj;
                    sj.request_id = req.id;
                    sj.rung = rr.name;
                    sj.segment_index = k;
                    sj.scenario = req.scenario;
                    sj.input = *segInput(clip, k);
                    sj.params = rr.tmpl;
                    if (rr.chained && k > 0)
                        sj.params.rc_in = rr.carry;
                    // One child span per segment: the scheduler hangs
                    // the worker-side encode slice and the flow-arrow
                    // end off it (sched::Scheduler::runJob).
                    sj.params.span = ar.span.valid()
                        ? ar.span.child()
                        : obs::SpanContext{};
                    if (config_.wire_loopback) {
                        // Remote-worker path, in-process: execute the
                        // *deserialized* copy of the message.
                        std::string wire_error;
                        std::optional<SegmentJob> round =
                            SegmentJob::deserialize(sj.serialize(),
                                                    &wire_error);
                        if (round)
                            sj = std::move(*round);
                        else
                            std::fprintf(stderr,
                                         "vbench: wire loopback "
                                         "failed: %s\n",
                                         wire_error.c_str());
                    }
                    rr.labels[static_cast<size_t>(k)] = sj.label();
                    rr.seg_spans[static_cast<size_t>(k)] =
                        sj.params.span;
                    rr.avail[static_cast<size_t>(k)] = avail;
                    rr.avail_ns[static_cast<size_t>(k)] = toNs(avail);
                    // Output cache (docs/CACHE.md): probe the canonical
                    // transcode identity before booking any compute. A
                    // hit completes the segment right here — stream and
                    // RC out-state byte-identical to a fresh encode —
                    // so a chained rung's next segment can submit in
                    // this same pass. pass_one stats are host-local and
                    // uncacheable (never set on service jobs; guarded
                    // anyway).
                    if (config_.cache &&
                        sj.params.pass_one == nullptr) {
                        const size_t sk = static_cast<size_t>(k);
                        const cache::CacheKey key = sj.cacheKey();
                        std::optional<cache::CachedSegment> got =
                            config_.cache->lookup(
                                key, obs::nowSeconds() - t0);
                        if (got) {
                            const uint64_t seg_avail_ns =
                                rr.avail_ns[sk];
                            const uint64_t end_ns = obs::nowNs();
                            const double done_at =
                                static_cast<double>(end_ns - t0_ns) *
                                1e-9;
                            const double latency =
                                end_ns > seg_avail_ns
                                ? static_cast<double>(end_ns -
                                                      seg_avail_ns) *
                                    1e-9
                                : 0.0;
                            const bool hit = req.live_paced
                                ? latency <= req.segment_deadline_s
                                : done_at <= req.arrival_s +
                                    req.request_deadline_s;
                            // No queue, no encode: the whole latency
                            // is pre-dispatch wait, so the critical
                            // path stays a clean decomposition.
                            obs::CriticalPath cp;
                            cp.rc_chain_ms = latency * 1e3;
                            scorer.recordSegment(
                                req.scenario, latency, hit,
                                segOriginal(clip, k)->totalPixels(),
                                true, rr.seg_spans[sk].trace_id, cp,
                                rr.labels[sk], 0.0, got->psnr_db,
                                /*cache_hit=*/true);
                            if (tracer && rr.seg_spans[sk].valid()) {
                                const obs::SpanContext &seg =
                                    rr.seg_spans[sk];
                                const int32_t rtid =
                                    obs::requestTid(req.id);
                                const uint64_t dur_ns =
                                    end_ns > seg_avail_ns
                                    ? end_ns - seg_avail_ns
                                    : 0;
                                obs::ScopeEvent scope;
                                scope.name = "segment " + rr.name +
                                    ".s" + std::to_string(k);
                                scope.span = seg;
                                scope.tid = rtid;
                                scope.start_ns = seg_avail_ns;
                                scope.dur_ns = dur_ns;
                                tracer->addScope(std::move(scope));
                                obs::ScopeEvent hit_scope;
                                hit_scope.name = "cache_hit " +
                                    rr.name + ".s" +
                                    std::to_string(k);
                                hit_scope.span = seg.child();
                                hit_scope.tid = rtid;
                                hit_scope.start_ns = seg_avail_ns;
                                hit_scope.dur_ns = dur_ns;
                                tracer->addScope(
                                    std::move(hit_scope));
                            }
                            rr.streams[sk] = std::move(got->stream);
                            if (rr.chained)
                                rr.carry = got->rc_out;
                            ++rr.done;
                            ++rr.next_submit;
                            continue;
                        }
                        rr.keys[sk] = key;
                        rr.key_valid[sk] = 1;
                    }
                    if (fleet) {
                        fleet::JobMeta meta;
                        meta.pixels = static_cast<double>(
                            segOriginal(clip, k)->totalPixels());
                        meta.work_scalar_s =
                            fleet->model().scalarWorkSeconds(
                                meta.pixels);
                        meta.ready_s = avail;
                        meta.deadline_s = req.live_paced
                            ? avail + req.segment_deadline_s
                            : req.arrival_s + req.request_deadline_s;
                        meta.scenario = req.scenario;
                        rr.tickets[static_cast<size_t>(k)] =
                            fleet->place(meta,
                                         obs::nowSeconds() - t0);
                    }
                    rr.handles[static_cast<size_t>(k)] =
                        exec->submit(std::move(sj),
                                     segOriginal(clip, k));
                    ++inflight;
                    ++rr.next_submit;
                }
            }
        }

        // Collect completions and score them against the SLA.
        std::vector<uint64_t> finished;
        for (auto &[id, ar] : active) {
            const ServiceRequest &req = *ar.req;
            const CorpusClip &clip = corpus_.clips[req.clip];
            for (RungRun &rr : ar.rungs) {
                for (int k = 0; k < rr.next_submit; ++k) {
                    sched::JobHandle &handle =
                        rr.handles[static_cast<size_t>(k)];
                    if (!handle.valid() || !handle.finished())
                        continue;
                    const sched::JobResult &jr = handle.wait();
                    const size_t sk = static_cast<size_t>(k);
                    // Completion on the shared monotonic clock: the
                    // job's own end timestamp when it ran (exact — no
                    // dispatcher poll lag), the poll clock otherwise.
                    const uint64_t end_ns =
                        jr.end_ns ? jr.end_ns : obs::nowNs();
                    const double done_at =
                        static_cast<double>(end_ns - t0_ns) * 1e-9;
                    const uint64_t avail_ns =
                        rr.avail_ns[sk] ? rr.avail_ns[sk] : t0_ns;
                    const double latency = end_ns > avail_ns
                        ? static_cast<double>(end_ns - avail_ns) * 1e-9
                        : 0.0;
                    const bool hit = req.live_paced
                        ? latency <= req.segment_deadline_s
                        : done_at <=
                            req.arrival_s + req.request_deadline_s;
                    // Close the critical-path decomposition: the
                    // scheduler filled queue_wait and encode over
                    // [submit, end]; rc_chain is the pre-queue wait
                    // [avail, submit] (RC-carry predecessor for
                    // chained rungs, admission/dispatch delay for the
                    // rest). All on one clock, so the components tile
                    // [avail, end] — exactly the scored latency.
                    obs::CriticalPath cp = jr.outcome.critical_path;
                    cp.rc_chain_ms = jr.submit_ns > avail_ns
                        ? static_cast<double>(jr.submit_ns - avail_ns) *
                            1e-6
                        : 0.0;
                    // Settle the fleet booking against the measured
                    // encode time: the modeled worker charges what
                    // the job actually cost on its machine type.
                    double cost_dollars = 0;
                    const fleet::Ticket &ticket = rr.tickets[sk];
                    if (fleet && ticket.valid()) {
                        cost_dollars =
                            fleet->settle(ticket, jr.seconds);
                        if (tracer) {
                            obs::ScopeEvent booking;
                            booking.name = rr.labels[sk];
                            booking.span = rr.seg_spans[sk].valid()
                                ? rr.seg_spans[sk].child()
                                : obs::SpanContext{};
                            booking.tid =
                                obs::fleetTid(ticket.worker);
                            booking.start_ns = toNs(ticket.start_s);
                            booking.dur_ns = static_cast<uint64_t>(
                                std::max(0.0, ticket.exec_s) * 1e9);
                            tracer->addScope(std::move(booking));
                        }
                    }
                    scorer.recordSegment(req.scenario, latency, hit,
                                         segOriginal(clip, k)
                                             ->totalPixels(),
                                         jr.ok(),
                                         rr.seg_spans[sk].trace_id, cp,
                                         rr.labels[sk], cost_dollars,
                                         jr.outcome.m.psnr_db);
                    if (tracer && rr.seg_spans[sk].valid() &&
                        jr.end_ns) {
                        const obs::SpanContext &seg = rr.seg_spans[sk];
                        const int32_t rtid = obs::requestTid(req.id);
                        obs::ScopeEvent scope;
                        scope.name = "segment " + rr.name + ".s" +
                            std::to_string(k);
                        scope.span = seg;
                        scope.tid = rtid;
                        scope.start_ns = avail_ns;
                        scope.dur_ns = end_ns - avail_ns;
                        tracer->addScope(std::move(scope));
                        if (rr.chained && k > 0 &&
                            jr.submit_ns > avail_ns) {
                            obs::ScopeEvent chain;
                            chain.name = "rc_chain " + rr.name + ".s" +
                                std::to_string(k);
                            chain.span = seg.child();
                            chain.tid = rtid;
                            chain.start_ns = avail_ns;
                            chain.dur_ns = jr.submit_ns - avail_ns;
                            tracer->addScope(std::move(chain));
                        }
                        obs::ScopeEvent queued_scope;
                        queued_scope.name = "queued " + rr.name + ".s" +
                            std::to_string(k);
                        queued_scope.span = seg.child();
                        queued_scope.tid = rtid;
                        queued_scope.start_ns = jr.submit_ns;
                        queued_scope.dur_ns =
                            jr.start_ns > jr.submit_ns
                            ? jr.start_ns - jr.submit_ns
                            : 0;
                        tracer->addScope(std::move(queued_scope));
                        // Flow arrow: queued slice here -> encode
                        // slice on the worker row (end recorded by
                        // the scheduler at job start).
                        obs::FlowEvent flow;
                        flow.name = "dispatch";
                        flow.flow_id = seg.span_id;
                        flow.tid = rtid;
                        flow.ts_ns = jr.submit_ns;
                        flow.begin = true;
                        tracer->addFlow(std::move(flow));
                    }
                    if (jr.ok()) {
                        rr.streams[static_cast<size_t>(k)] =
                            jr.outcome.stream;
                        if (rr.chained)
                            rr.carry = jr.outcome.rc_state;
                        // Offer the encoded miss back; whether it is
                        // stored is the cache policy's dollar call.
                        if (config_.cache && rr.key_valid[sk]) {
                            cache::CachedSegment cs;
                            cs.stream = jr.outcome.stream;
                            cs.rc_out = jr.outcome.rc_state;
                            cs.psnr_db = jr.outcome.m.psnr_db;
                            cs.bitrate_bpps = jr.outcome.m.bitrate_bpps;
                            cs.speed_mpix_s = jr.outcome.m.speed_mpix_s;
                            cs.encode_seconds = jr.seconds;
                            config_.cache->insert(
                                rr.keys[sk], std::move(cs),
                                obs::nowSeconds() - t0);
                        }
                    } else {
                        rr.failed = true;
                        // Unblock the chain: later segments start
                        // fresh rather than never running.
                        if (rr.chained)
                            rr.carry.reset();
                    }
                    handle = sched::JobHandle();
                    ++rr.done;
                    --inflight;
                }
            }

            bool all_done = true;
            for (const RungRun &rr : ar.rungs)
                all_done = all_done && rr.done == ar.segments;
            if (!all_done)
                continue;

            bool any_failed = false;
            for (RungRun &rr : ar.rungs) {
                if (rr.failed) {
                    any_failed = true;
                    ++out.stitch_failures;
                    continue;
                }
                const uint64_t stitch_start = obs::nowNs();
                std::optional<codec::ByteBuffer> delivery =
                    stitchForKind(rr.tmpl.kind, std::move(rr.streams));
                const bool stitched = delivery.has_value();
                const uint64_t stitch_end = obs::nowNs();
                if (stitched && config_.collect_outputs)
                    out.outputs.emplace(
                        std::to_string(req.id) + "." + rr.name,
                        std::move(*delivery));
                scorer.recordStitch(
                    req.scenario,
                    static_cast<double>(stitch_end - stitch_start) *
                        1e-6);
                if (tracer && ar.span.valid()) {
                    obs::ScopeEvent scope;
                    scope.name = "stitch " + rr.name;
                    scope.span = ar.span.child();
                    scope.tid = obs::requestTid(req.id);
                    scope.start_ns = stitch_start;
                    scope.dur_ns = stitch_end - stitch_start;
                    tracer->addScope(std::move(scope));
                }
                if (stitched)
                    ++out.stitched_rungs;
                else
                    ++out.stitch_failures;
            }
            if (any_failed)
                ++out.failed_requests;
            ++out.completed;
            if (tracer && ar.span.valid()) {
                // The request's root slice: arrival through the last
                // stitch. Everything above (admission_wait, segments,
                // rc_chain/queued, stitches) nests inside it, and the
                // worker-side encode slices connect by parent span id
                // and the dispatch flow arrows.
                const uint64_t arrival_ns = toNs(req.arrival_s);
                const uint64_t done_ns = obs::nowNs();
                obs::ScopeEvent root;
                root.name = "request " + std::to_string(req.id);
                root.span = ar.span;
                root.tid = obs::requestTid(req.id);
                root.start_ns = arrival_ns;
                root.dur_ns =
                    done_ns > arrival_ns ? done_ns - arrival_ns : 0;
                tracer->addScope(std::move(root));
            }
            finished.push_back(id);
        }
        for (uint64_t id : finished)
            active.erase(id);

        if (finished.empty())
            std::this_thread::sleep_for(std::chrono::duration<double>(
                config_.poll_interval_s));
    }

    out.wall_seconds = obs::nowSeconds() - t0;
    // Merge worker shards before the sampler's final synchronous
    // sample so gauges fed by merged counters (frame-thread clamps)
    // end on the authoritative value.
    exec->drainObs();
    sampler.stop();
    out.telemetry = sampler.snapshot();
    out.sla = scorer.report(out.wall_seconds);
    if (config_.cache) {
        // Snapshot with rent accrued through the end of the run; the
        // SlaReport rollup mirrors the headline numbers so scorecards
        // and benches read one struct.
        out.cache_stats = config_.cache->stats(out.wall_seconds);
        const cache::CacheStats &cs = out.cache_stats;
        out.sla.cache_enabled = true;
        out.sla.cache_hits = cs.hits;
        out.sla.cache_misses = cs.misses;
        out.sla.cache_hit_rate = cs.hitRate();
        out.sla.cache_resident_bytes = cs.resident_bytes;
        out.sla.cache_storage_dollars = cs.storage_dollars;
        out.sla.cache_compute_dollars = cs.compute_dollars;
        out.sla.cache_saved_dollars = cs.saved_dollars;
        out.sla.cache_total_dollars = cs.totalDollars();
    }
    if (gauge_metrics)
        scorer.exportMetrics(*gauge_metrics);
    if (config_.cache && gauge_metrics) {
        const cache::CacheStats &cs = out.cache_stats;
        gauge_metrics->counter("service.cache.lookups").add(cs.lookups);
        gauge_metrics->counter("service.cache.hits").add(cs.hits);
        gauge_metrics->counter("service.cache.misses").add(cs.misses);
        gauge_metrics->counter("service.cache.inserts").add(cs.inserts);
        gauge_metrics->counter("service.cache.admitted")
            .add(cs.admitted);
        gauge_metrics->counter("service.cache.rejected")
            .add(cs.rejected);
        gauge_metrics->counter("service.cache.evictions")
            .add(cs.evictions);
        gauge_metrics->counter("service.cache.resident_bytes")
            .add(cs.resident_bytes);
        // Counters are integral; dollars export at micro-dollar
        // resolution (same convention as service.cost_microdollars).
        gauge_metrics->counter("service.cache.storage_microdollars")
            .add(static_cast<uint64_t>(cs.storage_dollars * 1e6));
        gauge_metrics->counter("service.cache.compute_microdollars")
            .add(static_cast<uint64_t>(cs.compute_dollars * 1e6));
        gauge_metrics->counter("service.cache.saved_microdollars")
            .add(static_cast<uint64_t>(cs.saved_dollars * 1e6));
    }
    scorer.emitRunReports(out.sla);
    if (fleet) {
        out.fleet_usage = fleet->typeUsage();
        out.fleet_cost_dollars = fleet->totalCost();
        core::RunReport fr;
        fr.label = "service.fleet";
        fr.backend = "service";
        fr.seconds = out.wall_seconds;
        fr.extra.emplace_back(
            "workers", static_cast<double>(fleet->workerCount()));
        fr.extra.emplace_back(
            "types",
            static_cast<double>(fleet->config().types.size()));
        fr.extra.emplace_back("total_cost_dollars",
                              out.fleet_cost_dollars);
        for (const fleet::TypeUsage &u : out.fleet_usage) {
            fr.extra.emplace_back(u.name + ".count",
                                  static_cast<double>(u.count));
            fr.extra.emplace_back(u.name + ".jobs",
                                  static_cast<double>(u.jobs));
            fr.extra.emplace_back(u.name + ".busy_s", u.busy_seconds);
            fr.extra.emplace_back(u.name + ".cost_dollars",
                                  u.cost_dollars);
            fr.extra.emplace_back(
                u.name + ".util",
                u.count > 0 && out.wall_seconds > 0
                    ? u.busy_seconds /
                        (static_cast<double>(u.count) *
                         out.wall_seconds)
                    : 0.0);
        }
        fr.extra_str.emplace_back(
            "topology",
            fleet::formatFleetSpec(fleet->config().types));
        fr.extra_str.emplace_back(
            "policy", fleet::policyName(fleet->config().policy));
        fr.extra_str.emplace_back("model", fleet->model().source);
        core::emitRunReport(fr);
    }
    if (exec->remote()) {
        // The rpc supervision scorecard (docs/RPC.md): counters into
        // the metrics sink (service.rpc.* — the bench smoke gate and
        // the prom snapshot read these) and a service.rpc run report
        // with one pid/tier/jobs/respawns row per child worker slot
        // (obs_lint --require-rpc schema-checks it).
        const ExecutorStats rs = exec->stats();
        if (gauge_metrics) {
            obs::MetricsRegistry &m = *gauge_metrics;
            m.counter("service.rpc.dispatched").add(rs.dispatched);
            m.counter("service.rpc.completed").add(rs.completed);
            m.counter("service.rpc.retries").add(rs.retries);
            m.counter("service.rpc.respawns").add(rs.respawns);
            m.counter("service.rpc.worker_deaths")
                .add(rs.worker_deaths);
            m.counter("service.rpc.timeouts").add(rs.timeouts);
            m.counter("service.rpc.protocol_errors")
                .add(rs.protocol_errors);
            m.counter("service.rpc.hedges").add(rs.hedges);
            m.counter("service.rpc.hedge_wins").add(rs.hedge_wins);
            m.counter("service.rpc.hedge_losses")
                .add(rs.hedge_losses);
            m.counter("service.rpc.degraded_local")
                .add(rs.degraded_local);
            m.counter("service.rpc.kills_injected")
                .add(rs.kills_injected);
        }
        core::RunReport rr;
        rr.label = "service.rpc";
        rr.backend = "service";
        rr.seconds = out.wall_seconds;
        rr.extra.emplace_back(
            "workers", static_cast<double>(rs.workers.size()));
        rr.extra.emplace_back("dispatched",
                              static_cast<double>(rs.dispatched));
        rr.extra.emplace_back("completed",
                              static_cast<double>(rs.completed));
        rr.extra.emplace_back("retries",
                              static_cast<double>(rs.retries));
        rr.extra.emplace_back("respawns",
                              static_cast<double>(rs.respawns));
        rr.extra.emplace_back(
            "worker_deaths", static_cast<double>(rs.worker_deaths));
        rr.extra.emplace_back("timeouts",
                              static_cast<double>(rs.timeouts));
        rr.extra.emplace_back(
            "protocol_errors",
            static_cast<double>(rs.protocol_errors));
        rr.extra.emplace_back("hedges",
                              static_cast<double>(rs.hedges));
        rr.extra.emplace_back("hedge_wins",
                              static_cast<double>(rs.hedge_wins));
        rr.extra.emplace_back("hedge_losses",
                              static_cast<double>(rs.hedge_losses));
        rr.extra.emplace_back(
            "degraded_local", static_cast<double>(rs.degraded_local));
        rr.extra.emplace_back(
            "kills_injected", static_cast<double>(rs.kills_injected));
        for (size_t w = 0; w < rs.workers.size(); ++w) {
            const ExecutorWorkerInfo &wi = rs.workers[w];
            const std::string prefix = "w" + std::to_string(w);
            rr.extra.emplace_back(prefix + ".pid",
                                  static_cast<double>(wi.pid));
            rr.extra.emplace_back(prefix + ".jobs",
                                  static_cast<double>(wi.jobs));
            rr.extra.emplace_back(prefix + ".respawns",
                                  static_cast<double>(wi.respawns));
            rr.extra.emplace_back(prefix + ".alive",
                                  wi.alive ? 1.0 : 0.0);
            rr.extra_str.emplace_back(prefix + ".tier", wi.tier);
        }
        core::emitRunReport(rr);
    }
    if (config_.cache) {
        const cache::CacheStats &cs = out.cache_stats;
        core::RunReport cr;
        cr.label = "service.cache";
        cr.backend = "service";
        cr.seconds = out.wall_seconds;
        cr.extra.emplace_back("lookups",
                              static_cast<double>(cs.lookups));
        cr.extra.emplace_back("hits", static_cast<double>(cs.hits));
        cr.extra.emplace_back("misses",
                              static_cast<double>(cs.misses));
        cr.extra.emplace_back("hit_rate", cs.hitRate());
        cr.extra.emplace_back("inserts",
                              static_cast<double>(cs.inserts));
        cr.extra.emplace_back("admitted",
                              static_cast<double>(cs.admitted));
        cr.extra.emplace_back("rejected",
                              static_cast<double>(cs.rejected));
        cr.extra.emplace_back("evictions",
                              static_cast<double>(cs.evictions));
        cr.extra.emplace_back(
            "resident_entries",
            static_cast<double>(cs.resident_entries));
        cr.extra.emplace_back("resident_bytes",
                              static_cast<double>(cs.resident_bytes));
        cr.extra.emplace_back(
            "capacity_bytes",
            static_cast<double>(
                config_.cache->config().capacity_bytes));
        cr.extra.emplace_back("storage_dollars", cs.storage_dollars);
        cr.extra.emplace_back("compute_dollars", cs.compute_dollars);
        cr.extra.emplace_back("saved_dollars", cs.saved_dollars);
        cr.extra.emplace_back("total_dollars", cs.totalDollars());
        cr.extra_str.emplace_back(
            "policy",
            cache::policyName(config_.cache->config().policy));
        core::emitRunReport(cr);
    }
    if (!out.telemetry.empty()) {
        core::RunReport tr;
        tr.label = "service.telemetry";
        tr.backend = "service";
        tr.seconds = out.wall_seconds;
        tr.extra.emplace_back("ticks",
                              static_cast<double>(sampler.tickCount()));
        for (const obs::TelemetrySeries &s : out.telemetry) {
            tr.extra.emplace_back(
                s.name + ".points",
                static_cast<double>(s.points.size()));
            tr.extra.emplace_back(s.name + ".last", s.last());
            tr.extra.emplace_back(s.name + ".max", s.max());
            tr.extra.emplace_back(s.name + ".mean", s.mean());
        }
        core::emitRunReport(tr);
    }
    // Prometheus/OpenMetrics snapshot (VBENCH_PROM_OUT): counters and
    // histograms from the metrics sink plus the latest gauge samples.
    if (obs::promEnabled() &&
        obs::writePromFile(obs::config().prom_path, gauge_metrics,
                           config_.enable_telemetry ? &sampler
                                                    : nullptr))
        obs::markPromWritten();
    return out;
}

} // namespace vbench::service
