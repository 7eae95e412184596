#pragma once

/**
 * @file
 * The request-driven transcoding service (docs/SERVICE.md): admission
 * control in front of the sched::Scheduler worker pool, segment-level
 * split-and-stitch dispatch, and SLA scoring.
 *
 * One dispatcher loop plays the timed workload against the real clock:
 * arrivals enter the bounded AdmissionQueue (full queue = shed request
 * + drop counter), admitted requests are dispatched
 * earliest-deadline-first for Live and FIFO otherwise, and each
 * segment becomes one TranscodeJob on the scheduler pool. Bitrate-
 * controlled rungs encode their segments as a chain (RcSnapshot
 * carried segment to segment); constant-quality rungs fan all
 * segments out at once. Finished rungs stitch their segment streams
 * into the delivery stream. Frame-thread requests are left at 0 so
 * sched::decideFrameThreads() composes the wavefront width with the
 * pool's job-level parallelism.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "codec/types.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "service/sla.h"
#include "service/workload.h"

namespace vbench::service {

class SegmentExecutor;

/** Service sizing. Zeros mean "pick the sane default". */
struct ServiceConfig {
    /// Scheduler worker threads; <= 0 uses the scheduler default
    /// (VBENCH_JOBS or hardware concurrency).
    int workers = 0;
    /// Admission queue capacity: requests waiting for dispatch beyond
    /// this are shed (load shedding, not backpressure).
    size_t admission_capacity = 32;
    /// Requests being actively transcoded at once; 0 uses
    /// workers + 2.
    size_t max_active_requests = 0;
    /// Metrics sink for service counters, SLA histograms, and the
    /// scheduler's merged worker shards. Null disables.
    obs::MetricsRegistry *metrics = nullptr;
    /// Trace sink for the per-request span trees, flow arrows, and the
    /// scheduler's merged worker timelines. Null falls back to the
    /// process-wide tracer (VBENCH_TRACE); when that is also off,
    /// request span ids are still minted (exemplars stay resolvable
    /// across runs) but no trace events are recorded.
    obs::Tracer *tracer = nullptr;
    /// Live telemetry: sample the service gauges (queue depth,
    /// in-flight jobs, worker utilization, shed count, frame-thread
    /// clamps) every 10 ms on a background thread while the run plays.
    bool enable_telemetry = true;
    /**
     * Heterogeneous fleet model (docs/FLEET.md). When set, every
     * segment is additionally *placed* on a modeled fleet worker:
     * the placement policy books it onto a machine type, and the
     * booking's modeled time/cost feed the SLA scorer's $/stream
     * columns and the fleet run report. Execution still happens on
     * the local scheduler pool — streams are placement-invariant.
     * Null = no fleet, cost columns stay zero.
     */
    const fleet::FleetConfig *fleet = nullptr;
    /// Per-type performance model for the fleet; null uses the
    /// PerfModel defaults (see fleet::calibratePerfModel).
    const fleet::PerfModel *fleet_model = nullptr;
    /**
     * Transcode output cache (docs/CACHE.md). When set, the dispatcher
     * consults it — keyed on SegmentJob::cacheKey() — before placing a
     * segment on the fleet/scheduler; a hit returns the stored stream
     * and RcSnapshot out-state so chained rungs continue unchanged,
     * and every miss's result is offered back under the cache's
     * store-vs-recompute policy. Streams are byte-identical with the
     * cache on or off. The cache outlives the run (the caller owns
     * it), so a warm cache carries across runs. Null = no cache.
     */
    cache::TranscodeCache *cache = nullptr;
    /// Keep each stitched delivery stream in ServiceResult::outputs
    /// (key "<request>.<rung>") for byte-identity tests.
    bool collect_outputs = false;
    /**
     * Execution seam override (service/executor.h). When set, every
     * segment is submitted here instead of the built-in pool; the
     * caller owns it and it must outlive run(). Null picks the
     * built-in executor from VBENCH_WORKERS: the in-process scheduler
     * pool (local, the default) or an rpc::RemotePool of fork/exec'd
     * vbench_worker children (proc, docs/RPC.md). Streams are
     * executor-invariant — byte-identical either way.
     */
    SegmentExecutor *executor = nullptr;
};

/** What a service run produced. */
struct ServiceResult {
    SlaReport sla;
    uint64_t admitted = 0;
    uint64_t dropped = 0;          ///< requests shed at admission
    uint64_t completed = 0;        ///< requests with all segments done
    uint64_t failed_requests = 0;  ///< completed but ≥1 segment failed
    uint64_t stitched_rungs = 0;   ///< rungs whose segments stitched
    uint64_t stitch_failures = 0;
    double wall_seconds = 0;
    /// Sampled gauge time series for the run (empty when telemetry is
    /// disabled). Every gauge carries at least one point: the sampler
    /// takes a final synchronous sample after the run drains.
    std::vector<obs::TelemetrySeries> telemetry;
    /// Per-type fleet rollup (empty without a fleet).
    std::vector<fleet::TypeUsage> fleet_usage;
    /// Total modeled fleet dollars (0 without a fleet).
    double fleet_cost_dollars = 0;
    /// Output-cache snapshot at run end (all-zero without a cache);
    /// the SlaReport cache_* rollup mirrors the headline numbers.
    cache::CacheStats cache_stats;
    /// Stitched delivery streams when ServiceConfig::collect_outputs.
    std::map<std::string, codec::ByteBuffer> outputs;
};

/**
 * The service. Owns nothing between runs; run() spins up a scheduler
 * pool, plays the workload in real time, and tears down.
 */
class TranscodeService
{
  public:
    TranscodeService(const ServiceConfig &config, const Corpus &corpus);

    /**
     * Play a timed workload (sorted or not — it is sorted by arrival
     * internally) against the wall clock and return the scorecard.
     * Emits per-scenario run reports (VBENCH_METRICS_OUT) and exports
     * metrics into ServiceConfig::metrics before returning.
     */
    ServiceResult run(const std::vector<ServiceRequest> &workload);

  private:
    ServiceConfig config_;
    const Corpus &corpus_;
};

} // namespace vbench::service
