#pragma once

/**
 * @file
 * The dispatcher's execution seam. service.cc's submit/collect loops
 * speak this interface and nothing else about how a segment actually
 * runs: LocalExecutor (service.cc) wraps the in-process
 * sched::Scheduler pool, rpc::RemotePool routes each SegmentJob to a
 * fork/exec'd vbench_worker child (VBENCH_WORKERS=proc, docs/RPC.md).
 * Both resolve the same sched::JobHandle future, fill the same
 * JobResult fields (submit/start/end timestamps on the shared
 * monotonic clock, critical-path tiling over [submit, end], measured
 * encode seconds for fleet settlement), and record the same encode
 * scope + dispatch flow-arrow end — so placement, cost booking, cache
 * insertion, SLA scoring, and span trees are executor-invariant.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "service/segment_job.h"
#include "video/video.h"

namespace vbench::service {

/** One executor worker slot, for the service.rpc run report. */
struct ExecutorWorkerInfo {
    int64_t pid = 0;       ///< child pid (0 for in-process slots)
    std::string tier;      ///< handshake-advertised kernel ISA tier
    uint64_t jobs = 0;     ///< attempts dispatched to this slot
    uint64_t respawns = 0; ///< times the slot's child was restarted
    bool alive = false;
};

/** Counters a remote executor accumulates (all zero for local). */
struct ExecutorStats {
    bool remote = false;
    uint64_t dispatched = 0;       ///< job attempts sent to children
    uint64_t completed = 0;        ///< jobs resolved (any attempt won)
    uint64_t retries = 0;          ///< re-dispatches after infra failure
    uint64_t respawns = 0;         ///< child restarts (death or timeout)
    uint64_t worker_deaths = 0;    ///< connection lost mid-job
    uint64_t timeouts = 0;         ///< per-job deadline expiries
    uint64_t protocol_errors = 0;  ///< framing/deserialize violations
    uint64_t hedges = 0;           ///< straggler duplicates dispatched
    uint64_t hedge_wins = 0;       ///< duplicates that finished first
    uint64_t hedge_losses = 0;     ///< losing attempts discarded
    uint64_t degraded_local = 0;   ///< jobs run in-process as last resort
    uint64_t kills_injected = 0;   ///< fault-injection SIGKILLs fired
    uint64_t inflight = 0;         ///< jobs submitted, not yet resolved
    std::vector<ExecutorWorkerInfo> workers;
};

/** Where the dispatcher sends segments to be encoded. */
class SegmentExecutor
{
  public:
    virtual ~SegmentExecutor() = default;

    /**
     * Enqueue one segment job. `original` is the host-local pristine
     * quality reference (never serialized; remote executors may ignore
     * it except for last-resort in-process degradation). The handle
     * resolves exactly like a Scheduler submit.
     */
    virtual sched::JobHandle
    submit(SegmentJob job,
           std::shared_ptr<const video::Video> original) = 0;

    virtual int workers() const = 0;
    virtual size_t queueCapacity() const = 0;
    /**
     * Worker slots running a job right now, at most workers(): the
     * service.worker_utilization gauge. Jobs still queued for a slot
     * are not counted.
     */
    virtual size_t activeJobs() const = 0;
    virtual bool remote() const { return false; }
    /** Thread-safe counter snapshot (service.rpc report + smoke gates). */
    virtual ExecutorStats stats() const { return {}; }
    /** Flush deferred observability (scheduler shard merge). */
    virtual void drainObs() {}
};

} // namespace vbench::service
