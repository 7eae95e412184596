#pragma once

/**
 * @file
 * SLA scoring for the transcoding service: per-scenario segment
 * latency quantiles (p50/p95/p99 via obs::Histogram::valueAtQuantile),
 * deadline hit-rate, goodput (pixels of on-time, successful output per
 * wall second), and dropped-request rate. Scores export into an
 * obs::MetricsRegistry and emit one obs run report per scenario
 * (VBENCH_METRICS_OUT).
 *
 * Beyond the aggregates, the scorer keeps one obs::ExemplarStore per
 * scenario: each scored segment may carry its trace_id and
 * critical-path breakdown, and the report surfaces the slowest-decile
 * entries (latency >= the scenario's p90) next to the percentile
 * lines — so a bad p99 in a scorecard names the exact requests behind
 * it and where their time went (docs/OBSERVABILITY.md).
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"

namespace vbench::service {

/** Scored SLA summary for one scenario. */
struct ScenarioScore {
    core::Scenario scenario = core::Scenario::Upload;
    uint64_t requests = 0;  ///< arrivals (admitted + dropped)
    uint64_t dropped = 0;   ///< shed at admission
    uint64_t segments = 0;  ///< segment transcodes completed
    uint64_t failed = 0;    ///< segments whose transcode failed
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    /// Deadline hits / completed segments (1 when nothing completed).
    double hit_rate = 1.0;
    /// Megapixels of on-time, successful output per wall second.
    double goodput_mpix_s = 0;
    /// Dropped / arrived requests (0 when nothing arrived).
    double drop_rate = 0;
    /// Modeled fleet dollars spent on this scenario's segments (0 when
    /// the run had no fleet attached).
    double cost_dollars = 0;
    /// Dollars per delivered stream (stitched rung); 0 without
    /// streams or cost.
    double dollars_per_stream = 0;
    /// Segments served from the transcode output cache (byte-for-byte
    /// identical to a fresh encode, docs/CACHE.md).
    uint64_t cache_hits = 0;
    /// cache_hits / segments (0 when nothing completed).
    double cache_hit_rate = 0;
    /// Mean segment PSNR, dB (successful segments).
    double mean_psnr_db = 0;
    /// Dollars per stream per dB of quality — the cost-efficiency
    /// number the placement policies compete on.
    double dollars_per_quality_point = 0;
    /// Latency cut defining the slowest decile: the low edge of the
    /// latency-histogram bucket holding the scenario's p90, so bucket
    /// rounding never under-selects the decile.
    double exemplar_cut_ms = 0;
    /// Slowest-decile segments, slowest first: trace_id + critical
    /// path for every retained segment at or above the p90 cut.
    std::vector<obs::Exemplar> exemplars;
};

/** Full service scorecard. */
struct SlaReport {
    std::vector<ScenarioScore> scenarios;  ///< only scenarios with traffic
    double wall_seconds = 0;
    uint64_t total_requests = 0;
    uint64_t total_dropped = 0;
    uint64_t total_segments = 0;
    double overall_hit_rate = 1.0;
    double overall_goodput_mpix_s = 0;
    /// Total modeled fleet dollars (0 when the run had no fleet).
    double total_cost_dollars = 0;
    /// Transcode output cache rollup (docs/CACHE.md). Filled by the
    /// service from TranscodeCache::stats when a cache is attached;
    /// all-zero (enabled=false) otherwise.
    bool cache_enabled = false;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    double cache_hit_rate = 0;
    uint64_t cache_resident_bytes = 0;
    double cache_storage_dollars = 0;
    double cache_compute_dollars = 0;
    double cache_saved_dollars = 0;
    /// The store-vs-recompute bottom line: storage rent + compute
    /// dollars actually paid (what the cache policies compete on).
    double cache_total_dollars = 0;
};

/**
 * Accumulates service events and turns them into an SlaReport. Driven
 * from the service's single dispatcher thread; not thread-safe.
 */
class SlaScorer
{
  public:
    void recordArrival(core::Scenario scenario);
    void recordDrop(core::Scenario scenario);

    /**
     * One finished segment transcode.
     * @param latency_s completion minus availability (Live) or arrival.
     * @param hit       finished within its deadline.
     * @param pixels    luma pixels of the segment's output.
     * @param ok        the transcode succeeded.
     * @param trace_id  the segment's trace (0 = untraced: no exemplar
     *                  is retained, aggregates still update).
     * @param path      critical-path breakdown; its components sum to
     *                  `latency_s` (stitch excluded — request-level).
     * @param label     human-readable segment id for the exemplar.
     * @param cost_dollars modeled fleet dollars charged for the
     *                  segment (0 = no fleet attached).
     * @param psnr_db   segment quality; <= 0 skips the quality mean.
     * @param cache_hit the segment was served from the output cache.
     */
    void recordSegment(core::Scenario scenario, double latency_s, bool hit,
                       uint64_t pixels, bool ok, uint64_t trace_id = 0,
                       const obs::CriticalPath &path = obs::CriticalPath{},
                       const std::string &label = std::string(),
                       double cost_dollars = 0, double psnr_db = 0,
                       bool cache_hit = false);

    /** One finished rung stitch (request-level critical-path tail). */
    void recordStitch(core::Scenario scenario, double stitch_ms);

    /** Build the scorecard for a run that took `wall_seconds`. */
    SlaReport report(double wall_seconds) const;

    /**
     * Export counters (service.requests.*, service.dropped.*, ...) and
     * the per-scenario latency histograms
     * (service.segment_latency_us.*) into a metrics registry.
     */
    void exportMetrics(obs::MetricsRegistry &metrics) const;

    /**
     * Emit one obs run report per scenario with traffic (label
     * "service.<scenario>", SLA numbers in `extra`) through
     * core::emitRunReport — a no-op unless VBENCH_METRICS_OUT is set.
     */
    void emitRunReports(const SlaReport &report) const;

  private:
    struct PerScenario {
        uint64_t requests = 0;
        uint64_t dropped = 0;
        uint64_t segments = 0;
        uint64_t failed = 0;
        uint64_t hits = 0;
        uint64_t cache_hits = 0;
        uint64_t stitches = 0;
        uint64_t ontime_pixels = 0;  ///< pixels of on-time ok segments
        double cost_dollars = 0;     ///< modeled fleet dollars
        double psnr_sum_db = 0;      ///< over successful segments
        uint64_t psnr_count = 0;
        obs::Histogram latency_us;
        /// Critical-path aggregates (microseconds, same resolution as
        /// latency_us so the stage shares are comparable).
        obs::Histogram queue_wait_us;
        obs::Histogram rc_chain_us;
        obs::Histogram encode_us;
        obs::Histogram stitch_us;
        obs::ExemplarStore exemplars;  ///< K slowest traced segments
    };

    std::array<PerScenario, core::kNumScenarios> scenarios_;
};

} // namespace vbench::service
