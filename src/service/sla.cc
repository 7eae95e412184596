#include "service/sla.h"

#include <cmath>
#include <string>

#include "core/report.h"

namespace vbench::service {

namespace {

uint64_t
toMicros(double seconds)
{
    return seconds <= 0
        ? 0
        : static_cast<uint64_t>(std::llround(seconds * 1e6));
}

/**
 * Latency cut for the slowest decile's exemplars: everything at or
 * above it is retained. The p90 estimate lies in (lo, hi] of the
 * bucket that holds the p90 sample, so the cut is that bucket's low
 * edge: the decile is never under-selected, whatever the bucket's
 * width (unit-wide below 8 us, an eighth of an octave above), and a
 * few p89 stragglers sharing the bucket may ride along. Samples are
 * recorded rounded to the nearest microsecond, so the cut sits half a
 * microsecond below the edge to keep a sample that rounded up into it.
 */
double
exemplarCutMs(const obs::Histogram &latency_us)
{
    const double p90 = latency_us.valueAtQuantile(0.90);
    if (p90 <= 0)
        return 0;
    const uint64_t lo = obs::Histogram::bucketLo(obs::Histogram::bucketIndex(
        static_cast<uint64_t>(std::ceil(p90)) - 1));
    return lo > 0 ? (static_cast<double>(lo) - 0.5) / 1e3 : 0;
}

} // namespace

void
SlaScorer::recordArrival(core::Scenario scenario)
{
    ++scenarios_[static_cast<size_t>(scenario)].requests;
}

void
SlaScorer::recordDrop(core::Scenario scenario)
{
    ++scenarios_[static_cast<size_t>(scenario)].dropped;
}

void
SlaScorer::recordSegment(core::Scenario scenario, double latency_s,
                         bool hit, uint64_t pixels, bool ok,
                         uint64_t trace_id, const obs::CriticalPath &path,
                         const std::string &label, double cost_dollars,
                         double psnr_db, bool cache_hit)
{
    PerScenario &s = scenarios_[static_cast<size_t>(scenario)];
    ++s.segments;
    if (cache_hit)
        ++s.cache_hits;
    s.cost_dollars += cost_dollars;
    s.latency_us.observe(toMicros(latency_s));
    s.queue_wait_us.observe(toMicros(path.queue_wait_ms * 1e-3));
    s.rc_chain_us.observe(toMicros(path.rc_chain_ms * 1e-3));
    s.encode_us.observe(toMicros(path.encode_ms * 1e-3));
    if (trace_id != 0) {
        obs::Exemplar e;
        e.trace_id = trace_id;
        e.latency_ms = latency_s * 1e3;
        e.path = path;
        e.label = label;
        s.exemplars.record(std::move(e));
    }
    if (!ok) {
        ++s.failed;
        return;
    }
    if (psnr_db > 0) {
        s.psnr_sum_db += psnr_db;
        ++s.psnr_count;
    }
    if (hit) {
        ++s.hits;
        s.ontime_pixels += pixels;
    }
}

void
SlaScorer::recordStitch(core::Scenario scenario, double stitch_ms)
{
    PerScenario &s = scenarios_[static_cast<size_t>(scenario)];
    ++s.stitches;
    s.stitch_us.observe(toMicros(stitch_ms * 1e-3));
}

SlaReport
SlaScorer::report(double wall_seconds) const
{
    SlaReport report;
    report.wall_seconds = wall_seconds;
    uint64_t total_hits = 0;
    uint64_t total_ontime_pixels = 0;
    for (int i = 0; i < core::kNumScenarios; ++i) {
        const PerScenario &s = scenarios_[static_cast<size_t>(i)];
        if (s.requests == 0 && s.segments == 0)
            continue;
        ScenarioScore score;
        score.scenario = static_cast<core::Scenario>(i);
        score.requests = s.requests;
        score.dropped = s.dropped;
        score.segments = s.segments;
        score.failed = s.failed;
        score.p50_ms = s.latency_us.valueAtQuantile(0.50) / 1e3;
        score.p95_ms = s.latency_us.valueAtQuantile(0.95) / 1e3;
        score.p99_ms = s.latency_us.valueAtQuantile(0.99) / 1e3;
        score.hit_rate = s.segments > 0
            ? static_cast<double>(s.hits) / static_cast<double>(s.segments)
            : 1.0;
        score.goodput_mpix_s = wall_seconds > 0
            ? static_cast<double>(s.ontime_pixels) / wall_seconds / 1e6
            : 0.0;
        score.drop_rate = s.requests > 0
            ? static_cast<double>(s.dropped) /
                static_cast<double>(s.requests)
            : 0.0;
        score.cache_hits = s.cache_hits;
        score.cache_hit_rate = s.segments > 0
            ? static_cast<double>(s.cache_hits) /
                static_cast<double>(s.segments)
            : 0.0;
        score.exemplar_cut_ms = exemplarCutMs(s.latency_us);
        score.exemplars = s.exemplars.atOrAbove(score.exemplar_cut_ms);
        // Cost efficiency: dollars per delivered stream (a stitched
        // rung is one delivery stream) and per stream-dB of quality.
        score.cost_dollars = s.cost_dollars;
        score.dollars_per_stream = s.stitches > 0
            ? s.cost_dollars / static_cast<double>(s.stitches)
            : 0.0;
        score.mean_psnr_db = s.psnr_count > 0
            ? s.psnr_sum_db / static_cast<double>(s.psnr_count)
            : 0.0;
        score.dollars_per_quality_point =
            score.mean_psnr_db > 0 && s.stitches > 0
            ? score.dollars_per_stream / score.mean_psnr_db
            : 0.0;
        report.total_cost_dollars += s.cost_dollars;
        report.scenarios.push_back(score);
        report.total_requests += s.requests;
        report.total_dropped += s.dropped;
        report.total_segments += s.segments;
        total_hits += s.hits;
        total_ontime_pixels += s.ontime_pixels;
    }
    report.overall_hit_rate = report.total_segments > 0
        ? static_cast<double>(total_hits) /
            static_cast<double>(report.total_segments)
        : 1.0;
    report.overall_goodput_mpix_s = wall_seconds > 0
        ? static_cast<double>(total_ontime_pixels) / wall_seconds / 1e6
        : 0.0;
    return report;
}

void
SlaScorer::exportMetrics(obs::MetricsRegistry &metrics) const
{
    for (int i = 0; i < core::kNumScenarios; ++i) {
        const PerScenario &s = scenarios_[static_cast<size_t>(i)];
        if (s.requests == 0 && s.segments == 0)
            continue;
        const std::string name =
            core::toString(static_cast<core::Scenario>(i));
        metrics.counter("service.requests." + name).add(s.requests);
        metrics.counter("service.dropped." + name).add(s.dropped);
        metrics.counter("service.segments." + name).add(s.segments);
        metrics.counter("service.segments_failed." + name).add(s.failed);
        metrics.counter("service.deadline_hits." + name).add(s.hits);
        metrics.counter("service.cache_hits." + name).add(s.cache_hits);
        metrics.counter("service.stitches." + name).add(s.stitches);
        // Counters are integral; dollars export at micro-dollar
        // resolution so sub-cent segment costs survive.
        metrics.counter("service.cost_microdollars." + name)
            .add(static_cast<uint64_t>(s.cost_dollars * 1e6));
        metrics.histogram("service.segment_latency_us." + name)
            .mergeFrom(s.latency_us);
        metrics.histogram("service.queue_wait_us." + name)
            .mergeFrom(s.queue_wait_us);
        metrics.histogram("service.rc_chain_us." + name)
            .mergeFrom(s.rc_chain_us);
        metrics.histogram("service.encode_us." + name)
            .mergeFrom(s.encode_us);
        metrics.histogram("service.stitch_us." + name)
            .mergeFrom(s.stitch_us);
    }
}

void
SlaScorer::emitRunReports(const SlaReport &report) const
{
    for (const ScenarioScore &score : report.scenarios) {
        core::RunReport run;
        run.label =
            std::string("service.") + core::toString(score.scenario);
        run.backend = "service";
        run.seconds = report.wall_seconds;
        run.extra.emplace_back("requests",
                               static_cast<double>(score.requests));
        run.extra.emplace_back("dropped",
                               static_cast<double>(score.dropped));
        run.extra.emplace_back("segments",
                               static_cast<double>(score.segments));
        run.extra.emplace_back("failed",
                               static_cast<double>(score.failed));
        run.extra.emplace_back("p50_ms", score.p50_ms);
        run.extra.emplace_back("p95_ms", score.p95_ms);
        run.extra.emplace_back("p99_ms", score.p99_ms);
        run.extra.emplace_back("hit_rate", score.hit_rate);
        run.extra.emplace_back("goodput_mpix_s", score.goodput_mpix_s);
        run.extra.emplace_back("drop_rate", score.drop_rate);
        run.extra.emplace_back("cache_hits",
                               static_cast<double>(score.cache_hits));
        run.extra.emplace_back("cache_hit_rate", score.cache_hit_rate);
        run.extra.emplace_back("cost_dollars", score.cost_dollars);
        run.extra.emplace_back("dollars_per_stream",
                               score.dollars_per_stream);
        run.extra.emplace_back("dollars_per_quality_point",
                               score.dollars_per_quality_point);
        run.extra.emplace_back("exemplars",
                               static_cast<double>(score.exemplars.size()));
        if (!score.exemplars.empty()) {
            // The p99 line's escort: the worst retained segment's
            // breakdown, and the trace ids to chase in the trace file.
            const obs::Exemplar &top = score.exemplars.front();
            run.extra.emplace_back("top_latency_ms", top.latency_ms);
            run.extra.emplace_back("top_queue_wait_ms",
                                   top.path.queue_wait_ms);
            run.extra.emplace_back("top_rc_chain_ms",
                                   top.path.rc_chain_ms);
            run.extra.emplace_back("top_encode_ms", top.path.encode_ms);
            std::string ids;
            size_t listed = 0;
            for (const obs::Exemplar &e : score.exemplars) {
                if (listed++ == 8)
                    break;
                if (!ids.empty())
                    ids += ",";
                ids += std::to_string(e.trace_id);
            }
            run.extra_str.emplace_back("exemplar_trace_ids", ids);
            run.extra_str.emplace_back("top_label", top.label);
        }
        core::emitRunReport(run);
    }
}

} // namespace vbench::service
