/**
 * @file
 * Service end-to-end: the SLA scorer's arithmetic, a full
 * generate → admit → dispatch → stitch → score run over the scheduler
 * pool, metrics export, and deterministic load shedding when a burst
 * overwhelms a capacity-1 admission queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "service/sla.h"
#include "service/workload.h"

namespace vbench::service {
namespace {

Corpus
testCorpus(int clips = 2, int frames = 8, int segment_frames = 4)
{
    std::vector<video::ClipSpec> specs;
    for (int i = 0; i < clips; ++i) {
        video::ClipSpec spec;
        spec.name = "svc" + std::to_string(i);
        spec.width = 96;
        spec.height = 64;
        spec.fps = 30.0;
        spec.content = video::ContentClass::Natural;
        spec.seed = 80 + static_cast<uint64_t>(i);
        specs.push_back(spec);
    }
    return buildCorpus(specs, frames, segment_frames);
}

std::vector<ServiceRequest>
liveUploadWorkload(const Corpus &corpus, double rate, double duration)
{
    WorkloadConfig config;
    config.arrival_rate_hz = rate;
    config.duration_s = duration;
    config.seed = 31;
    config.mix = {};
    config.mix[static_cast<size_t>(core::Scenario::Upload)] = 1;
    config.mix[static_cast<size_t>(core::Scenario::Live)] = 1;
    config.live_slack = 60.0;     // generous: this test is not a race
    config.upload_slack = 200.0;
    std::vector<ServiceRequest> workload =
        generateWorkload(config, corpus);
    for (uint64_t seed = 32; workload.empty() && seed < 40; ++seed) {
        config.seed = seed;
        workload = generateWorkload(config, corpus);
    }
    return workload;
}

TEST(SlaScorer, ComputesHitAndDropRates)
{
    SlaScorer scorer;
    scorer.recordArrival(core::Scenario::Live);
    scorer.recordArrival(core::Scenario::Live);
    scorer.recordArrival(core::Scenario::Live);
    scorer.recordDrop(core::Scenario::Live);
    scorer.recordSegment(core::Scenario::Live, 0.010, true, 1000, true);
    scorer.recordSegment(core::Scenario::Live, 0.020, true, 1000, true);
    scorer.recordSegment(core::Scenario::Live, 0.500, false, 1000, true);
    scorer.recordSegment(core::Scenario::Live, 0.030, true, 1000, false);

    const SlaReport report = scorer.report(2.0);
    ASSERT_EQ(report.scenarios.size(), 1u);
    const ScenarioScore &s = report.scenarios.front();
    EXPECT_EQ(s.scenario, core::Scenario::Live);
    EXPECT_EQ(s.requests, 3u);
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.segments, 4u);
    EXPECT_EQ(s.failed, 1u);
    // 2 hits of 4 segments: the failed segment cannot count as a hit
    // even though it finished "on time".
    EXPECT_DOUBLE_EQ(s.hit_rate, 0.5);
    EXPECT_NEAR(s.drop_rate, 1.0 / 3.0, 1e-12);
    // 2 on-time OK segments x 1000 pixels over 2 wall seconds.
    EXPECT_NEAR(s.goodput_mpix_s, 2.0 * 1000 / 2.0 / 1e6, 1e-12);
    EXPECT_GT(s.p50_ms, 0.0);
    EXPECT_LE(s.p50_ms, s.p95_ms);
    EXPECT_LE(s.p95_ms, s.p99_ms);
    EXPECT_DOUBLE_EQ(report.overall_hit_rate, 0.5);
}

TEST(SlaScorer, EmptyScorerReportsNothing)
{
    const SlaScorer scorer;
    const SlaReport report = scorer.report(1.0);
    EXPECT_TRUE(report.scenarios.empty());
    EXPECT_EQ(report.total_requests, 0u);
    EXPECT_DOUBLE_EQ(report.overall_hit_rate, 1.0);
}

TEST(SlaScorer, MicrosecondSegmentsKeepTheirSlowestExemplar)
{
    // Two traced segments of a few microseconds land in the latency
    // histogram's unit-wide buckets (2 and 5 us). The p90 estimate
    // (5.9 us) sits inside the 5 us bucket, so the cut must be that
    // bucket's low edge: a cut of p90 / 1.125 (5.24 us) would leave the
    // slowest decile empty.
    SlaScorer scorer;
    scorer.recordSegment(core::Scenario::Vod, 2.1e-6, true, 100, true, 1);
    scorer.recordSegment(core::Scenario::Vod, 5.0e-6, true, 100, true, 2);
    const SlaReport report = scorer.report(1.0);
    ASSERT_EQ(report.scenarios.size(), 1u);
    const ScenarioScore &s = report.scenarios.front();
    EXPECT_LE(s.exemplar_cut_ms, 5.0e-3);
    EXPECT_GT(s.exemplar_cut_ms, 2.1e-3);
    ASSERT_EQ(s.exemplars.size(), 1u);
    EXPECT_EQ(s.exemplars.front().trace_id, 2u);

    // 4.6 us is recorded as 5 us: it rounds up into the p90 bucket and
    // must still clear the cut.
    SlaScorer rounded;
    rounded.recordSegment(core::Scenario::Vod, 2.1e-6, true, 100, true, 1);
    rounded.recordSegment(core::Scenario::Vod, 4.6e-6, true, 100, true, 2);
    const SlaReport rounded_report = rounded.report(1.0);
    ASSERT_EQ(rounded_report.scenarios.size(), 1u);
    const ScenarioScore &r = rounded_report.scenarios.front();
    ASSERT_EQ(r.exemplars.size(), 1u);
    EXPECT_EQ(r.exemplars.front().trace_id, 2u);
}

TEST(SlaScorer, ExportsNamedMetrics)
{
    SlaScorer scorer;
    scorer.recordArrival(core::Scenario::Vod);
    scorer.recordSegment(core::Scenario::Vod, 0.040, true, 5000, true);
    obs::MetricsRegistry metrics;
    scorer.exportMetrics(metrics);
    EXPECT_EQ(metrics.counter("service.requests.vod").value(), 1u);
    EXPECT_EQ(metrics.counter("service.segments.vod").value(), 1u);
    EXPECT_EQ(metrics.counter("service.deadline_hits.vod").value(), 1u);
    EXPECT_EQ(metrics.histogram("service.segment_latency_us.vod").count(),
              1u);
}

TEST(Service, RunsAWorkloadToCompletion)
{
    const Corpus corpus = testCorpus();
    const std::vector<ServiceRequest> workload =
        liveUploadWorkload(corpus, 6.0, 1.0);
    ASSERT_FALSE(workload.empty());

    obs::MetricsRegistry metrics;
    ServiceConfig config;
    config.workers = 2;
    config.admission_capacity = 64;
    config.metrics = &metrics;
    TranscodeService service(config, corpus);
    const ServiceResult result = service.run(workload);

    EXPECT_EQ(result.completed + result.dropped, workload.size());
    // Capacity 64 over a handful of requests: nothing can shed.
    EXPECT_EQ(result.dropped, 0u);
    EXPECT_EQ(result.admitted, workload.size());
    EXPECT_EQ(result.failed_requests, 0u);
    EXPECT_EQ(result.stitch_failures, 0u);
    // One rung per request, 2 segments per 8-frame clip at 4/segment.
    EXPECT_EQ(result.stitched_rungs, result.completed);
    EXPECT_EQ(result.sla.total_segments, 2 * result.completed);
    EXPECT_GT(result.wall_seconds, 0.0);
    EXPECT_GE(result.sla.overall_hit_rate, 0.0);
    EXPECT_LE(result.sla.overall_hit_rate, 1.0);
    // The scorer's export and the scheduler's shard merge both landed.
    EXPECT_GT(metrics.size(), 0u);
    EXPECT_EQ(metrics.counter("service.requests.upload").value() +
                  metrics.counter("service.requests.live").value(),
              workload.size());
}

TEST(Service, BurstAgainstTinyAdmissionQueueSheds)
{
    const Corpus corpus = testCorpus(1);
    std::vector<ServiceRequest> workload =
        liveUploadWorkload(corpus, 12.0, 1.0);
    ASSERT_GE(workload.size(), 4u);
    // Turn the trickle into a burst: everything lands at t=0, against
    // a queue that can hold exactly one waiting request.
    for (ServiceRequest &req : workload)
        req.arrival_s = 0.0;

    ServiceConfig config;
    config.workers = 1;
    config.admission_capacity = 1;
    config.max_active_requests = 1;
    TranscodeService service(config, corpus);
    const ServiceResult result = service.run(workload);

    EXPECT_EQ(result.completed + result.dropped, workload.size());
    EXPECT_GT(result.dropped, 0u);
    EXPECT_GT(result.completed, 0u);
    EXPECT_EQ(result.sla.total_dropped, result.dropped);
    // Drop rate shows up in the per-scenario scores.
    double weighted_drops = 0;
    for (const ScenarioScore &s : result.sla.scenarios)
        weighted_drops += s.drop_rate * static_cast<double>(s.requests);
    EXPECT_NEAR(weighted_drops, static_cast<double>(result.dropped),
                1e-9);
}

TEST(Service, EmitsConnectedTracesTelemetryAndExemplars)
{
    const Corpus corpus = testCorpus();
    const std::vector<ServiceRequest> workload =
        liveUploadWorkload(corpus, 6.0, 1.0);
    ASSERT_FALSE(workload.empty());

    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    ServiceConfig config;
    config.workers = 2;
    config.admission_capacity = 64;
    config.metrics = &metrics;
    config.tracer = &tracer;
    TranscodeService service(config, corpus);
    const ServiceResult result = service.run(workload);
    ASSERT_EQ(result.completed, workload.size());

    // Telemetry: every service gauge produced at least one point (the
    // final stop() sample guarantees it even for sub-interval runs).
    ASSERT_EQ(result.telemetry.size(), 5u);
    for (const obs::TelemetrySeries &s : result.telemetry)
        EXPECT_GE(s.points.size(), 1u) << s.name;

    // Trace forest: every completed request contributed one connected
    // tree — exactly one root scope per trace id, and every non-root
    // scope's parent span exists within the same trace.
    const std::vector<obs::ScopeEvent> scopes = tracer.scopeEvents();
    ASSERT_FALSE(scopes.empty());
    std::map<uint64_t, std::set<uint64_t>> spans_by_trace;
    std::map<uint64_t, size_t> roots_by_trace;
    for (const obs::ScopeEvent &s : scopes) {
        EXPECT_TRUE(s.span.valid());
        spans_by_trace[s.span.trace_id].insert(s.span.span_id);
        if (s.span.parent_id == 0)
            ++roots_by_trace[s.span.trace_id];
    }
    EXPECT_EQ(spans_by_trace.size(), result.completed);
    for (const auto &[trace, roots] : roots_by_trace)
        EXPECT_EQ(roots, 1u) << "trace " << trace;
    for (const obs::ScopeEvent &s : scopes) {
        if (s.span.parent_id != 0) {
            EXPECT_TRUE(spans_by_trace[s.span.trace_id].count(
                s.span.parent_id))
                << s.name << " orphaned in trace " << s.span.trace_id;
        }
    }

    // Flow arrows pair up: one begin (request row) and one end
    // (worker row) per dispatched segment span.
    std::map<uint64_t, int> begins, ends;
    for (const obs::FlowEvent &f : tracer.flowEvents())
        ++(f.begin ? begins : ends)[f.flow_id];
    EXPECT_EQ(begins.size(), ends.size());
    for (const auto &[id, n] : begins) {
        EXPECT_EQ(n, 1) << "flow " << id;
        EXPECT_EQ(ends[id], 1) << "flow " << id;
    }

    // Exemplars: the slowest decile is retained, resolvable into the
    // trace, and its critical path explains the measured latency.
    size_t exemplars = 0;
    for (const ScenarioScore &score : result.sla.scenarios) {
        for (const obs::Exemplar &e : score.exemplars) {
            ++exemplars;
            EXPECT_GE(e.latency_ms, score.exemplar_cut_ms);
            EXPECT_FALSE(e.label.empty());
            EXPECT_TRUE(spans_by_trace.count(e.trace_id))
                << e.label << " trace " << e.trace_id;
            const double sum = e.path.queue_wait_ms +
                e.path.rc_chain_ms + e.path.encode_ms;
            EXPECT_NEAR(sum, e.latency_ms,
                        std::max(0.5, 0.05 * e.latency_ms))
                << e.label;
        }
    }
    EXPECT_GT(exemplars, 0u);

    // The critical-path aggregates landed in the exported metrics.
    uint64_t cp_observations = 0;
    for (const char *scenario : {"live", "upload"})
        cp_observations += metrics
                               .histogram(std::string(
                                              "service.queue_wait_us.") +
                                          scenario)
                               .count();
    EXPECT_EQ(cp_observations, result.sla.total_segments);
}

} // namespace
} // namespace vbench::service
