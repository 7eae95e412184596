/**
 * @file
 * The output cache is invisible in the delivered bytes: with the cache
 * attached — cold, warm, or hitting mid-chain — every stitched
 * delivery stream stays byte-identical to the cache-off run, for VBC
 * and NGC across all four rate-control modes. Also checks the hit
 * plumbing: SLA cache counters, the ServiceResult stats snapshot,
 * that a warm second run serves every segment from the cache, and
 * how a hit is traced and scored next to an executed segment.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/runtime_config.h"
#include "obs/trace.h"
#include "service/segment_job.h"
#include "service/service.h"
#include "service/workload.h"

namespace vbench::service {
namespace {

Corpus
cacheCorpus()
{
    video::ClipSpec spec;
    spec.name = "cache";
    spec.width = 96;
    spec.height = 64;
    spec.fps = 30.0;
    spec.content = video::ContentClass::Natural;
    spec.seed = 97;
    return buildCorpus({spec}, 8, 4);
}

/** One request per (encoder, rc mode): the full chained/unchained mix. */
std::vector<ServiceRequest>
rcMatrixWorkload(uint64_t first_id)
{
    std::vector<ServiceRequest> workload;
    uint64_t id = first_id;
    for (const core::EncoderKind kind :
         {core::EncoderKind::Vbc, core::EncoderKind::NgcHevc}) {
        for (const codec::RcMode mode :
             {codec::RcMode::Cqp, codec::RcMode::Crf, codec::RcMode::Abr,
              codec::RcMode::TwoPass}) {
            ServiceRequest req;
            req.id = id++;
            req.scenario = core::Scenario::Upload;
            req.clip = 0;
            req.arrival_s = 0.0;
            RungSpec rung;
            rung.request.kind = kind;
            rung.request.effort = 3;
            rung.request.ngc_speed = 1;
            rung.request.rc.mode = mode;
            rung.request.rc.qp = 30;
            rung.request.rc.crf = 30.0;
            rung.request.rc.bitrate_bps = 300'000.0;
            rung.request.rc.fps = 30.0;
            rung.request.rc.pixels_per_frame = 96.0 * 64.0;
            switch (mode) {
            case codec::RcMode::Cqp:
                rung.name = "cqp";
                break;
            case codec::RcMode::Crf:
                rung.name = "crf";
                break;
            case codec::RcMode::Abr:
                rung.name = "abr";
                break;
            case codec::RcMode::TwoPass:
                rung.name = "2p";
                break;
            }
            rung.name +=
                kind == core::EncoderKind::Vbc ? ".vbc" : ".ngc";
            req.rungs.push_back(rung);
            workload.push_back(req);
        }
    }
    return workload;
}

ServiceConfig
plainConfig()
{
    ServiceConfig config;
    config.workers = 2;
    config.admission_capacity = 64;
    config.collect_outputs = true;
    return config;
}

cache::CacheConfig
ampleCacheConfig()
{
    cache::CacheConfig cc;
    cc.policy = cache::CachePolicy::AlwaysStore;
    cc.capacity_bytes = 64ull << 20;
    return cc;
}

/** "<request>.<rung>" outputs compared byte-for-byte. */
void
expectSameOutputs(const ServiceResult &baseline,
                  const ServiceResult &result,
                  uint64_t result_id_offset)
{
    ASSERT_EQ(result.outputs.size(), baseline.outputs.size());
    for (const auto &[name, stream] : baseline.outputs) {
        std::string mapped = name;
        if (result_id_offset != 0) {
            const size_t dot = name.find('.');
            ASSERT_NE(dot, std::string::npos);
            mapped = std::to_string(std::stoull(name.substr(0, dot)) +
                                    result_id_offset) +
                name.substr(dot);
        }
        const auto it = result.outputs.find(mapped);
        ASSERT_NE(it, result.outputs.end()) << mapped;
        EXPECT_EQ(it->second, stream) << mapped;
    }
}

TEST(ServiceCache, ColdAndWarmRunsStayByteIdentical)
{
    const Corpus corpus = cacheCorpus();
    const std::vector<ServiceRequest> workload = rcMatrixWorkload(1);

    TranscodeService baseline_service(plainConfig(), corpus);
    const ServiceResult baseline = baseline_service.run(workload);
    ASSERT_EQ(baseline.completed, workload.size());
    ASSERT_EQ(baseline.stitch_failures, 0u);
    EXPECT_FALSE(baseline.sla.cache_enabled);
    EXPECT_EQ(baseline.sla.cache_hits, 0u);

    // Cold pass: every segment misses, the cache populates, and the
    // outputs match the cache-off run bit for bit.
    cache::TranscodeCache tc(ampleCacheConfig());
    ServiceConfig cached = plainConfig();
    cached.cache = &tc;
    TranscodeService cold_service(cached, corpus);
    const ServiceResult cold = cold_service.run(workload);
    ASSERT_EQ(cold.completed, workload.size());
    ASSERT_EQ(cold.stitch_failures, 0u);
    expectSameOutputs(baseline, cold, 0);
    EXPECT_TRUE(cold.sla.cache_enabled);
    EXPECT_EQ(cold.sla.cache_hits, 0u);
    EXPECT_GT(cold.sla.cache_misses, 0u);
    EXPECT_GT(cold.cache_stats.resident_bytes, 0u);

    // Warm pass: fresh request ids, same content — every segment is
    // served from the cache and the delivered bytes still match.
    const std::vector<ServiceRequest> replay = rcMatrixWorkload(101);
    TranscodeService warm_service(cached, corpus);
    const ServiceResult warm = warm_service.run(replay);
    ASSERT_EQ(warm.completed, replay.size());
    ASSERT_EQ(warm.stitch_failures, 0u);
    expectSameOutputs(baseline, warm, 100);

    // 2 segments per 8-frame clip at 4 frames/segment, all hits.
    const uint64_t warm_hits =
        warm.cache_stats.hits - cold.cache_stats.hits;
    EXPECT_EQ(warm_hits, 2 * replay.size());
    EXPECT_EQ(warm.cache_stats.misses, cold.cache_stats.misses);
    EXPECT_GT(warm.cache_stats.saved_dollars, 0.0);
    EXPECT_TRUE(warm.sla.cache_enabled);
    EXPECT_EQ(warm.sla.cache_hits,
              warm.cache_stats.hits);  // rollup mirrors the stats

    // Per-scenario cache columns reached the scorecard.
    bool saw = false;
    for (const ScenarioScore &s : warm.sla.scenarios) {
        if (s.scenario != core::Scenario::Upload)
            continue;
        EXPECT_EQ(s.cache_hits, warm_hits);
        EXPECT_DOUBLE_EQ(s.cache_hit_rate, 1.0);
        saw = true;
    }
    EXPECT_TRUE(saw);
}

TEST(ServiceCache, MidChainHitLeavesTailByteIdentical)
{
    // Pre-populate ONLY segment 0 of every rung, then run with a
    // fresh chain: segment 0 hits, segments >= 1 encode from the
    // cached rc_out carry. The stitched stream must match the
    // cache-off encode — the carried RcSnapshot is exactly what a
    // fresh segment-0 encode would have produced.
    const Corpus corpus = cacheCorpus();
    const std::vector<ServiceRequest> workload = rcMatrixWorkload(1);

    TranscodeService baseline_service(plainConfig(), corpus);
    const ServiceResult baseline = baseline_service.run(workload);
    ASSERT_EQ(baseline.completed, workload.size());

    // Populate a full cache, then copy only segment-0 entries into a
    // fresh cache by replaying lookups through the service's own key
    // derivation: run the cold pass, then build the partial cache from
    // first-segment jobs.
    cache::TranscodeCache full(ampleCacheConfig());
    ServiceConfig cached = plainConfig();
    cached.cache = &full;
    TranscodeService fill_service(cached, corpus);
    const ServiceResult fill = fill_service.run(workload);
    ASSERT_EQ(fill.completed, workload.size());

    cache::TranscodeCache partial(ampleCacheConfig());
    for (const ServiceRequest &req : workload) {
        for (const RungSpec &rung : req.rungs) {
            SegmentJob sj;
            sj.request_id = req.id;
            sj.rung = rung.name;
            sj.segment_index = 0;
            sj.scenario = req.scenario;
            sj.input = *corpus.clips[0].seg_universal[0];
            sj.params = rung.request;
            sj.params.segment_frames = corpus.segment_frames;
            // The service pins the resolved entropy slice count into
            // every job at admission; mirror it or the keys miss.
            if (sj.params.slice_count <= 0)
                sj.params.slice_count = core::freshRuntimeConfig().slices;
            const auto entry = full.lookup(sj.cacheKey(), 0.0);
            ASSERT_TRUE(entry.has_value()) << rung.name;
            partial.insert(sj.cacheKey(), *entry, 0.0);
        }
    }

    ServiceConfig mid = plainConfig();
    mid.cache = &partial;
    TranscodeService mid_service(mid, corpus);
    const ServiceResult result = mid_service.run(workload);
    ASSERT_EQ(result.completed, workload.size());
    ASSERT_EQ(result.stitch_failures, 0u);
    expectSameOutputs(baseline, result, 0);

    // Exactly segment 0 of every rung hit; the tail was re-encoded.
    EXPECT_EQ(result.cache_stats.hits, workload.size());
    EXPECT_GT(result.cache_stats.misses, 0u);
}

const ScenarioScore *
scoreFor(const ServiceResult &result, core::Scenario scenario)
{
    for (const ScenarioScore &s : result.sla.scenarios)
        if (s.scenario == scenario)
            return &s;
    return nullptr;
}

TEST(ServiceCache, WarmHitsAreTracedAndScoredLikeTheColdSegment)
{
    // Per request of the matrix: a cold run fills a fresh cache, then
    // a traced warm run replays the request (every segment hits) after
    // a request the cache has never seen (every segment executes).
    // The miss runs under another scenario so the Upload score holds
    // the hits alone. One active request at a time makes the replay
    // wait for the miss's encodes, so the hits' latencies are
    // milliseconds of pre-dispatch wait, far above the microsecond
    // rounding of the exemplar cut.
    const Corpus corpus = cacheCorpus();
    const int segments = corpus.clips[0].segmentCount();
    ASSERT_EQ(segments, 2);
    for (const ServiceRequest &req : rcMatrixWorkload(1)) {
        SCOPED_TRACE(req.rungs[0].name);
        cache::TranscodeCache tc(ampleCacheConfig());
        ServiceConfig cached = plainConfig();
        cached.cache = &tc;
        TranscodeService cold_service(cached, corpus);
        const ServiceResult cold = cold_service.run({req});
        ASSERT_EQ(cold.completed, 1u);
        ASSERT_EQ(cold.sla.cache_hits, 0u);

        ServiceRequest miss = req;
        miss.id = req.id + 100;
        ServiceRequest replay = req;
        replay.id = req.id + 200;
        miss.scenario = core::Scenario::Popular;
        RungSpec &mr = miss.rungs[0];
        mr.name += ".miss";
        mr.request.rc.qp += 4;
        mr.request.rc.crf += 4.0;
        mr.request.rc.bitrate_bps *= 1.5;

        obs::Tracer tracer;
        ServiceConfig traced = cached;
        traced.tracer = &tracer;
        traced.max_active_requests = 1;
        TranscodeService warm_service(traced, corpus);
        const ServiceResult warm = warm_service.run({miss, replay});
        ASSERT_EQ(warm.completed, 2u);
        ASSERT_EQ(warm.stitch_failures, 0u);

        // Scopes grouped per request trace, named by request id.
        const std::vector<obs::ScopeEvent> scopes = tracer.scopeEvents();
        std::map<uint64_t, uint64_t> request_of_trace;
        for (const obs::ScopeEvent &s : scopes)
            if (s.span.parent_id == 0 && s.name.rfind("request ", 0) == 0)
                request_of_trace[s.span.trace_id] =
                    std::stoull(s.name.substr(8));
        ASSERT_EQ(request_of_trace.size(), 2u);

        size_t hit_scopes = 0;
        for (const ServiceRequest *r : {&miss, &replay}) {
            const std::string &rung = r->rungs[0].name;
            for (int k = 0; k < segments; ++k) {
                const std::string tag = rung + ".s" + std::to_string(k);
                std::vector<const obs::ScopeEvent *> seg;
                for (const obs::ScopeEvent &s : scopes)
                    if (s.name == "segment " + tag &&
                        request_of_trace[s.span.trace_id] == r->id)
                        seg.push_back(&s);
                ASSERT_EQ(seg.size(), 1u) << tag;
                size_t hits = 0;
                for (const obs::ScopeEvent &s : scopes) {
                    if (s.name.rfind("cache_hit ", 0) != 0)
                        continue;
                    if (s.span.parent_id == seg[0]->span.span_id) {
                        EXPECT_EQ(s.name, "cache_hit " + tag);
                        ++hits;
                    }
                }
                EXPECT_EQ(hits, r == &replay ? 1u : 0u) << tag;
                hit_scopes += hits;
            }
        }
        size_t all_hit_scopes = 0;
        for (const obs::ScopeEvent &s : scopes)
            all_hit_scopes += s.name.rfind("cache_hit ", 0) == 0 ? 1 : 0;
        EXPECT_EQ(all_hit_scopes, hit_scopes);

        const ScenarioScore *upload =
            scoreFor(warm, core::Scenario::Upload);
        const ScenarioScore *popular =
            scoreFor(warm, core::Scenario::Popular);
        ASSERT_NE(upload, nullptr);
        ASSERT_NE(popular, nullptr);
        EXPECT_EQ(warm.sla.cache_hits, hit_scopes);
        EXPECT_EQ(upload->cache_hits, hit_scopes);
        EXPECT_EQ(popular->cache_hits, 0u);

        // A hit never queues or encodes: its whole latency is the
        // pre-dispatch wait.
        ASSERT_FALSE(upload->exemplars.empty());
        for (const obs::Exemplar &e : upload->exemplars) {
            EXPECT_EQ(e.path.queue_wait_ms, 0.0) << e.label;
            EXPECT_EQ(e.path.encode_ms, 0.0) << e.label;
            EXPECT_EQ(e.path.stitch_ms, 0.0) << e.label;
            EXPECT_EQ(e.path.rc_chain_ms, e.latency_ms) << e.label;
        }

        // The hit scores the quality the cold encode measured. Two
        // segments sum the same in either order, so this is exact.
        const ScenarioScore *cold_upload =
            scoreFor(cold, core::Scenario::Upload);
        ASSERT_NE(cold_upload, nullptr);
        EXPECT_GT(cold_upload->mean_psnr_db, 0.0);
        EXPECT_EQ(upload->mean_psnr_db, cold_upload->mean_psnr_db);
    }
}

} // namespace
} // namespace vbench::service
