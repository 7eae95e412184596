/**
 * @file
 * Fleet-routed service runs are placement-invariant: with the modeled
 * heterogeneous fleet placing every segment AND the segments crossing
 * the wire to fork/exec'd worker processes (an rpc::RemotePool
 * executor), every stitched delivery stream stays byte-identical to
 * the plain single-pool run — for VBC and NGC across all four
 * rate-control modes. Also checks the cost plumbing: fleet usage,
 * total dollars, and the SLA scorer's $/stream columns.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/types.h"
#include "rpc/remote_pool.h"
#include "service/service.h"
#include "service/workload.h"

namespace vbench::service {
namespace {

Corpus
fleetCorpus()
{
    video::ClipSpec spec;
    spec.name = "fleet";
    spec.width = 96;
    spec.height = 64;
    spec.fps = 30.0;
    spec.content = video::ContentClass::Natural;
    spec.seed = 97;
    return buildCorpus({spec}, 8, 4);
}

/** One request per (encoder, rc mode): the full chained/unchained mix. */
std::vector<ServiceRequest>
rcMatrixWorkload()
{
    std::vector<ServiceRequest> workload;
    uint64_t id = 1;
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

TEST(ServiceFleet, FleetAndWireKeepStitchedOutputsByteIdentical)
{
    const Corpus corpus = fleetCorpus();
    const std::vector<ServiceRequest> workload = rcMatrixWorkload();

    ServiceConfig plain;
    plain.workers = 2;
    plain.admission_capacity = 64;
    plain.collect_outputs = true;
    TranscodeService baseline_service(plain, corpus);
    const ServiceResult baseline = baseline_service.run(workload);
    ASSERT_EQ(baseline.completed, workload.size());
    ASSERT_EQ(baseline.stitch_failures, 0u);
    ASSERT_EQ(baseline.outputs.size(), workload.size());

    const fleet::FleetConfig fleet_config = fleet::defaultFleetConfig();
    const fleet::PerfModel fleet_model;  // stock speeds: no profiling
    rpc::RemotePoolConfig pool_config;
    pool_config.workers = 2;
    rpc::RemotePool pool(pool_config);
    ServiceConfig routed = plain;
    routed.fleet = &fleet_config;
    routed.fleet_model = &fleet_model;
    routed.executor = &pool;
    TranscodeService fleet_service(routed, corpus);
    const ServiceResult result = fleet_service.run(workload);
    ASSERT_EQ(result.completed, workload.size());
    ASSERT_EQ(result.stitch_failures, 0u);
    ASSERT_EQ(result.outputs.size(), baseline.outputs.size());

    // The headline invariant: placement and the wire change nothing
    // about the delivered bytes.
    for (const auto &[name, stream] : baseline.outputs) {
        const auto it = result.outputs.find(name);
        ASSERT_NE(it, result.outputs.end()) << name;
        EXPECT_EQ(it->second, stream) << name;
    }

    // The fleet actually metered the run.
    EXPECT_GT(result.fleet_cost_dollars, 0.0);
    ASSERT_FALSE(result.fleet_usage.empty());
    int placed = 0;
    for (const fleet::TypeUsage &u : result.fleet_usage)
        placed += u.jobs;
    // Every segment of every rung was placed exactly once: 2 segments
    // per 8-frame clip at 4 frames/segment.
    EXPECT_EQ(placed, static_cast<int>(2 * workload.size()));

    // ...and the dollars reached the SLA scorecard.
    EXPECT_GT(result.sla.total_cost_dollars, 0.0);
    bool saw_cost_columns = false;
    for (const ScenarioScore &s : result.sla.scenarios) {
        if (s.scenario != core::Scenario::Upload)
            continue;
        EXPECT_GT(s.cost_dollars, 0.0);
        EXPECT_GT(s.dollars_per_stream, 0.0);
        EXPECT_GT(s.dollars_per_quality_point, 0.0);
        saw_cost_columns = true;
    }
    EXPECT_TRUE(saw_cost_columns);

    // The no-fleet baseline keeps every cost column at zero.
    EXPECT_DOUBLE_EQ(baseline.fleet_cost_dollars, 0.0);
    EXPECT_TRUE(baseline.fleet_usage.empty());
    EXPECT_DOUBLE_EQ(baseline.sla.total_cost_dollars, 0.0);
}

} // namespace
} // namespace vbench::service
