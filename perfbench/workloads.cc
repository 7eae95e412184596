/**
 * @file
 * The three benchmark workloads (README.md has the rationale and the
 * metric table):
 *
 *   vod_batch       closed batch of whole-clip VoD transcodes on a
 *                   sched::Scheduler (codec, ngc, kernels, metrics).
 *   live_service    open-loop Live arrivals through
 *                   service::TranscodeService on the in-process pool
 *                   (slice entropy, dispatcher, stitch).
 *   popular_ladder  a t=0 burst of Popular ladders through the service
 *                   with a cache::TranscodeCache and an rpc::RemotePool.
 *
 * Each run sets up several times (setup_s is their median), then plays
 * one measured pass. A traced run plays an untraced pass first and a
 * traced pass second, so the tracing overhead is the difference, then
 * replays a sample of the pass's jobs one layer call at a time and
 * probes the kernel table.
 *
 * Work per run is a function of --seed and --seconds only, never of
 * measured speed, so the delivered bytes (and their digest) repeat.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "codec/decoder.h"
#include "codec/stitch.h"
#include "core/encoder_backend.h"
#include "core/reference.h"
#include "core/runtime_config.h"
#include "core/transcoder.h"
#include "kernels/kernel_ops.h"
#include "metrics/psnr.h"
#include "ngc/ngc_decoder.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "perf.h"
#include "rpc/remote_pool.h"
#include "sched/frame_threads.h"
#include "sched/scheduler.h"
#include "service/executor.h"
#include "service/segment.h"
#include "service/segment_job.h"
#include "service/service.h"
#include "service/workload.h"
#include "video/rng.h"
#include "video/suite.h"
#include "video/video.h"

namespace perfbench {

namespace {

using namespace vbench;

/// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 3;

// --- vod_batch sizing --------------------------------------------------
/// Frames per VoD clip (the whole clip is one job).
constexpr int kVodFrames = 6;
/// Batch rounds per --seconds second: every round submits each clip
/// once per encoder.
constexpr double kVodRoundsPerSecond = 0.2;

// --- live_service sizing -----------------------------------------------
constexpr int kLiveWidth = 384;
constexpr int kLiveHeight = 224;
constexpr int kLiveFrames = 40;
constexpr int kLiveSegmentFrames = 8;
constexpr double kLiveRateHz = 6.4;
/// Segment jobs replayed one layer call at a time in a traced run.
constexpr size_t kLiveReplayJobs = 12;

// --- popular_ladder sizing ---------------------------------------------
constexpr int kPopularWidth = 480;
constexpr int kPopularHeight = 272;
constexpr int kPopularClips = 6;
constexpr int kPopularFrames = 32;
constexpr int kPopularSegmentFrames = 8;
constexpr double kPopularRequestsPerSecond = 0.9;
/// Cache capacity as a share of the distinct-output working set.
constexpr double kPopularCacheShare = 0.5;
constexpr size_t kPopularReplayJobs = 6;

double
videoMpix(const video::Video &v)
{
    return static_cast<double>(v.totalPixels()) * 1e-6;
}

/** Decode a delivered stream with the public decoder for its codec. */
std::optional<video::Video>
decodeDelivered(core::EncoderKind kind, const codec::ByteBuffer &stream)
{
    if (kind == core::EncoderKind::Vbc)
        return codec::decode(stream);
    return ngc::ngcDecode(stream);
}

std::string
digestOf(const codec::ByteBuffer &bytes)
{
    return cache::KeyBuilder().bytes(bytes).finish().toString();
}

/**
 * Everything measured about the delivered streams of a pass: the
 * digest of all of them, bitrate and PSNR against the pristine source.
 * Identical streams are decoded once; every delivery of the same
 * transcode must be byte-identical.
 */
class Deliveries
{
  public:
    Deliveries(Raw &raw, const std::string &prefix)
        : raw_(raw), prefix_(prefix)
    {
    }

    /**
     * Check and account one delivered stream. `identity` names the
     * transcode (same identity = same expected bytes); returns the
     * decoded output, or null after recording an error.
     */
    const video::Video *
    add(const std::string &identity, core::EncoderKind kind,
        const codec::ByteBuffer &stream, const video::Video &original)
    {
        digest_.str(identity).bytes(stream);
        const std::string digest = digestOf(stream);
        const auto [same, fresh] = identity_digest_.emplace(identity, digest);
        if (!fresh && same->second != digest) {
            raw_.error("deliveries of " + identity + " differ");
            return nullptr;
        }
        auto it = decoded_.find(digest);
        if (it == decoded_.end()) {
            Decoded d;
            d.video = decodeDelivered(kind, stream);
            if (!d.video) {
                raw_.error(identity + ": delivered stream undecodable");
            } else if (d.video->width() != original.width() ||
                       d.video->height() != original.height() ||
                       d.video->frameCount() != original.frameCount()) {
                raw_.error(identity + ": decoded " +
                           std::to_string(d.video->width()) + "x" +
                           std::to_string(d.video->height()) + "x" +
                           std::to_string(d.video->frameCount()) +
                           ", expected " + std::to_string(original.width()) +
                           "x" + std::to_string(original.height()) + "x" +
                           std::to_string(original.frameCount()));
                d.video.reset();
            } else {
                d.psnr = metrics::videoPsnr(original, *d.video);
            }
            it = decoded_.emplace(digest, std::move(d)).first;
        }
        if (!it->second.video)
            return nullptr;
        const double pixel_seconds =
            static_cast<double>(original.width()) * original.height() *
            original.duration();
        bits_ += 8.0 * static_cast<double>(stream.size());
        pixel_seconds_ += pixel_seconds;
        psnr_sum_ += it->second.psnr;
        mpix_ += videoMpix(original);
        ++streams_;
        return &*it->second.video;
    }

    double psnrOf(const std::string &identity) const
    {
        return decoded_.at(identity_digest_.at(identity)).psnr;
    }

    /** Record digest, bitrate_bpps, psnr_db and delivered_mpix. */
    void finish() const
    {
        raw_.text(prefix_ + "digest", digest_.finish().toString());
        raw_.set(prefix_ + "bitrate_bpps",
                 pixel_seconds_ > 0 ? bits_ / pixel_seconds_ : 0.0);
        raw_.set(prefix_ + "psnr_db",
                 streams_ ? psnr_sum_ / static_cast<double>(streams_) : 0.0);
        raw_.set(prefix_ + "delivered_mpix", mpix_);
        raw_.set(prefix_ + "delivered_streams", static_cast<double>(streams_));
    }

  private:
    struct Decoded {
        std::optional<video::Video> video;
        double psnr = 0;
    };
    Raw &raw_;
    std::string prefix_;
    cache::KeyBuilder digest_;
    std::map<std::string, std::string> identity_digest_;
    std::map<std::string, Decoded> decoded_;
    double bits_ = 0;
    double pixel_seconds_ = 0;
    double psnr_sum_ = 0;
    double mpix_ = 0;
    uint64_t streams_ = 0;
};

/** CPU and wall accounting around one measured pass. */
struct PassClock {
    double cpu0 = cpuSeconds();
    double steal0 = stealSeconds();
    uint64_t t0_ns = obs::nowNs();
    double wall_s = 0;
    void stop() { wall_s = static_cast<double>(obs::nowNs() - t0_ns) * 1e-9; }
    void report(Raw &raw, const std::string &prefix) const
    {
        raw.set(prefix + "wall_s", wall_s);
        raw.set(prefix + "cpu_s", cpuSeconds() - cpu0);
        raw.set(prefix + "steal_s", stealSeconds() - steal0);
        raw.set(prefix + "peak_rss_mb", peakRssMb());
    }
};

/** The encoder request a backend is created with inside transcode(). */
core::TranscodeRequest
resolvedRequest(core::TranscodeRequest request)
{
    request.frame_threads =
        sched::decideFrameThreads(request.frame_threads).threads;
    if (request.slice_count <= 0)
        request.slice_count = core::freshRuntimeConfig().slices;
    return request;
}

/** Layer times of one replayed job, one public call at a time. */
struct Replay {
    codec::ByteBuffer stream;
    bool ok = false;
};

/**
 * Replay one transcode as its four layer calls: decode the input,
 * create + encode, decode the output, measure PSNR. Span names carry
 * the layer the time is charged to (vbc vs ngc encode/decode).
 */
Replay
replayLayers(SpanLog &spans, const codec::ByteBuffer &input,
             const video::Video &original,
             const core::TranscodeRequest &request)
{
    Replay r;
    const double mpix = videoMpix(original);
    const bool vbc = request.kind == core::EncoderKind::Vbc;
    std::optional<video::Video> decoded;
    {
        SpanLog::Scope s(spans, "codec::decode", mpix);
        decoded = codec::decode(input);
    }
    if (!decoded)
        return r;
    {
        SpanLog::Scope s(spans, vbc ? "codec.encode" : "ngc.encode", mpix);
        std::unique_ptr<core::EncoderBackend> backend;
        {
            SpanLog::Scope c(spans, "core::EncoderBackend::create", mpix);
            backend = core::EncoderBackend::create(resolvedRequest(request),
                                                   nullptr);
        }
        {
            SpanLog::Scope e(spans, "core::EncoderBackend::encode", mpix);
            r.stream = std::move(backend->encode(*decoded).encoded.stream);
        }
        s.stop();
        std::optional<video::Video> out;
        {
            SpanLog::Scope d(spans,
                             vbc ? "codec.decode_output" : "ngc.decode_output",
                             mpix);
            out = backend->decodeOutput(r.stream);
        }
        if (!out || out->frameCount() != original.frameCount())
            return r;
        SpanLog::Scope p(spans, "metrics::videoPsnr", mpix);
        metrics::videoPsnr(original, *out);
    }
    r.ok = true;
    return r;
}

/** Sum a replay span into a raw value (seconds and Mpix). */
void
reportSpan(Raw &raw, const SpanLog &spans, const std::string &span,
           const std::string &name)
{
    const SpanLog::Total t = spans.total(span);
    raw.set(name + ".seconds", t.seconds);
    raw.set(name + ".mpix", t.mpix);
    raw.set(name + ".calls", static_cast<double>(t.calls));
}

void
reportReplay(Raw &raw, const SpanLog &spans)
{
    reportSpan(raw, spans, "codec::decode", "replay.decode_input");
    reportSpan(raw, spans, "codec.encode", "replay.vbc_encode");
    reportSpan(raw, spans, "ngc.encode", "replay.ngc_encode");
    reportSpan(raw, spans, "codec.decode_output", "replay.vbc_decode_output");
    reportSpan(raw, spans, "ngc.decode_output", "replay.ngc_decode_output");
    reportSpan(raw, spans, "metrics::videoPsnr", "replay.psnr");
    reportSpan(raw, spans, "core::transcode", "replay.transcode");
    reportSpan(raw, spans, "codec::stitchStreams", "replay.stitch");
}

// --- kernels -------------------------------------------------------------

/**
 * ns per call of the hot kernels at the active ISA on fixed blocks,
 * with the bytes each call reads and writes. Median of 5 timed rounds
 * of a fixed call count.
 */
void
probeKernels(Raw &raw, SpanLog &spans)
{
    const kernels::KernelOps &k = kernels::ops();
    SpanLog::Scope scope(spans, "kernels::ops", 0);
    raw.text("kernel_isa", k.name);

    alignas(32) static uint8_t a[80 * 80];
    alignas(32) static uint8_t b[80 * 80];
    alignas(32) static uint8_t dst[80 * 80];
    alignas(32) static int16_t res[64 * 64];
    alignas(32) static int32_t coefs[64];
    alignas(32) static int16_t levels[64];
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (size_t i = 0; i < sizeof(a); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        a[i] = static_cast<uint8_t>(x);
        b[i] = static_cast<uint8_t>(a[i] + static_cast<uint8_t>(x >> 40) % 9);
    }
    for (int i = 0; i < 64 * 64; ++i)
        res[i] = static_cast<int16_t>((i * 37) % 61 - 30);
    uint64_t sink = 0;  // results feed a volatile at the end

    const auto timeKernel = [&raw](const std::string &name, double bytes,
                                   auto &&call) {
        constexpr int kCalls = 2000;
        std::vector<double> rounds;
        for (int r = 0; r < 6; ++r) {
            const uint64_t t0 = obs::nowNs();
            for (int i = 0; i < kCalls; ++i)
                call(i);
            const double ns = static_cast<double>(obs::nowNs() - t0) / kCalls;
            if (r > 0)  // round 0 warms caches and the branch predictor
                rounds.push_back(ns);
        }
        for (const double ns : rounds)
            raw.add("kernels." + name + "_ns", ns);
        raw.set("kernels." + name + "_bytes", bytes);
    };

    timeKernel("sad", 2 * 256, [&](int i) {
        sink += k.sad(a + (i & 7), 80, b, 80, 16, 16);
    });
    timeKernel("satd", 2 * 256, [&](int i) {
        sink += k.satd(a + (i & 7), 80, b, 80, 16, 16);
    });
    timeKernel("interpH", 17 * 16 + 256, [&](int i) {
        k.interpH(a + (i & 7), 80, dst, 80, 16, 16);
    });
    timeKernel("interpHV", 17 * 17 + 256, [&](int i) {
        k.interpHV(a + (i & 7), 80, dst, 80, 16, 16);
    });
    timeKernel("fwdTx4x4", 16 * 2 + 16 * 4, [&](int i) {
        k.fwdTx4x4(res + (i & 7) * 16, coefs);
    });
    timeKernel("fwdTx8x8", 64 * 2 + 64 * 4, [&](int i) {
        k.fwdTx8x8(res + (i & 7) * 64, coefs);
    });
    for (int i = 0; i < 64; ++i)
        coefs[i] = (i * 131) % 701 - 350;
    timeKernel("quant4x4", 16 * 4 + 16 * 2, [&](int i) {
        sink += static_cast<uint64_t>(
            k.quant4x4(coefs + (i & 3) * 16, levels, 20 + (i & 7), i & 1));
    });
    timeKernel("diffBlock", 2 * 256 + 256 * 2, [&](int i) {
        k.diffBlock(a + (i & 7), 80, b, 80, res, 16, 16, 16);
    });
    timeKernel("addClampBlock", 256 + 256 * 2 + 256, [&](int i) {
        k.addClampBlock(a + (i & 7), 80, res, 16, dst, 80, 16, 16);
    });
    timeKernel("copy2d", 2 * 64 * 64, [&](int i) {
        k.copy2d(a + (i & 7), 80, dst, 80, 64, 64);
    });
    // A smooth ramp keeps every sample under the filter thresholds, so
    // each call filters the whole edge (repeats only smooth it more).
    alignas(32) static uint8_t edge[80 * 8];
    for (int i = 0; i < 80 * 8; ++i)
        edge[i] = static_cast<uint8_t>(100 + (i / 80) * 3 + (i % 3));
    timeKernel("deblockEdgeH", 4 * 16 + 2 * 16, [&](int i) {
        k.deblockEdgeH(edge + 80 * 4 + (i & 7), 80, 16, 40, 12, 4);
    });
    timeKernel("sse8", 2 * 4096, [&](int i) {
        sink += k.sse8(a + (i & 7), b, 4096);
    });
    timeKernel("ssimWindowSums", 2 * 64, [&](int i) {
        uint32_t sums[5];
        k.ssimWindowSums(a + (i & 7), 80, b, 80, 8, 8, sums);
        sink += sums[4];
    });
    volatile uint64_t keep = sink;
    (void)keep;
}

// --- vod_batch -----------------------------------------------------------

struct VodClip {
    video::ClipSpec spec;
    std::shared_ptr<const video::Video> original;
    std::shared_ptr<const codec::ByteBuffer> universal;
};

/** 480p/720p/1080p suite clips, low- and high-entropy content. */
std::vector<video::ClipSpec>
vodSpecs()
{
    std::vector<video::ClipSpec> specs;
    for (const char *name :
         {"hall", "presentation", "girl", "desktop", "cat", "holi"})
        for (const video::ClipSpec &s : video::vbenchSuite())
            if (s.name == name)
                specs.push_back(s);
    return specs;
}

/** Fisher-Yates shuffle driven by the workload seed. */
template <typename T>
void
seededShuffle(std::vector<T> &items, uint64_t seed)
{
    video::Rng rng(seed);
    for (size_t i = items.size(); i > 1; --i) {
        const size_t j = std::min(
            i - 1, static_cast<size_t>(rng.uniform() * static_cast<double>(i)));
        std::swap(items[i - 1], items[j]);
    }
}

std::vector<VodClip>
setupVod(Raw &raw, SpanLog &spans)
{
    std::vector<VodClip> clips;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        clips.clear();
        double synth_s = 0, ingest_s = 0;
        SpanLog::Scope setup(spans, "setup", 0);
        for (const video::ClipSpec &spec : vodSpecs()) {
            VodClip c;
            c.spec = spec;
            SpanLog::Scope s(spans, "video::synthesizeClip", 0);
            c.original = std::make_shared<const video::Video>(
                video::synthesizeClip(spec, kVodFrames));
            synth_s += s.stop();
            SpanLog::Scope i(spans, "core::makeUniversalStream",
                             videoMpix(*c.original));
            c.universal = std::make_shared<const codec::ByteBuffer>(
                core::makeUniversalStream(*c.original));
            ingest_s += i.stop();
            clips.push_back(std::move(c));
        }
        raw.add("setup_s", setup.stop());
        raw.add("video.synth_s", synth_s);
        raw.add("core.ingest_s", ingest_s);
    }
    return clips;
}

struct VodJob {
    size_t clip = 0;
    core::TranscodeRequest request;
    std::string identity;
};

std::vector<VodJob>
vodJobs(const Options &o, const std::vector<VodClip> &clips)
{
    std::vector<VodJob> distinct;
    for (size_t c = 0; c < clips.size(); ++c) {
        const video::ClipSpec &s = clips[c].spec;
        for (const core::EncoderKind kind :
             {core::EncoderKind::Vbc, core::EncoderKind::NgcHevc}) {
            VodJob j;
            j.clip = c;
            j.request = core::referenceRequest(core::Scenario::Vod, s.width,
                                               s.height, s.fps);
            j.request.kind = kind;
            j.request.ngc_speed = 1;
            j.request.slice_count = 1;
            j.identity = s.name + "." + core::toString(kind);
            distinct.push_back(std::move(j));
        }
    }
    // Largest first, so the tail of the batch is made of small jobs
    // and no single straggler sets the wall time; the seed orders jobs
    // of the same size.
    seededShuffle(distinct, o.seed);
    std::stable_sort(distinct.begin(), distinct.end(),
                     [&clips](const VodJob &a, const VodJob &b) {
                         return clips[a.clip].original->totalPixels() >
                             clips[b.clip].original->totalPixels();
                     });
    const int rounds = std::max(
        1, static_cast<int>(std::lround(o.seconds * kVodRoundsPerSecond)));
    std::vector<VodJob> jobs;
    for (const VodJob &j : distinct)
        for (int r = 0; r < rounds; ++r)
            jobs.push_back(j);
    return jobs;
}

void
vodPass(const Options &o, Raw &raw, SpanLog &spans,
        const std::vector<VodClip> &clips, const std::vector<VodJob> &jobs,
        const std::string &prefix)
{
    sched::SchedulerConfig config;
    config.workers = o.nproc;
    sched::Scheduler scheduler(config);

    PassClock clock;
    std::vector<sched::JobHandle> handles;
    handles.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const VodClip &c = clips[jobs[i].clip];
        sched::TranscodeJob job{jobs[i].identity, c.universal, c.original,
                                jobs[i].request};
        if (spans.enabled()) {
            SpanLog::Scope s(spans, "sched::Scheduler::submit", 0);
            handles.push_back(scheduler.submit(std::move(job)));
        } else {
            handles.push_back(scheduler.submit(std::move(job)));
        }
    }
    for (const sched::JobHandle &h : handles)
        h.wait();
    clock.stop();
    clock.report(raw, prefix);

    Deliveries deliveries(raw, prefix);
    double busy_s = 0;
    uint64_t ok = 0;
    raw.declare(prefix + "segment_ms");
    for (size_t i = 0; i < jobs.size(); ++i) {
        const sched::JobResult &r = handles[i].wait();
        const VodClip &c = clips[jobs[i].clip];
        if (!r.ok()) {
            raw.error(jobs[i].identity + ": transcode failed: " +
                      r.outcome.error);
            continue;
        }
        if (!deliveries.add(jobs[i].identity, jobs[i].request.kind,
                            r.outcome.stream, *c.original))
            continue;
        // The program measures against the same pristine frames.
        const double psnr = deliveries.psnrOf(jobs[i].identity);
        if (std::fabs(psnr - r.outcome.m.psnr_db) > 1e-6)
            raw.error(jobs[i].identity + ": program PSNR " +
                      std::to_string(r.outcome.m.psnr_db) +
                      " dB disagrees with measured " +
                      std::to_string(psnr) + " dB");
        ++ok;
        // Closed batch: every job is due when the batch starts.
        raw.add(prefix + "segment_ms",
                static_cast<double>(r.end_ns - clock.t0_ns) * 1e-6);
        raw.add(prefix + "sched.queue_wait_ms",
                static_cast<double>(r.start_ns - r.submit_ns) * 1e-6);
        raw.add(prefix + "sched.frame_threads", r.outcome.frame_threads);
        busy_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
    deliveries.finish();
    raw.set(prefix + "attempted", static_cast<double>(jobs.size()));
    raw.set(prefix + "failed", static_cast<double>(jobs.size() - ok));
    // A closed batch has no deadline: a job that succeeded is on time.
    raw.set(prefix + "deadline_hits", static_cast<double>(ok));
    raw.set(prefix + "sched.worker_busy_share",
            busy_s / (scheduler.workers() * clock.wall_s));
}

void
runVod(const Options &o, Raw &raw, SpanLog &spans)
{
    const std::vector<VodClip> clips = setupVod(raw, spans);
    const std::vector<VodJob> jobs = vodJobs(o, clips);
    if (o.trace) {
        SpanLog off(false);
        vodPass(o, raw, off, clips, jobs, "untraced.");
    }
    vodPass(o, raw, spans, clips, jobs, "");
    if (!o.trace)
        return;

    // Layer replay: each distinct job once through transcode() and then
    // as its four layer calls on the same input, both on one thread at
    // the width the guard gives a batch job (1); nproc jobs at a time,
    // as in the batch.
    std::vector<const VodJob *> distinct;
    std::set<std::string> seen;
    for (const VodJob &j : jobs)
        if (seen.insert(j.identity).second)
            distinct.push_back(&j);
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    const auto worker = [&] {
        for (size_t i = next++; i < distinct.size(); i = next++) {
            const VodJob &j = *distinct[i];
            const VodClip &c = clips[j.clip];
            core::TranscodeRequest request = j.request;
            request.frame_threads = 1;
            core::TranscodeOutcome whole;
            {
                SpanLog::Scope s(spans, "core::transcode",
                                 videoMpix(*c.original));
                whole = core::transcode(*c.universal, *c.original, request);
            }
            const Replay r =
                replayLayers(spans, *c.universal, *c.original, request);
            if (!whole.ok || !r.ok || r.stream != whole.stream) {
                std::lock_guard<std::mutex> lock(error_mu);
                raw.error(j.identity +
                          ": layer replay differs from transcode()");
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < o.nproc; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    reportReplay(raw, spans);
}

// --- service workloads ----------------------------------------------------

/**
 * The service corpus, ingested the way service::buildCorpus does it
 * (synthesize, universal upload with IDRs on segment boundaries, split
 * both sides), with each step timed on its own.
 */
service::Corpus
ingestCorpus(const std::vector<video::ClipSpec> &specs, int frames,
             int segment_frames, Raw &raw, SpanLog &spans)
{
    service::Corpus corpus;
    corpus.segment_frames = segment_frames;
    double synth_s = 0, ingest_s = 0;
    for (const video::ClipSpec &spec : specs) {
        service::CorpusClip clip;
        clip.spec = spec;
        SpanLog::Scope s(spans, "video::synthesizeClip", 0);
        video::Video original = video::synthesizeClip(spec, frames);
        synth_s += s.stop();
        SpanLog::Scope i(spans, "core::makeUniversalStream",
                         videoMpix(original));
        clip.universal = std::make_shared<const codec::ByteBuffer>(
            core::makeUniversalStream(original, segment_frames));
        ingest_s += i.stop();
        SpanLog::Scope sp(spans, "codec::splitStream", 0);
        std::optional<std::vector<codec::ByteBuffer>> seg_streams =
            codec::splitStream(*clip.universal, segment_frames);
        std::vector<video::Video> seg_videos =
            service::splitVideo(original, segment_frames);
        ingest_s += sp.stop();
        if (!seg_streams || seg_streams->size() != seg_videos.size()) {
            raw.error(spec.name + ": universal stream did not split");
        } else {
            for (size_t k = 0; k < seg_videos.size(); ++k) {
                clip.seg_original.push_back(
                    std::make_shared<const video::Video>(
                        std::move(seg_videos[k])));
                clip.seg_universal.push_back(
                    std::make_shared<const codec::ByteBuffer>(
                        std::move((*seg_streams)[k])));
            }
        }
        clip.original =
            std::make_shared<const video::Video>(std::move(original));
        corpus.clips.push_back(std::move(clip));
    }
    raw.add("video.synth_s", synth_s);
    raw.add("core.ingest_s", ingest_s);
    return corpus;
}

/**
 * The in-process executor: a sched::Scheduler behind the seam, as the
 * service builds it by default (its own LocalExecutor is internal to
 * service.cc), so the recording decorator can wrap it.
 */
class SchedulerExecutor final : public service::SegmentExecutor
{
  public:
    explicit SchedulerExecutor(int workers)
        : scheduler_(sched::SchedulerConfig{workers, 0, nullptr, nullptr})
    {
    }
    sched::JobHandle
    submit(service::SegmentJob job,
           std::shared_ptr<const video::Video> original) override
    {
        return scheduler_.submit(
            service::toTranscodeJob(std::move(job), std::move(original)));
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

/**
 * SegmentExecutor decorator: remembers every segment the dispatcher
 * submits and its handle, so the benchmark can time segments from
 * outside. Traced, it also times the job's wire round trip and keeps
 * the first jobs for the layer replay.
 */
class RecordingExecutor final : public service::SegmentExecutor
{
  public:
    struct Record {
        uint64_t request_id = 0;
        std::string rung;
        int segment = 0;
        uint64_t submit_ns = 0;  ///< when the dispatcher handed it over
        sched::JobHandle handle;
        size_t job_bytes = 0;
        std::optional<service::SegmentJob> job;  ///< kept for replay
        std::shared_ptr<const video::Video> original;
    };

    RecordingExecutor(service::SegmentExecutor &inner, SpanLog &spans,
                      const char *submit_span, size_t keep_jobs)
        : inner_(inner), spans_(spans), submit_span_(submit_span),
          keep_jobs_(keep_jobs), remote_(inner.remote())
    {
    }

    sched::JobHandle
    submit(service::SegmentJob job,
           std::shared_ptr<const video::Video> original) override
    {
        Record r;
        r.request_id = job.request_id;
        r.rung = job.rung;
        r.segment = job.segment_index;
        r.submit_ns = obs::nowNs();
        if (spans_.enabled()) {
            codec::ByteBuffer wire;
            {
                SpanLog::Scope s(spans_, "service::SegmentJob::serialize", 0);
                wire = job.serialize();
            }
            {
                SpanLog::Scope s(spans_, "service::SegmentJob::deserialize",
                                 0);
                std::string error;
                if (!service::SegmentJob::deserialize(wire, &error))
                    std::fprintf(stderr, "perfbench: job wire: %s\n",
                                 error.c_str());
            }
            r.job_bytes = wire.size();
            if (records_.size() < keep_jobs_) {
                r.job = job;
                r.original = original;
            }
            SpanLog::Scope s(spans_, submit_span_, 0);
            r.handle = inner_.submit(std::move(job), std::move(original));
        } else {
            r.handle = inner_.submit(std::move(job), std::move(original));
        }
        records_.push_back(std::move(r));
        return records_.back().handle;
    }
    int workers() const override { return inner_.workers(); }
    size_t queueCapacity() const override { return inner_.queueCapacity(); }
    size_t activeJobs() const override { return inner_.activeJobs(); }
    bool remote() const override { return remote_; }
    service::ExecutorStats stats() const override { return inner_.stats(); }
    void drainObs() override { inner_.drainObs(); }

    const std::vector<Record> &records() const { return records_; }

  private:
    service::SegmentExecutor &inner_;
    SpanLog &spans_;
    const char *submit_span_;
    size_t keep_jobs_;
    bool remote_;
    std::vector<Record> records_;  // dispatcher thread only
};

/** Per-request facts the pass accounting needs. */
struct RequestInfo {
    const service::ServiceRequest *req = nullptr;
    int segments = 0;
};

/**
 * Account a finished service pass: check every delivered stream,
 * per-segment results and failures; per-layer samples from the
 * records. `live` selects Live availability (paced segments) over a
 * burst due at t0.
 */
void
accountService(Raw &raw, const std::string &prefix, SpanLog &spans,
               const service::Corpus &corpus,
               const std::vector<service::ServiceRequest> &workload,
               const service::ServiceResult &result,
               const RecordingExecutor &rec, uint64_t t0_ns, double wall_s,
               bool live)
{
    std::map<uint64_t, RequestInfo> requests;
    uint64_t attempted = 0;
    for (const service::ServiceRequest &req : workload) {
        const service::CorpusClip &clip = corpus.clips[req.clip];
        RequestInfo info{&req, std::max(1, clip.segmentCount())};
        attempted += static_cast<uint64_t>(info.segments) * req.rungs.size();
        requests.emplace(req.id, info);
    }

    // Delivered streams: decode, check geometry, quality, identity.
    Deliveries deliveries(raw, prefix);
    std::map<std::string, const video::Video *> decoded_by_output;
    uint64_t undelivered_segments = 0;
    for (const auto &[id, info] : requests) {
        const service::CorpusClip &clip = corpus.clips[info.req->clip];
        for (const service::RungSpec &rung : info.req->rungs) {
            const std::string key = std::to_string(id) + "." + rung.name;
            const auto it = result.outputs.find(key);
            const video::Video *decoded = nullptr;
            if (it == result.outputs.end()) {
                raw.error("request " + key + " delivered no stream");
            } else {
                decoded = deliveries.add(clip.spec.name + "." + rung.name,
                                         rung.request.kind, it->second,
                                         *clip.original);
            }
            if (!decoded)
                undelivered_segments += static_cast<uint64_t>(info.segments);
            decoded_by_output[key] = decoded;
        }
    }
    deliveries.finish();

    // Segments the executor ran.
    uint64_t ok_segments = 0, deadline_hits = 0, failed_jobs = 0;
    double busy_s = 0;
    std::map<uint64_t, uint64_t> first_submit_ns;
    std::map<const video::Video *, std::vector<video::Video>> decoded_parts;
    raw.declare(prefix + "segment_ms");
    for (const RecordingExecutor::Record &r : rec.records()) {
        const sched::JobResult &jr = r.handle.wait();
        const RequestInfo &info = requests.at(r.request_id);
        const service::CorpusClip &clip = corpus.clips[info.req->clip];
        const double seg_duration = corpus.segment_frames / clip.spec.fps;
        const double avail_s = info.req->arrival_s +
            (live ? r.segment * seg_duration : 0.0);
        const uint64_t avail_ns =
            t0_ns + static_cast<uint64_t>(std::max(0.0, avail_s) * 1e9);
        auto [fs, fresh] = first_submit_ns.emplace(r.request_id, r.submit_ns);
        if (!fresh)
            fs->second = std::min(fs->second, r.submit_ns);
        if (!jr.ok()) {
            ++failed_jobs;
            raw.error("segment " + jr.label + " failed: " + jr.outcome.error);
            continue;
        }
        const double latency_s = jr.end_ns > avail_ns
            ? static_cast<double>(jr.end_ns - avail_ns) * 1e-9
            : 0.0;
        raw.add(prefix + "segment_ms", latency_s * 1e3);
        if (live && latency_s <= info.req->segment_deadline_s)
            ++deadline_hits;
        ++ok_segments;
        // Quality agreement: the in-process executor measures each
        // segment against the pristine segment, as the benchmark does.
        const video::Video *decoded = decoded_by_output.at(
            std::to_string(r.request_id) + "." + r.rung);
        if (live && decoded) {
            auto parts = decoded_parts.find(decoded);
            if (parts == decoded_parts.end())
                parts = decoded_parts
                            .emplace(decoded,
                                     service::splitVideo(
                                         *decoded, corpus.segment_frames))
                            .first;
            const double psnr = metrics::videoPsnr(
                *clip.seg_original[static_cast<size_t>(r.segment)],
                parts->second[static_cast<size_t>(r.segment)]);
            if (std::fabs(psnr - jr.outcome.m.psnr_db) > 1e-6)
                raw.error(jr.label + ": program PSNR " +
                          std::to_string(jr.outcome.m.psnr_db) +
                          " dB disagrees with measured " +
                          std::to_string(psnr) + " dB");
        }
        if (!rec.remote()) {
            raw.add(prefix + "sched.queue_wait_ms",
                    static_cast<double>(jr.start_ns - jr.submit_ns) * 1e-6);
            raw.add(prefix + "sched.frame_threads", jr.outcome.frame_threads);
            busy_s += static_cast<double>(jr.end_ns - jr.start_ns) * 1e-9;
        }
        raw.add(prefix + "service.queue_wait_ms",
                jr.outcome.critical_path.queue_wait_ms);
        raw.add(prefix + "service.rc_chain_ms",
                jr.submit_ns > avail_ns
                    ? static_cast<double>(jr.submit_ns - avail_ns) * 1e-6
                    : 0.0);
        raw.add(prefix + "service.encode_ms",
                jr.outcome.critical_path.encode_ms);
        if (rec.remote()) {
            raw.add(prefix + "rpc.roundtrip_overhead_ms",
                    static_cast<double>(jr.end_ns - jr.start_ns) * 1e-6 -
                        jr.seconds * 1e3);
            if (spans.enabled()) {
                service::SegmentResult sr;
                sr.request_id = r.request_id;
                sr.rung = r.rung;
                sr.segment_index = r.segment;
                sr.ok = jr.outcome.ok;
                sr.stream = jr.outcome.stream;
                sr.rc_state = jr.outcome.rc_state;
                sr.critical_path = jr.outcome.critical_path;
                sr.m = jr.outcome.m;
                sr.seconds = jr.seconds;
                raw.add(prefix + "rpc.result_bytes",
                        static_cast<double>(sr.serialize().size()));
                raw.add(prefix + "rpc.job_bytes",
                        static_cast<double>(r.job_bytes));
            }
        }
    }
    for (const auto &[id, ns] : first_submit_ns) {
        const uint64_t due_ns = t0_ns +
            static_cast<uint64_t>(requests.at(id).req->arrival_s * 1e9);
        raw.add(prefix + "service.admission_lag_ms",
                ns > due_ns ? static_cast<double>(ns - due_ns) * 1e-6 : 0.0);
    }

    // Cache hits never reach the executor; they complete in the
    // dispatcher with the bytes of an earlier encode.
    const uint64_t cache_hits = result.cache_stats.hits;
    const uint64_t delivered_segments = ok_segments + cache_hits;
    const uint64_t failed = std::max<uint64_t>(
        attempted > delivered_segments ? attempted - delivered_segments : 0,
        undelivered_segments + failed_jobs);
    raw.set(prefix + "attempted", static_cast<double>(attempted));
    raw.set(prefix + "failed", static_cast<double>(failed));
    if (!live) {
        // Burst requests carry a whole-request deadline; the service
        // scores it per segment (cache hits included).
        for (const service::ScenarioScore &s : result.sla.scenarios)
            deadline_hits += static_cast<uint64_t>(
                std::llround(s.hit_rate * static_cast<double>(s.segments)));
    }
    raw.set(prefix + "deadline_hits", static_cast<double>(
        std::min<uint64_t>(deadline_hits, attempted - failed)));
    raw.set(prefix + "service.dropped", static_cast<double>(result.dropped));
    if (!rec.remote())
        raw.set(prefix + "sched.worker_busy_share",
                busy_s / (rec.workers() * wall_s));
    for (const obs::TelemetrySeries &series : result.telemetry) {
        if (series.name != "service.worker_utilization" ||
            series.points.empty())
            continue;
        double sum = 0;
        for (const obs::TelemetryPoint &p : series.points)
            sum += p.value;
        raw.set(prefix + "service.worker_utilization_mean",
                sum / static_cast<double>(series.points.size()));
    }
}

/** Stitch timing: re-stitch the recorded segments of a few requests. */
void
replayStitch(Raw &raw, SpanLog &spans, const service::Corpus &corpus,
             const std::vector<service::ServiceRequest> &workload,
             const service::ServiceResult &result,
             const RecordingExecutor &rec, size_t max_outputs)
{
    std::map<std::string, std::vector<codec::ByteBuffer>> chains;
    for (const RecordingExecutor::Record &r : rec.records()) {
        const std::string key = std::to_string(r.request_id) + "." + r.rung;
        auto &chain = chains[key];
        if (chain.size() <= static_cast<size_t>(r.segment))
            chain.resize(static_cast<size_t>(r.segment) + 1);
        chain[static_cast<size_t>(r.segment)] = r.handle.wait().outcome.stream;
    }
    size_t done = 0;
    for (const service::ServiceRequest &req : workload) {
        const service::CorpusClip &clip = corpus.clips[req.clip];
        for (const service::RungSpec &rung : req.rungs) {
            const std::string key = std::to_string(req.id) + "." + rung.name;
            const auto chain = chains.find(key);
            // Only chains the executor ran whole (no cache hits).
            if (done >= max_outputs || chain == chains.end() ||
                static_cast<int>(chain->second.size()) !=
                    clip.segmentCount() ||
                std::any_of(chain->second.begin(), chain->second.end(),
                            [](const codec::ByteBuffer &b) {
                                return b.empty();
                            }) ||
                rung.request.kind != core::EncoderKind::Vbc)
                continue;
            std::optional<codec::ByteBuffer> stitched;
            {
                SpanLog::Scope s(spans, "codec::stitchStreams",
                                 videoMpix(*clip.original));
                stitched = codec::stitchStreams(chain->second);
            }
            const auto out = result.outputs.find(key);
            if (!stitched || out == result.outputs.end() ||
                *stitched != out->second)
                raw.error(key + ": re-stitch differs from the delivery");
            ++done;
        }
    }
}

/** Replay the kept jobs of a traced service pass one layer at a time. */
void
replayServiceJobs(Raw &raw, SpanLog &spans, const RecordingExecutor &rec)
{
    for (const RecordingExecutor::Record &r : rec.records()) {
        if (!r.job)
            continue;
        const Replay replay =
            replayLayers(spans, r.job->input, *r.original, r.job->params);
        if (!replay.ok || replay.stream != r.handle.wait().outcome.stream)
            raw.error(r.job->label() + ": layer replay differs from the "
                      "executed segment");
    }
}

/**
 * The first `n` arrivals of the seeded Poisson process, so the request
 * count (and the work) is fixed while arrival times stay random.
 */
std::vector<service::ServiceRequest>
firstArrivals(service::WorkloadConfig wc, const service::Corpus &corpus,
              size_t n)
{
    std::vector<service::ServiceRequest> workload;
    n = std::max<size_t>(n, 1);
    for (double window = 2.0 * static_cast<double>(n) / wc.arrival_rate_hz;;
         window *= 2) {
        wc.duration_s = window;
        workload = service::generateWorkload(wc, corpus);
        if (workload.size() >= n)
            break;
    }
    workload.resize(n);
    return workload;
}

// --- live_service ---------------------------------------------------------

/** Two camera-footage clips of the same entropy: Live cost per segment
 * should not depend on which clip the Zipf draw picked. */
std::vector<video::ClipSpec>
liveSpecs()
{
    std::vector<video::ClipSpec> specs;
    for (int i = 0; i < 2; ++i) {
        video::ClipSpec s;
        s.name = "live" + std::to_string(i);
        s.width = kLiveWidth;
        s.height = kLiveHeight;
        s.fps = 30.0;
        s.content = video::ContentClass::Natural;
        s.target_entropy = 2.0;
        s.seed = 300 + static_cast<uint64_t>(i);
        specs.push_back(s);
    }
    return specs;
}

/**
 * Untimed warm-up on the pass's own pool: the first requests, all due
 * at once and unpaced. The first encodes of a process run up to 3x
 * slower (allocator growth, first-touch pages); a long-running service
 * pays that once, and at Live segment latencies (tens of ms) it would
 * otherwise set the p95.
 */
void
warmUp(service::SegmentExecutor &pool, const service::Corpus &corpus,
       const std::vector<service::ServiceRequest> &workload)
{
    std::vector<service::ServiceRequest> warm(
        workload.begin(),
        workload.begin() + std::min<size_t>(workload.size(), 4));
    for (service::ServiceRequest &req : warm) {
        req.arrival_s = 0;
        req.live_paced = false;
    }
    service::ServiceConfig config;
    config.executor = &pool;
    config.enable_telemetry = false;
    service::TranscodeService(config, corpus).run(warm);
}

void
livePass(const Options &o, Raw &raw, SpanLog &spans,
         const service::Corpus &corpus,
         const std::vector<service::ServiceRequest> &workload,
         const std::string &prefix)
{
    SchedulerExecutor pool(o.nproc);
    warmUp(pool, corpus, workload);
    RecordingExecutor rec(pool, spans, "sched::Scheduler::submit",
                          spans.enabled() ? kLiveReplayJobs : 0);
    obs::MetricsRegistry registry;
    service::ServiceConfig config;
    config.workers = o.nproc;
    config.admission_capacity = workload.size() + 1;
    // Paced Live streams hold no worker while they wait for their next
    // segment, so cap concurrent streams well above the pool size.
    config.max_active_requests = 4 * static_cast<size_t>(o.nproc);
    config.collect_outputs = true;
    config.executor = &rec;
    config.metrics = spans.enabled() ? &registry : nullptr;
    service::TranscodeService svc(config, corpus);

    PassClock clock;
    service::ServiceResult result;
    {
        SpanLog::Scope s(spans, "service::TranscodeService::run", 0);
        result = svc.run(workload);
    }
    clock.stop();
    clock.report(raw, prefix);
    accountService(raw, prefix, spans, corpus, workload, result, rec,
                   clock.t0_ns, clock.wall_s, /*live=*/true);
    if (spans.enabled()) {
        raw.set(prefix + "service.stitch_ms_p50",
                registry.histogram("service.stitch_us.live")
                        .valueAtQuantile(0.5) *
                    1e-3);
        replayServiceJobs(raw, spans, rec);
        replayStitch(raw, spans, corpus, workload, result, rec, 8);
        reportReplay(raw, spans);
    }
}

void
runLive(const Options &o, Raw &raw, SpanLog &spans)
{
    service::Corpus corpus;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        SpanLog::Scope setup(spans, "setup", 0);
        corpus = ingestCorpus(liveSpecs(), kLiveFrames,
                              kLiveSegmentFrames, raw, spans);
        raw.add("setup_s", setup.stop());
    }
    service::WorkloadConfig wc;
    wc.arrival_rate_hz = kLiveRateHz;
    wc.zipf_exponent = 1.0;
    wc.seed = o.seed;
    wc.mix = {0, 1, 0, 0, 0};  // Live only
    wc.live_slack = 3.0;
    std::vector<service::ServiceRequest> workload = firstArrivals(
        wc, corpus,
        static_cast<size_t>(std::lround(o.seconds * kLiveRateHz)));
    // Rescale so the last arrival falls at --seconds: the offered rate
    // is exactly the nominal one on every seed, the gaps stay random.
    const double scale = o.seconds / workload.back().arrival_s;
    for (service::ServiceRequest &req : workload)
        req.arrival_s *= scale;
    raw.set("requests", static_cast<double>(workload.size()));
    if (o.trace) {
        SpanLog off(false);
        livePass(o, raw, off, corpus, workload, "untraced.");
    }
    livePass(o, raw, spans, corpus, workload, "");
}

// --- popular_ladder -------------------------------------------------------

/** Six camera-footage clips of one entropy: popularity, not content,
 * decides what a request costs. */
std::vector<video::ClipSpec>
popularSpecs()
{
    std::vector<video::ClipSpec> specs;
    for (int i = 0; i < kPopularClips; ++i) {
        video::ClipSpec s;
        s.name = "pop" + std::to_string(i);
        s.width = kPopularWidth;
        s.height = kPopularHeight;
        s.fps = 30.0;
        s.content = video::ContentClass::Natural;
        s.target_entropy = 3.0;
        s.seed = 500 + static_cast<uint64_t>(i);
        specs.push_back(s);
    }
    return specs;
}

std::unique_ptr<rpc::RemotePool>
spawnPool(const Options &o, Raw &raw)
{
    rpc::RemotePoolConfig config;
    config.workers = o.nproc;
    config.worker_binary = o.worker_bin;
    config.timeout_ms = 60000;
    config.retries = 2;
    config.hedge = true;
    config.hedge_pct = 99;
    auto pool = std::make_unique<rpc::RemotePool>(config);
    // Spawn is eager but asynchronous: wait for every handshake.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
        const std::vector<int64_t> pids = pool->workerPids();
        if (std::all_of(pids.begin(), pids.end(),
                        [](int64_t p) { return p != 0; }))
            break;
        if (std::chrono::steady_clock::now() > deadline) {
            raw.error("rpc workers did not complete their handshake");
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return pool;
}

/**
 * The burst: Zipf(1) popularity realized exactly — rank k gets a share
 * of the requests proportional to 1/(k+1), largest remainder. Every
 * request is due at t=0.
 */
std::vector<service::ServiceRequest>
popularWorkload(const Options &o, const service::Corpus &corpus)
{
    const size_t n = static_cast<size_t>(std::max(
        1L, std::lround(o.seconds * kPopularRequestsPerSecond)));
    const size_t clips = corpus.clips.size();
    std::vector<double> share(clips);
    double total = 0;
    for (size_t k = 0; k < clips; ++k)
        total += share[k] = 1.0 / static_cast<double>(k + 1);
    std::vector<size_t> count(clips);
    std::vector<std::pair<double, size_t>> remainder;
    size_t assigned = 0;
    for (size_t k = 0; k < clips; ++k) {
        const double exact = static_cast<double>(n) * share[k] / total;
        count[k] = static_cast<size_t>(exact);
        assigned += count[k];
        remainder.push_back({exact - static_cast<double>(count[k]), k});
    }
    std::stable_sort(remainder.begin(), remainder.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; assigned < n; ++i, ++assigned)
        ++count[remainder[i % clips].second];
    // Spread each clip's requests evenly over the burst order (request
    // j of a clip with c requests sorts at (j + 0.5) / c), so the cache
    // sees the same repeat distances on every seed; the seed decides
    // which clip holds which popularity rank.
    std::vector<size_t> rank_to_clip(clips);
    for (size_t k = 0; k < clips; ++k)
        rank_to_clip[k] = k;
    seededShuffle(rank_to_clip, o.seed);
    std::vector<std::pair<double, size_t>> slots;
    for (size_t k = 0; k < clips; ++k)
        for (size_t j = 0; j < count[k]; ++j)
            slots.push_back({(static_cast<double>(j) + 0.5) /
                                 static_cast<double>(count[k]),
                             k});
    std::stable_sort(slots.begin(), slots.end());
    std::vector<size_t> order;
    for (const auto &[at, rank] : slots)
        order.push_back(rank_to_clip[rank]);

    // The service's own Popular request shape (ladder rungs, deadline),
    // taken from its workload generator.
    service::WorkloadConfig wc;
    wc.arrival_rate_hz = 1.0;
    wc.mix = {0, 0, 0, 1, 0};  // Popular only
    wc.ladder_rungs = 3;
    wc.seed = o.seed;
    const service::ServiceRequest shape = firstArrivals(wc, corpus, 1)[0];
    std::vector<service::ServiceRequest> workload;
    for (size_t i = 0; i < order.size(); ++i) {
        service::ServiceRequest req = shape;
        req.id = i;
        req.clip = order[i];
        req.arrival_s = 0;
        workload.push_back(std::move(req));
    }
    return workload;
}

/**
 * Cache capacity: a share of the distinct-output working set, sized
 * from the ladder bitrates so it is known before anything encodes.
 */
size_t
popularCacheBytes(const service::Corpus &corpus,
                  const std::vector<service::ServiceRequest> &workload)
{
    std::set<std::pair<size_t, std::string>> distinct;
    double bytes = 0;
    for (const service::ServiceRequest &req : workload) {
        const service::CorpusClip &clip = corpus.clips[req.clip];
        for (const service::RungSpec &rung : req.rungs) {
            if (!distinct.insert({req.clip, rung.name}).second)
                continue;
            bytes += rung.request.rc.bitrate_bps / 8.0 *
                clip.original->duration();
        }
    }
    return static_cast<size_t>(bytes * kPopularCacheShare);
}

void
popularPass(const Options &o, Raw &raw, SpanLog &spans,
            const service::Corpus &corpus,
            const std::vector<service::ServiceRequest> &workload,
            std::unique_ptr<rpc::RemotePool> pool, const std::string &prefix)
{
    cache::CacheConfig cache_config;
    cache_config.capacity_bytes = popularCacheBytes(corpus, workload);
    cache_config.policy = cache::CachePolicy::CostAware;
    cache::TranscodeCache cache(cache_config);
    RecordingExecutor rec(*pool, spans, "rpc::RemotePool::submit",
                          spans.enabled() ? kPopularReplayJobs : 0);
    service::ServiceConfig config;
    config.workers = o.nproc;
    config.admission_capacity = workload.size() + 1;
    config.collect_outputs = true;
    config.executor = &rec;
    config.cache = &cache;
    obs::MetricsRegistry registry;
    config.metrics = spans.enabled() ? &registry : nullptr;
    service::TranscodeService svc(config, corpus);

    PassClock clock;
    service::ServiceResult result;
    {
        SpanLog::Scope s(spans, "service::TranscodeService::run", 0);
        result = svc.run(workload);
    }
    clock.stop();
    const service::ExecutorStats stats = pool->stats();
    // Reap the children so their CPU time and peak RSS are counted.
    pool.reset();
    clock.report(raw, prefix);
    accountService(raw, prefix, spans, corpus, workload, result, rec,
                   clock.t0_ns, clock.wall_s, /*live=*/false);

    const cache::CacheStats &cs = result.cache_stats;
    raw.set(prefix + "cache.lookups", static_cast<double>(cs.lookups));
    raw.set(prefix + "cache.hits", static_cast<double>(cs.hits));
    raw.set(prefix + "cache.inserts", static_cast<double>(cs.inserts));
    raw.set(prefix + "cache.admitted", static_cast<double>(cs.admitted));
    raw.set(prefix + "cache.evictions", static_cast<double>(cs.evictions));
    raw.set(prefix + "cache.resident_mb",
            static_cast<double>(cs.resident_bytes) / (1024.0 * 1024.0));
    raw.set(prefix + "rpc.dispatched", static_cast<double>(stats.dispatched));
    raw.set(prefix + "rpc.completed", static_cast<double>(stats.completed));
    raw.set(prefix + "rpc.retries", static_cast<double>(stats.retries));
    raw.set(prefix + "rpc.hedges", static_cast<double>(stats.hedges));
    raw.set(prefix + "rpc.respawns", static_cast<double>(stats.respawns));
    raw.set(prefix + "rpc.timeouts", static_cast<double>(stats.timeouts));
    raw.set(prefix + "rpc.degraded_local",
            static_cast<double>(stats.degraded_local));
    if (stats.degraded_local > 0)
        raw.error("rpc pool degraded to in-process execution");
    if (spans.enabled()) {
        const SpanLog::Total ser =
            spans.total("service::SegmentJob::serialize");
        const SpanLog::Total de =
            spans.total("service::SegmentJob::deserialize");
        raw.set("service.stitch_ms_p50",
                registry.histogram("service.stitch_us.popular")
                        .valueAtQuantile(0.5) *
                    1e-3);
        raw.set("rpc.serialize_us",
                ser.calls ? (ser.seconds + de.seconds) * 1e6 /
                        static_cast<double>(ser.calls)
                          : 0.0);
        replayServiceJobs(raw, spans, rec);
        replayStitch(raw, spans, corpus, workload, result, rec, 6);
        reportReplay(raw, spans);
    }
}

void
runPopular(const Options &o, Raw &raw, SpanLog &spans)
{
    service::Corpus corpus;
    std::unique_ptr<rpc::RemotePool> pool;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        pool.reset();  // reaps the previous repetition's children
        SpanLog::Scope setup(spans, "setup", 0);
        corpus = ingestCorpus(popularSpecs(), kPopularFrames,
                              kPopularSegmentFrames, raw, spans);
        SpanLog::Scope spawn(spans, "rpc::RemotePool", 0);
        pool = spawnPool(o, raw);
        raw.add("rpc.spawn_s", spawn.stop());
        raw.add("setup_s", setup.stop());
    }
    const std::vector<service::ServiceRequest> workload =
        popularWorkload(o, corpus);
    raw.set("requests", static_cast<double>(workload.size()));
    if (o.trace) {
        SpanLog off(false);
        popularPass(o, raw, off, corpus, workload, std::move(pool),
                    "untraced.");
        pool = spawnPool(o, raw);
    }
    popularPass(o, raw, spans, corpus, workload, std::move(pool), "");
}

} // namespace

bool
runWorkload(const Options &options, Raw &raw, SpanLog &spans)
{
    if (options.workload == "vod_batch")
        runVod(options, raw, spans);
    else if (options.workload == "live_service")
        runLive(options, raw, spans);
    else if (options.workload == "popular_ladder")
        runPopular(options, raw, spans);
    else
        return false;
    if (options.trace)
        probeKernels(raw, spans);
    return true;
}

} // namespace perfbench
