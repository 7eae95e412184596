/**
 * @file
 * vbench_perf: the measuring program behind run.py (see README.md).
 *
 *   vbench_perf --workload vod_batch|live_service|popular_ladder
 *               --seed N --seconds S --trace 0|1
 *               --worker-bin PATH [--spans-out PATH]
 *
 * Pins every VBENCH_* knob itself (and refuses to start when one is
 * inherited), plays one workload, checks the delivered streams from
 * outside the program, and prints one raw JSON line on stdout. Exit
 * status 0 when the run completed and every correctness check held,
 * 1 on a correctness failure, 2 on bad usage or an inherited knob.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "obs/clock.h"
#include "perf.h"

extern char **environ;

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

thread_local uint32_t t_current_span = 0;

uint32_t
threadRow()
{
    static std::mutex mu;
    static std::map<std::thread::id, uint32_t> rows;
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, inserted] = rows.emplace(
        std::this_thread::get_id(), static_cast<uint32_t>(rows.size()));
    return it->second;
}

} // namespace

void
Raw::error(const std::string &what)
{
    std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
    errors_.push_back(what);
}

std::string
Raw::json() const
{
    // bench::jsonMetaFields() stamps kernel ISA, frame threads, jobs
    // and git describe, ending with a comma so the fields splice in here.
    std::string out = "{" + vbench::bench::jsonMetaFields();
    out += "\"values\":{";
    bool first = true;
    for (const auto &[name, v] : values_) {
        out += (first ? "" : ",") + jsonString(name) + ":" + jsonNumber(v);
        first = false;
    }
    out += "},\"samples\":{";
    first = true;
    for (const auto &[name, list] : samples_) {
        out += (first ? "" : ",") + jsonString(name) + ":[";
        for (size_t i = 0; i < list.size(); ++i)
            out += (i ? "," : "") + jsonNumber(list[i]);
        out += "]";
        first = false;
    }
    out += "},\"texts\":{";
    first = true;
    for (const auto &[name, v] : texts_) {
        out += (first ? "" : ",") + jsonString(name) + ":" + jsonString(v);
        first = false;
    }
    out += "},\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i)
        out += (i ? "," : "") + jsonString(errors_[i]);
    return out + "]}";
}

SpanLog::Scope::Scope(SpanLog &log, const char *name, double mpix)
    : log_(log), name_(name), mpix_(mpix), start_ns_(vbench::obs::nowNs()),
      id_(0), parent_(t_current_span)
{
    if (log_.enabled_) {
        std::lock_guard<std::mutex> lock(log_.mu_);
        id_ = log_.next_id_++;
        t_current_span = id_;
    }
}

double
SpanLog::Scope::stop()
{
    if (seconds_ >= 0)
        return seconds_;
    const uint64_t end_ns = vbench::obs::nowNs();
    seconds_ = static_cast<double>(end_ns - start_ns_) * 1e-9;
    if (log_.enabled_) {
        t_current_span = parent_;
        log_.record({name_, start_ns_, end_ns, id_, parent_, threadRow(),
                     mpix_});
    }
    return seconds_;
}

void
SpanLog::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

SpanLog::Total
SpanLog::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Total t;
    for (const Span &s : spans_) {
        if (name != s.name)
            continue;
        t.seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        t.calls += 1;
        t.mpix += s.mpix;
    }
    return t;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const uint64_t begin = s.start_ns > t0 ? s.start_ns - t0 : 0;
        out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << jsonNumber(static_cast<double>(begin) * 1e-3)
            << ",\"dur\":"
            << jsonNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"mpix\":" << jsonNumber(s.mpix) << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
cpuSeconds()
{
    double total = 0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru {};
        if (getrusage(who, &ru) != 0)
            continue;
        total += static_cast<double>(ru.ru_utime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
            static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    }
    return total;
}

double
peakRssMb()
{
    double kb = 0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru {};
        if (getrusage(who, &ru) == 0)
            kb += static_cast<double>(ru.ru_maxrss);
    }
    return kb / 1024.0;
}

double
stealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    if (!(stat >> cpu) || cpu != "cpu")
        return 0;
    for (double &f : fields)
        if (!(stat >> f))
            return 0;
    const long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? fields[7] / static_cast<double>(hz) : 0;
}

} // namespace perfbench

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: vbench_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --worker-bin PATH [--spans-out PATH]\n");
}

/** Knobs one workload runs with; set before the program reads any. */
void
pinKnobs(const perfbench::Options &o)
{
    const std::string nproc = std::to_string(o.nproc);
    std::string frame_threads = "1";
    std::string slices = "1";
    if (o.workload == "vod_batch") {
        // The oversubscription guard clamps this to width 1 while
        // every worker is busy; tail jobs may widen.
        frame_threads = nproc;
    } else if (o.workload == "live_service") {
        // Width 1: wider wavefronts made Live latency swing several-fold
        // with hypervisor steal on a shared 4-vCPU host (README.md).
        slices = "4";
    }
    setenv("VBENCH_JOBS", nproc.c_str(), 1);
    setenv("VBENCH_FRAME_THREADS", frame_threads.c_str(), 1);
    setenv("VBENCH_SLICES", slices.c_str(), 1);
    setenv("VBENCH_ISA", "native", 1);
    setenv("VBENCH_WORKERS", "local", 1);
}

} // namespace

int
main(int argc, char **argv)
{
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "VBENCH_", 7) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with inherited %s "
                         "(the benchmark pins every VBENCH_* knob)\n",
                         *env);
            return 2;
        }
    }

    perfbench::Options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            o.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
            have_seconds = end && *end == '\0' && o.seconds > 0;
        } else if (key == "--trace") {
            o.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (key == "--worker-bin") {
            o.worker_bin = value;
        } else if (key == "--spans-out") {
            o.spans_out = value;
        } else {
            usage();
            return 2;
        }
    }
    if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
        !have_trace || o.worker_bin.empty()) {
        usage();
        return 2;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    o.nproc = hw > 0 ? static_cast<int>(hw) : 1;
    pinKnobs(o);

    perfbench::Raw raw;
    raw.set("nproc", o.nproc);
    for (const char *knob :
         {"VBENCH_JOBS", "VBENCH_FRAME_THREADS", "VBENCH_SLICES",
          "VBENCH_ISA", "VBENCH_WORKERS"})
        raw.text(knob, std::getenv(knob));
    perfbench::SpanLog spans(o.trace);
    if (!perfbench::runWorkload(o, raw, spans)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    if (o.trace && !o.spans_out.empty() &&
        !spans.writeChromeTrace(o.spans_out))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     o.spans_out.c_str());
    std::printf("%s\n", raw.json().c_str());
    std::fflush(stdout);
    return raw.ok() ? 0 : 1;
}
