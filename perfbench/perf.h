#pragma once

/**
 * @file
 * Shared pieces of vbench_perf: run options, the raw result
 * record handed to run.py, the benchmark's own span log, and process
 * accounting (CPU time and peak RSS).
 *
 * vbench_perf measures; run.py does the statistics. Every sample list
 * and scalar it emits is raw (no medians, no percentiles), so
 * the one statistics helper (perfstats.py) and its tests own how a
 * metric is summarized.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    int nproc = 1;
    std::string worker_bin;  ///< vbench_worker binary (popular_ladder)
    std::string spans_out;   ///< Chrome trace of the span log; empty = none
};

/**
 * Raw measurements of one run: named scalars, named sample lists, and
 * correctness errors. Serialized as one JSON object line.
 */
class Raw
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }
    void add(const std::string &name, double sample)
    {
        samples_[name].push_back(sample);
    }
    /** Make sure a sample list exists even when nothing was added. */
    void declare(const std::string &name) { samples_[name]; }
    void text(const std::string &name, const std::string &value)
    {
        texts_[name] = value;
    }
    void error(const std::string &what);
    bool ok() const { return errors_.empty(); }
    std::string json() const;

  private:
    std::map<std::string, double> values_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, std::string> texts_;
    std::vector<std::string> errors_;
};

/**
 * The benchmark's own tracing: spans recorded around the calls the
 * benchmark makes into the program's public functions. Disabled logs
 * still time a scope (two clock reads) so set-up phases report their
 * durations either way, but record nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, double mpix);
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** End the span now; returns its seconds (idempotent). */
        double stop();

      private:
        SpanLog &log_;
        const char *name_;
        double mpix_;
        uint64_t start_ns_;
        uint32_t id_;
        uint32_t parent_;
        double seconds_ = -1;
    };

    /** Sum of one span name: seconds, calls, and the Mpix they processed. */
    struct Total {
        double seconds = 0;
        uint64_t calls = 0;
        double mpix = 0;
    };
    Total total(const std::string &name) const;
    /** Write the recorded spans as a Chrome trace; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        uint64_t start_ns;
        uint64_t end_ns;
        uint32_t id;
        uint32_t parent;
        uint32_t tid;
        double mpix;
    };
    void record(const Span &span);

    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;  // guarded by mu_
    uint32_t next_id_ = 1;     // guarded by mu_
    friend class Scope;
};

/** CPU seconds (user + system) of this process plus reaped children. */
double cpuSeconds();
/** Peak RSS in MB: this process plus the largest reaped child. */
double peakRssMb();
/**
 * CPU seconds the hypervisor gave other guests while this host's CPUs
 * had work (all CPUs, /proc/stat "steal"); 0 where unavailable.
 */
double stealSeconds();

/** Run one workload; fills `raw`. Returns false on an unknown name. */
bool runWorkload(const Options &options, Raw &raw, SpanLog &spans);

} // namespace perfbench
