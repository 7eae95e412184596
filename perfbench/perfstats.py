"""Statistics and result schema of the vbench performance benchmark.

vbench_perf emits raw measurements: named scalars, named sample lists
and correctness errors. This module turns them into the
metrics BENCHMARK.json names, and builds the one-line result run.py
prints last. Every summary of a sample list comes with its sample count
and, for percentiles, the number of samples beyond the reported value.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))


class Summary:
    """A summarized sample list: the value, the sample count, and how
    many samples lie strictly above the value."""

    def __init__(self, value, n, beyond):
        self.value = value
        self.n = n
        self.beyond = beyond

    def __repr__(self):
        return "Summary(value=%r, n=%d, beyond=%d)" % (
            self.value, self.n, self.beyond)


def percentile(samples, p):
    """The p-th percentile (0..100) by linear interpolation between the
    two nearest ranks, with its sample count and the count beyond it.

    An empty list summarizes to 0 with n=0.
    """
    if not 0 <= p <= 100:
        raise ValueError("percentile %r outside [0, 100]" % (p,))
    ordered = sorted(float(v) for v in samples)
    n = len(ordered)
    if n == 0:
        return Summary(0.0, 0, 0)
    h = (n - 1) * p / 100.0
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)
    beyond = sum(1 for v in ordered if v > value)
    return Summary(value, n, beyond)


def median(samples):
    return percentile(samples, 50)


def mean(samples):
    values = [float(v) for v in samples]
    if not values:
        return Summary(0.0, 0, 0)
    return Summary(sum(values) / len(values), len(values), 0)


def load_spec(path=None):
    """BENCHMARK.json at the checkout root."""
    path = path or os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def _ratio(num, den):
    return num / den if den else 0.0


class RawView:
    """Read access to one pass of a raw record (prefix "" or
    "untraced.")."""

    def __init__(self, raw, prefix=""):
        self.values = raw.get("values", {})
        self.samples = raw.get("samples", {})
        self.prefix = prefix

    def value(self, name, default=0.0):
        return float(self.values.get(self.prefix + name, default))

    def samples_of(self, name):
        return self.samples.get(self.prefix + name, [])

    def shared(self, name, default=0.0):
        """A value recorded once per run (set-up, replay)."""
        return float(self.values.get(name, default))

    def shared_samples(self, name):
        return self.samples.get(name, [])


def end_to_end(raw, prefix=""):
    """The end-to-end metrics of one pass: name -> Summary."""
    v = RawView(raw, prefix)
    mpix = v.value("delivered_mpix")
    attempted = v.value("attempted")
    return {
        "setup_s": median(v.shared_samples("setup_s")),
        "throughput_mpix_s": Summary(_ratio(mpix, v.value("wall_s")), 1, 0),
        "segment_p50_ms": percentile(v.samples_of("segment_ms"), 50),
        "segment_p95_ms": percentile(v.samples_of("segment_ms"), 95),
        "deadline_hit_rate": Summary(
            _ratio(v.value("deadline_hits"), attempted), int(attempted), 0),
        "cpu_ms_per_mpix": Summary(
            _ratio(v.value("cpu_s") * 1e3, mpix), 1, 0),
        "bitrate_bpps": Summary(v.value("bitrate_bpps"),
                                int(v.value("delivered_streams")), 0),
        "psnr_db": Summary(v.value("psnr_db"),
                           int(v.value("delivered_streams")), 0),
        "peak_rss_mb": Summary(v.value("peak_rss_mb"), 1, 0),
    }


KERNELS = ("sad", "satd", "interpH", "interpHV", "fwdTx4x4", "fwdTx8x8",
           "quant4x4", "diffBlock", "addClampBlock", "copy2d",
           "deblockEdgeH", "sse8", "ssimWindowSums")


def per_layer(raw):
    """The per-layer metrics of a traced run: name -> Summary. Layers a
    workload does not put on its path read 0 (README.md)."""
    v = RawView(raw)
    out = {}

    def one(value, n=1):
        return Summary(float(value), n, 0)

    out["video.synth_s"] = median(v.shared_samples("video.synth_s"))
    out["core.ingest_s"] = median(v.shared_samples("core.ingest_s"))
    out["rpc.spawn_s"] = median(v.shared_samples("rpc.spawn_s"))
    for k in KERNELS:
        out["kernels.%s_ns" % k] = median(
            v.shared_samples("kernels.%s_ns" % k))
        out["kernels.%s_bytes" % k] = one(v.shared("kernels.%s_bytes" % k))

    # Layer replay: every layer call is charged per Mpix of the same
    # replayed inputs, so they tile core.transcode_ms_per_mpix.
    den = v.shared("replay.decode_input.mpix")
    calls = int(v.shared("replay.decode_input.calls"))

    def per_mpix(span):
        return Summary(_ratio(v.shared(span + ".seconds") * 1e3, den),
                       calls, 0)

    out["codec.decode_input_ms_per_mpix"] = per_mpix("replay.decode_input")
    out["codec.encode_ms_per_mpix"] = per_mpix("replay.vbc_encode")
    out["codec.decode_output_ms_per_mpix"] = per_mpix(
        "replay.vbc_decode_output")
    out["ngc.encode_ms_per_mpix"] = per_mpix("replay.ngc_encode")
    out["ngc.decode_output_ms_per_mpix"] = per_mpix(
        "replay.ngc_decode_output")
    out["metrics.psnr_ms_per_mpix"] = per_mpix("replay.psnr")
    transcode = per_mpix("replay.transcode")
    out["core.transcode_ms_per_mpix"] = transcode
    if v.shared("replay.transcode.calls") > 0:
        timed = sum(out[name].value for name in (
            "codec.decode_input_ms_per_mpix", "codec.encode_ms_per_mpix",
            "codec.decode_output_ms_per_mpix", "ngc.encode_ms_per_mpix",
            "ngc.decode_output_ms_per_mpix", "metrics.psnr_ms_per_mpix"))
        out["core.unattributed_ms_per_mpix"] = Summary(
            transcode.value - timed, calls, 0)
    else:
        out["core.unattributed_ms_per_mpix"] = one(0.0)
    stitches = v.shared("replay.stitch.calls")
    out["codec.stitch_ms"] = Summary(
        _ratio(v.shared("replay.stitch.seconds") * 1e3, stitches),
        int(stitches), 0)

    out["sched.queue_wait_ms_p50"] = median(
        v.samples_of("sched.queue_wait_ms"))
    out["sched.worker_busy_share"] = one(v.value("sched.worker_busy_share"))
    out["sched.frame_threads_mean"] = mean(v.samples_of("sched.frame_threads"))

    out["service.queue_wait_ms_p50"] = median(
        v.samples_of("service.queue_wait_ms"))
    out["service.rc_chain_ms_p50"] = median(
        v.samples_of("service.rc_chain_ms"))
    out["service.encode_ms_p50"] = median(v.samples_of("service.encode_ms"))
    out["service.stitch_ms_p50"] = one(v.value("service.stitch_ms_p50"))
    out["service.admission_lag_ms_p95"] = percentile(
        v.samples_of("service.admission_lag_ms"), 95)
    out["service.worker_utilization_mean"] = one(
        v.value("service.worker_utilization_mean"))
    out["service.dropped"] = one(v.value("service.dropped"))

    out["cache.hit_rate"] = one(
        _ratio(v.value("cache.hits"), v.value("cache.lookups")))
    out["cache.admitted_share"] = one(
        _ratio(v.value("cache.admitted"), v.value("cache.inserts")))
    out["cache.inserts"] = one(v.value("cache.inserts"))
    out["cache.evictions"] = one(v.value("cache.evictions"))
    out["cache.resident_mb"] = one(v.value("cache.resident_mb"))

    out["rpc.useful_share"] = one(
        _ratio(v.value("rpc.completed"), v.value("rpc.dispatched")))
    for name in ("retries", "hedges", "respawns", "timeouts"):
        out["rpc." + name] = one(v.value("rpc." + name))
    out["rpc.roundtrip_overhead_ms_p50"] = median(
        v.samples_of("rpc.roundtrip_overhead_ms"))
    out["rpc.job_bytes_mean"] = mean(v.samples_of("rpc.job_bytes"))
    out["rpc.result_bytes_mean"] = mean(v.samples_of("rpc.result_bytes"))
    out["rpc.serialize_us"] = one(v.shared("rpc.serialize_us"))

    # Tracing overhead: the traced pass against the untraced pass of
    # the same run, same inputs.
    traced = end_to_end(raw, "")
    untraced = end_to_end(raw, "untraced.")
    out["trace.throughput_overhead_share"] = one(
        1.0 - _ratio(traced["throughput_mpix_s"].value,
                     untraced["throughput_mpix_s"].value))
    out["trace.segment_p50_overhead_share"] = one(
        _ratio(traced["segment_p50_ms"].value,
               untraced["segment_p50_ms"].value) - 1.0)
    out["trace.cpu_overhead_share"] = one(
        _ratio(traced["cpu_ms_per_mpix"].value,
               untraced["cpu_ms_per_mpix"].value) - 1.0)
    return out


def result_line(correct, attempted, failed, metrics, spec, trace):
    """The last stdout line: exactly correct/attempted/failed/metrics,
    with every metric BENCHMARK.json lists for this mode, in its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        s = metrics.get(m["name"])
        value = s.value if s is not None else 0.0
        if not math.isfinite(value):
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})
