#!/usr/bin/env python3
"""Run one workload of the vbench performance benchmark.

    python3 perfbench/run.py --workload vod_batch --seed 1 --seconds 15 \
        --trace 0

Builds vbench_perf and the repository's libraries from source into
.bench_build/perfbench (CMake, Release), runs it, turns its raw
measurements into the metrics BENCHMARK.json names (perfstats.py), and
prints them: one line per metric for a reader, then one JSON line with
exactly correct/attempted/failed/metrics. `--workload all` plays the
three workloads in turn, each with its own lines.

Correctness failures (a delivered stream that does not decode, a
stitch or quality disagreement, a digest that differs from an earlier
run of the same build on the same seed) make the result incorrect and
the exit status 1. Set-up problems (no sources to build, a failed
build, an inherited VBENCH_* knob) exit 2 without a result line.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perfstats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(ROOT, ".bench_build", "perfbench-digests.json")
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
WORKLOADS = ("vod_batch", "live_service", "popular_ladder")
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build only the two binaries the run needs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vbench sources under %s/src to build" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "vbench_perf", "vbench_worker"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    perf = os.path.join(BUILD, "vbench_perf")
    worker = os.path.join(BUILD, "vbench", "rpc", "vbench_worker")
    for path in (perf, worker):
        if not os.access(path, os.X_OK):
            fail("build produced no " + path)
    return perf, worker


def build_id(paths):
    """Identity of the code under test: a hash of the built binaries."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def check_digest(key, digest):
    """Record the delivered-stream digest of (build, workload, seed,
    seconds); False when an earlier run recorded a different one."""
    store = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            store = json.load(f)
    previous = store.get(key)
    if previous is not None:
        return previous == digest
    store[key] = digest
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")
    inherited = sorted(k for k in os.environ if k.startswith("VBENCH_"))
    if inherited:
        fail("refusing to run with inherited " + ", ".join(inherited) +
             " (the benchmark pins every VBENCH_* knob)")

    perf, worker = build()
    os.makedirs(SPANS, exist_ok=True)
    if args.workload != "all":
        return run_one(perf, worker, args.workload, args)
    status = 0
    for workload in WORKLOADS:
        print("== " + workload)
        status = max(status, run_one(perf, worker, workload, args))
    return status


def run_one(perf, worker, workload, args):
    """Run one workload; print its metrics and result line. Returns the
    exit status (0 correct, 1 incorrect)."""
    cmd = [perf, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker-bin", worker, "--spans-out",
           os.path.join(SPANS, "%s-s%d.json" % (workload, args.seed))]
    started = time.monotonic()
    # Its own process group, so a timeout also takes down the worker
    # processes vbench_perf spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("vbench_perf did not finish within %d s" % RUN_TIMEOUT_S)
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        fail("vbench_perf exited %d without a result" % proc.returncode)
    raw = json.loads(lines[-1])

    errors = list(raw.get("errors", []))
    texts = raw.get("texts", {})
    digest = texts.get("digest", "")
    if args.trace and texts.get("untraced.digest") != digest:
        errors.append("traced and untraced passes delivered different "
                      "bytes")
    key = "%s|%s|seed=%d|seconds=%d" % (
        build_id([perf, worker]), workload, args.seed, args.seconds)
    if not check_digest(key, digest):
        errors.append("delivered-stream digest differs from an earlier "
                      "run of this build (" + key + ")")
    if proc.returncode != 0 and not errors:
        errors.append("vbench_perf exited %d" % proc.returncode)

    spec = perfstats.load_spec()
    e2e = perfstats.end_to_end(raw, "untraced." if args.trace else "")
    view = perfstats.RawView(raw, "untraced." if args.trace else "")
    attempted = int(view.value("attempted"))
    failed = int(view.value("failed"))
    if attempted < 1:
        errors.append("no operation attempted")
    if workload == "live_service" and e2e["segment_p95_ms"].beyond < 10:
        errors.append("live_service sample leaves %d segments beyond p95 "
                      "(needs 10)" % e2e["segment_p95_ms"].beyond)
    metrics = perfstats.per_layer(raw) if args.trace else e2e

    meta = dict(raw.get("meta", {}))
    meta.update({k: v for k, v in texts.items() if k.startswith("VBENCH_")})
    meta.update({"nproc": int(view.shared("nproc")), "digest": digest,
                 "steal_s": round(view.value("steal_s"), 3),
                 "workload": workload, "seed": args.seed,
                 "run_s": round(time.monotonic() - started, 3)})
    print("meta " + json.dumps(meta, sort_keys=True))
    print("attempted %d, succeeded %d, failed %d" % (
        attempted, attempted - failed, failed))
    unit = {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        s = metrics[name]
        note = " (n=%d" % s.n + (", %d beyond" % s.beyond
                                 if name.endswith(("_p50_ms", "_p95_ms",
                                                   "_p50", "_p95"))
                                 else "") + ")"
        print("%-40s %14.6g %-10s%s" % (name, s.value, unit.get(name, ""),
                                        note))
    for e in errors:
        print("FAIL: " + e)
    print(perfstats.result_line(not errors, attempted, failed, metrics,
                                spec, args.trace))
    sys.stdout.flush()
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
