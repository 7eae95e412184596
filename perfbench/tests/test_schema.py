"""Tests of the result schema: BENCHMARK.json against its format rules,
the metrics perfstats derives from a raw vbench_perf record, and
run.py's refusals.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import perfstats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def raw_record():
    """A vbench_perf record shaped like a traced vod_batch run."""
    values = {"nproc": 4}
    samples = {"setup_s": [1.0, 1.2, 1.1],
               "video.synth_s": [0.5, 0.6, 0.55],
               "core.ingest_s": [0.4, 0.5, 0.45]}
    for prefix in ("", "untraced."):
        values.update({prefix + "wall_s": 10.0,
                       prefix + "delivered_mpix": 150.0,
                       prefix + "cpu_s": 38.0,
                       prefix + "attempted": 24,
                       prefix + "failed": 0,
                       prefix + "deadline_hits": 24,
                       prefix + "bitrate_bpps": 1.13,
                       prefix + "psnr_db": 44.9,
                       prefix + "peak_rss_mb": 260.0,
                       prefix + "delivered_streams": 24,
                       prefix + "sched.worker_busy_share": 0.97})
        samples[prefix + "segment_ms"] = [100.0 * i for i in range(1, 25)]
        samples[prefix + "sched.queue_wait_ms"] = [1.0, 2.0, 3.0]
        samples[prefix + "sched.frame_threads"] = [1, 1, 2]
    values["untraced.wall_s"] = 9.5
    for k in perfstats.KERNELS:
        samples["kernels.%s_ns" % k] = [10.0, 11.0, 12.0]
        values["kernels.%s_bytes" % k] = 512
    for span, seconds in (("decode_input", 1.0), ("vbc_encode", 3.0),
                          ("ngc_encode", 9.0), ("vbc_decode_output", 0.5),
                          ("ngc_decode_output", 0.7), ("psnr", 0.1),
                          ("transcode", 14.8)):
        values["replay.%s.seconds" % span] = seconds
        values["replay.%s.mpix" % span] = 80.0
        values["replay.%s.calls" % span] = 12
    return {"meta": {"kernel_isa": "avx2"}, "values": values,
            "samples": samples, "texts": {"digest": "k0"}, "errors": []}


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = perfstats.load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(os.path.getsize(
            os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertLessEqual(len(self.spec["command"]), 32)
        for arg in self.spec["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)
        self.assertTrue(os.path.isfile(os.path.join(ROOT,
                                                    self.spec["command"][1])))

    def test_run_seconds_and_workloads(self):
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["vod_batch", "live_service",
                                 "popular_ladder"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_entries(self):
        seen = set()
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class DerivedMetricsTest(unittest.TestCase):
    def setUp(self):
        self.spec = perfstats.load_spec()
        self.raw = raw_record()

    def test_end_to_end_names_match_the_spec(self):
        derived = perfstats.end_to_end(self.raw)
        self.assertEqual(set(derived),
                         {m["name"] for m in self.spec["end_to_end"]})

    def test_per_layer_names_match_the_spec(self):
        derived = perfstats.per_layer(self.raw)
        self.assertEqual(set(derived),
                         {m["name"] for m in self.spec["per_layer"]})

    def test_end_to_end_values(self):
        e = perfstats.end_to_end(self.raw)
        self.assertAlmostEqual(e["setup_s"].value, 1.1)
        self.assertEqual(e["setup_s"].n, 3)
        self.assertAlmostEqual(e["throughput_mpix_s"].value, 15.0)
        self.assertAlmostEqual(e["cpu_ms_per_mpix"].value, 38000 / 150.0)
        self.assertAlmostEqual(e["deadline_hit_rate"].value, 1.0)
        self.assertEqual(e["segment_p95_ms"].n, 24)

    def test_layer_calls_tile_the_transcode(self):
        p = perfstats.per_layer(self.raw)
        parts = sum(p[n].value for n in (
            "codec.decode_input_ms_per_mpix", "codec.encode_ms_per_mpix",
            "codec.decode_output_ms_per_mpix", "ngc.encode_ms_per_mpix",
            "ngc.decode_output_ms_per_mpix", "metrics.psnr_ms_per_mpix",
            "core.unattributed_ms_per_mpix"))
        self.assertAlmostEqual(parts, p["core.transcode_ms_per_mpix"].value)
        self.assertAlmostEqual(p["core.transcode_ms_per_mpix"].value,
                               14.8e3 / 80.0)

    def test_tracing_overhead_compares_the_two_passes(self):
        p = perfstats.per_layer(self.raw)
        self.assertAlmostEqual(p["trace.throughput_overhead_share"].value,
                               0.05)

    def test_result_line_schema(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics = (perfstats.per_layer(self.raw) if trace
                       else perfstats.end_to_end(self.raw))
            line = perfstats.result_line(True, 24, 0, metrics, self.spec,
                                         trace)
            self.assertNotIn("\n", line)
            out = json.loads(line)
            self.assertEqual(list(out), ["correct", "attempted", "failed",
                                         "metrics"])
            self.assertIs(out["correct"], True)
            self.assertEqual((out["attempted"], out["failed"]), (24, 0))
            self.assertEqual(
                {n: v["unit"] for n, v in out["metrics"].items()},
                {m["name"]: m["unit"] for m in self.spec[kind]})
            for v in out["metrics"].values():
                self.assertEqual(set(v), {"value", "unit"})
                self.assertIsInstance(v["value"], float)


class RunRefusalTest(unittest.TestCase):
    def run_py(self, root, env):
        return subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", "vod_batch", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=root, env=env, capture_output=True,
            text=True, timeout=60)

    def test_refuses_inherited_knobs(self):
        env = dict(os.environ, VBENCH_JOBS="2")
        done = self.run_py(ROOT, env)
        self.assertEqual(done.returncode, 2)
        self.assertNotIn("{", done.stdout)
        self.assertIn("VBENCH_JOBS", done.stderr)

    def test_fails_without_sources(self):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("VBENCH_")}
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = self.run_py(tmp, env)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
