#!/usr/bin/env python3
"""Self-test of the fleet benchmark (run from the repository root):

    python3 perfbench/selftest.py

Builds fleetbench like run.py does, then checks on small corpora that
  * one seed run twice repeats every verdict and deterministic counter;
  * the traced pipeline agrees with DTaint::Analyze image by image, and
    layer seconds plus unattributed_s add up to the scan wall time, the
    host-normalized sum of the images' latencies;
  * every timed image has a host-speed factor and the probes ran;
  * each workload has its intended shape;
  * run.py prints the metrics BENCHMARK.json declares, and fails
    without a result where the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)
IMAGES = 16
BUILD_DIR = os.path.abspath(os.path.join(
    os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))


def fleetbench(workload, seed, *extra):
    workdir = tempfile.mkdtemp(prefix="fleetbench-", dir=BUILD_DIR)
    args = ["--workload", workload, "--seed", str(seed),
            "--images", str(IMAGES)] + list(extra)
    return run.run_rep(FleetbenchTest.binary, args, workdir, timeout=170)


class FleetbenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(BUILD_DIR)

    def check_verdicts(self, rep):
        for scan in rep["passes"]:
            for image in scan["per_image"]:
                self.assertTrue(image["verdict_ok"], image)
                self.assertFalse(image["failed"], image)

    def test_same_seed_repeats_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = fleetbench(workload, 7, "--check-cold")
                second = fleetbench(workload, 7)
                self.check_verdicts(first)
                self.assertTrue(first["checked_cold"] or
                                workload != "isolated_rescan")
                self.check_verdicts(second)
                self.assertEqual(run.fingerprint(first),
                                 run.fingerprint(second))
                other = fleetbench(workload, 8)
                self.assertNotEqual(run.fingerprint(first),
                                    run.fingerprint(other))

    def test_traced_pipeline_matches_and_adds_up(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = fleetbench(workload, 9)
                traced = fleetbench(workload, 9, "--traced")
                self.check_verdicts(traced)
                self.assertEqual(run.guard_mismatches(untraced, traced), 0)
                for scan in traced["passes"]:
                    layers = scan["layers"]
                    parts = sum(value for name, value in layers.items()
                                if name not in ("interproc.summary_s",
                                                "interproc.link_s",
                                                "trace.scan_wall_s"))
                    wall = layers["trace.scan_wall_s"]
                    self.assertAlmostEqual(parts, wall, delta=1e-6)
                    self.assertAlmostEqual(
                        wall, IMAGES / run.end_to_end([scan])["images_per_s"],
                        delta=1e-6)
                    self.assertGreaterEqual(layers["unattributed_s"], -1e-9)
                    self.assertGreaterEqual(layers["interproc.link_s"], 0.0)

    def test_workload_shapes(self):
        fleet, = fleetbench("fleet_scan", 3, "--traced")["passes"]
        counters = run.totals(fleet)
        self.assertEqual(counters["structsim.resolutions"], 0)
        self.assertEqual(counters["interproc.functions_resummarized"], 0)
        self.assertLess(fleet["layers"]["interproc.relink_s"], 1e-3)
        self.assertGreater(counters["pathfind.paths_found"], 0)
        statuses = [i["status"] for i in fleet["per_image"]]
        self.assertEqual(statuses.count("unextractable"), IMAGES // 8)

        dispatch, = fleetbench("dispatch_relink", 3, "--traced")["passes"]
        for image in dispatch["per_image"]:
            self.assertEqual(image["status"], "ok")
            self.assertGreaterEqual(
                image["counters"]["structsim.resolutions"], 1)
            self.assertGreater(
                image["counters"]["interproc.functions_resummarized"], 0)

        for isolated in fleetbench("isolated_rescan", 3)["passes"]:
            counters = run.totals(isolated)
            self.assertGreater(counters["cache.hits"], 0)
            self.assertGreater(counters["cache.stores"], 0)
            self.assertEqual(isolated["supervisor"]["in_process_fallbacks"],
                             0)
            self.assertEqual(isolated["supervisor"]["workers_spawned"],
                             IMAGES)
            self.assertGreater(sum(isolated["cpu_children_s"]),
                               sum(isolated["cpu_self_s"]))

    def test_host_clock(self):
        rep = fleetbench("fleet_scan", 4)
        scan, = rep["passes"]
        self.assertEqual(len(scan["factor"]), IMAGES)
        self.assertTrue(all(0.1 < f < 10 for f in scan["factor"]))
        # The probe opening the clock, one ending the set-up, one per image.
        self.assertEqual(len(rep["probe_ns"]), 2 + IMAGES)
        self.assertGreater(rep["setup_s"], 0.0)
        raw = run.end_to_end([scan], normalized=False)
        self.assertAlmostEqual(raw["images_per_s"],
                               IMAGES / (sum(scan["latency_ns"]) * 1e-9))


class RunScriptTest(unittest.TestCase):
    def declared(self, section):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec[section]}

    def result(self, workload, trace, cwd=ROOT):
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", str(trace), "--images", str(IMAGES)],
            cwd=cwd, capture_output=True, text=True, timeout=600)
        return proc

    def test_prints_declared_metrics(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.result(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(last), {"correct", "attempted", "failed",
                                    "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in last["metrics"].items()},
                        self.declared(section))
                    if trace:
                        self.assertEqual(
                            last["metrics"]["trace.mismatched_images"]
                            ["value"], 0)

    def test_fails_without_program_sources(self):
        bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=BUILD_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"))
            proc = self.result("fleet_scan", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
