#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at the small size.

    python3 perfbench/test_perfbench.py

Builds the benchmark (through run.py) and, for each workload, checks that an
untraced run emits every end-to-end metric of BENCHMARK.json with its unit,
that a traced run emits every per-layer metric (trace.overhead_share from
the named workload's own loops), that the ledger written by
the traced run adds up when recomputed from its span file, and that the
corrupted-column check fired. Also checks that a timed run refuses to start
with the library's telemetry gate on.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
WORKLOADS = ["ingest", "analytics", "serving"]
SEED = 7


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, env=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, env=env,
                          timeout=900)


def recompute_ledger(spans_path):
    """Per root name: (count, total_ns, residual_ns, {layer: self_ns})."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            spans.append(json.loads(line))
    child_ns = [0] * (len(spans) + 1)
    for s in spans:
        if s["parent"]:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    root_of = {}
    paths = {}
    for s in spans:
        root = s["id"] if s["parent"] == 0 else root_of[s["parent"]]
        root_of[s["id"]] = root
        name = spans[root - 1]["name"]
        count, total, residual, layers = paths.get(name, (0, 0, 0, {}))
        self_ns = s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
        if s["parent"] == 0:
            count += 1
            total += s["end_ns"] - s["start_ns"]
            residual += self_ns
        else:
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0) + self_ns
        paths[name] = (count, total, residual, layers)
    return paths


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[(workload, trace)] = run(workload, trace)

    def result(self, workload, trace):
        proc = self.results[(workload, trace)]
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_end_to_end_metric_with_unit(self):
        want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for workload in WORKLOADS:
            _, result = self.result(workload, 0)
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, workload)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, "%s on %s" % (name, workload))

    def test_every_per_layer_metric_with_unit(self):
        want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        for workload in WORKLOADS:
            _, result = self.result(workload, 1)
            self.assertTrue(result["correct"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, workload)

    def test_overhead_is_the_named_workloads(self):
        for workload in WORKLOADS:
            proc, result = self.result(workload, 1)
            printed = {}
            for line in proc.stdout.splitlines():
                fields = line.split()
                if fields[:1] == ["trace.overhead_share"]:
                    printed[fields[-1]] = float(fields[1])
            self.assertEqual(sorted(printed), sorted(WORKLOADS), workload)
            self.assertAlmostEqual(result["metrics"]["trace.overhead_share"]["value"],
                                   printed[workload], delta=1e-5, msg=workload)

    def test_ledger_adds_up(self):
        for workload in WORKLOADS:
            self.result(workload, 1)
            stem = os.path.join(OUT, "%s-seed%d" % (workload, SEED))
            with open(stem + ".ledger.json") as f:
                written = json.load(f)
            ledger = written["ledger"]
            self.assertEqual(ledger["problems"], [], workload)
            self.assertEqual(written["spans_dropped"], 0)
            for key in ("kernel_tier", "nproc", "build_type", "perf", "ALP_FORCE_KERNEL",
                        "ALP_THREADS"):
                self.assertIn(key, written["env"])
            recomputed = recompute_ledger(stem + ".spans.jsonl")
            roots = {p["root"] for p in ledger["paths"]}
            # Every workload's paths are in every traced run.
            for root in ("ingest.corpus", "write.split", "query.mix", "read.split",
                         "serve.request", "lookup.split"):
                self.assertIn(root, roots, workload)
            for p in ledger["paths"]:
                count, total, residual, layers = recomputed[p["root"]]
                self.assertEqual(count, p["count"])
                self.assertEqual(total, p["total_ns"])
                self.assertEqual(residual, p["residual_ns"])
                self.assertEqual(layers, p["layers_self_ns"])
                self.assertEqual(sum(layers.values()) + residual, total, p["root"])
            for d in ledger["decompositions"]:
                explained = sum(d["parts"].values()) + d["residual"]
                self.assertAlmostEqual(explained, d["total"],
                                       delta=1e-6 * abs(d["total"]))

    def test_corrupted_column_is_rejected(self):
        for workload in WORKLOADS:
            proc, _ = self.result(workload, 0)
            lines = [l for l in proc.stdout.splitlines() if "corruption_check" in l]
            self.assertEqual(len(lines), 1, workload)
            self.assertIn("rejected: ", lines[0])
            self.assertNotIn("rejected: accepted", lines[0])

    def test_refuses_to_time_with_telemetry_on(self):
        env = dict(os.environ, ALP_OBS_ENABLE="1")
        command = [BINARY, "--workload", "ingest", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--small"]
        proc = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("telemetry gate is on", proc.stderr)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
