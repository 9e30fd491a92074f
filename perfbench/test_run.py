"""Tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The Rust side has its own tests: `cargo test --manifest-path
perfbench/Cargo.toml` (pinned-cycle failures, the release-build audit,
self time). `test_traced_run_emits_only_listed_names` builds the crate
and runs one traced `fig3-sweep` run, so it takes about half a minute.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import steadiness  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]


def child(traced, wall=2.0, failed=0, layers=None):
    """A child-process record as run_child returns it."""
    return {"traced": traced, "exit": 0, "process_wall_s": wall + 0.1,
            "process_cpu_s": wall, "peak_rss_mb": 100.0, "attempted": 12,
            "failed": failed, "failures": [], "host_probe_s": 0.1,
            "setup_s": 0.01, "wall_s": wall,
            "cpu_s": wall, "sim_ops": 10**8, "layers": layers or {},
            "self_s": {"bench": 0.1, "sim": 1.0}}


class BenchmarkSpec(unittest.TestCase):
    def test_contract_keys_and_names(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]] + E2E + LAYER
        self.assertEqual(len(names), len(set(names)), "names are used once")
        self.assertIn("setup_s", E2E)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual(set(run.CELLS), {w["name"] for w in SPEC["workloads"]})

    def test_every_self_time_layer_is_listed(self):
        for layer in run.SELF_LAYERS:
            self.assertIn(f"self_s.{layer}", LAYER)
        self.assertIn(run.OVERHEAD, LAYER)
        self.assertIn(run.PROBE, LAYER)


class Metrics(unittest.TestCase):
    def test_end_to_end_prints_exactly_the_listed_metrics(self):
        values = run.end_to_end([child(False), child(False, wall=3.0)])
        self.assertEqual(sorted(values), sorted(E2E))
        self.assertAlmostEqual(values["wall_s"], 2.5)
        self.assertAlmostEqual(values["sim_mops_per_s"], (50 + 100 / 3) / 2)

    def test_per_layer_prints_exactly_the_listed_metrics(self):
        runs = [child(False), child(True, wall=2.2, layers={"tlb.miss_rate": 0.05})]
        values = run.per_layer(runs, [n for n in LAYER if n != run.OVERHEAD])
        self.assertEqual(sorted(values), sorted(LAYER))
        self.assertAlmostEqual(values["tlb.miss_rate"], 0.05)
        self.assertAlmostEqual(values["self_s.sim"], 1.0)
        self.assertAlmostEqual(values[run.OVERHEAD], 0.1)
        self.assertAlmostEqual(values[run.PROBE], 0.1)

    def test_unlisted_child_metric_is_an_error(self):
        runs = [child(True, layers={"made.up_metric": 1.0})]
        with self.assertRaises(ValueError):
            run.per_layer(runs, LAYER)

    def test_aborted_run_counts_no_timing(self):
        aborted = {"traced": False, "exit": -6, "process_wall_s": 1.0,
                   "peak_rss_mb": 50.0, "attempted": 12, "failed": 12}
        values = run.end_to_end([aborted, child(False)])
        self.assertAlmostEqual(values["wall_s"], 2.0)


class Steadiness(unittest.TestCase):
    def doc(self, workload, wall):
        metrics = {n: {"value": 1.0, "unit": "x"} for n in E2E}
        metrics["wall_s"]["value"] = wall
        return {"provenance": {"workload": workload, "trace": 0, "source_sha256": "s"},
                "result": {"metrics": metrics}}

    def sets(self, walls_a, walls_b):
        names = [w["name"] for w in SPEC["workloads"]]
        return ({(w, 0): [self.doc(w, x) for x in walls_a] for w in names},
                {(w, 0): [self.doc(w, x) for x in walls_b] for w in names})

    def test_identical_sets_agree(self):
        rows, ok = steadiness.compare(SPEC, *self.sets([1.0, 1.01, 0.99], [1.0, 1.0, 1.02]))
        self.assertTrue(ok, rows)

    def test_slower_second_set_disagrees(self):
        rows, ok = steadiness.compare(SPEC, *self.sets([1.0, 1.0, 1.0], [1.5, 1.5, 1.5]))
        self.assertFalse(ok)
        self.assertTrue(any("DISAGREE" in r and r.startswith("wall_s") for r in rows))

    def test_setup_spread_beyond_its_bound_disagrees(self):
        a, b = self.sets([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        for docs in list(a.values()) + list(b.values()):
            for d, v in zip(docs, [0.5, 1.0, 2.0]):
                d["result"]["metrics"]["setup_s"]["value"] = v
        rows, ok = steadiness.compare(SPEC, a, b)
        self.assertFalse(ok)
        self.assertTrue(any("DISAGREE" in r and r.startswith("setup_s") for r in rows))

    def test_quartiles_match_statistics_quantiles(self):
        med, q1, q3, spread = steadiness.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)


class TracedRun(unittest.TestCase):
    def test_traced_run_emits_only_listed_names(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        exe = run.build(env)
        self.assertIsNotNone(exe, "benchmark builds")
        out = subprocess.run([exe, "run", "--workload", "fig3-sweep", "--seed", "3",
                              "--trace", "1"],
                             capture_output=True, text=True, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        emitted = set(rec["layers"]) | {f"self_s.{k}" for k in rec["self_s"]}
        self.assertTrue(emitted)
        self.assertLessEqual(emitted, set(LAYER))


if __name__ == "__main__":
    unittest.main()
