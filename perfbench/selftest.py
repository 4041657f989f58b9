"""Self-tests of the benchmark (stdlib unittest and the package only).

    python3 -m unittest perfbench/selftest.py        # from the checkout root
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import measure  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, beyond = measure.tail(range(1, 101))
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))
        self.assertEqual(sum(v > value for v in range(1, 101)), 10)

    def test_percentile_moves_with_sample_count(self):
        self.assertEqual(measure.tail(range(1, 26)), (15, 60.0, 10))
        self.assertEqual(measure.tail(range(1, 21)), (10, 50.0, 10))

    def test_ties_are_not_counted_as_beyond(self):
        values = [1.0] * 15 + [2.0] * 15
        value, pct, beyond = measure.tail(values)
        self.assertEqual((value, pct, beyond), (1.0, 50.0, 15))
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_report_the_median(self):
        self.assertEqual(measure.tail([7.0]), (7.0, 50.0, 0))
        self.assertEqual(measure.tail(range(10)), (4.5, 50.0, 5))
        self.assertEqual(measure.tail(range(11)), (5, 50.0, 5))
        self.assertEqual(measure.tail(range(19)), (9, 50.0, 9))
        self.assertEqual(measure.tail([3.0] * 40), (3.0, 50.0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            (0.0, 10.0, -1),  # 0 root
            (1.0, 4.0, 0),    # 1 child, overlaps its sibling on [3, 4]
            (3.0, 6.0, 0),    # 2 child
            (2.0, 3.0, 1),    # 3 grandchild of the root, child of 1
            (9.0, 12.0, 0),   # 4 child running past the root's end: clipped to [9, 10]
            (20.0, 21.0, -1), # 5 second root, no children
        ]
        self.assertEqual(measure.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])

    def test_self_times_sum_to_root_duration_when_children_nest(self):
        spans = [(0.0, 8.0, -1), (1.0, 3.0, 0), (4.0, 7.0, 0), (5.0, 6.0, 2)]
        self.assertAlmostEqual(sum(measure.self_times(spans)), 8.0)


class ImportTimeTest(unittest.TestCase):
    def test_nested_entries_counted_once(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        70 |        120 |   scipy",
            "import time:        30 |         30 |     numpy.linalg",
            "import time:        40 |         70 |   scipy.linalg",
            "import time:        10 |        500 | slepmoments",
        ])
        self.assertAlmostEqual(measure.import_seconds(log, "numpy"), 330e-6)
        self.assertAlmostEqual(measure.import_seconds(log, "scipy"), 190e-6)


class CompareTest(unittest.TestCase):
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}

    def test_verdicts(self):
        old = [10.0 + 0.01 * i for i in range(10)]
        self.assertEqual(compare.verdict(self.metric, old, [v - 1 for v in old], 10, 10), "improved")
        self.assertEqual(compare.verdict(self.metric, old, [v + 2 for v in old], 0, 10), "worse")
        self.assertEqual(compare.verdict(self.metric, old, old, 0, 10), "unchanged")
        wide = [5.0, 8.0, 10.0, 12.0, 15.0] * 2
        self.assertEqual(compare.verdict(self.metric, wide, wide, 0, 10), "unresolved")
        # a clear gain from fewer than ten pairs is not claimed
        self.assertEqual(compare.verdict(self.metric, old[:5], [v - 1 for v in old[:5]], 5, 5),
                         "unchanged")


class SmokeRunTest(unittest.TestCase):
    """A smoke-size run of each workload prints every declared metric with its unit."""

    def run_bench(self, workload, trace):
        record = HERE / ".work" / "selftest.jsonl"
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke", "--record", str(record)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric(self):
        decl = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in [w["name"] for w in decl["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in decl[key]})
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_refuses_to_run_without_sources(self):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "batch",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
