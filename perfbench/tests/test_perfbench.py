"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_refuses_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 20)), 50)  # rank 10 of 19: 9 beyond
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)  # 10 beyond
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 100)), 90)  # rank 90 of 99: 9 beyond
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)

    def test_nearest_rank_ignores_input_order(self):
        values = list(range(200, 0, -1))
        self.assertEqual(stats.percentile(values, 50), 100)
        self.assertEqual(stats.percentile(values, 90), 180)

    def test_min_samples_matches_the_refusal(self):
        self.assertEqual(stats.min_samples(50), 20)
        self.assertEqual(stats.min_samples(90), 100)
        for p in (50, 90):
            n = stats.min_samples(p)
            stats.percentile(list(range(n)), p)
            with self.assertRaises(ValueError):
                stats.percentile(list(range(n - 1)), p)

    def test_trimmed_mean_drops_a_share_at_each_end(self):
        # ceil(0.05 * 20) = 1 at each end: 1 and 1000 go.
        self.assertEqual(stats.trimmed_mean([1000] + list(range(2, 20)) + [1], 0.05),
                         sum(range(2, 20)) / 18)
        # ceil(0.05 * 21) = 2 at each end.
        self.assertEqual(stats.trimmed_mean(list(range(21)), 0.05), sum(range(2, 19)) / 17)
        with self.assertRaises(ValueError):
            stats.trimmed_mean([1, 2], 0.05)

    def test_median_is_nearest_rank(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)
        with self.assertRaises(ValueError):
            stats.median([])


class Generators(unittest.TestCase):
    SIZE = 64 * 1024

    def test_deterministic_per_seed(self):
        for workload in ("narrow", "wide"):
            self.assertEqual(gen.generate(workload, 7, self.SIZE),
                             gen.generate(workload, 7, self.SIZE), workload)

    def test_seeds_differ(self):
        for workload in ("narrow", "wide"):
            self.assertNotEqual(gen.generate(workload, 7, self.SIZE),
                                gen.generate(workload, 8, self.SIZE), workload)

    def test_workloads_differ_for_one_seed(self):
        self.assertNotEqual(gen.generate("narrow", 7, self.SIZE)[0],
                            gen.generate("wide", 7, self.SIZE)[0])

    def test_size_and_split(self):
        docs = gen.generate("narrow", 1, self.SIZE)
        self.assertGreaterEqual(sum(map(len, docs)), self.SIZE)
        base, stream = gen.split(docs)
        self.assertEqual(base + stream, docs)
        self.assertEqual(len(base), int(len(docs) * 0.8))

    def test_wide_record_types_repeat_a_field_now_and_then(self):
        import random
        records, kinds = gen.wide_schema(random.Random(1))
        self.assertEqual(len(records), gen.RECORD_TYPES)
        repeating = [name for name, items in records
                     if len({f for fields, _ in items for f in fields})
                     < sum(len(fields) for fields, _ in items)]
        self.assertGreaterEqual(len(repeating), gen.RECORD_TYPES // 20)
        self.assertLessEqual(len(repeating), gen.RECORD_TYPES // 5)
        for _, items in records:
            self.assertTrue(all(f in kinds for fields, _ in items for f in fields))


def span(id, parent, request, name, start, end):
    return {"id": id, "parent": parent, "request": request, "name": name,
            "start": start, "end": end}


class Ledger(unittest.TestCase):
    # Request 1: root [0, 100] with children A [10, 40] and B [30, 60]
    # (overlapping), C [90, 120] (runs past the root), and a grandchild
    # A1 [15, 20] under A. Request 2: root [200, 260], one child [210, 250].
    SPANS = [
        span(0, None, 1, "scenario.ingest", 0, 100),
        span(1, 0, 1, "engine.derive", 10, 40),
        span(2, 0, 1, "xml.diff", 30, 60),
        span(3, 0, 1, "engine.journal_compact", 90, 120),
        span(4, 1, 1, "core.learn", 15, 20),
        span(5, None, 2, "scenario.ingest", 200, 260),
        span(6, 5, 2, "engine.derive", 210, 250),
    ]

    def test_self_time_is_exact(self):
        own = stats.self_times(self.SPANS)
        # Children cover [10, 60] and [90, 100] of the root: 60 of 100.
        self.assertEqual(own[0], 40)
        self.assertEqual(own[1], 25)
        self.assertEqual(own[2], 30)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 5)
        self.assertEqual(own[5], 20)
        self.assertEqual(own[6], 40)

    def test_ledger_takes_layer_medians_over_requests(self):
        rows = stats.ledger(self.SPANS, {"ingest": 1e-4, "batch": 1.0})
        self.assertEqual(set(rows), {"ingest"})
        row = rows["ingest"]
        self.assertEqual(row["requests"], 2)
        # engine: 25 + 30 = 55 in request 1, 40 in request 2; the nearest-
        # rank median of two is the lower. xml and core appear only in
        # request 1, so their medians are 0.
        self.assertEqual(row["layers"], {"engine": 40e-6, "xml": 0.0, "core": 0.0})
        self.assertAlmostEqual(row["attributed_ms"], 40e-6)
        self.assertAlmostEqual(row["unattributed_pct"], (1e-4 - 40e-6) / 1e-4 * 100)

    def test_reads_the_writer_format_exactly(self):
        lines = [
            '{"displayTimeUnit":"ns","traceEvents":[',
            '{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},',
            '{"name":"scenario.batch","cat":"scenario","ph":"X","pid":1,"tid":1,'
            '"ts":1.001,"dur":1000000.999,"args":{"span":0,"parent":null,"request":1,'
            '"reported":false}},',
            '{"name":"xml.extract","cat":"xml","ph":"X","pid":1,"tid":1,"ts":2.000,'
            '"dur":0.003,"args":{"span":1,"parent":0,"request":1,"reported":false}}',
            ']}',
        ]
        spans = stats.read_chrome_trace(lines)
        self.assertEqual(spans, [
            span(0, None, 1, "scenario.batch", 1001, 1001 + 1000000999),
            span(1, 0, 1, "xml.extract", 2000, 2003),
        ])


class Contract(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], ["narrow", "wide"])


if __name__ == "__main__":
    unittest.main()
