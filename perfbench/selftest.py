"""Self-tests of the benchmark: corpus determinism and the verdict checker.

    python3 perfbench/selftest.py

Needs no `unital`: the corpus is built by brute force and the checker is
fed hand-made verdicts.
"""

import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import algebra as alg  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from check import check, group_order  # noqa: E402

UNITS = {"exit": 0, "data_len": {"units": 8},
         "data": {"unique_morphisms": 64}}


def report(units=8, morphisms=64):
    return json.dumps({"checks": [], "report_digest": "x",
                       "data": {"units": [[0]] * units,
                                "unique_morphisms": morphisms},
                       "timing": {"seconds": 0.01}})


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in corpus.WORKLOADS:
            first = json.dumps(corpus.generate(workload, 7), sort_keys=True)
            again = json.dumps(corpus.generate(workload, 7), sort_keys=True)
            self.assertEqual(first.encode(), again.encode())

    def test_seeds_vary_presentation_not_content(self):
        a = corpus.generate("desk-mix", 1)
        b = corpus.generate("desk-mix", 2)
        self.assertNotEqual([x["id"] for x in a], [x["id"] for x in b])
        self.assertEqual(sorted(x["slot"] for x in a),
                         sorted(x["slot"] for x in b))

    def test_every_variant_is_recorded_once(self):
        for workload in corpus.WORKLOADS:
            ids = [x["id"] for x in corpus.all_variants(workload)]
            self.assertEqual(len(ids), len(set(ids)))
            self.assertEqual(len(ids), corpus.VARIANTS
                             * len(corpus.slot_names(workload)))

    def test_refusals_and_defects(self):
        inputs = corpus.generate("desk-mix", 3)
        defects = [x for x in inputs if "defect" in x["known"]]
        self.assertEqual(len(defects), 4)
        self.assertTrue(all(x["known"]["exit"] in (2, 3) for x in defects))

    def test_broken_inputs_differ_from_their_makers(self):
        for workload in corpus.WORKLOADS:
            for slot in corpus._slots(workload):
                name, maker = slot[0], slot[3]
                if getattr(maker, "breaker", corpus._unchanged) \
                        is corpus._unchanged:
                    continue
                for k in range(corpus.VARIANTS):
                    whole, _ = maker.maker(
                        corpus.variant_rng(workload, name, k))
                    spec = corpus.make_input(workload, slot, k)["spec"]
                    self.assertNotEqual(spec, json.dumps(whole), name)

    def test_bool_defect_has_a_true_entry_in_every_variant(self):
        variants = [x for x in corpus.all_variants("desk-mix")
                    if x["slot"] == "defect-bool"]
        self.assertEqual(len(variants), corpus.VARIANTS)
        for item in variants:
            lam = json.loads(item["spec"])["maps"]["lambda"]
            self.assertTrue(any(x is True for row in lam for x in row),
                            item["id"])

    def test_circle_torsor_count(self):
        (item,) = [x for x in corpus.generate("descent", 1)
                   if x["slot"] == "cech-circle-zero"]
        self.assertEqual(item["known"]["data"]["torsor_classes"], 4)
        self.assertEqual(item["candidates"], 2 ** 9 * 2 ** 3)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        path = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(corpus.WORKLOADS))


class AlgebraTest(unittest.TestCase):
    def test_automorphisms_are_bijective_and_conjugation_keeps_kernels(self):
        rng = random.Random(5)
        A, B = (2, 4), (4, 8)
        lam = alg.random_hom(rng, A, B)
        for _ in range(5):
            a, b = alg.random_automorphism(rng, A), \
                alg.random_automorphism(rng, B)
            self.assertEqual(len(a[1]), alg.order(A))
            m = alg.conjugate(lam, A, B, a, b)
            self.assertEqual(len(alg.kernel(m, A, B)),
                             len(alg.kernel(lam, A, B)))

    def test_complex3_composite_vanishes(self):
        A, B, C = (2, 2), (2, 8), (4,)
        delta, lam = alg.complex3_maps(random.Random(1), A, B, C)
        for x in alg.elements(A):
            self.assertEqual(alg.apply(lam, alg.apply(delta, x, B), C), (0,))


class CheckerTest(unittest.TestCase):
    def test_right_verdict(self):
        self.assertEqual(check(UNITS, 0, report(), "")[0], [])

    def test_wrong_exit_code(self):
        problems, _ = check(UNITS, 1, report(), "")
        self.assertIn("exit 1, expected 0", problems)

    def test_wrong_field(self):
        problems, _ = check(UNITS, 0, report(units=7), "")
        self.assertEqual(problems, ["len(data.units) = 7, expected 8"])
        problems, _ = check(UNITS, 0, report(morphisms=63), "")
        self.assertEqual(len(problems), 1)

    def test_traceback(self):
        known = {"exit": 2, "stderr": "input error"}
        err = "Traceback (most recent call last):\n  ...\nTypeError: x\n"
        problems, _ = check(known, 1, "", err)
        self.assertIn("traceback printed", problems)
        self.assertIn("exit 1, expected 2", problems)

    def test_refusal(self):
        known = {"exit": 3, "stderr": "cap exceeded"}
        self.assertEqual(check(known, 3, "", "cap exceeded: 9 > 3\n")[0], [])
        self.assertTrue(check(known, 3, "", "input error: x\n")[0])

    def test_timeout(self):
        self.assertEqual(check(UNITS, -9, "", "", True)[0], ["timed out"])

    def test_group_order(self):
        self.assertEqual(group_order("0"), 1)
        self.assertEqual(group_order("Z/2 x Z/4"), 8)
        self.assertIsNone(group_order("Z/2 x Z"))


if __name__ == "__main__":
    unittest.main()
