"""Self-test of the benchmark:  python3 bench/selftest.py

Checks that every workload, cut to a few calls, emits each metric named in
BENCHMARK.json, that the output checker rejects corrupted documents, and
that a seed always yields the same argv lists.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import unittest

import checker
import run
import workloads

sys.path.insert(0, str(run.SRC))
from sl2flip import cli  # noqa: E402



def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def classify(argv, rc, out, err=""):
    return checker.check_op(argv, rc, out, err, None)[0]


class MetricsEmitted(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        names = sorted(w["name"] for w in run.SPEC["workloads"])
        self.assertEqual(sorted(workloads.WORKLOADS), names)
        for workload in workloads.WORKLOADS:
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, traced=traced):
                    record = run.run_benchmark(
                        workload, seed=1, seconds=0, traced=traced, limit=2, setup_repeats=1
                    )
                    self.assertEqual(record["outcomes"]["failed"], 0, record["failures"])
                    names = [spec["name"] for spec in run.SPEC[key]]
                    self.assertEqual(list(record["metrics"]), names)
                    for metric in record["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class CheckerRejects(unittest.TestCase):
    def test_flipped_sign_of_k_dot_c_plus(self):
        argv = ("info", "2/5", "3", "--json")
        rc, out, _ = call(*argv)
        self.assertEqual(classify(argv, rc, out), "ok")
        doc = json.loads(out)
        doc["sections"]["flip"]["k_degrees"]["C_plus"]["num"] *= -1
        self.assertEqual(classify(argv, rc, json.dumps(doc)), "failed")

    def test_corrupted_text_rendering(self):
        argv = ("info", "2/5", "3")
        rc, out, _ = call(*argv)
        self.assertEqual(classify(argv, rc, out), "ok")
        bad = re.sub(r"(k_degrees\.C_plus +)(\S+)", r"\1-\2", out, count=1)
        self.assertNotEqual(bad, out)
        self.assertEqual(classify(argv, rc, bad), "failed")

    def test_hilbert_basis_missing_or_extra_generator(self):
        argv = ("hilbert", "2/5", "6", "minus", "--json")
        rc, out, _ = call(*argv)
        self.assertEqual(classify(argv, rc, out), "ok")
        doc = json.loads(out)
        gens = doc["sections"]["hilbert"]["generators"]
        for bad in (gens[:1] + gens[2:], gens + [[a + b for a, b in zip(gens[0], gens[1])]]):
            doc["sections"]["hilbert"]["generators"] = bad
            self.assertEqual(classify(argv, rc, json.dumps(doc)), "failed")

    def test_git_witness_with_wrong_character(self):
        argv = ("git", "2/5", "4", "--json", "--", "-3,1")
        rc, out, _ = call(*argv)
        self.assertEqual(classify(argv, rc, out), "ok")
        doc = json.loads(out)
        doc["sections"]["git"]["witnesses"][0]["n"] += 1
        self.assertEqual(classify(argv, rc, json.dumps(doc)), "failed")

    def test_budget_error_is_undecided_not_wrong(self):
        argv = ("info", "2/3", "5", "--json")
        status, _ = checker.check_op(
            argv, None, "", "", RuntimeError("semistability undecided for minus")
        )
        self.assertEqual(status, "undecided")
        status, _ = checker.check_op(argv, None, "", "", ValueError("boom"))
        self.assertEqual(status, "failed")

    def test_verify_failure_other_than_git_loci(self):
        argv = ("verify", "--qmax", "3", "--mmax", "5")
        rc, out, err = call(*argv)
        self.assertEqual(classify(argv, rc, out, err), "undecided")
        line = next(x for x in out.splitlines() if "git-loci FAIL" in x)
        bad_out = out.replace(line, line.replace("hilbert ok", "hilbert FAIL"))
        head = line.split(":")[0]
        bad_err = f"FAIL {head}: hilbert\nFAIL {head}: git-loci\n2 properties failed\n"
        self.assertEqual(classify(argv, 4, bad_out, bad_err), "failed")


class Seeds(unittest.TestCase):
    def test_same_seed_same_argv_lists(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = workloads.passes(workload, 7), workloads.passes(workload, 7)
                self.assertEqual([next(first) for _ in range(2)], [next(second) for _ in range(2)])
                other = next(workloads.passes(workload, 8))
                self.assertNotEqual(next(workloads.passes(workload, 7)), other)


if __name__ == "__main__":
    unittest.main()
