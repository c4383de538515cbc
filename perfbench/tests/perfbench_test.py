"""Reduced-size end-to-end checks of the benchmark.

Run them with `python3 perfbench/run.py --test`, which builds the benchmark
and passes the binary's path in PERFBENCH_BIN.
"""
import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BIN = os.environ.get(
    "PERFBENCH_BIN", os.path.join(ROOT, ".bench_build", "perfbench", "perfbench"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Three wire clients race, so on wire_recurring the plan-cache tiers, reuse
# and containment counts depend on timing; these do not.
WIRE_DETERMINISTIC = ("views_selected", "selected_hash", "subgraphs_mined",
                      "measured_jobs", "views_materialized", "streams",
                      "outputs_hash")


def run(workload, seed=5, trace=0):
    """One reduced-size run at 5% of the work. Untraced, it runs every
    phase, so the run itself also checks that the deterministic counts
    repeat across its phases."""
    return subprocess.run(
        [BIN, "--workload", workload, "--seed", str(seed), "--seconds", "10",
         "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=600)


def counts(stdout, label="run"):
    m = re.search(r"^\[%s\] counts (\{.*\})$" % label, stdout, re.M)
    return json.loads(m.group(1))


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class DoubleRunTest(unittest.TestCase):
    """Two runs with one seed print identical deterministic counts."""

    def double_run(self, workload, keys=None):
        first, second = run(workload), run(workload)
        for r in (first, second):
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        a, b = counts(first.stdout), counts(second.stdout)
        if keys is not None:
            a = {k: a[k] for k in keys}
            b = {k: b[k] for k in keys}
        self.assertEqual(a, b)
        return a

    def test_daily_build(self):
        c = self.double_run("daily_build")
        self.assertEqual(c["plan_cache_full"], "0")
        self.assertEqual(c["plan_cache_skeleton"], "0")

    def test_wire_recurring(self):
        self.double_run("wire_recurring", WIRE_DETERMINISTIC)

    def test_seed_changes_inputs(self):
        a = counts(run("wire_recurring", seed=5).stdout)
        b = counts(run("wire_recurring", seed=6).stdout)
        self.assertNotEqual(a["outputs_hash"], b["outputs_hash"])


class ContractTest(unittest.TestCase):
    """The result line carries exactly the metrics BENCHMARK.json names."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_names_and_units_are_valid(self):
        names = []
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[key]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
                if "unit" in entry:
                    self.assertRegex(entry["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)))

    def check_metrics(self, trace, key):
        r = run("wire_recurring", trace=trace)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        line = result(r.stdout)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {n: v["unit"] for n, v in line["metrics"].items()}
        return want, got

    def test_untraced_run_prints_end_to_end_metrics(self):
        want, got = self.check_metrics(0, "end_to_end")
        # At 5% of the work too few jobs lie beyond p99 to report it.
        want.pop("latency_p99_ms")
        self.assertEqual(want, got)

    def test_traced_run_prints_per_layer_metrics(self):
        want, got = self.check_metrics(1, "per_layer")
        self.assertEqual(want, got)


if __name__ == "__main__":
    unittest.main()
