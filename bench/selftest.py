"""Self-test of the benchmark (about a minute).

Usage (from the repository root): python3 bench/selftest.py

- every workload, at seed 0 against the committed reference and at seed 1
  against the invariants, passes the oracle on one op;
- a 4-second run of ``run.py`` emits exactly the metrics BENCHMARK.json names,
  each with its unit, traced and untraced;
- the traced layers' self times add up to the traced op time;
- times are scaled to the reference host speed by the calibration readings
  around them;
- a flipped verdict or a perturbed reference number makes the oracle fail,
  and drives ``failed`` up to every attempted op in a real child process.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
import unittest

import run
import workloads

sys.path.insert(0, str(run.REPO / "src"))

import gmtlab.cli as cli  # noqa: E402

import tracer  # noqa: E402
from child import run_op  # noqa: E402

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def one_op(name: str, seed: int, tag: str):
    work_dir = run.WORK_ROOT / f"selftest-{tag}-{os.getpid()}"
    plan = workloads.make_plan(name, seed, run.REPO, work_dir)
    os.environ["GMT_SEED"] = plan["gmt_seed"]
    return plan, workloads.normalize(plan, run_op(cli, plan)), work_dir


class OracleTest(unittest.TestCase):
    outputs = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.NAMES:
            for seed in (0, 1):
                plan, out, work_dir = one_op(name, seed, f"{name}-{seed}")
                shutil.rmtree(work_dir)
                cls.outputs[name, seed] = (plan, out)

    def test_reference_inputs_match_the_reference(self):
        for name in workloads.NAMES:
            plan, out = self.outputs[name, 0]
            self.assertEqual(workloads.check(plan, out, REFERENCE[name]), [], name)

    def test_seed_inputs_are_perturbed_and_hold_the_invariants(self):
        for name in workloads.NAMES:
            plan, out = self.outputs[name, 1]
            self.assertEqual(workloads.check(plan, out, None), [], name)
            self.assertNotEqual(workloads.reference_view(name, out), REFERENCE[name], name)

    def test_flipped_verdict_fails(self):
        plan, out = self.outputs["verify", 0]
        bad = copy.deepcopy(out)
        bad["report"]["entries"][1]["reports"][0]["holds"] = False
        self.assertTrue(workloads.check(plan, bad, REFERENCE["verify"]))
        self.assertTrue(workloads.check(plan, bad, None))
        plan, out = self.outputs["proof", 1]
        bad = copy.deepcopy(out)
        bad["trace"]["steps"][2]["holds"] = False
        self.assertTrue(workloads.check(plan, bad, None))

    def test_perturbed_reference_number_fails(self):
        for name, path in (("verify", ("reports", 3, 3)), ("covering", ("estimates", 0, "value")),
                           ("proof", ("steps", 1, 1))):
            plan, out = self.outputs[name, 0]
            ref = copy.deepcopy(REFERENCE[name])
            holder = ref
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] *= 1.0 + 1e-6
            self.assertTrue(workloads.check(plan, out, ref), name)

    def test_out_of_band_estimate_fails(self):
        plan, out = self.outputs["covering", 1]
        bad = copy.deepcopy(out)
        bad["estimates"][1]["value"] *= 1.2
        self.assertTrue(workloads.check(plan, bad, None))


class ChildFailureTest(unittest.TestCase):
    def test_perturbed_reference_fails_every_op(self):
        work_dir = run.WORK_ROOT / f"selftest-child-{os.getpid()}"
        try:
            plan = workloads.make_plan("verify", 0, run.REPO, work_dir)
            ref = copy.deepcopy(REFERENCE["verify"])
            ref["reports"][0][2] *= 1.0 + 1e-6
            plan["reference"] = ref
            plan_path = work_dir / "plan.json"
            plan_path.write_text(json.dumps(plan), encoding="utf-8")
            result = run.run_child(plan_path, run.child_env(plan),
                                   time.monotonic() + 3.0, 2, False, "neg")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])

    def test_children_that_disagree_fail(self):
        a = {"attempted": 3, "failed": 0, "problems": [], "output": {"x": 1}}
        b = dict(a, output={"x": 2})
        self.assertEqual(run.judge_children([a, b])[:2], (6, 3))
        self.assertEqual(run.judge_children([a, dict(a)])[:2], (6, 0))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_and_uninstall_restores(self):
        original = cli.extract_boundary
        work_dir = run.WORK_ROOT / f"selftest-trace-{os.getpid()}"
        plan = workloads.make_plan("verify", 0, run.REPO, work_dir)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(cli.extract_boundary, original)
            t.op = 1
            t0 = time.perf_counter()
            out = workloads.normalize(plan, run_op(cli, plan))
            op_s = time.perf_counter() - t0
            t.op = None
        finally:
            t.uninstall()
            shutil.rmtree(work_dir, ignore_errors=True)
        self.assertIs(cli.extract_boundary, original)
        self.assertEqual(workloads.check(plan, out, REFERENCE["verify"]), [])
        (total, traced), = tracer.self_time_sums(t.spans, [op_s])
        self.assertLessEqual(total, traced)
        self.assertGreater(total, 0.95 * traced)
        metrics = tracer.per_layer_metrics(t.spans, [op_s], [op_s])
        self.assertEqual(metrics["hausdorff.estimate_hm.calls"], 13)
        self.assertAlmostEqual(metrics["hausdorff.estimate_hm.distinct_frac"], 4 / 13)
        self.assertEqual(metrics["inequalities.checks.calls"], 17)


class SchemaTest(unittest.TestCase):
    def run_bench(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "verify",
             "--seed", "2", "--seconds", "4", "--trace", str(trace)],
            cwd=run.REPO, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_line(self, line: dict, declared: list):
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(set(line["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_run_emits_every_end_to_end_metric(self):
        line = self.run_bench(0)
        self.check_line(line, BENCHMARK["end_to_end"])
        for name in ("setup_s", "first_op_s", "op_s_p50", "op_s_tail", "work_per_s"):
            self.assertGreater(line["metrics"][name]["value"], 0.0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check_line(self.run_bench(1), BENCHMARK["per_layer"])

    def test_declared_metrics_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]},
                         tracer.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.NAMES))


def tearDownModule():
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_above(self):
        self.assertEqual(run.tail(list(range(1, 12))), (50.0, 6))
        self.assertEqual(run.tail(list(range(1, 21))), (50.0, 10))
        self.assertEqual(run.tail(list(range(1, 101))), (90.0, 90))


class ReferenceSpeedTest(unittest.TestCase):
    def test_times_scale_by_the_calibration_around_them(self):
        ref = run.CAL_REF_S
        child = {"setup_s": 0.5, "first_op_s": 1.0, "op_s": [0.4, 0.4],
                 "cal_s": [ref, 2 * ref, 2 * ref, ref]}
        scaled = run.at_reference_speed(child)
        self.assertAlmostEqual(scaled["setup_s"], 0.5)
        self.assertAlmostEqual(scaled["first_op_s"], 1.0 / 1.5)
        self.assertEqual([round(t, 12) for t in scaled["op_s"]], [0.2, round(0.4 / 1.5, 12)])


if __name__ == "__main__":
    unittest.main(verbosity=2)
