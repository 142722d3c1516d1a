"""Tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a repkit checkout)

They check the harness, not repkit: metric reporting, the ground-truth and
byte-identity checks, and that tracing leaves every answer unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repkit as rk  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def sample(name, label, seconds, error=None):
    return run.Sample(name, label, seconds, error, None)


class EndToEndReport(unittest.TestCase):
    REPORTED_METRICS = ["setup_s", "wall_s", "commutant_s", "invariant_form_space_s", "decompose_s",
                     "unitarize_s", "orthogonality_audit_s", "axiom_audit_s",
                     "homomorphism_audit_s", "cli_p50_s", "cli_tail_s", "import_s",
                     "peak_rss_mb", "fail_rate"]

    def test_every_metric_prints_with_its_unit(self):
        probes = [{"setup_s": 0.2, "import_s": 0.1}] * 3
        library = [sample("commutant", "commutant[a]", 1.0), sample("decompose", "decompose[a]", 2.0,
                                                                     "wrong")]
        cli = [sample("cli", f"cli:{i}", 0.1 + 0.01 * i) for i in range(30)]
        for samples, is_cli in ((library, False), (cli, True)):
            metrics, _ = run.end_to_end(samples, 1, probes, is_cli)
            lines = run.end_to_end_lines(metrics)
            for name in self.REPORTED_METRICS:
                line = next(line for line in lines if line.split()[0] == name)
                self.assertEqual(line.split()[-1], dict(run.END_TO_END)[name], line)
        self.assertEqual(metrics["fail_rate"], 0.0)

    def test_gated_metrics_exist_on_every_workload(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics, _ = run.end_to_end([sample("cli", "cli:x", 0.1)], 1,
                                    [{"setup_s": 0.2, "import_s": 0.1}], True)
        library, _ = run.end_to_end([sample("commutant", "c", 1.0)], 1,
                                    [{"setup_s": 0.2, "import_s": 0.1}], False)
        for entry in spec["end_to_end"]:
            self.assertIsNotNone(metrics[entry["name"]])
            self.assertIsNotNone(library[entry["name"]])
            self.assertEqual(dict(run.END_TO_END)[entry["name"]], entry["unit"])

    def test_tail_keeps_ten_samples_beyond(self):
        value, pct, n = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, n), (29.0, 40))
        self.assertAlmostEqual(pct, 75.0)


class GroundTruth(unittest.TestCase):
    def test_planted_wrong_truth_is_a_failure(self):
        group = rk.symmetric_group_3()
        rule = rk.haar_rule(group, 1)
        rep = rk.s3_standard(group)
        planted = workloads.Op("commutant", "commutant[planted]", lambda: rk.commutant(rep, rule),
                               workloads._commutant_check(2, 1e-5))
        honest = workloads.Op("commutant", "commutant[honest]", lambda: rk.commutant(rep, rule),
                              workloads._commutant_check(1, 1e-5))
        samples = run.run_pass(workloads.Workload("test", [planted, honest]))
        self.assertIn("expected 2", samples[0].error)
        self.assertIsNone(samples[1].error)
        self.assertEqual(run.verdict(samples), {"correct": False, "attempted": 2, "failed": 1})

    def test_an_exception_is_a_failure_and_the_pass_goes_on(self):
        def boom():
            raise rk.SingularMatrixError("planted")
        ops = [workloads.Op("x", "x[raise]", boom, lambda answer: None),
               workloads.Op("x", "x[ok]", lambda: 1, workloads._equals("value", 1))]
        samples = run.run_pass(workloads.Workload("test", ops))
        self.assertIn("SingularMatrixError", samples[0].error)
        self.assertIsNone(samples[1].error)

    def test_known_defects_are_counted_but_keep_the_run_correct(self):
        samples = [sample("commutant", "commutant[2j=12]", 1.0, "dimension 70")]
        self.assertEqual(run.verdict(samples), {"correct": True, "attempted": 1, "failed": 1})

    def test_json_byte_identity_is_checked_on_repeat(self):
        first: dict = {}
        expect = workloads._payload_equals(kind="finite")
        report = json.dumps({"payload": {"kind": "finite", "x": 0.1}, "status": "ok"}).encode()
        changed = report.replace(b"0.1", b"0.10000000000000002")
        self.assertIsNone(workloads._cli_check(expect, first, False)(workloads.CliResult(0, report, b"")))
        self.assertIsNone(workloads._cli_check(expect, first, True)(workloads.CliResult(0, report, b"")))
        message = workloads._cli_check(expect, first, True)(workloads.CliResult(0, changed, b""))
        self.assertIn("differs", message)

    def test_s4_table_is_a_group_with_the_right_regular_blocks(self):
        group = rk.FiniteGroup(workloads.s4_table())
        self.assertEqual((group.order, group.identity_index), (24, 0))
        mats = workloads.regular_matrices(group.mult_table)
        self.assertEqual(rk.homomorphism_audit(rk.FiniteTableRepresentation(group, mats)), 0.0)


class Tracing(unittest.TestCase):
    def test_traced_answers_match_untraced_and_originals_come_back(self):
        group = rk.symmetric_group_3()
        rule = rk.haar_rule(group, 1)
        A = workloads.conditioned_basis(np.random.default_rng(3), 6)
        rep = rk.FiniteTableRepresentation(group, A @ workloads.regular_matrices(group.mult_table)
                                           @ np.linalg.inv(A))
        ops = workloads._library_ops("s3", rep, rule, commutant_dim=6, form_dim=6,
                                     blocks=[1, 1, 2, 2], tol=1e-8)
        wl = workloads.Workload("test", ops)
        originals = (rk.commutant, rk.schur.integrate_stacked, np.linalg.svd,
                     rk.representations.DirectSumRepresentation.evaluate_batch)
        untraced = run.run_pass(wl)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual([(s.error, s.summary) for s in untraced], [(s.error, s.summary) for s in traced])
        self.assertTrue(all(s.error is None for s in traced))
        self.assertEqual(originals, (rk.commutant, rk.schur.integrate_stacked, np.linalg.svd,
                                     rk.representations.DirectSumRepresentation.evaluate_batch))
        stats = spans.LayerStats()
        stats.add(tracer.spans)
        # one top-level commutant plus the ones the decompose recursion makes
        self.assertGreater(stats.calls["schur.commutant"], 1)
        self.assertEqual(stats.calls["schur.commutant"] - 1, stats.decompose_commutants)
        self.assertEqual(stats.calls["unitarization.hermitian_coords"], 6 * 6)
        self.assertTrue(all(v >= 0 for v in stats.self_s.values()))
        self.assertEqual({span[4] for span in tracer.spans}, {op.label for op in ops})


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "cli-oneshot",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
