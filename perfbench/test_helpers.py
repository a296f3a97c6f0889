"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_helpers.py
"""

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quatcohom  # noqa: E402
from quatcohom import load_corpus, parse_spec, serialize_spec, validate_hypercomplex  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _values(spec):
    """Structure constants and I, J entries as numbers, whatever their form."""
    return (
        [(k, [(i, j, c.evaluate({})) for i, j, c in terms]) for k, terms in spec.structure],
        [[x.evaluate({}) for x in row] for row in spec.op_i + spec.op_j],
    )


class SpecConstructionTest(unittest.TestCase):
    def assert_valid_round_trip(self, spec):
        self.assertTrue(validate_hypercomplex(spec).ok)
        again = parse_spec(serialize_spec(spec))
        self.assertEqual(_values(again), _values(spec))

    def test_direct_sum_validates_and_round_trips(self):
        spec = workloads.ladder16_spec(seed=3)
        self.assertEqual(spec.dimension, 16)
        self.assert_valid_round_trip(spec)

    def test_family_members_validate_and_round_trip(self):
        for spec in (workloads.baked_spec(load_corpus("example2"), {"t": Fraction(3, 7)}),
                     workloads.baked_spec(load_corpus("example1"), scale=Fraction(-2))):
            self.assert_valid_round_trip(spec)


class OracleTest(unittest.TestCase):
    def test_convolution_reproduces_bott_chern_row(self):
        row = workloads.convolve(workloads.EXAMPLE1_H_BC, workloads.binomial_row(4))
        self.assertEqual(row, (1, 6, 19, 40, 56, 50, 27, 8, 1))

    def test_dense_generator_is_deterministic_per_seed(self):
        first = workloads.dense_complexes(seed=5, pairs=2)
        self.assertEqual(first, workloads.dense_complexes(seed=5, pairs=2))
        self.assertNotEqual(first, workloads.dense_complexes(seed=6, pairs=2))

    def test_tail_has_ten_samples_above_it(self):
        times = [float(i) for i in range(89)]
        value, pct = run.tail(times)
        self.assertEqual(sum(1 for t in times if t > value), 10)
        self.assertEqual(pct, 88)
        self.assertEqual(run.tail(times[:20]), (9.5, 50))


class TracerTest(unittest.TestCase):
    def test_wraps_names_imported_elsewhere_and_restores_them(self):
        original = quatcohom.linalg.rref
        recorder = tracer.Tracer()
        with recorder.installed():
            self.assertIsNot(quatcohom.suite.rref, original)
            quatcohom.report.build_report(load_corpus("example1"))
        self.assertIs(quatcohom.suite.rref, original)
        self.assertIs(quatcohom.cohomology.rank, quatcohom.linalg.rank)
        metrics = recorder.layer_metrics()
        # report decides hkt once and sg once; its suite repeats hkt twice and sg once
        self.assertEqual(metrics["metrics.verdict_calls"], 5)
        self.assertGreater(metrics["linalg.rref_calls"], 0)
        self.assertGreater(metrics["suite.run_s"], 0)


if __name__ == "__main__":
    unittest.main()
