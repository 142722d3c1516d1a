"""Each public call evaluates each spin at most once per node array.

A counting wrapper on ``SpinRepresentation.evaluate_batch`` records the
calls made at a whole rule (single-element evaluations, such as the degree
check at the identity, are not counted).
"""

import numpy as np
import pytest

import repkit as rk
from repkit.probes import standard_probes, standard_shifts
from repkit.representations import SpinRepresentation

from conftest import random_invertible


@pytest.fixture()
def evaluations(monkeypatch, su2_rule):
    calls = []
    original = SpinRepresentation.evaluate_batch

    def counting(self, nodes):
        if len(nodes) == su2_rule.node_count:
            calls.append(self.two_j)
        return original(self, nodes)

    monkeypatch.setattr(SpinRepresentation, "evaluate_batch", counting)
    return calls


def conjugated_sum(su2, seed=7):
    rng = np.random.default_rng(seed)
    return rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                        random_invertible(rng, 5, diag_boost=3.0))


def test_decompose_evaluates_each_leaf_once(su2, su2_rule, evaluations):
    # the rule nodes only: the averaged seed needs no inverse nodes once the
    # stack is unitary, and the blocks are read off the same stack
    rk.decompose(conjugated_sum(su2), su2_rule)
    assert sorted(evaluations) == [1, 2]
    evaluations.clear()
    rk.split_once(conjugated_sum(su2), su2_rule)
    assert sorted(evaluations) == [1, 2]


def test_unitarize_evaluates_once(su2, su2_rule, evaluations):
    rk.unitarize(conjugated_sum(su2), su2_rule)
    assert sorted(evaluations) == [1, 2]


def test_specialness_report_evaluates_once(su2, su2_rule, evaluations):
    # the invariant-form space and the unitarization share one stack
    report = rk.specialness_report(conjugated_sum(su2), su2_rule)
    assert sorted(evaluations) == [1, 2]
    assert report.d == 2 and report.unitarization.unitarity_residual <= 1e-8
    assert not isinstance(report.unitarization.unitary_rep.inner, rk.representations.TabulatedRepresentation)


def test_orthogonality_audit_evaluates_twice_per_representation(su2, su2_rule, evaluations):
    rk.orthogonality_audit([rk.spin_irrep(t / 2, su2) for t in range(4)], su2_rule)
    assert sorted(evaluations) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_axiom_audit_evaluates_each_probe_family_once_per_node_set(su2, su2_rule, evaluations):
    # two spins at ten node sets: the rule, four shifts on each side, inverses
    rk.axiom_audit(su2_rule, standard_probes(su2), standard_shifts(su2))
    assert sorted(evaluations) == [1] * 10 + [2] * 10


def test_shared_evaluations_keep_the_answers(su2, su2_rule):
    # a probe family reads the same entries as lone probes
    spin = rk.spin_irrep(1, su2)
    shifts = standard_shifts(su2)
    family = rk.MatrixEntryProbe.family(spin, "spin(2j=2)")
    lone = [rk.MatrixEntryProbe(spin, p.i, p.j, label=p.label) for p in family]
    assert (rk.axiom_audit(su2_rule, family, shifts).as_dict()
            == rk.axiom_audit(su2_rule, lone, shifts).as_dict())
