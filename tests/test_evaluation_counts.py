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

from conftest import random_invertible, random_unitary


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
    rep = conjugated_sum(su2)
    report = rk.specialness_report(rep, su2_rule)
    assert sorted(evaluations) == [1, 2]
    assert report.d == 2 and report.unitarization.unitarity_residual <= 1e-8
    assert report.unitarization.unitary_rep.inner is rep


def test_specialness_report_averages_once(su2, su2_rule, monkeypatch):
    # on input that fails the unitarity audit, the forms are read in the
    # unitarization's basis: one averaged form and one unitarized stack,
    # with the fields the two public calls give apart
    rng = np.random.default_rng(3)
    parts = [rk.spin_irrep(two_j / 2, su2) for two_j in (1, 2, 3, 4)]
    basis = random_unitary(rng, 14) @ np.diag(np.geomspace(1.0, 3.0, 14)) @ random_unitary(rng, 14)
    rep = rk.conjugate(rk.DirectSumRepresentation(parts), basis)
    forms, d = rk.invariant_form_space(rep, su2_rule)
    unitarization = rk.unitarize(rep, su2_rule)
    grams = []
    original = rk.unitarization.invariant_gram

    def counting(*args):
        grams.append(args)
        return original(*args)

    monkeypatch.setattr(rk.unitarization, "invariant_gram", counting)
    report = rk.specialness_report(rep, su2_rule)
    assert len(grams) == 1
    assert report.d == d == 4 and not report.special
    assert all(np.array_equal(a.gram, b.gram) and a.definiteness == b.definiteness
               for a, b in zip(report.form_basis, forms, strict=True))
    got = report.unitarization
    assert np.array_equal(got.basis_change, unitarization.basis_change)
    assert np.array_equal(got.unitary_rep.matrix_inv, unitarization.unitary_rep.matrix_inv)
    assert (got.invariance_residual, got.unitarity_residual) == (
        unitarization.invariance_residual, unitarization.unitarity_residual)


def test_orthogonality_audit_evaluates_once_per_representation(su2, su2_rule, evaluations):
    # the irreducibility test reads the unitary stack, so it needs no
    # inverse nodes, and the character reads the same stack
    rk.orthogonality_audit([rk.spin_irrep(t / 2, su2) for t in range(4)], su2_rule)
    assert sorted(evaluations) == [0, 1, 2, 3]


@pytest.mark.parametrize("call, expected", [
    (lambda su2, rule: rk.irreducibility_test(
        rk.conjugate(rk.spin_irrep(1, su2), random_invertible(np.random.default_rng(2), 3)), rule), [2]),
    (lambda su2, rule: rk.unitary_commutant(conjugated_sum(su2), rule), [1, 2]),
    (lambda su2, rule: rk.matrix_element_audit(rk.spin_irrep(1, su2), rule), [2]),
    (lambda su2, rule: rk.multiplicity(rk.direct_sum(rk.spin_irrep(0, su2), rk.spin_irrep(1, su2)),
                                       rk.spin_irrep(0.5, su2), rule), [0, 1, 2]),
], ids=["irreducibility_test", "unitary_commutant", "matrix_element_audit", "multiplicity"])
def test_schur_calls_evaluate_each_input_once(su2, su2_rule, evaluations, call, expected):
    # the input of each call, and both sides of multiplicity, once at the
    # rule nodes: every step reads the one stack
    call(su2, su2_rule)
    assert sorted(evaluations) == expected


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
