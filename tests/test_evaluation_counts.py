"""Each public call evaluates every rule node exactly p times, p its passes.

A call reads its input in passes over the rule, chunk by chunk, and never
holds the whole node stack, so the count that matters is how many times
each rule node is evaluated.  A counting wrapper on
``SpinRepresentation.evaluate_batch`` records which rule nodes each spin
evaluated (by the offset of the chunk in the rule's node array); single
elements, such as the degree check at the identity, and other node sets
are not counted.  p is pinned for each call as the design gives it: one
pass reads the input, audits it and, on input that passes the unitarity
audit, sums the averaging map or the split seed; input that fails the
audit takes one more pass in its unitary basis, and a step that needs a
whole average before it reads the nodes again takes one more.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.probes import standard_probes, standard_shifts
from repkit.representations import SpinRepresentation

from conftest import random_invertible, random_unitary


@pytest.fixture()
def evaluations(monkeypatch, su2_rule):
    """two_j -> how many times each rule node was evaluated by that spin."""
    counts = {}
    original = SpinRepresentation.evaluate_batch
    nodes0 = su2_rule.nodes

    def counting(self, nodes, out=None):
        if np.shares_memory(nodes, nodes0):
            start = (nodes.ctypes.data - nodes0.ctypes.data) // nodes0.strides[0]
            counts.setdefault(self.two_j, np.zeros(len(nodes0), dtype=int))[start:start + len(nodes)] += 1
        return original(self, nodes, out)

    monkeypatch.setattr(SpinRepresentation, "evaluate_batch", counting)
    return counts


def passes(evaluations) -> dict:
    """two_j -> p, after checking that the spin evaluated every rule node
    exactly p times."""
    out = {}
    for two_j, count in evaluations.items():
        assert (count == count[0]).all(), f"spin 2j={two_j} evaluated some rule nodes more often than others"
        out[two_j] = int(count[0])
    return out


def unitary_sum(su2):
    return rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))


def conjugated_sum(su2, seed=7):
    rng = np.random.default_rng(seed)
    return rk.conjugate(unitary_sum(su2), random_invertible(rng, 5, diag_boost=3.0))


def conjugated_spin(su2, seed=2):
    return rk.conjugate(rk.spin_irrep(1, su2), random_invertible(np.random.default_rng(seed), 3))


# (call, p per spin): "unitary" inputs pass the unitarity audit, the others
# fail it; the unitary inputs of irreducibility_test, matrix_element_audit
# and multiplicity are in test_schur_calls_evaluate_each_input_once
CASES = {
    "commutant/unitary": (lambda su2, rule: rk.commutant(unitary_sum(su2), rule), {1: 2, 2: 2}),
    "commutant": (lambda su2, rule: rk.commutant(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    "unitary_commutant/unitary": (lambda su2, rule: rk.unitary_commutant(unitary_sum(su2), rule),
                                  {1: 2, 2: 2}),
    "unitary_commutant": (lambda su2, rule: rk.unitary_commutant(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    "irreducibility_test": (lambda su2, rule: rk.irreducibility_test(conjugated_spin(su2), rule), {2: 2}),
    "invariant_form_space/unitary": (lambda su2, rule: rk.invariant_form_space(unitary_sum(su2), rule),
                                     {1: 1, 2: 1}),
    "invariant_form_space": (lambda su2, rule: rk.invariant_form_space(conjugated_sum(su2), rule),
                             {1: 2, 2: 2}),
    "averaged_form": (lambda su2, rule: rk.averaged_form(conjugated_sum(su2), rule), {1: 2, 2: 2}),
    "unitarize": (lambda su2, rule: rk.unitarize(conjugated_sum(su2), rule), {1: 2, 2: 2}),
    "specialness_report/unitary": (lambda su2, rule: rk.specialness_report(unitary_sum(su2), rule),
                                   {1: 2, 2: 2}),
    "specialness_report": (lambda su2, rule: rk.specialness_report(conjugated_sum(su2), rule), {1: 2, 2: 2}),
    "decompose/unitary": (lambda su2, rule: rk.decompose(unitary_sum(su2), rule), {1: 2, 2: 2}),
    "decompose": (lambda su2, rule: rk.decompose(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    "split_once": (lambda su2, rule: rk.split_once(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    # phi's chunks are read in step with psi's unitary ones, and psi fails
    # its audit on the first chunk, so the first pass reads none of phi's
    "averaged_intertwiner": (lambda su2, rule: rk.averaged_intertwiner(
        rk.spin_irrep(0, su2), conjugated_sum(su2), np.ones((1, 5)), rule), {0: 1, 1: 2, 2: 2}),
    "orthogonality_audit": (lambda su2, rule: rk.orthogonality_audit(
        [rk.spin_irrep(0, su2), conjugated_spin(su2)], rule), {0: 1, 2: 2}),
    "matrix_element_audit": (lambda su2, rule: rk.matrix_element_audit(conjugated_spin(su2), rule), {2: 3}),
    "multiplicity": (lambda su2, rule: rk.multiplicity(
        rk.direct_sum(rk.spin_irrep(0, su2), rk.spin_irrep(1.5, su2)), conjugated_spin(su2), rule),
        {0: 1, 3: 1, 2: 2}),
    "character": (lambda su2, rule: rk.character(conjugated_sum(su2), rule), {1: 1, 2: 1}),
    "class_invariance_audit": (lambda su2, rule: rk.class_invariance_audit(
        conjugated_sum(su2), rule, standard_shifts(su2)), {1: 1, 2: 1}),
    "unitarity_audit": (lambda su2, rule: rk.unitarity_audit(conjugated_sum(su2), rule), {1: 1, 2: 1}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_call_evaluates_every_rule_node_p_times(su2, su2_rule, evaluations, case):
    # su2_rule is 4 evaluation chunks, so a pass that skipped or repeated a
    # chunk would show
    assert su2_rule.node_count == 4 * rk.linalg.EVAL_CHUNK
    call, expected = CASES[case]
    call(su2, su2_rule)
    assert passes(evaluations) == expected


def test_orthogonality_audit_evaluates_once_per_representation(su2, su2_rule, evaluations):
    # unitary inputs: the irreducibility test reads the input's own chunks,
    # so it needs no inverse nodes, and the character reads the same pass
    rk.orthogonality_audit([rk.spin_irrep(t / 2, su2) for t in range(4)], su2_rule)
    assert passes(evaluations) == {0: 1, 1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("call, expected", [
    (lambda su2, rule: rk.irreducibility_test(rk.spin_irrep(1, su2), rule), {2: 1}),
    (lambda su2, rule: rk.matrix_element_audit(rk.spin_irrep(1, su2), rule), {2: 1}),
    (lambda su2, rule: rk.multiplicity(rk.direct_sum(rk.spin_irrep(0, su2), rk.spin_irrep(1, su2)),
                                       rk.spin_irrep(0.5, su2), rule), {0: 1, 1: 1, 2: 1}),
], ids=["irreducibility_test", "matrix_element_audit", "multiplicity"])
def test_schur_calls_evaluate_each_input_once(su2, su2_rule, evaluations, call, expected):
    # unitary inputs, and both sides of multiplicity: one pass each, in
    # which every step reads the same chunks
    call(su2, su2_rule)
    assert passes(evaluations) == expected


@pytest.mark.parametrize("psi_kind", ["same"])
def test_averaged_intertwiner_evaluates_each_input_once_at_the_rule_nodes(su2, su2_rule, monkeypatch,
                                                                          psi_kind):
    # psi(x^-1) is read off psi's unitary stack, so no inverse nodes, and
    # phi's chunks are read in step with psi's
    calls = []
    original = SpinRepresentation.evaluate_batch

    def recording(self, nodes, out=None):
        calls.append((self.two_j, np.shares_memory(nodes, su2_rule.nodes)))
        return original(self, nodes, out)

    monkeypatch.setattr(SpinRepresentation, "evaluate_batch", recording)
    rho = rk.spin_irrep(1, su2)
    rk.averaged_intertwiner(rho, rho, np.ones((3, 3)), su2_rule)
    chunks = su2_rule.node_count // rk.linalg.EVAL_CHUNK
    assert sorted(calls) == [(2, True)] * (2 * chunks)


def test_axiom_audit_evaluates_each_probe_family_once_per_node_set(su2, su2_rule, monkeypatch):
    # two spins at ten node sets: the rule, four shifts on each side,
    # inverses; each set is read in evaluation chunks, and each family
    # evaluates every node of every set once
    nodes_evaluated = {1: 0, 2: 0}
    original = SpinRepresentation.evaluate_batch

    def counting(self, nodes, out=None):
        assert len(nodes) <= rk.linalg.EVAL_CHUNK
        nodes_evaluated[self.two_j] += len(nodes)
        return original(self, nodes, out)

    monkeypatch.setattr(SpinRepresentation, "evaluate_batch", counting)
    rk.axiom_audit(su2_rule, standard_probes(su2), standard_shifts(su2))
    assert nodes_evaluated == {1: 10 * su2_rule.node_count, 2: 10 * su2_rule.node_count}


def _span_projector(forms):
    """The orthogonal projector onto the real span of Hermitian forms, in
    their orthonormal ``hermitian_coords``."""
    Q = np.linalg.qr(rk.unitarization.hermitian_coords(np.array([f.gram for f in forms])).T)[0]
    return Q @ Q.T


def test_specialness_report_averages_once(su2, su2_rule, monkeypatch):
    # the forms are read in the unitarization's basis on any input: one
    # averaged form and one unitarized stack.  On input that fails the
    # unitarity audit, the fields are those the two public calls give apart
    rng = np.random.default_rng(3)
    parts = [rk.spin_irrep(two_j / 2, su2) for two_j in (1, 2, 3, 4)]
    basis = random_unitary(rng, 14) @ np.diag(np.geomspace(1.0, 3.0, 14)) @ random_unitary(rng, 14)
    rep = rk.conjugate(rk.DirectSumRepresentation(parts), basis)
    forms, d = rk.invariant_form_space(rep, su2_rule)
    unitarization = rk.unitarize(rep, su2_rule)
    # unitary input: the same form space, in a basis that may rotate within
    # it, since spin 1/2 + 1/2 has a degenerate fixed space
    doubled = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    doubled_forms, doubled_d = rk.invariant_form_space(doubled, su2_rule)
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

    report = rk.specialness_report(doubled, su2_rule)
    assert len(grams) == 2
    assert report.d == doubled_d == 4 and not report.special
    assert np.abs(_span_projector(report.form_basis) - _span_projector(doubled_forms)).max() <= 1e-14


def test_shared_evaluations_keep_the_answers(su2, su2_rule):
    # a probe family reads the same entries as lone probes
    spin = rk.spin_irrep(1, su2)
    shifts = standard_shifts(su2)
    family = rk.MatrixEntryProbe.family(spin, "spin(2j=2)")
    lone = [rk.MatrixEntryProbe(spin, p.i, p.j, label=p.label) for p in family]
    assert (rk.axiom_audit(su2_rule, family, shifts).as_dict()
            == rk.axiom_audit(su2_rule, lone, shifts).as_dict())
