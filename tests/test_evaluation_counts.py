"""Each public call evaluates every rule node exactly p times, p its passes.

A call reads its input in passes over the rule, chunk by chunk, and never
holds the whole node stack, so the count that matters is how many times
each rule node is evaluated.  A counting wrapper on
``SpinRepresentation.evaluate_batch`` records which rule nodes each spin
evaluated, read off the node values: a pass in node order hands a spin
views of the rule's nodes, a pass by inverse pairs copies of them.
Single elements, such as the degree check at the identity, and other node
sets are not counted.  p is pinned for each call as the design gives it:
one pass reads the input, audits it and, on input that passes the
unitarity audit, sums the averaging map or the split seed; input that
fails the audit takes one more pass in its unitary basis, and a step that
needs a whole average before it reads the nodes again takes one more.

On input that passes the audit, the passes whose readings the nodes x and
x^-1 give alike walk the rule by inverse pairs: ``su2_rule`` (resolution
16) pairs every node with its inverse, and such a pass reads its first
sub-chunk in node order, where it reads the audit, and one node of each
other pair.  Its count is written (p, 0): every node of the first
sub-chunk p times, and of each other pair one node p times and its
partner never.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.probes import standard_probes, standard_shifts
from repkit.representations import SpinRepresentation

from conftest import random_invertible, random_unitary


def _counter(monkeypatch, rule):
    """two_j -> how many times each node of ``rule`` was evaluated by that
    spin, each batch of rule nodes matched to the rule by the bytes of its
    nodes."""
    counts = {}
    original = SpinRepresentation.evaluate_batch
    index = {node.tobytes(): n for n, node in enumerate(rule.nodes)}

    def counting(self, nodes, out=None):
        at = [index.get(node.tobytes()) for node in np.asarray(nodes)]
        if None not in at:
            np.add.at(counts.setdefault(self.two_j, np.zeros(len(index), dtype=int)), at, 1)
        return original(self, nodes, out)

    monkeypatch.setattr(SpinRepresentation, "evaluate_batch", counting)
    return counts


@pytest.fixture()
def evaluations(monkeypatch, su2_rule):
    """two_j -> how many times each rule node was evaluated by that spin."""
    return _counter(monkeypatch, su2_rule)


def passes(evaluations, rule) -> dict:
    """two_j -> p, after checking that the spin evaluated every rule node
    exactly p times, or two_j -> (p, 0) when it read the rule by inverse
    pairs p times: every node of the first sub-chunk p times, and for
    every other node x, x and its inverse p times together."""
    out = {}
    head = min(rk.linalg.NODE_CHUNK, rule.node_count)
    for two_j, count in evaluations.items():
        p = int(count[0])
        if (count == p).all():
            out[two_j] = p
            continue
        assert (count[:head] == p).all() and np.isin(count, (0, p)).all(), (
            f"spin 2j={two_j} evaluated some rule nodes more often than others")
        assert (count + count[rule.partner] == p)[head:].all(), (
            f"spin 2j={two_j} read some inverse pair twice or not at all")
        out[two_j] = (p, 0)
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
# and multiplicity are in test_schur_calls_evaluate_each_input_once.  The
# spin 0 of orthogonality_audit and the direct sum of multiplicity pass it
# too, and are read by inverse pairs
CASES = {
    "commutant/unitary": (lambda su2, rule: rk.commutant(unitary_sum(su2), rule), {1: (2, 0), 2: (2, 0)}),
    "commutant": (lambda su2, rule: rk.commutant(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    "unitary_commutant/unitary": (lambda su2, rule: rk.unitary_commutant(unitary_sum(su2), rule),
                                  {1: (2, 0), 2: (2, 0)}),
    "unitary_commutant": (lambda su2, rule: rk.unitary_commutant(conjugated_sum(su2), rule), {1: 3, 2: 3}),
    "irreducibility_test": (lambda su2, rule: rk.irreducibility_test(conjugated_spin(su2), rule), {2: 2}),
    "invariant_form_space/unitary": (lambda su2, rule: rk.invariant_form_space(unitary_sum(su2), rule),
                                     {1: (1, 0), 2: (1, 0)}),
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
        [rk.spin_irrep(0, su2), conjugated_spin(su2)], rule), {0: (1, 0), 2: 2}),
    "matrix_element_audit": (lambda su2, rule: rk.matrix_element_audit(conjugated_spin(su2), rule), {2: 3}),
    "multiplicity": (lambda su2, rule: rk.multiplicity(
        rk.direct_sum(rk.spin_irrep(0, su2), rk.spin_irrep(1.5, su2)), conjugated_spin(su2), rule),
        {0: (1, 0), 3: (1, 0), 2: 2}),
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
    assert passes(evaluations, su2_rule) == expected


def test_orthogonality_audit_evaluates_once_per_representation(su2, su2_rule, evaluations):
    # unitary inputs: the irreducibility test reads the input's own chunks,
    # so it needs no inverse nodes, and the character reads the same pass,
    # one node of each inverse pair, the other's value its conjugate
    rk.orthogonality_audit([rk.spin_irrep(t / 2, su2) for t in range(4)], su2_rule)
    assert passes(evaluations, su2_rule) == {0: (1, 0), 1: (1, 0), 2: (1, 0), 3: (1, 0)}


@pytest.mark.parametrize("call, expected", [
    (lambda su2, rule: rk.irreducibility_test(rk.spin_irrep(1, su2), rule), {2: (1, 0)}),
    (lambda su2, rule: rk.matrix_element_audit(rk.spin_irrep(1, su2), rule), {2: 1}),
    (lambda su2, rule: rk.multiplicity(rk.direct_sum(rk.spin_irrep(0, su2), rk.spin_irrep(1, su2)),
                                       rk.spin_irrep(0.5, su2), rule), {0: (1, 0), 1: (1, 0), 2: (1, 0)}),
], ids=["irreducibility_test", "matrix_element_audit", "multiplicity"])
def test_schur_calls_evaluate_each_input_once(su2, su2_rule, evaluations, call, expected):
    # unitary inputs, and both sides of multiplicity: one pass each, in
    # which every step reads the same chunks; matrix_element_audit reads
    # the averaged outer product itself, not its symmetric part, so it
    # reads every node
    call(su2, su2_rule)
    assert passes(evaluations, su2_rule) == expected


@pytest.mark.parametrize("call, expected", [
    (lambda su2, rule: rk.commutant(unitary_sum(su2), rule), {1: 2, 2: 2}),
    (lambda su2, rule: rk.invariant_form_space(unitary_sum(su2), rule), {1: 1, 2: 1}),
    (lambda su2, rule: rk.character(unitary_sum(su2), rule), {1: 1, 2: 1}),
    (lambda su2, rule: rk.orthogonality_audit([rk.spin_irrep(t / 2, su2) for t in range(3)], rule),
     {0: 1, 1: 1, 2: 1}),
], ids=["commutant", "invariant_form_space", "character", "orthogonality_audit"])
def test_an_odd_resolution_reads_every_node(su2, monkeypatch, call, expected):
    # su2 at an odd resolution has no azimuth node opposite each one, so
    # its nodes are self-paired and a pass by pairs reads every node, in
    # node order, on unitary input too; 1331 nodes, 1.3 evaluation chunks
    rule = rk.haar_rule(su2, 11)
    evaluations = _counter(monkeypatch, rule)
    call(su2, rule)
    assert passes(evaluations, rule) == expected


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


@pytest.mark.parametrize("kappa", [1e4, 1e6])
@pytest.mark.parametrize("call, expected", [
    (rk.commutant, {1: 3, 2: 3}),
    (rk.unitary_commutant, {1: 3, 2: 3}),
    (rk.invariant_form_space, {1: 2, 2: 2}),
    (rk.character, {1: 1, 2: 1}),
], ids=["commutant", "unitary_commutant", "invariant_form_space", "character"])
def test_ill_conditioned_input_keeps_its_passes(su2, su2_rule, evaluations, kappa, call, expected):
    # a conjugation of condition number 1e4 or 1e6 fails the audit on its
    # first sub-chunk, so a pass by pairs reads every node in node order,
    # and the passes in its unitary basis read every node too: W^* does not
    # stand in for W(x^-1) once the unitarity defect grows as kappa^2 eps
    rng = np.random.default_rng(11)
    basis = random_unitary(rng, 5) @ np.diag(np.geomspace(1.0, kappa, 5)) @ random_unitary(rng, 5)
    call(rk.conjugate(unitary_sum(su2), basis), su2_rule)
    assert passes(evaluations, su2_rule) == expected
