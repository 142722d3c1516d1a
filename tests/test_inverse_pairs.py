"""Inverse pairs of rule nodes, and the passes that read one node of each.

``haar_rule`` pairs each node with the node that is its inverse
(``HaarRule.partner``), at an equal weight.  On input that passes the
unitarity audit, rho(x^-1) = rho(x)^*, so the node maps of x and x^-1 are
transposes of each other: the symmetric part of the averaging map and its
trace, which every fixed-space reading uses, are those of one node of each
pair at the pair's summed weight, and chi(x^-1) = conj chi(x).  Those
passes read one node of each pair; the readings here are checked against
the same readings over every node.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.representations import node_chunks
from repkit.unitarization import _AveragingMap, _unitary, fixed_hermitian

from test_fixed_space import CASES


def _rules():
    s3, circle, su2 = (rk.builtin_group(name) for name in ("s3", "circle", "su2"))
    return [("s3", rk.haar_rule(s3, 1)), ("z24", rk.haar_rule(rk.cyclic_group(24), 1)),
            ("circle 64", rk.haar_rule(circle, 64)),
            *((f"su2 {res}", rk.haar_rule(su2, res)) for res in (2, 16, 24))]


RULES = _rules()


def _inverse_distance(rule) -> np.ndarray:
    """For each node, how far the node ``partner`` names is from its group
    inverse: 0 or 1 for a finite group (whether the product is the
    identity), the angle sum's distance from 0 mod 2 pi on the circle, and
    max |U_partner - U^*| on su2."""
    group, nodes, partner = rule.group, rule.nodes, rule.partner
    if group.kind == "finite":
        return (group.mult_table[nodes, nodes[partner]] != group.identity_index).astype(float)
    if group.kind == "circle":
        total = (nodes + nodes[partner]) % (2 * np.pi)
        return np.minimum(total, 2 * np.pi - total)
    return np.abs(nodes[partner] - nodes.conj().transpose(0, 2, 1)).max(axis=(1, 2))


@pytest.mark.parametrize("rule", [r for _, r in RULES], ids=[name for name, _ in RULES])
def test_each_node_is_paired_with_its_inverse_at_an_equal_weight(rule):
    partner = rule.partner
    assert partner.shape == (rule.node_count,)
    assert np.array_equal(partner[partner], np.arange(rule.node_count))
    assert _inverse_distance(rule).max() <= 1e-15
    assert np.array_equal(rule.weights[partner], rule.weights)


@pytest.mark.parametrize("name, rule", RULES, ids=[name for name, _ in RULES])
def test_involutions_are_self_paired(name, rule):
    # a node is its own partner exactly when it is its own inverse: the
    # involutions of S3 and Z24, the angles 0 and pi, and no su2 node (the
    # rule's class angles miss the centre +-I)
    group, nodes = rule.group, rule.nodes
    inverted = group.invert_nodes(nodes)
    if group.kind == "finite":
        own = inverted == nodes
    elif group.kind == "circle":
        own = np.isclose(inverted, nodes, rtol=0.0, atol=1e-12)
    else:
        own = np.abs(inverted - nodes).max(axis=(1, 2)) <= 1e-12
    assert np.array_equal(rule.partner == np.arange(rule.node_count), own)
    assert own.sum() == {"s3": 4, "z24": 2, "circle 64": 2}.get(name, 0)


def test_odd_su2_resolutions_and_rules_built_by_hand_are_self_paired(su2, circle):
    # su2 at an odd resolution has no azimuth node opposite each one; a rule
    # built by hand names no pairs.  Either is read at every node, in node
    # order, by a pass by pairs
    odd = rk.haar_rule(su2, 11)
    by_hand = rk.HaarRule(circle, 2 * np.pi * np.arange(600) / 600, np.full(600, 1 / 600), 600)
    for rule, rep in ((odd, rk.spin_irrep(1, su2)), (by_hand, rk.CircleWeightRepresentation(circle, [1, 2]))):
        assert np.array_equal(rule.partner, np.arange(rule.node_count))
        read = [nodes for nodes, _ in node_chunks(rep, rule, lambda: True)]
        assert all(isinstance(nodes, slice) for nodes in read)
        assert [(s.start, s.stop) for s in read] == [
            (i, min(i + rk.linalg.NODE_CHUNK, rule.node_count))
            for i in range(0, rule.node_count, rk.linalg.NODE_CHUNK)]


def _span_projector(basis) -> np.ndarray:
    Q = np.linalg.qr(np.reshape(basis, (len(basis), -1)).T)[0]
    return Q @ Q.conj().T


@pytest.mark.parametrize("rep, rule", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_readings_by_pairs_equal_the_readings_at_every_node(rep, rule):
    # the reference reads the averaging map over every node (``_unitary``
    # without fold), as the commutant did before passes read by pairs
    maps, W = _unitary(rep, rule, lambda _: _AveragingMap(rule))
    K, trace = fixed_hermitian(maps)
    if W is not rep:
        K = W.matrix_inv @ K @ W.matrix
    report = rk.commutant(rep, rule)
    assert report.dimension == len(K) == rk.invariant_form_space(rep, rule)[1]
    assert rk.unitary_commutant(rep, rule).dimension == len(K)
    assert np.abs(_span_projector(report.basis) - _span_projector(K)).max() <= 1e-12
    assert abs(report.character_norm - trace) <= 1e-13


def test_the_residual_by_pairs_reads_the_conjugate_basis(su2, su2_rule):
    # on unitary input the commutation residual of B at x^-1 is that of B^*
    # at x, so commutant reads B and B^* at one node of each pair: its
    # residual is the every-node residual to roundoff
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    stack = rep.evaluate_batch(su2_rule.nodes)
    report = rk.commutant(rep, su2_rule)
    every = max(np.abs(stack @ B - B @ stack).max() for B in report.basis)
    assert report.max_residual <= 1e-13 and abs(report.max_residual - every) <= 1e-14
    # the identity itself, on a matrix that commutes with nothing
    B = np.arange(25.0).reshape(5, 5) * (1 + 0.5j)
    read = su2_rule._walk[:su2_rule._half]
    others = su2_rule.partner[read[rk.linalg.NODE_CHUNK:]]
    at_inverse = rk.schur._commutation_residual(stack[others], B[None])
    conjugate = rk.schur._commutation_residual(stack[read[rk.linalg.NODE_CHUNK:]], B.conj().T[None])
    assert at_inverse > 1 and abs(at_inverse - conjugate) <= 1e-13 * at_inverse


def test_character_by_pairs_fills_each_partner_with_the_conjugate(su2, su2_rule):
    # a unitary input's character is read at one node of each pair and
    # conjugated into the other, which matches the trace there to roundoff;
    # an input that fails the audit is read at every node
    rng = np.random.default_rng(3)
    unitary = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1.5, su2))
    skewed = rk.conjugate(unitary, rng.normal(size=(6, 6)) + 3 * np.eye(6))
    traces = np.einsum("nii->n", unitary.evaluate_batch(su2_rule.nodes))
    for rep in (unitary, skewed):
        values = rk.character(rep, su2_rule).values
        assert np.abs(values - traces).max() <= 1e-13
    filled = rk.character(unitary, su2_rule).values
    read = su2_rule._walk[:su2_rule._half]
    assert np.array_equal(filled[read], traces[read])


def _nan_rules(circle, su2):
    """A circle rule and a paired su2 rule, each with a nan node."""
    circle_rule = rk.HaarRule(circle, np.array([np.nan, 1.0]), np.array([0.5, 0.5]), 1)
    rule = rk.haar_rule(su2, 16)
    nodes = rule.nodes.copy()
    nodes[300] = np.nan
    su2_rule = rk.HaarRule(su2, nodes, rule.weights, 16, _partner=rule.partner)
    return circle_rule, su2_rule


@pytest.mark.parametrize("kind", ["circle", "su2"])
@pytest.mark.parametrize("call", ["character", "orthogonality_audit", "multiplicity",
                                  "class_invariance_audit"])
def test_a_non_finite_node_is_refused_before_its_partner_is_filled(circle, su2, kind, call):
    # node 300 is read by a pass by pairs on the su2 rule; its partner is
    # not, and would be filled with the conjugate of a nan
    circle_rule, su2_rule = _nan_rules(circle, su2)
    rule, rep = ((circle_rule, rk.CircleWeightRepresentation(circle, [1])) if kind == "circle"
                 else (su2_rule, rk.spin_irrep(1, su2)))
    if kind == "su2":
        assert 300 in rule._walk[:rule._half] and rule.partner[300] not in rule._walk[:rule._half]
    calls = {"character": lambda: rk.character(rep, rule),
             "orthogonality_audit": lambda: rk.orthogonality_audit([rep], rule),
             "multiplicity": lambda: rk.multiplicity(rep, rep, rule),
             "class_invariance_audit": lambda: rk.class_invariance_audit(
                 rep, rule, [rule.group.identity_element()])}
    with pytest.raises(rk.EvaluationFailureError, match="non-finite"):
        calls[call]()
