"""No averaging call holds a node stack.

Every public call that averages over a rule reads its input in passes of
``linalg.EVAL_CHUNK`` nodes into one buffer it reuses, and every
other temporary is a sub-chunk of ``linalg.NODE_CHUNK`` nodes, so its
tracemalloc peak is its chunk buffers and a fraction of a chunk whatever
the rule's node count.  On ``haar_rule(su2, 24)`` (13 824 nodes, 13.5
chunks) at degree 10, one node stack is 22 MB and one chunk 1.6 MB.  Each
call runs on input that fails the unitarity audit, the case with the most
passes and a basis change in each.  ``PEAK_CHUNKS`` bounds each call: one
chunk buffer and at most a few sub-chunk temporaries beside it, for every
call but ``averaged_intertwiner``, which holds the buffers of both its
inputs.  Each bound is the call's measured peak plus 10 %.  The Haar audit
reads every node set in evaluation chunks, so its peak does not grow with
the rule.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.probes import standard_probes, standard_shifts

from conftest import chunk_bytes, random_invertible, regular_representation, traced_peak


def _inputs(su2):
    basis = random_invertible(np.random.default_rng(1), 10, diag_boost=3.0)
    irreducible = rk.conjugate(rk.spin_irrep(4.5, su2), basis)
    reducible = rk.conjugate(rk.direct_sum(rk.spin_irrep(2, su2), rk.spin_irrep(2, su2)), basis)
    return irreducible, reducible


CALLS = {
    "commutant": lambda irrep, red, rule: rk.commutant(red, rule),
    "unitary_commutant": lambda irrep, red, rule: rk.unitary_commutant(red, rule),
    "irreducibility_test": lambda irrep, red, rule: rk.irreducibility_test(irrep, rule),
    "invariant_form_space": lambda irrep, red, rule: rk.invariant_form_space(red, rule),
    "averaged_form": lambda irrep, red, rule: rk.averaged_form(red, rule),
    "unitarize": lambda irrep, red, rule: rk.unitarize(red, rule),
    "specialness_report": lambda irrep, red, rule: rk.specialness_report(red, rule),
    "split_once": lambda irrep, red, rule: rk.split_once(red, rule),
    "decompose": lambda irrep, red, rule: rk.decompose(red, rule),
    "averaged_intertwiner": lambda irrep, red, rule: rk.averaged_intertwiner(
        red, irrep, np.ones((10, 10)), rule),
    "orthogonality_audit": lambda irrep, red, rule: rk.orthogonality_audit([irrep], rule),
    "matrix_element_audit": lambda irrep, red, rule: rk.matrix_element_audit(irrep, rule),
    "multiplicity": lambda irrep, red, rule: rk.multiplicity(red, irrep, rule),
    "character": lambda irrep, red, rule: rk.character(red, rule),
    "class_invariance_audit": lambda irrep, red, rule: rk.class_invariance_audit(
        red, rule, standard_shifts(rule.group)),
    "unitarity_audit": lambda irrep, red, rule: rk.unitarity_audit(red, rule),
    "integrate_matrix": lambda irrep, red, rule: rk.integrate_matrix(rule, red),
}

# evaluation chunks each call may hold at its peak: the largest measured
# peak plus 10 % (commutant, 1.83 chunks: its residual pieces)
PEAK_CHUNKS = dict.fromkeys(CALLS, 2.02) | {
    # the chunk buffers of both inputs, read in step (2.51)
    "averaged_intertwiner": 2.77,
    # the chunk buffer and the traces at the rule nodes; each shifted node
    # set is read one chunk at a time (1.45)
    "class_invariance_audit": 1.6,
}
# the Haar audit's peak at any rule: the standard su2 probe families hold
# one evaluation chunk each (0.83 MiB measured at resolutions 24 and 48)
AUDIT_PEAK = 0.91 * 2 ** 20


@pytest.fixture(scope="module")
def fine_rule(su2):
    return rk.haar_rule(su2, 24)


@pytest.mark.memory
@pytest.mark.parametrize("name", list(CALLS))
def test_averaging_call_holds_a_few_evaluation_chunks(su2, fine_rule, name):
    irreducible, reducible = _inputs(su2)
    stack_bytes = fine_rule.node_count * 10 ** 2 * 16
    _, peak = traced_peak(lambda: CALLS[name](irreducible, reducible, fine_rule))
    assert peak <= PEAK_CHUNKS[name] * chunk_bytes(10) < stack_bytes / 3


@pytest.mark.memory
def test_axiom_audit_holds_one_stack_per_probe_family(su2, fine_rule):
    # the standard su2 probes are the entries of spins 1/2 and 1, one
    # family each sharing one stack, of one evaluation chunk (a stack at
    # all 13 824 nodes of this rule is 2.9 MB); the exact parts of every
    # integral are merged chunk by chunk, so they stay a few floats a row
    probes, shifts = standard_probes(su2), standard_shifts(su2)
    _, peak = traced_peak(lambda: rk.axiom_audit(fine_rule, probes, shifts))
    assert peak <= AUDIT_PEAK


@pytest.mark.memory
def test_axiom_audit_peak_does_not_grow_with_the_rule(su2):
    # eight times the nodes of haar_rule(su2, 24), under the same bound
    rule = rk.haar_rule(su2, 48)
    probes, shifts = standard_probes(su2), standard_shifts(su2)
    _, peak = traced_peak(lambda: rk.axiom_audit(rule, probes, shifts))
    assert peak <= AUDIT_PEAK


@pytest.mark.memory
@pytest.mark.parametrize("order", [24, 48])
@pytest.mark.parametrize("name", ["commutant", "invariant_form_space"])
def test_fixed_space_reading_holds_one_real_map(name, order):
    # on the regular representation of Z_r (r = order nodes of degree r)
    # the r^2 x r^2 averaging map, r^4 doubles, is the largest object: the
    # call holds that one real map beside the chunk buffer and one block
    # result of r^3 complex entries while it sums the map (1.26 at r = 24),
    # and beside at most three Rayleigh-Ritz blocks of r + 8 columns of
    # r^2 entries while it reads the fixed space (1.21).  A complex r^4
    # total beside it would hold three maps
    rep = regular_representation(rk.cyclic_group(order))
    _, peak = traced_peak(lambda: getattr(rk, name)(rep, rk.haar_rule(rep.group, 1)))
    assert peak <= 1.38 * order ** 4 * 8
