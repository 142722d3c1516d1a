"""No averaging call holds a node stack.

Every public call that averages over a rule reads its input in passes of
``representations.EVAL_CHUNK`` nodes into one buffer it reuses, so its
tracemalloc peak is a few evaluation chunks whatever the rule's node count.
On ``haar_rule(su2, 24)`` (13 824 nodes, 13.5 chunks) at degree 10, one
node stack is 22 MB and ``CHUNKS_HELD`` chunks are 6.6 MB, under a third of
it.  Each call runs on input that fails the unitarity audit, the case with
the most passes and a basis change in each.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.probes import standard_shifts

from conftest import CHUNKS_HELD, chunk_bytes, random_invertible, traced_peak


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
}


@pytest.fixture(scope="module")
def fine_rule(su2):
    return rk.haar_rule(su2, 24)


@pytest.mark.parametrize("name", list(CALLS))
def test_averaging_call_holds_a_few_evaluation_chunks(su2, fine_rule, name):
    irreducible, reducible = _inputs(su2)
    stack_bytes = fine_rule.node_count * 10 ** 2 * 16
    _, peak = traced_peak(lambda: CALLS[name](irreducible, reducible, fine_rule))
    assert peak <= CHUNKS_HELD * chunk_bytes(10) < stack_bytes / 3
