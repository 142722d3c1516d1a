import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import repkit as rk

from conftest import random_invertible, random_unitary

# past Python's 4300-digit limit on converting an int to a string
TOO_LONG_TO_PRINT = 10 ** 5000


@pytest.fixture(scope="module")
def circle_rule(circle):
    return rk.haar_rule(circle, 32)


# --- evaluation --------------------------------------------------------------

def test_trivial_circle_rep(circle):
    rep = rk.CircleWeightRepresentation(circle, [0])
    for theta in (0.0, 1.0, np.pi):
        assert np.abs(rep.evaluate(theta) - np.eye(1)).max() == 0.0


def test_circle_weights_at_pi(circle):
    rep = rk.CircleWeightRepresentation(circle, [1, -1])
    out = rep.evaluate(np.pi)
    assert np.abs(out - np.diag([-1.0, -1.0])).max() <= 1e-12


def test_spin_half_at_identity(su2):
    rep = rk.spin_irrep(0.5, su2)
    assert np.abs(rep.evaluate(np.eye(2)) - np.eye(2)).max() == 0.0


def test_spin_half_is_defining_rep(su2):
    rep = rk.spin_irrep(0.5, su2)
    for U in rk.enumerate_or_sample(su2, 5, seed=1):
        assert np.abs(rep.evaluate(U) - U).max() <= 1e-15


def test_spin_zero_is_trivial(su2, su2_rule):
    rep = rk.spin_irrep(0, su2)
    assert rep.degree == 1
    mats = rep.evaluate_batch(su2_rule.nodes)
    assert np.abs(mats - 1.0).max() <= 1e-15


def test_spin_out_of_range(su2):
    with pytest.raises(rk.SpinOutOfRangeError):
        rk.spin_irrep(7, su2)
    with pytest.raises(rk.SpinOutOfRangeError):
        rk.spin_irrep(0.3, su2)
    with pytest.raises(rk.SpinOutOfRangeError):
        rk.spin_irrep(-0.5, su2)


def test_finite_table_requires_identity_matrix(z2):
    bad = np.stack([2 * np.eye(2), np.eye(2)]).astype(complex)
    with pytest.raises(ValueError, match="identity"):
        rk.FiniteTableRepresentation(z2, bad)


def test_evaluate_kind_mismatch(su2):
    rep = rk.spin_irrep(1, su2)
    with pytest.raises(rk.KindMismatchError):
        rep.evaluate(3)



def test_evaluate_and_the_scalar_entry_probe_match_the_batch(su2):
    spin = rk.spin_irrep(1, su2)
    nodes = rk.haar_rule(su2, 4).nodes
    stack = spin.evaluate_batch(nodes)
    assert all(np.array_equal(rk.evaluate(spin, U), M) for U, M in zip(nodes, stack))
    probe = rk.MatrixEntryProbe(spin, 0, 2)
    assert probe.label == "entry[0,2]"
    assert np.array_equal([probe(U) for U in nodes], probe.batch(nodes))


# --- homomorphism audit ------------------------------------------------------

def test_homomorphism_audit_exact_table(s3):
    rep = rk.s3_standard(s3)
    assert rk.homomorphism_audit(rep) <= 1e-12


def test_homomorphism_audit_su2_spin(su2):
    rep = rk.spin_irrep(1, su2)
    assert rk.homomorphism_audit(rep, 200) <= 1e-8


def test_homomorphism_audit_detects_corruption(z3):
    omega = np.exp(2j * np.pi / 3)
    table = np.stack([np.diag([omega ** k]) for k in range(3)])
    table[1] = 2 * np.eye(1)  # corrupt one entry
    rep = rk.FiniteTableRepresentation(z3, table)
    assert rk.homomorphism_audit(rep) >= 0.5


def test_homomorphism_audit_samples_pairs_above_order_100():
    # rho(even) = 1, rho(1 mod 4) = -1, rho(3 mod 4) = +1 is constant on the
    # diagonal pairs (g, g) but not a homomorphism: rho(3) != rho(1) rho(2)
    z128 = rk.cyclic_group(128)
    signs = [1.0 if g % 2 == 0 or g % 4 == 3 else -1.0 for g in range(128)]
    rep = rk.FiniteTableRepresentation(z128, np.array(signs).reshape(128, 1, 1))
    assert rk.homomorphism_audit(rep) == 2.0
    assert rk.homomorphism_audit(rk.cyclic_phase_rep(z128, [5])) <= 1e-12


def test_homomorphism_audit_exhaustive_matches_pair_tensor(s3):
    # reference: the whole (N, N, r, r) tensor of products rho(x) rho(y)
    rng = np.random.default_rng(11)
    A = random_invertible(rng, 2)
    table = A @ rk.s3_standard(s3).table @ np.linalg.inv(A)
    table[3] += 1e-3 * rng.normal(size=(2, 2))
    rep = rk.FiniteTableRepresentation(s3, table)
    products = np.einsum("aij,bjk->abik", table, table)
    reference = np.abs(products - table[s3.mult_table]).max()
    assert reference > 1e-4
    assert abs(rk.homomorphism_audit(rep) - reference) <= 1e-14


@pytest.mark.memory
def test_homomorphism_audit_exhaustive_holds_no_pair_tensor():
    # regular representation of Z48: the pair tensor would be 48^4 complex
    # entries (85 MB)
    z48 = rk.cyclic_group(48)
    mats = np.zeros((48, 48, 48), dtype=complex)
    for g in range(48):
        mats[g, z48.mult_table[g], np.arange(48)] = 1.0
    rep = rk.FiniteTableRepresentation(z48, mats)
    tracemalloc.start()
    try:
        defect = rk.homomorphism_audit(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect == 0.0
    assert peak <= 48 ** 4 * 16 / 8


def test_homomorphism_audit_batched_su2_validates_and_reprojects(su2):
    xs = np.asarray(rk.enumerate_or_sample(su2, 50, seed=4))
    ys = np.asarray(rk.enumerate_or_sample(su2, 50, seed=5))
    products = su2.multiply_nodes(xs, ys)
    for x, y, xy in zip(xs, ys, products):
        assert np.abs(xy - su2.multiply(x, y)).max() <= 1e-15
    drifted = xs * (1 + 1e-11)
    fixed = su2.multiply_nodes(drifted, ys)
    assert np.abs(fixed.conj().transpose(0, 2, 1) @ fixed - np.eye(2)).max() <= 1e-12
    with pytest.raises(rk.KindMismatchError):
        su2.multiply_nodes(xs * 1.1, ys)
    with pytest.raises(rk.KindMismatchError):
        su2.multiply_nodes(xs[:, :1], ys)


# --- combinators -------------------------------------------------------------

def test_direct_sum_trivial(z2):
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    summed = rk.direct_sum(triv, triv)
    for g in z2.elements():
        assert np.abs(summed.evaluate(g) - np.eye(2)).max() == 0.0


def test_direct_sum_z3_weights(z3):
    rep = rk.direct_sum(rk.cyclic_phase_rep(z3, [1]), rk.cyclic_phase_rep(z3, [2]))
    omega = np.exp(2j * np.pi / 3)
    assert np.abs(rep.evaluate(1) - np.diag([omega, omega ** 2])).max() <= 1e-15


def test_direct_sum_character_adds(s3):
    rule = rk.haar_rule(s3, 1)
    a, b = rk.s3_standard(s3), rk.s3_sign(s3)
    cs = rk.character(rk.direct_sum(a, b), rule).values
    ca = rk.character(a, rule).values
    cb = rk.character(b, rule).values
    assert np.abs(cs - (ca + cb)).max() == 0.0


def test_direct_sum_group_mismatch(z2, z3):
    a = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    b = rk.FiniteTableRepresentation(z3, np.stack([np.eye(1)] * 3).astype(complex))
    with pytest.raises(rk.GroupMismatchError):
        rk.direct_sum(a, b)


def test_conjugate_identity_noop(su2, su2_rule):
    rep = rk.spin_irrep(1, su2)
    conj = rk.conjugate(rep, np.eye(3))
    U = rk.enumerate_or_sample(su2, 1, seed=2)[0]
    assert np.abs(conj.evaluate(U) - rep.evaluate(U)).max() == 0.0


def test_conjugate_preserves_character(circle, su2, su2_rule):
    rng = np.random.default_rng(8)
    rule = rk.haar_rule(circle, 16)
    rep = rk.CircleWeightRepresentation(circle, [1, -1])
    for _ in range(5):
        A = random_invertible(rng, 2)
        base = rk.character(rep, rule).values
        moved = rk.character(rk.conjugate(rep, A), rule).values
        assert np.abs(base - moved).max() <= 1e-10
    srep = rk.spin_irrep(1, su2)
    A = random_invertible(rng, 3)
    assert np.abs(rk.character(srep, su2_rule).values
                  - rk.character(rk.conjugate(srep, A), su2_rule).values).max() <= 1e-10


def test_conjugate_breaks_unitarity(circle):
    rule = rk.haar_rule(circle, 16)
    rep = rk.CircleWeightRepresentation(circle, [1, -1])
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert rk.unitarity_audit(rk.conjugate(rep, shear), rule) > 0.1


def test_conjugate_rejects_singular(circle):
    rep = rk.CircleWeightRepresentation(circle, [1, -1])
    with pytest.raises(rk.SingularMatrixError):
        rk.conjugate(rep, np.ones((2, 2)))
    with pytest.raises(rk.ShapeMismatchError):
        rk.conjugate(rep, np.eye(3))


def test_spin_evaluation_in_node_chunks_keeps_the_bytes(su2, monkeypatch):
    # every entry is a sum of node-wise products, so the chunks change no bit
    rule = rk.haar_rule(su2, 24)
    rep = rk.spin_irrep(3, su2)
    chunked = rep.evaluate_batch(rule.nodes)
    assert rule.node_count > 2 * rk.linalg.EVAL_CHUNK
    monkeypatch.setattr(rk.linalg, "EVAL_CHUNK", rule.node_count)
    assert rep.evaluate_batch(rule.nodes).tobytes() == chunked.tobytes()


# --- user-defined bodies --------------------------------------------------------

class HeldStack(rk.Representation):
    """A user-defined body that returns the one stack it holds at the rule
    nodes, and evaluates its inner representation anywhere else."""

    def __init__(self, inner, rule):
        self.group, self.degree, self.inner = inner.group, inner.degree, inner
        self.stack = inner.evaluate_batch(rule.nodes)
        self.pristine = self.stack.copy()

    def evaluate_batch(self, nodes):
        return self.stack if len(nodes) == len(self.stack) else self.inner.evaluate_batch(nodes)


def test_library_calls_never_overwrite_a_user_stack(su2, su2_rule):
    # a pass copies what a user-defined body returns into its own chunk
    # buffer and does every sandwich there, so the body's array is read,
    # never written
    rng = np.random.default_rng(5)
    reducible = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                             random_invertible(rng, 5))
    irreducible = rk.conjugate(rk.spin_irrep(1, su2), random_invertible(rng, 3))
    held, held_irrep = HeldStack(reducible, su2_rule), HeldStack(irreducible, su2_rule)
    report = rk.decompose(held, su2_rule)
    whole = rk.representations.BlockRepresentation(held, report.P, 0, held.degree,
                                                   P_inv=np.linalg.inv(report.P))
    calls = [
        lambda: rk.conjugate(held, random_invertible(rng, 5)).evaluate_batch(su2_rule.nodes),
        lambda: whole.evaluate_batch(su2_rule.nodes),
        lambda: report.blocks[0].evaluate_batch(su2_rule.nodes),
        lambda: rk.split_once(held, su2_rule),
        lambda: rk.invariant_form_space(held, su2_rule),
        lambda: rk.specialness_report(held, su2_rule),
        lambda: rk.unitarize(held, su2_rule),
        lambda: rk.commutant(held, su2_rule),
        lambda: rk.unitary_commutant(held, su2_rule),
        lambda: rk.irreducibility_test(held, su2_rule),
        lambda: rk.orthogonality_audit([held_irrep], su2_rule),
        lambda: rk.multiplicity(held, held_irrep, su2_rule),
        lambda: rk.matrix_element_audit(held_irrep, su2_rule),
    ]
    for call in calls:
        call()
        assert np.array_equal(held.stack, held.pristine)
        assert np.array_equal(held_irrep.stack, held_irrep.pristine)
    # copied in or written in place, a chunk holds the same numbers, so a
    # call reads the same bytes; the character is read off the input's own
    # chunks on the first pass, not off the unitary basis, whose trace
    # agrees only to roundoff
    assert rk.decompose(reducible, su2_rule).P.tobytes() == report.P.tobytes()
    assert (rk.orthogonality_audit([irreducible], su2_rule).tobytes()
            == rk.orthogonality_audit([held_irrep], su2_rule).tobytes())
    scale = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (rk.conjugate(reducible, scale).evaluate_batch(su2_rule.nodes).tobytes()
            == rk.conjugate(held, scale).evaluate_batch(su2_rule.nodes).tobytes())


def test_a_user_body_of_the_wrong_shape_is_refused(su2, su2_rule):
    # a pass copies what a user-defined body returns into its chunk buffer,
    # so a result that numpy would broadcast there is refused instead
    class OneMatrix(rk.Representation):
        group, degree = su2, 2

        def evaluate_batch(self, nodes):
            return np.eye(2, dtype=complex)

    with pytest.raises(rk.ShapeMismatchError, match="evaluate_batch returned shape"):
        rk.commutant(OneMatrix(), su2_rule)


# --- unitarity audit ---------------------------------------------------------

def test_unitarity_audit_circle_weights(circle):
    rule = rk.haar_rule(circle, 16)
    rep = rk.CircleWeightRepresentation(circle, [2, 0, -1])
    assert rk.unitarity_audit(rep, rule) <= 1e-12


@pytest.mark.parametrize("two_j", range(0, 13))
def test_spin_unitarity_all_spins(su2, two_j):
    rule = rk.haar_rule(su2, 6)
    rep = rk.SpinRepresentation(su2, two_j)
    assert rk.unitarity_audit(rep, rule) <= 1e-10


def test_unitarity_audit_is_the_maximum_over_the_whole_stack(su2):
    # the audit reads one sub-chunk at a time; 1331 nodes end in a partial
    # sub-chunk, and the largest defect is put at the last node
    rule = rk.haar_rule(su2, 11)
    rep = rk.conjugate(rk.spin_irrep(1, su2), random_invertible(np.random.default_rng(4), 3))
    stack = rep.evaluate_batch(rule.nodes)
    defects = stack.conj().transpose(0, 2, 1) @ stack - np.eye(3)
    worst = np.abs(defects).max()
    assert np.abs(defects[-1]).max() < worst

    class LastNodeScaled(rk.Representation):
        group, degree = su2, 3

        def evaluate_batch(self, nodes):
            mats = rep.evaluate_batch(nodes)
            if np.array_equal(nodes[-1:], rule.nodes[-1:]):
                mats[-1] *= 40.0
            return mats
    assert rk.unitarity_audit(rep, rule) == worst
    stack[-1] *= 40.0
    scaled = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(3)).max()
    assert rk.unitarity_audit(LastNodeScaled(), rule) == scaled


# --- characters --------------------------------------------------------------

def test_character_trivial_rep_constant(circle):
    rule = rk.haar_rule(circle, 8)
    char = rk.character(rk.CircleWeightRepresentation(circle, [0]), rule)
    assert np.abs(char.values - 1.0).max() == 0.0


def test_character_z2_sign(z2):
    rule = rk.haar_rule(z2, 1)
    sign = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    assert np.allclose(rk.character(sign, rule).values, [1.0, -1.0])


def ill_conditioned_sum(su2, seed, kappa=1e7):
    """1/2 + 1/2 + 1 + 1 + 1 in a random basis of condition number kappa."""
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, 13) @ np.diag(np.geomspace(1.0, kappa, 13)) @ random_unitary(rng, 13)
    parts = [rk.spin_irrep(j, su2) for j in (0.5, 0.5, 1, 1, 1)]
    return rk.conjugate(rk.DirectSumRepresentation(parts), basis)


@pytest.mark.parametrize("seed", range(4))
def test_character_accepts_an_ill_conditioned_basis(su2, su2_rule, seed):
    # tr A rho(e) A^-1 is 13 only to about cond(A) eps: an absolute check
    # at the identity refused every kappa = 1e7 basis tried
    rep = ill_conditioned_sum(su2, seed)
    char = rk.character(rep, su2_rule)
    assert char.degree == 13
    assert np.abs(char.values - rk.character(rep.inner, su2_rule).values).max() <= 1e-6


def test_character_refuses_a_body_that_is_not_the_identity_at_the_identity(su2, su2_rule):
    # a user-defined body is right at the rule nodes but 2 I at the
    # identity; neither the check of a character nor that of a block of a
    # split lets it through, and a conjugation does not excuse it
    class WrongAtIdentity(rk.Representation):
        group, degree = su2, 2

        def evaluate_batch(self, nodes):
            mats = rk.spin_irrep(0.5, su2).evaluate_batch(nodes)
            return 2 * mats if np.array_equal(nodes, [np.eye(2)]) else mats

    for call in (lambda: rk.character(WrongAtIdentity(), su2_rule),
                 lambda: rk.character(rk.conjugate(WrongAtIdentity(), np.diag([1.0, 1e7])), su2_rule),
                 lambda: rk.decompose(rk.direct_sum(WrongAtIdentity(), rk.spin_irrep(1, su2)), su2_rule)):
        with pytest.raises(rk.EvaluationFailureError, match="character at the identity is"):
            call()


def su2_class_angles(rule):
    traces = np.einsum("nii->n", rule.nodes).real
    return 2.0 * np.arccos(np.clip(traces / 2.0, -1.0, 1.0))


def test_character_spin_half_formula(su2, su2_rule):
    char = rk.character(rk.spin_irrep(0.5, su2), su2_rule)
    t = su2_class_angles(su2_rule)
    assert np.abs(char.values - 2.0 * np.cos(t / 2.0)).max() <= 1e-12


def test_character_spin_one_formula(su2, su2_rule):
    char = rk.character(rk.spin_irrep(1, su2), su2_rule)
    t = su2_class_angles(su2_rule)
    assert np.abs(char.values - (1.0 + 2.0 * np.cos(t))).max() <= 1e-12


def test_character_degree_at_identity(s3, su2, su2_rule):
    rule = rk.haar_rule(s3, 1)
    for rep in rk.s3_irreps(s3):
        char = rk.character(rep, rule)
        assert char.degree == rep.degree
        assert abs(char.values[s3.identity_index] - rep.degree) <= 1e-12


# --- class invariance --------------------------------------------------------

def test_class_invariance_abelian(z3, circle):
    rule = rk.haar_rule(z3, 1)
    rep = rk.cyclic_phase_rep(z3, [1, 2])
    assert rk.class_invariance_audit(rep, rule, z3.elements()) <= 1e-12
    crule = rk.haar_rule(circle, 16)
    crep = rk.CircleWeightRepresentation(circle, [1, -1])
    assert rk.class_invariance_audit(crep, crule, [0.7, 2.1]) <= 1e-12


def test_class_invariance_su2(su2, su2_rule):
    rep = rk.spin_irrep(1, su2)
    shifts = rk.enumerate_or_sample(su2, 8, seed=21)
    assert rk.class_invariance_audit(rep, su2_rule, shifts) <= 1e-8


def test_class_invariance_s3_standard(s3):
    rule = rk.haar_rule(s3, 1)
    rep = rk.s3_standard(s3)
    assert rk.class_invariance_audit(rep, rule, s3.elements()) <= 1e-12


def test_unitarity_audit_refuses_a_rule_of_another_group(s3, circle):
    # the finite body would index its table with the circle angles cast to
    # int, so the group check has to come before any evaluation
    with pytest.raises(rk.GroupMismatchError):
        rk.unitarity_audit(rk.s3_standard(s3), rk.haar_rule(circle, 16))


def test_class_invariance_audit_refuses_a_rule_of_another_group(s3, circle):
    with pytest.raises(rk.GroupMismatchError):
        rk.class_invariance_audit(rk.s3_standard(s3), rk.haar_rule(circle, 16), s3.elements())


@pytest.mark.parametrize("build, error", [
    (lambda circle, su2: rk.SpinRepresentation(su2, True), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.SpinRepresentation(su2, np.True_), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [True, 2]), ValueError),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [2, np.True_]), ValueError),
    (lambda circle, su2: rk.haar_rule(circle, True), rk.InvalidResolutionError),
    (lambda circle, su2: rk.haar_rule(su2, True), rk.InvalidResolutionError),
    (lambda circle, su2: rk.haar_rule(su2, np.True_), rk.InvalidResolutionError),
    (lambda circle, su2: rk.spin_irrep(True, su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(np.True_, su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.cyclic_phase_rep(rk.cyclic_group(3), [1.7]), ValueError),
    (lambda circle, su2: rk.cyclic_phase_rep(rk.cyclic_group(3), [True]), ValueError),
    (lambda circle, su2: rk.cyclic_group(True), ValueError),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [1, 2.0]), ValueError),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [np.float64(3.0)]), ValueError),
    (lambda circle, su2: rk.cyclic_group(4).multiply("3", 0), rk.KindMismatchError),
    (lambda circle, su2: rk.cyclic_group(4).multiply(Fraction(3, 2), 0), rk.KindMismatchError),
    (lambda circle, su2: rk.MatrixEntryProbe(rk.spin_irrep(1, su2), -1, 0), rk.ShapeMismatchError),
    (lambda circle, su2: rk.MatrixEntryProbe(rk.spin_irrep(1, su2), 0, 0.5), rk.ShapeMismatchError),
    (lambda circle, su2: rk.MatrixEntryProbe(rk.spin_irrep(1, su2), 3, 0), rk.ShapeMismatchError),
    (lambda circle, su2: rk.homomorphism_audit(rk.spin_irrep(1, su2), True), ValueError),
    (lambda circle, su2: rk.homomorphism_audit(rk.spin_irrep(1, su2), 2.5), ValueError),
    (lambda circle, su2: rk.enumerate_or_sample(su2, True), ValueError),
    (lambda circle, su2: rk.spin_irrep("1", su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep("1/2", su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(b"1", su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(float("inf"), su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(float("nan"), su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(10 ** 400, su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(1 + 0j, su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: circle.multiply(True, 0.0), rk.KindMismatchError),
    (lambda circle, su2: circle.multiply("1.5", 0.0), rk.KindMismatchError),
    (lambda circle, su2: rk.spin_irrep([1], su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(np.array([1, 2]), su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(np.array([1]), su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(Decimal("NaN"), su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: rk.spin_irrep(TOO_LONG_TO_PRINT, su2), rk.SpinOutOfRangeError),
    (lambda circle, su2: circle.multiply(float("nan"), 0.0), rk.KindMismatchError),
    (lambda circle, su2: circle.multiply(float("inf"), 0.0), rk.KindMismatchError),
    (lambda circle, su2: circle.multiply(10 ** 400, 0.0), rk.KindMismatchError),
    (lambda circle, su2: circle.multiply(np.complex128(1 + 2j), 0.0), rk.KindMismatchError),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [1]).evaluate(float("nan")), rk.KindMismatchError),
], ids=["spin True", "spin np.True_", "weight True", "weight np.True_",
        "circle resolution True", "su2 resolution True", "su2 resolution np.True_",
        "spin_irrep True", "spin_irrep np.True_", "exponent 1.7", "exponent True", "cyclic order True",
        "weight 2.0", "weight np.float64(3.0)", "element '3'", "element Fraction(3, 2)",
        "probe index -1", "probe index 0.5", "probe index degree", "pair_count True",
        "pair_count 2.5", "count True", "spin_irrep '1'", "spin_irrep '1/2'", "spin_irrep b'1'",
        "spin_irrep inf", "spin_irrep nan", "spin_irrep 10**400", "spin_irrep 1+0j",
        "angle True", "angle '1.5'", "spin_irrep [1]", "spin_irrep array([1, 2])", "spin_irrep array([1])",
        "spin_irrep Decimal('NaN')", "spin_irrep 10**5000", "angle nan", "angle inf", "angle 10**400",
        "angle complex128(1+2j)", "evaluate at angle nan"])
def test_booleans_are_refused_where_an_integer_is_taken(circle, su2, build, error):
    # a boolean is an int to Python, but never a spin, weight, exponent,
    # order, resolution, count or angle; nor is a float a weight, exponent
    # or count, even with an integer value, a string an element, spin or
    # angle, or an index outside the matrix a probe entry; nor is a nan,
    # an infinity, an integer beyond the float range or a complex number
    # a spin, nor a nan, an infinity, an integer beyond the float range
    # or a numpy complex number an angle
    with pytest.raises(error):
        build(circle, su2)


@pytest.mark.parametrize("build, error, message", [
    (lambda circle, su2: rk.spin_irrep(TOO_LONG_TO_PRINT, su2), rk.SpinOutOfRangeError,
     "a spin is a real number with 0 <= 2j <= 12, got j=<16610-bit integer>"),
    (lambda circle, su2: rk.SpinRepresentation(su2, TOO_LONG_TO_PRINT), rk.SpinOutOfRangeError,
     "two_j must be an integer in 0..12, got <16610-bit integer>"),
    (lambda circle, su2: rk.cyclic_group(TOO_LONG_TO_PRINT), ValueError,
     "n must be an integer in the int64 range, got <16610-bit integer>"),
    (lambda circle, su2: rk.FiniteGroup([[0, 1], [1, TOO_LONG_TO_PRINT]]), ValueError,
     "mult_table[1][1] must be an integer in the int64 range, got <16610-bit integer>"),
    (lambda circle, su2: rk.CircleWeightRepresentation(circle, [TOO_LONG_TO_PRINT]), ValueError,
     "weights[0] must be an integer in the int64 range, got <16610-bit integer>"),
    (lambda circle, su2: rk.cyclic_group(4).multiply(TOO_LONG_TO_PRINT, 0), rk.KindMismatchError,
     "element index <16610-bit integer> outside 0..3"),
    (lambda circle, su2: rk.MatrixEntryProbe(rk.spin_irrep(1, su2), TOO_LONG_TO_PRINT, 0),
     rk.ShapeMismatchError, "entry (<16610-bit integer>, 0) is not an index of a 3x3 matrix"),
], ids=["spin_irrep", "SpinRepresentation", "cyclic_group", "FiniteGroup", "CircleWeightRepresentation",
        "finite element", "probe index"])
def test_an_integer_too_long_to_print_is_named_by_its_size(circle, su2, build, error, message):
    # each refusal used to raise ValueError from repr() of the integer, so
    # a spin escaped as the wrong error, and every message was lost
    with pytest.raises(error) as refused:
        build(circle, su2)
    assert str(refused.value) == message


@pytest.mark.parametrize("kind, nodes", [
    ("finite", np.array([1.7, 2.2])),
    ("finite", np.array([-1])),
    ("finite", np.array([6])),
    ("finite", np.array([True])),
    ("finite", np.array(["1"])),
    ("circle", np.array(["1.5"])),
    ("circle", np.array([True])),
    ("circle", np.array([1.5j])),
    ("circle", np.array([1.5], dtype=object)),
    ("su2", np.eye(2, dtype=bool)[None]),
    ("su2", np.array([[["1", "0"], ["0", "1"]]])),
    ("su2", np.eye(3)[None]),
    ("su2", np.eye(2)),
    ("su2", np.eye(2, dtype=complex)[None].astype(object)),
], ids=["index 1.7", "index -1", "index order", "index True", "index '1'", "angle '1.5'",
        "angle True", "angle 1.5j", "angle object", "matrix True", "matrix '1'", "shape (1, 3, 3)",
        "shape (2, 2)", "matrix object"])
def test_node_arrays_are_refused_not_cast(s3, circle, su2, kind, nodes):
    # a finite table reads integer indices in 0..order-1, a circle body
    # real angles and a spin body numeric (n, 2, 2) stacks; anything else
    # was read as some other element (a spin body took a boolean or string
    # identity for the identity)
    reps = {"finite": rk.s3_standard(s3), "circle": rk.CircleWeightRepresentation(circle, [1, -2]),
            "su2": rk.spin_irrep(1, su2)}
    with pytest.raises(rk.KindMismatchError):
        reps[kind].evaluate_batch(nodes)


def test_node_arrays_of_any_integer_or_real_dtype_are_taken(s3, circle):
    table = rk.s3_standard(s3)
    for dtype in (np.int32, np.uint8, np.int64):
        assert np.array_equal(table.evaluate_batch(np.arange(6, dtype=dtype)), table.table)
    weights = rk.CircleWeightRepresentation(circle, [1, -2])
    expected = weights.evaluate_batch(np.array([0.0, 1.0]))
    for dtype in (np.int32, np.float32):
        assert np.array_equal(weights.evaluate_batch(np.array([0, 1], dtype=dtype)), expected)


def test_spins_are_read_from_any_real_number(su2):
    for j in (1, 1.5, np.float64(0.5), Fraction(3, 2), 6):
        assert rk.spin_irrep(j, su2).two_j == 2 * j


# --- representation invariants across the builtin stock -----------------------

def test_builtin_invariants(s3, su2, circle, su2_rule):
    rule_s3 = rk.haar_rule(s3, 1)
    stock = [(rep, rule_s3) for rep in rk.s3_irreps(s3)]
    stock.append((rk.CircleWeightRepresentation(circle, [3, -2]), rk.haar_rule(circle, 16)))
    stock.append((rk.spin_irrep(1.5, su2), su2_rule))
    for rep, rule in stock:
        ident = rep.evaluate(rep.group.identity_element())
        assert np.abs(ident - np.eye(rep.degree)).max() <= 1e-12
        assert rk.homomorphism_audit(rep, 100) <= 1e-8
