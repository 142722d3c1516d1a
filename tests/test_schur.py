import itertools
import re

import numpy as np
import pytest

import repkit as rk

from conftest import (
    CHUNKS_HELD,
    chunk_bytes,
    commutant_dim_bruteforce,
    random_complex,
    random_invertible,
    random_unitary,
    traced_peak,
)


@pytest.fixture(scope="module")
def circle_rule(circle):
    return rk.haar_rule(circle, 16)


# --- averaged intertwiners ---------------------------------------------------

def test_intertwiner_trivial_pair(circle, circle_rule):
    triv = rk.CircleWeightRepresentation(circle, [0])
    T = rk.averaged_intertwiner(triv, triv, np.eye(1), circle_rule)
    assert np.abs(T - np.eye(1)).max() <= 1e-15


def test_intertwiner_distinct_circle_irreps(circle, circle_rule):
    # integral of e^(i t) a e^(-2 i t) picks up e^(-i t): vanishes
    phi = rk.CircleWeightRepresentation(circle, [1])
    psi = rk.CircleWeightRepresentation(circle, [2])
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = random_complex(rng, (1, 1))
        T = rk.averaged_intertwiner(phi, psi, A, circle_rule)
        assert np.abs(T).max() <= 1e-12


def test_intertwiner_spin_half_elementary(su2, su2_rule):
    rep = rk.spin_irrep(0.5, su2)
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    T = rk.averaged_intertwiner(rep, rep, E11, su2_rule)
    assert np.abs(T - 0.5 * np.eye(2)).max() <= 1e-10
    # quadrature oracle: the same integral at resolution 24
    fine = rk.haar_rule(su2, 24)
    T_fine = rk.averaged_intertwiner(rep, rep, E11, fine)
    assert np.abs(T - T_fine).max() <= 1e-10


def test_intertwiner_residual_property(su2, su2_rule, s3):
    # the output always intertwines at the rule nodes
    rng = np.random.default_rng(1)
    phi = rk.spin_irrep(0.5, su2)
    psi = rk.spin_irrep(1, su2)
    A = random_complex(rng, (2, 3))
    T = rk.averaged_intertwiner(phi, psi, A, su2_rule)
    phis = phi.evaluate_batch(su2_rule.nodes)
    psis = psi.evaluate_batch(su2_rule.nodes)
    assert np.abs(phis @ T[None] - T[None] @ psis).max() <= 1e-10

    rule = rk.haar_rule(s3, 1)
    phi_f, psi_f = rk.s3_standard(s3), rk.s3_sign(s3)
    A = random_complex(rng, (2, 1))
    T = rk.averaged_intertwiner(phi_f, psi_f, A, rule)
    assert np.abs(T).max() <= 1e-12


def test_intertwiner_shape_checks(su2, su2_rule, circle, circle_rule):
    phi = rk.spin_irrep(0.5, su2)
    psi = rk.spin_irrep(1, su2)
    with pytest.raises(rk.ShapeMismatchError):
        rk.averaged_intertwiner(phi, psi, np.eye(2), su2_rule)
    with pytest.raises(rk.GroupMismatchError):
        rk.averaged_intertwiner(phi, rk.CircleWeightRepresentation(circle, [1]),
                                np.zeros((2, 1)), su2_rule)


def test_schur_alpha_formula_random_seeds(su2, su2_rule):
    # averaged self-intertwiner equals tr(A)/r times the identity
    rep = rk.spin_irrep(1, su2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = random_complex(rng, (3, 3))
        T = rk.averaged_intertwiner(rep, rep, A, su2_rule)
        assert np.abs(T - (np.trace(A) / 3.0) * np.eye(3)).max() <= 1e-6


@pytest.mark.parametrize("phi_kind", ["same", "standard+sign"])
def test_intertwiner_of_a_non_unitary_psi_matches_the_inverse_node_sum(s3, phi_kind):
    # psi(x^-1) = B^-1 W(x)^* B on the unitary stack of psi: on the exact
    # uniform rule this is the sum of w phi A psi(x^-1) at the inverse
    # nodes, for a square seed (applied over phi's stack) and a non-square one
    rng = np.random.default_rng(17)
    rule = rk.haar_rule(s3, 1)
    basis = random_unitary(rng, 2) @ np.diag([1.0, 10.0]) @ random_unitary(rng, 2)
    psi = rk.conjugate(rk.s3_standard(s3), basis)
    phi = psi if phi_kind == "same" else rk.direct_sum(rk.s3_standard(s3), rk.s3_sign(s3))
    A = random_complex(rng, (phi.degree, 2))
    T = rk.averaged_intertwiner(phi, psi, A, rule)
    phis = phi.evaluate_batch(rule.nodes)
    psis = psi.evaluate_batch(rule.nodes)
    psis_inv = psi.evaluate_batch(s3.invert_nodes(rule.nodes))
    reference = np.tensordot(rule.weights, phis @ A[None] @ psis_inv, axes=(0, 0))
    assert np.abs(T - reference).max() <= 1e-12
    assert np.abs(phis @ T[None] - T[None] @ psis).max() <= 1e-12


@pytest.mark.memory
def test_intertwiner_holds_two_stacks(su2):
    # no stack at all: one chunk buffer per input, read in step, and the
    # seed applied over phi's chunk a sub-chunk at a time
    rep = rk.spin_irrep(4.5, su2)
    rule = rk.haar_rule(su2, 24)
    A = random_complex(np.random.default_rng(4), (10, 10))
    T, peak = traced_peak(lambda: rk.averaged_intertwiner(rep, rep, A, rule))
    assert np.abs(T - (np.trace(A) / 10) * np.eye(10)).max() <= 1e-6
    assert peak <= CHUNKS_HELD * chunk_bytes(rep.degree)


# --- commutant ---------------------------------------------------------------

def test_commutant_one_dimensional_rep(z3):
    rule = rk.haar_rule(z3, 1)
    report = rk.commutant(rk.cyclic_phase_rep(z3, [1]), rule)
    assert report.dimension == 1


def test_commutant_spin_one(su2, su2_rule):
    report = rk.commutant(rk.spin_irrep(1, su2), su2_rule)
    assert report.dimension == 1
    B = report.basis[0]
    off_scalar = B - (np.trace(B) / 3.0) * np.eye(3)
    assert np.abs(off_scalar).max() <= 1e-8
    assert report.max_residual <= 1e-10


def test_commutant_doubled_and_mixed(su2, su2_rule):
    doubled = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    assert rk.commutant(doubled, su2_rule).dimension == 4
    mixed = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    assert rk.commutant(mixed, su2_rule).dimension == 2
    # brute-force stacked-system oracle agrees exactly
    small = rk.haar_rule(su2, 4)
    assert commutant_dim_bruteforce(doubled, small) == 4
    assert commutant_dim_bruteforce(mixed, small) == 2


def test_commutant_dimension_conjugation_invariant(s3):
    rule = rk.haar_rule(s3, 1)
    rep = rk.direct_sum(rk.s3_standard(s3), rk.s3_trivial(s3))
    rng = np.random.default_rng(3)
    base_dim = rk.commutant(rep, rule).dimension
    for _ in range(3):
        conjugated = rk.conjugate(rep, random_invertible(rng, 3))
        assert rk.commutant(conjugated, rule).dimension == base_dim


def test_commutant_matches_bruteforce_finite(s3):
    rule = rk.haar_rule(s3, 1)
    for rep in rk.s3_irreps(s3):
        assert rk.commutant(rep, rule).dimension == 1
        assert commutant_dim_bruteforce(rep, rule) == 1


@pytest.mark.parametrize("parts, resolution, expected", [((6,), 24, 1), ((0.5,), 8, 1), ((0.5, 0.5), 8, 4)])
def test_commutant_survives_quadrature_error(su2, parts, resolution, expected):
    # these rules integrate the products of the input only to 1e-6 or
    # worse, which a rank reading of the averaged superoperator counted as
    # commutant (dimensions 70, 4 and 16); the fixed space of the averaging
    # map of a unitary stack is the commutant of the node set however badly
    # the rule integrates
    spins = [rk.spin_irrep(j, su2) for j in parts]
    rep = spins[0] if len(spins) == 1 else rk.DirectSumRepresentation(spins)
    report = rk.commutant(rep, rk.haar_rule(su2, resolution))
    assert report.dimension == expected
    assert report.max_residual <= 1e-12



def test_commutant_of_a_non_unitary_input_reads_its_residual_on_the_input(su2, su2_rule):
    # the residual of the basis A^-1 K A is read on the input's own stack,
    # so the unitary stack W = A rho A^-1 must not be written over it
    rng = np.random.default_rng(11)
    mixed = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    rep = rk.conjugate(mixed, random_invertible(rng, 5))
    assert rk.unitarity_audit(rep, su2_rule) > 1e-2
    report = rk.commutant(rep, su2_rule)
    assert report.dimension == 2
    assert report.max_residual <= 1e-10


# --- irreducibility ----------------------------------------------------------

def test_irreducibility_spins(su2, su2_rule):
    for two_j in (0, 1, 2, 3):
        assert rk.irreducibility_test(rk.SpinRepresentation(su2, two_j), su2_rule)
    # higher spins carry higher class-angle frequencies: scale the rule up
    fine = rk.haar_rule(su2, 24)
    for two_j in (4, 5, 6):
        assert rk.irreducibility_test(rk.SpinRepresentation(su2, two_j), fine)


def test_irreducibility_trivial_sum_false(z2):
    rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    assert not rk.irreducibility_test(rk.direct_sum(triv, triv), rule)


def test_irreducibility_s3_standard(s3):
    rule = rk.haar_rule(s3, 1)
    assert rk.irreducibility_test(rk.s3_standard(s3), rule)


def test_irreducibility_handles_non_unitary(s3):
    rule = rk.haar_rule(s3, 1)
    rng = np.random.default_rng(4)
    rep = rk.conjugate(rk.s3_standard(s3), random_invertible(rng, 2))
    assert rk.irreducibility_test(rep, rule)


def test_irreducibility_unitarizes_ill_conditioned_input(su2):
    # a rank reading of the raw rep on this rule misread the dimension (4);
    # the commutant is read off the unitarized stack, so the raw commutant
    # and the irreducibility test both answer one
    rng = np.random.default_rng(0)
    basis = random_unitary(rng, 3) @ np.diag(np.geomspace(1.0, 100.0, 3)) @ random_unitary(rng, 3)
    rep = rk.conjugate(rk.spin_irrep(1, su2), basis)
    rule = rk.haar_rule(su2, 12)
    assert rk.commutant(rep, rule).dimension == 1
    assert rk.irreducibility_test(rep, rule)


def test_irreducibility_route_reads_only_the_dimension(s3, monkeypatch):
    # the commutation residual belongs to the commutant reports; the
    # irreducibility route and the calls that run it read the dimension only
    rule = rk.haar_rule(s3, 1)
    rep = rk.conjugate(rk.s3_standard(s3), random_invertible(np.random.default_rng(4), 2))
    calls = []
    original = rk.schur._commutation_residual

    def counting(mats, basis):
        calls.append(len(basis))
        return original(mats, basis)

    monkeypatch.setattr(rk.schur, "_commutation_residual", counting)
    rk.irreducibility_test(rep, rule)
    rk.orthogonality_audit([rep, rk.s3_standard(s3)], rule)
    rk.multiplicity(rk.direct_sum(rep, rep), rep, rule)
    rk.matrix_element_audit(rk.s3_standard(s3), rule)
    assert calls == []
    rk.commutant(rep, rule)
    rk.unitary_commutant(rep, rule)
    assert calls == [1, 1]


# --- splitting ---------------------------------------------------------------

def premixed_z2(z2, seed=5):
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    sign = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    rng = np.random.default_rng(seed)
    mixer = random_unitary(rng, 2)
    return rk.conjugate(rk.direct_sum(triv, sign), mixer)


def test_split_once_premixed_z2(z2):
    rule = rk.haar_rule(z2, 1)
    rep = premixed_z2(z2)
    P, (a, b) = rk.split_once(rep, rule)
    assert a.degree == 1 and b.degree == 1
    chars = sorted(tuple(np.round(rk.character(part, rule).values.real, 9)) for part in (a, b))
    assert chars == [(1.0, -1.0), (1.0, 1.0)]
    # P actually block-diagonalizes (diagonal blocks are 1x1)
    P_inv = np.linalg.inv(P)
    for g in z2.elements():
        full = P @ rep.evaluate(g) @ P_inv
        assert np.abs(full - np.diag(np.diag(full))).max() <= 1e-10


def test_split_once_doubled_spin_half(su2, su2_rule):
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    _, (a, b) = rk.split_once(rep, su2_rule)
    assert {a.degree, b.degree} == {2}
    t = 2.0 * np.arccos(np.clip(np.einsum("nii->n", su2_rule.nodes).real / 2.0, -1.0, 1.0))
    for part in (a, b):
        char = rk.character(part, su2_rule).values
        assert np.abs(char - 2.0 * np.cos(t / 2.0)).max() <= 1e-8


def test_split_once_irreducible_raises(su2, su2_rule):
    with pytest.raises(rk.AlreadyIrreducibleError):
        rk.split_once(rk.spin_irrep(1, su2), su2_rule)


# --- decomposition -----------------------------------------------------------

def test_decompose_irreducible_single_block(s3):
    rule = rk.haar_rule(s3, 1)
    report = rk.decompose(rk.s3_standard(s3), rule)
    assert [b.degree for b in report.blocks] == [2]
    assert report.residual <= 1e-12


def test_decompose_three_blocks_z2(z2):
    rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    sign = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    rng = np.random.default_rng(6)
    rep = rk.conjugate(rk.DirectSumRepresentation([triv, sign, sign]), random_unitary(rng, 3))
    report = rk.decompose(rep, rule)
    assert sorted(b.degree for b in report.blocks) == [1, 1, 1]
    chars = sorted(tuple(np.round(c.values.real, 8)) for c in report.block_characters)
    assert chars == [(1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
    assert report.residual <= 1e-8


def test_decompose_conjugated_spin_sum(su2, su2_rule):
    rng = np.random.default_rng(7)
    base = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    rep = rk.conjugate(base, random_invertible(rng, 5, diag_boost=3.0))
    report = rk.decompose(rep, su2_rule)
    assert sorted(b.degree for b in report.blocks) == [2, 3]
    t = 2.0 * np.arccos(np.clip(np.einsum("nii->n", su2_rule.nodes).real / 2.0, -1.0, 1.0))
    for block, char in zip(report.blocks, report.block_characters):
        expected = 2.0 * np.cos(t / 2.0) if block.degree == 2 else 1.0 + 2.0 * np.cos(t)
        assert np.abs(char.values - expected).max() <= 1e-8
    # character sum and degree sum invariants
    total = rk.character(rep, su2_rule).values
    assert np.abs(np.sum([c.values for c in report.block_characters], axis=0) - total).max() <= 1e-8
    assert sum(b.degree for b in report.blocks) == rep.degree


def test_decompose_shared_unitary_basis_change(z2):
    # the returned P works for every element simultaneously
    rule = rk.haar_rule(z2, 1)
    rep = premixed_z2(z2, seed=8)
    report = rk.decompose(rep, rule)
    P_inv = np.linalg.inv(report.P)
    for g in z2.elements():
        full = report.P @ rep.evaluate(g) @ P_inv
        assert np.abs(full - np.diag(np.diag(full))).max() <= 1e-10


def spin_character(two_j, rule):
    t = 2.0 * np.arccos(np.clip(np.einsum("nii->n", rule.nodes).real / 2.0, -1.0, 1.0))
    return sum(np.cos((two_j / 2.0 - k) * t) for k in range(two_j + 1))


def test_decompose_multiplicity_two_su2(su2, su2_rule):
    rng = np.random.default_rng(13)
    base = rk.DirectSumRepresentation(
        [rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)])
    rep = rk.conjugate(base, random_invertible(rng, 7, diag_boost=3.0))
    report = rk.decompose(rep, su2_rule)
    assert sorted(b.degree for b in report.blocks) == [2, 2, 3]
    for block, char in zip(report.blocks, report.block_characters):
        assert np.abs(char.values - spin_character(block.degree - 1, su2_rule)).max() <= 1e-8
    assert report.residual <= 1e-8


def s4_regular():
    """The regular representation of S4 and its exact rule."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])
    s4 = rk.FiniteGroup(table)
    mats = np.zeros((24, 24, 24), dtype=complex)
    for g in range(24):
        mats[g, table[g], np.arange(24)] = 1.0
    return rk.FiniteTableRepresentation(s4, mats), rk.haar_rule(s4, 1)


def test_decompose_s4_regular():
    report = rk.decompose(*s4_regular())
    assert sorted(b.degree for b in report.blocks) == [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]
    assert report.residual <= 1e-12


def test_decompose_computes_no_commutant(su2, su2_rule, monkeypatch):
    # one averaged seed splits the input: no r^2 x r^2 commutant is formed
    calls = []
    original = rk.schur.commutant

    def counting(*args, **kwargs):
        calls.append(args[0].degree)
        return original(*args, **kwargs)

    monkeypatch.setattr(rk.schur, "commutant", counting)
    rep = rk.DirectSumRepresentation(
        [rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2), rk.spin_irrep(1.5, su2)])
    report = rk.decompose(rep, su2_rule)
    assert sorted(b.degree for b in report.blocks) == [2, 3, 4]
    with pytest.raises(rk.AlreadyIrreducibleError):
        rk.split_once(rk.spin_irrep(1.5, su2), su2_rule)
    assert calls == []


def test_decompose_blocks_project_the_input(su2, su2_rule):
    # every block, over every group kind, is one projection of the input:
    # no nested block chains and no re-tabulated finite blocks
    rng = np.random.default_rng(14)
    base = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    su2_rep = rk.conjugate(base, random_invertible(rng, 5, diag_boost=3.0))
    s4_rep, s4_rule = s4_regular()
    for rep, rule, count in ((su2_rep, su2_rule, 2), (s4_rep, s4_rule, 10)):
        report = rk.decompose(rep, rule)
        assert len(report.blocks) == count
        assert all(isinstance(block, rk.representations.BlockRepresentation) and block.parent is rep
                   for block in report.blocks)
        # one basis-change body: each block conjugates by the slices of P and
        # P^-1 it keeps (``_split`` returns the P^-1 the blocks were built with)
        P_inv = rk.schur._split(rep, rule)[1]
        for block in report.blocks:
            sl = slice(block.offset, block.offset + block.degree)
            assert isinstance(block, rk.ConjugatedRepresentation) and block.inner is rep
            assert block.matrix.tobytes() == report.P[sl].tobytes()
            assert block.matrix_inv.tobytes() == P_inv[:, sl].tobytes()
    assert "evaluate_batch" not in vars(rk.representations.BlockRepresentation)


def test_split_once_and_decompose_share_p(z2, su2, su2_rule):
    rng = np.random.default_rng(16)
    conjugated = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                              random_invertible(rng, 5, diag_boost=3.0))
    for rep, rule in ((premixed_z2(z2), rk.haar_rule(z2, 1)), (conjugated, su2_rule)):
        P, _ = rk.split_once(rep, rule)
        assert P.tobytes() == rk.decompose(rep, rule).P.tobytes()


@pytest.mark.parametrize("unitary", [True, False])
def test_decompose_audits_once_and_never_unitarizes(z2, su2, su2_rule, monkeypatch, unitary):
    # one route: audit the rule nodes once, until a chunk fails, average the
    # form only when the audit fails, never call unitarize, and compute no
    # commutant
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = []

        def counting(*args):
            calls[name].append(args)
            return original(*args)
        monkeypatch.setattr(module, name, counting)

    count(rk.unitarization, "unitarize")
    count(rk.unitarization, "unitarity_defect")
    count(rk.unitarization, "invariant_gram")
    count(rk.schur, "commutant")
    if unitary:
        rep, rule = premixed_z2(z2), rk.haar_rule(z2, 1)
    else:
        rng = np.random.default_rng(7)
        rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                           random_invertible(rng, 5, diag_boost=3.0))
        rule = su2_rule
    rk.decompose(rep, rule)
    assert calls["unitarize"] == []
    # every node on unitary input; this input fails on its first chunk
    audited = sum(len(args[0]) for args in calls["unitarity_defect"])
    assert audited == (rule.node_count if unitary else rk.representations.EVAL_CHUNK)
    assert len(calls["invariant_gram"]) == (0 if unitary else 1)
    assert calls["commutant"] == []


def test_split_diagonalizes_the_whole_stack_average(su2, su2_rule, monkeypatch):
    # reference: T(X) = sum of w_n W_n X W_n^* over the whole stack at once,
    # for the seed the split draws; the chunked split must diagonalize it,
    # with one eigenvalue per block (two equivalent copies of spin 1/2 get
    # distinct ones), on a rule of 16 node chunks.  The seed the split reads
    # is the one averaging contraction of the pairs (W^T, (W X)^T) over the
    # whole stack, transposed, to the byte
    rep = rk.DirectSumRepresentation(
        [rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)])
    W = rep.evaluate_batch(su2_rule.nodes)
    g = np.random.default_rng(rk.schur.SPLIT_SEED).standard_normal((2, 7, 7))
    X = g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T
    reference = np.tensordot(su2_rule.weights, W @ X @ W.conj().transpose(0, 2, 1), axes=(0, 0))
    seeds, original = [], rk.schur._split_unitary_fully

    def reading(T, X):
        seeds.append((T, X))
        return original(T, X)

    monkeypatch.setattr(rk.schur, "_split_unitary_fully", reading)
    rk.decompose(rep, su2_rule)
    (T, seed_X), = seeds
    assert np.array_equal(seed_X, X)
    one = rk.groups.integrate_product(su2_rule, W.transpose(0, 2, 1), (W @ X).transpose(0, 2, 1)).T
    assert T.tobytes() == one.tobytes()
    Q, sizes = original(T, X)
    assert sorted(sizes) == [2, 2, 3]
    D = Q @ reference @ Q.conj().T
    assert np.abs(D - np.diag(np.diag(D))).max() <= 1e-12 * np.linalg.norm(X, 2)
    values = np.split(np.diag(D).real, np.cumsum(sizes)[:-1])
    assert max(np.ptp(v) for v in values) <= 1e-12 * np.linalg.norm(X, 2)
    assert min(np.diff(sorted(v[0] for v in values))) > 1e-3 * np.linalg.norm(X, 2)


@pytest.mark.memory
def test_decompose_runs_the_seed_in_node_chunks(su2):
    # no node stack: the averaged form, the seed, the block characters and
    # the leakage are read in passes of evaluation chunks, each in the basis
    # it needs, on a rule of 13.5 chunks.  The rule is built, and one
    # untraced call made, first: what they import or cache once per process
    # is not held by the call
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(1.5, su2), rk.spin_irrep(2, su2)),
                       np.diag(np.arange(1.0, 10.0)))
    rule = rk.haar_rule(su2, 24)
    rk.decompose(rep, rule)
    report, peak = traced_peak(lambda: rk.decompose(rep, rule))
    assert sorted(b.degree for b in report.blocks) == [4, 5]
    assert peak <= CHUNKS_HELD * chunk_bytes(rep.degree)


@pytest.mark.memory
@pytest.mark.parametrize("call", [
    rk.unitarize,
    rk.irreducibility_test,
    lambda rep, rule: rk.orthogonality_audit([rep], rule),
], ids=["unitarize", "irreducibility_test", "orthogonality_audit"])
def test_unitarizing_calls_hold_one_stack(su2, call):
    # on non-unitary input: each pass, in the input's basis or the unitary
    # one, holds one chunk buffer, so no call holds a stack
    rep = rk.conjugate(rk.spin_irrep(4.5, su2), random_invertible(np.random.default_rng(1), 10))
    rule = rk.haar_rule(su2, 24)
    _, peak = traced_peak(lambda: call(rep, rule))
    assert peak <= CHUNKS_HELD * chunk_bytes(rep.degree)


def test_decompose_repeats_bytewise(s3):
    rng = np.random.default_rng(15)
    rep = rk.conjugate(rk.DirectSumRepresentation(
        [rk.s3_standard(s3), rk.s3_standard(s3), rk.s3_sign(s3)]), random_invertible(rng, 5))
    rule = rk.haar_rule(s3, 1)
    assert rk.decompose(rep, rule).P.tobytes() == rk.decompose(rep, rule).P.tobytes()


def test_decompose_refuses_under_resolved_rule(su2):
    # on the 512-node rule the unitarized rep has commutant dimension 13 but
    # character norm 2: the rule cannot resolve it
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                       np.diag([1.0, 2.0, 1.0, 1.0, 3.0]))
    with pytest.raises(rk.NotIrreducibleError, match="resolution 8"):
        rk.decompose(rep, rk.haar_rule(su2, 8))


def test_decompose_refusal_names_the_basis_conditioning(su2, su2_rule):
    # the default rule splits this sum under condition-1e4 and 1e6 basis
    # changes but not under 1e8: the refusal reports cond(A) next to the rule
    def conjugated(kappa):
        rng = np.random.default_rng(0)
        U = [np.linalg.qr(random_complex(rng, (5, 5)))[0] for _ in range(2)]
        basis = U[0] @ np.diag(np.geomspace(1.0, kappa, 5)) @ U[1]
        return rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)), basis)

    assert sorted(b.degree for b in rk.decompose(conjugated(1e4), su2_rule).blocks) == [2, 3]
    report = rk.decompose(conjugated(1e6), su2_rule)
    assert sorted(b.degree for b in report.blocks) == [2, 3]
    for char in report.block_characters:
        norm = rk.groups.integrate_values(su2_rule, np.abs(char.values) ** 2).real
        assert abs(norm - 1.0) <= 1e-7
    assert report.residual <= 1e-4
    with pytest.raises(rk.NotIrreducibleError, match="resolution 16") as refusal:
        rk.decompose(conjugated(1e8), su2_rule)
    kappa = float(re.search(r"condition number ([0-9.e+]+)", str(refusal.value)).group(1))
    assert 1e7 < kappa < 1e9


@pytest.mark.parametrize("two_j, resolution", [(10, 16), (12, 24)])
def test_decompose_refuses_under_resolved_high_spin(su2, two_j, resolution):
    # an irreducible whose products the rule cannot integrate: the averaged
    # seed is not scalar, and its noise blocks are refused, not returned
    rule = rk.haar_rule(su2, resolution)
    with pytest.raises(rk.NotIrreducibleError, match=f"resolution {resolution} "):
        rk.decompose(rk.SpinRepresentation(su2, two_j), rule)


def test_decompose_groups_isotypic_classes(su2, su2_rule):
    # 1/2 + 1/2 + 1 under a non-unitary basis: blocks [2, 2, 3], and the
    # character inner products put the two degree-2 blocks in one class of
    # multiplicity 2, so the squared multiplicities sum to 4 + 1 = 5
    rng = np.random.default_rng(17)
    base = rk.DirectSumRepresentation(
        [rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)])
    rep = rk.conjugate(base, random_invertible(rng, 7, diag_boost=3.0))
    report = rk.decompose(rep, su2_rule)
    assert sorted(b.degree for b in report.blocks) == [2, 2, 3]
    inner = np.array([[rk.character_inner(a, b, su2_rule) for b in report.block_characters]
                      for a in report.block_characters])
    degrees = np.array([b.degree for b in report.blocks])
    assert np.abs(inner - (degrees[:, None] == degrees[None, :])).max() <= 1e-8
    norm = rk.character_inner(rk.character(rep, su2_rule), rk.character(rep, su2_rule), su2_rule)
    assert abs(norm - 5.0) <= 1e-8


def test_irreducible_input_gives_one_block(su2, su2_rule):
    # spin 3/2 under a non-unitary basis: the averaged seed is scalar
    rng = np.random.default_rng(18)
    rep = rk.conjugate(rk.spin_irrep(1.5, su2), random_invertible(rng, 4, diag_boost=3.0))
    report = rk.decompose(rep, su2_rule)
    assert [b.degree for b in report.blocks] == [4]
    assert report.residual == 0.0
    assert np.abs(report.block_characters[0].values - spin_character(3, su2_rule)).max() <= 1e-8
    with pytest.raises(rk.AlreadyIrreducibleError):
        rk.split_once(rep, su2_rule)


def test_decompose_refuses_inconsistent_multiplicities(monkeypatch):
    # a split of the six characters of Z6 into three blocks that each carry
    # half of four of them: every block's character norm is 1, but each
    # pair has inner product 1/2, so no isotypic grouping gives the
    # character norm 6 of the whole
    z6 = rk.cyclic_group(6)
    rep = rk.cyclic_phase_rep(z6, range(6))
    s = np.sqrt(0.5)
    Q = np.zeros((6, 6))
    for row, (i, j, sign) in enumerate([(0, 1, 1), (2, 3, 1), (0, 1, -1),
                                        (4, 5, 1), (2, 3, -1), (4, 5, -1)]):
        Q[row, i], Q[row, j] = s, sign * s
    monkeypatch.setattr(rk.schur, "_split_unitary_fully", lambda T, X: (Q.astype(complex), [2, 2, 2]))
    with pytest.raises(rk.NotIrreducibleError, match="multiplicities .* character norm is 6") as refusal:
        rk.decompose(rep, rk.haar_rule(z6, 1))
    assert "resolution 1" in str(refusal.value) and "condition number 1" in str(refusal.value)
    with pytest.raises(rk.NotIrreducibleError, match="multiplicities"):
        rk.split_once(rep, rk.haar_rule(z6, 1))


def test_decompose_refuses_reducible_block(su2, su2_rule, monkeypatch):
    # a split that merges two irreducibles has a block of character norm 2
    original = rk.schur._split_unitary_fully

    def merging(T, X):
        Q, sizes = original(T, X)
        return Q, [sizes[0] + sizes[1], *sizes[2:]]

    monkeypatch.setattr(rk.schur, "_split_unitary_fully", merging)
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    with pytest.raises(rk.NotIrreducibleError, match="block of degree 5"):
        rk.decompose(rep, su2_rule)


# --- character inner products -------------------------------------------------

def test_character_inner_trivial(z2, circle, circle_rule):
    rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    c = rk.character(triv, rule)
    assert rk.character_inner(c, c, rule) == 1.0
    ctriv = rk.character(rk.CircleWeightRepresentation(circle, [0]), circle_rule)
    assert rk.character_inner(ctriv, ctriv, circle_rule) == 1.0


def test_character_inner_z2_orthogonal(z2):
    rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    sign = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    inner = rk.character_inner(rk.character(triv, rule), rk.character(sign, rule), rule)
    assert inner == 0.0  # (1*1 + 1*(-1)) / 2


def test_character_inner_s3_standard_norm(s3):
    rule = rk.haar_rule(s3, 1)
    char = rk.character(rk.s3_standard(s3), rule)
    assert np.allclose(char.values.real, [2, 0, 0, 0, -1, -1], atol=1e-14)
    inner = rk.character_inner(char, char, rule)
    assert inner == 1.0  # exact six-term sum (4+0+0+0+1+1)/6


def test_character_inner_rule_mismatch(circle):
    r1 = rk.haar_rule(circle, 16)
    r2 = rk.haar_rule(circle, 32)
    c1 = rk.character(rk.CircleWeightRepresentation(circle, [1]), r1)
    c2 = rk.character(rk.CircleWeightRepresentation(circle, [1]), r2)
    with pytest.raises(rk.RuleMismatchError):
        rk.character_inner(c1, c2, r1)


def test_character_inner_refuses_a_rule_on_other_nodes(circle):
    # same group, resolution and weights; only the nodes differ
    angles = 2 * np.pi * np.arange(3) / 3
    r1, r2 = (rk.HaarRule(group=circle, nodes=nodes, weights=np.full(3, 1 / 3), resolution=3)
              for nodes in (angles, angles + 0.1))
    rep = rk.CircleWeightRepresentation(circle, [1])
    with pytest.raises(rk.RuleMismatchError):
        rk.character_inner(rk.character(rep, r1), rk.character(rep, r2), r1)
    assert r1.same_rule(r1) and not r1.same_rule(r2)


# --- orthogonality audits ----------------------------------------------------

def test_orthogonality_circle_weights(circle, circle_rule):
    reps = [rk.CircleWeightRepresentation(circle, [k]) for k in (0, 1, 2)]
    residual = rk.orthogonality_audit(reps, circle_rule)
    assert residual.max() <= 1e-12


def test_orthogonality_s3(s3):
    rule = rk.haar_rule(s3, 1)
    residual = rk.orthogonality_audit(rk.s3_irreps(s3), rule)
    assert residual.max() <= 1e-12


def test_orthogonality_su2_spins(su2, su2_rule):
    reps = [rk.spin_irrep(j, su2) for j in (0, 0.5, 1)]
    residual = rk.orthogonality_audit(reps, su2_rule)
    assert residual.max() <= 1e-6
    # quadrature oracle: the resolution-64 Gram matrix agrees entrywise
    fine = rk.haar_rule(su2, 64)
    chars_coarse = [rk.character(r, su2_rule) for r in reps]
    chars_fine = [rk.character(r, fine) for r in reps]
    for i in range(3):
        for j in range(3):
            coarse = rk.character_inner(chars_coarse[i], chars_coarse[j], su2_rule)
            fine_v = rk.character_inner(chars_fine[i], chars_fine[j], fine)
            assert abs(coarse - fine_v) <= 1e-8



@pytest.mark.parametrize("case", ["su2 spins 0-6", "s3 irreps"])
def test_orthogonality_audit_equals_per_pair_character_inner_bytewise(su2, s3, case):
    # every inner product is correctly rounded on its own, so summing all n^2
    # in one batch changes no bit of the residual matrix
    if case == "s3 irreps":
        rule, reps = rk.haar_rule(s3, 1), rk.s3_irreps(s3)
    else:
        rule, reps = rk.haar_rule(su2, 12), [rk.spin_irrep(j, su2) for j in range(7)]
    chars = [rk.character(rep, rule) for rep in reps]
    expected = np.array([[abs(rk.character_inner(a, b, rule) - (1.0 if i == j else 0.0))
                          for j, b in enumerate(chars)] for i, a in enumerate(chars)])
    assert rk.orthogonality_audit(reps, rule).tobytes() == expected.tobytes()


def test_orthogonality_single_trivial(circle, circle_rule):
    residual = rk.orthogonality_audit([rk.CircleWeightRepresentation(circle, [0])], circle_rule)
    assert residual[0, 0] == 0.0


def test_orthogonality_rejects_reducible(z2):
    rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    with pytest.raises(rk.NotIrreducibleError):
        rk.orthogonality_audit([rk.direct_sum(triv, triv)], rule)


# --- matrix-element orthogonality ---------------------------------------------

def test_matrix_element_trivial_weight(circle, circle_rule):
    rep = rk.CircleWeightRepresentation(circle, [1])
    assert rk.matrix_element_audit(rep, circle_rule) <= 1e-15


def test_matrix_element_spin_half(su2, su2_rule):
    deviation = rk.matrix_element_audit(rk.spin_irrep(0.5, su2), su2_rule)
    assert deviation <= 1e-8
    # diagonal entries hit 1/r = 0.5
    rep = rk.spin_irrep(0.5, su2)
    flat = rep.evaluate_batch(su2_rule.nodes).reshape(su2_rule.node_count, 4)
    for p in range(4):
        diag = rk.groups.integrate_values(su2_rule, flat[:, p] * np.conj(flat[:, p]))
        assert abs(diag - 0.5) <= 1e-8


def test_matrix_element_s3_standard(s3):
    rule = rk.haar_rule(s3, 1)
    assert rk.matrix_element_audit(rk.s3_standard(s3), rule) <= 1e-12


def test_matrix_element_rejects_reducible(su2, su2_rule):
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    with pytest.raises(rk.NotIrreducibleError):
        rk.matrix_element_audit(rep, su2_rule)


# --- multiplicities ----------------------------------------------------------

def test_multiplicity_self(su2, su2_rule):
    rep = rk.spin_irrep(1, su2)
    assert rk.multiplicity(rep, rep, su2_rule) == 1


def test_multiplicity_two(su2, su2_rule):
    rep = rk.DirectSumRepresentation(
        [rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)])
    assert rk.multiplicity(rep, rk.spin_irrep(0.5, su2), su2_rule) == 2
    assert rk.multiplicity(rep, rk.spin_irrep(1, su2), su2_rule) == 1


def test_multiplicity_zero(su2, su2_rule):
    assert rk.multiplicity(rk.spin_irrep(1, su2), rk.spin_irrep(0.5, su2), su2_rule) == 0


def test_multiplicity_rejects_under_resolved(su2):
    # resolution 1 cannot resolve the character integrals
    coarse = rk.haar_rule(su2, 1)
    rep = rk.spin_irrep(1, su2)
    with pytest.raises((rk.NonIntegerMultiplicityError, rk.NotIrreducibleError)):
        rk.multiplicity(rep, rk.spin_irrep(0.5, su2), coarse)


# --- report schemas ------------------------------------------------------------

def test_commutant_report_json_schema(su2, su2_rule):
    report = rk.commutant(rk.spin_irrep(0.5, su2), su2_rule)
    data = report.to_json_dict()
    assert data["dimension"] == 1
    assert np.asarray(data["basis"][0]).shape == (2, 2, 2)  # rows of [re, im] pairs
    assert data["max_residual"] <= 1e-10
    assert abs(data["character_norm"] - 1.0) <= 1e-8


def test_decomposition_report_json_schema(z2):
    rule = rk.haar_rule(z2, 1)
    rep = premixed_z2(z2, seed=12)
    data = rk.decompose(rep, rule).to_json_dict()
    assert data["block_degrees"] == [1, 1]
    assert len(data["block_characters"]) == 2
    assert len(data["block_characters"][0]) == 2  # one [re, im] pair per node
    assert np.asarray(data["P"]).shape == (2, 2, 2)
