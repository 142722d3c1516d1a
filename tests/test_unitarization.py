import tracemalloc

import numpy as np
import pytest

import repkit as rk

from conftest import invariant_form_dim_bruteforce, random_invertible


def z2_involution_rep(z2):
    M = np.array([[0.0, 2.0], [0.5, 0.0]], dtype=complex)
    return rk.FiniteTableRepresentation(z2, np.stack([np.eye(2, dtype=complex), M]))


def test_averaged_form_already_unitary(s3):
    rule = rk.haar_rule(s3, 1)
    form = rk.averaged_form(rk.s3_standard(s3), rule)
    assert np.abs(form.gram - np.eye(2)).max() <= 1e-10
    assert form.invariance_residual <= 1e-12


def test_averaged_form_z2_hand_oracle(z2):
    # two-term average of rho(x)* rho(x): H = (I + M*M)/2 = diag(5/8, 5/2)
    rule = rk.haar_rule(z2, 1)
    form = rk.averaged_form(z2_involution_rep(z2), rule)
    assert np.abs(form.gram - np.diag([5.0 / 8.0, 5.0 / 2.0])).max() <= 1e-15
    assert form.definiteness > 0


def test_averaged_form_invariance_conjugated_circle(circle):
    rule = rk.haar_rule(circle, 64)
    rep = rk.conjugate(rk.CircleWeightRepresentation(circle, [1, -1]),
                       np.array([[1.0, 1.0], [0.0, 1.0]]))
    form = rk.averaged_form(rep, rule)
    assert form.invariance_residual <= 1e-10


def test_averaged_form_group_mismatch(z2, z3):
    rep = z2_involution_rep(z2)
    with pytest.raises(rk.GroupMismatchError):
        rk.averaged_form(rep, rk.haar_rule(z3, 1))


def test_unitarize_unitary_input_is_identity_change(s3):
    rule = rk.haar_rule(s3, 1)
    result = rk.unitarize(rk.s3_standard(s3), rule)
    assert np.abs(result.basis_change - np.eye(2)).max() <= 1e-10
    assert result.unitarity_residual <= 1e-12


def test_unitarize_z2_hand_oracle(z2):
    rule = rk.haar_rule(z2, 1)
    result = rk.unitarize(z2_involution_rep(z2), rule)
    # A = diag(sqrt(5/8), sqrt(5/2)) turns M into the swap matrix
    out = result.unitary_rep.evaluate(1)
    assert np.abs(out - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-12
    assert result.unitarity_residual <= 1e-12


def test_unitarize_conjugated_z3(z3):
    rule = rk.haar_rule(z3, 1)
    rep = rk.conjugate(rk.cyclic_phase_rep(z3, [0, 1]), np.array([[1.0, 1.0], [0.0, 1.0]]))
    result = rk.unitarize(rep, rule)
    assert result.unitarity_residual <= 1e-10
    base = rk.character(rep, rule).values
    fixed = rk.character(result.unitary_rep, rule).values
    assert np.abs(base - fixed).max() <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_unitarize_random_conjugations_su2(su2, su2_rule, seed):
    rng = np.random.default_rng(100 + seed)
    rep = rk.spin_irrep(1, su2)
    mixed = rk.conjugate(rep, random_invertible(rng, 3))
    result = rk.unitarize(mixed, su2_rule)
    assert result.unitarity_residual <= 1e-5
    drift = np.abs(rk.character(mixed, su2_rule).values
                   - rk.character(result.unitary_rep, su2_rule).values).max()
    assert drift <= 1e-9


def test_unitarize_deterministic(su2, su2_rule):
    rng = np.random.default_rng(17)
    mixed = rk.conjugate(rk.spin_irrep(0.5, su2), random_invertible(rng, 2))
    first = rk.unitarize(mixed, su2_rule)
    second = rk.unitarize(mixed, su2_rule)
    assert np.array_equal(first.basis_change, second.basis_change)


def test_invariant_form_space_one_dimensional(z3, su2, su2_rule):
    rule = rk.haar_rule(z3, 1)
    forms, d = rk.invariant_form_space(rk.cyclic_phase_rep(z3, [1]), rule)
    assert d == 1
    assert np.abs(forms[0].gram.imag).max() <= 1e-12

    _, d_half = rk.invariant_form_space(rk.spin_irrep(0.5, su2), su2_rule)
    assert d_half == 1


def test_invariant_form_space_doubled_rep(su2, su2_rule):
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    forms, d = rk.invariant_form_space(rep, su2_rule)
    assert d == 4
    # brute-force oracle over the stacked linear system (on a small rule)
    small = rk.haar_rule(su2, 4)
    assert invariant_form_dim_bruteforce(rep, small) == 4
    # every basis element is genuinely invariant at the nodes
    mats = rep.evaluate_batch(su2_rule.nodes)
    for form in forms:
        defect = mats.conj().transpose(0, 2, 1) @ form.gram[None] @ mats - form.gram[None]
        assert np.abs(defect).max() <= 1e-7


def test_invariant_form_space_matches_bruteforce_on_finite(s3):
    rule = rk.haar_rule(s3, 1)
    for rep, expected in ((rk.s3_standard(s3), 1),
                          (rk.direct_sum(rk.s3_trivial(s3), rk.s3_sign(s3)), 2)):
        _, d = rk.invariant_form_space(rep, rule)
        assert d == expected
        assert invariant_form_dim_bruteforce(rep, rule) == expected


def test_invariant_form_space_one_svd(z2, s3, monkeypatch):
    # d and the commutant are read off one real SVD of the defect of the
    # averaging map, after one evaluation at the rule nodes and none at
    # their inverses; on a trivial rep the defect is exactly zero and every
    # form is invariant (d = r^2)
    svds, evaluated = [], []
    original_svd = np.linalg.svd
    original_evaluate = rk.FiniteTableRepresentation.evaluate_batch

    def counting_svd(*args, **kwargs):
        svds.append((args[0].shape, args[0].dtype))
        return original_svd(*args, **kwargs)

    def recording(self, nodes):
        evaluated.append(nodes)
        return original_evaluate(self, nodes)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(rk.FiniteTableRepresentation, "evaluate_batch", recording)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(2, dtype=complex)] * 2))
    for rep, rule, expected in ((triv, rk.haar_rule(z2, 1), 4),
                                (rk.s3_standard(s3), rk.haar_rule(s3, 1), 1)):
        for call in (rk.invariant_form_space, rk.commutant):
            svds.clear()
            evaluated.clear()
            answer = call(rep, rule)
            d = answer[1] if call is rk.invariant_form_space else answer.dimension
            assert d == expected
            assert svds == [((4, 4), np.float64)]
            assert len(evaluated) == 1 and evaluated[0] is rule.nodes
    # a non-unitary input: one real r^2 x r^2 SVD still reads the answer
    # (the unitarizing factor's inversion check takes an r x r one)
    rule = rk.haar_rule(s3, 1)
    mixed = rk.FiniteTableRepresentation(
        s3, rk.conjugate(rk.s3_standard(s3), np.array([[2.0, 1.0], [0.0, 1.0]])).evaluate_batch(rule.nodes))
    for call in (rk.invariant_form_space, rk.commutant):
        svds.clear()
        evaluated.clear()
        call(mixed, rule)
        assert [svd for svd in svds if svd[0] != (2, 2)] == [((4, 4), np.float64)]
        assert len(evaluated) == 1 and evaluated[0] is rule.nodes


def kappa_basis(rng, n, kappa):
    U = [np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for _ in range(2)]
    return U[0] @ np.diag(np.geomspace(1.0, kappa, n)) @ U[1]


@pytest.mark.parametrize("seed", range(3))
def test_dimensions_survive_an_ill_conditioned_basis(s3, su2, su2_rule, seed):
    # a raw-basis reading of the averaging map loses its gap at condition
    # number 1e4 (d came out 30, 3, 8 and 23); read in the unitary basis, d
    # and the commutant dimension are the Schur-lemma truths and agree
    regular = np.zeros((6, 6, 6), dtype=complex)
    for g, row in enumerate(s3.mult_table):
        regular[g, row, np.arange(6)] = 1.0
    s3_rule = rk.haar_rule(s3, 1)
    cases = [(rk.FiniteTableRepresentation(s3, regular), s3_rule, 6),
             (rk.s3_standard(s3), s3_rule, 1),
             (rk.spin_irrep(1, su2), su2_rule, 1),
             (rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)), su2_rule, 2)]
    rng = np.random.default_rng(seed)
    for rep, rule, truth in cases:
        conjugated = rk.conjugate(rep, kappa_basis(rng, rep.degree, 1e4))
        forms, d = rk.invariant_form_space(conjugated, rule)
        report = rk.commutant(conjugated, rule)
        assert (d, report.dimension) == (truth, truth)
        mats = conjugated.evaluate_batch(rule.nodes)
        for form in forms:
            defect = mats.conj().transpose(0, 2, 1) @ form.gram[None] @ mats - form.gram[None]
            assert np.abs(defect).max() <= 1e-7 * np.abs(form.gram).max()


@pytest.mark.parametrize("call", [rk.commutant, rk.invariant_form_space])
def test_fixed_space_holds_two_stacks(su2, call):
    # the averaging map is one GEMM against a weighted conjugate built in
    # place: the input's stack and that one temporary, not a conjugate copy
    # plus a weighted copy of it on top
    rng = np.random.default_rng(1)
    rep = rk.conjugate(rk.spin_irrep(4.5, su2), np.linalg.qr(rng.normal(size=(10, 10)))[0])
    rule = rk.haar_rule(su2, 24)
    stack_bytes = rule.node_count * rep.degree ** 2 * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(rep, rule)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * stack_bytes


def test_averaged_form_fixed_by_averaging(circle):
    # the averaged form is itself a fixed point of the averaging map
    rule = rk.haar_rule(circle, 32)
    rep = rk.conjugate(rk.CircleWeightRepresentation(circle, [2, -1]),
                       np.array([[2.0, 1.0], [0.5, 1.0]]))
    form = rk.averaged_form(rep, rule)
    mats = rep.evaluate_batch(rule.nodes)
    stacked = mats.conj().transpose(0, 2, 1) @ form.gram[None] @ mats
    averaged_again = rk.groups.integrate_stacked(rule, stacked)
    assert np.abs(averaged_again - form.gram).max() <= 1e-10


def test_specialness_report(su2, su2_rule):
    report = rk.specialness_report(rk.spin_irrep(1, su2), su2_rule)
    assert report.special and report.d == 1

    doubled = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    report = rk.specialness_report(doubled, su2_rule)
    assert not report.special and report.d == 4

    trivial = rk.spin_irrep(0, su2)
    assert rk.specialness_report(trivial, su2_rule).special


def test_invariant_gram_holds_one_stack_sized_temporary(su2, su2_rule):
    # the averaged form is one GEMM against a weighted conjugate of the
    # stack: one temporary the size of the stack, not a conjugate copy
    # plus a weighted copy of it
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(1.5, su2), rk.spin_irrep(2, su2)),
                       np.diag(np.arange(1.0, 10.0)))
    mats = rep.evaluate_batch(su2_rule.nodes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        H, lowest = rk.unitarization.invariant_gram(su2_rule, mats)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * mats.nbytes
    reference = np.tensordot(su2_rule.weights, mats.conj().transpose(0, 2, 1) @ mats, axes=(0, 0))
    assert np.abs(H - reference).max() <= 1e-12
    assert lowest > 0
