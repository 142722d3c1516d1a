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
    # d is read off one SVD of the defect; on a trivial rep the defect is
    # exactly zero and every form is invariant (d = r^2)
    svds = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        svds.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(2, dtype=complex)] * 2))
    for rep, rule, expected in ((triv, rk.haar_rule(z2, 1), 4),
                                (rk.s3_standard(s3), rk.haar_rule(s3, 1), 1)):
        svds.clear()
        forms, d = rk.invariant_form_space(rep, rule)
        assert d == expected and len(forms) == expected
        assert svds == [(4, 4)]


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
