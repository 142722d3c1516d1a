import tracemalloc

import numpy as np
import pytest

import repkit as rk

from conftest import CHUNKS_HELD, chunk_bytes, invariant_form_dim_bruteforce, random_invertible, traced_peak


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


def test_unitarize_decomposes_the_averaged_form_once(su2, su2_rule, monkeypatch):
    # one eigvalsh of the averaged form gives its definiteness and the
    # conditioning of its Cholesky factor A; A^-1 is the inverse of the
    # triangular factor, with no SVD singularity check; the fixed space
    # behind d is read by Rayleigh-Ritz blocks smaller than the r^2 x r^2
    # map, with no eigensolve of the map itself
    rng = np.random.default_rng(23)
    mixed = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                         random_invertible(rng, 5))
    calls = []

    def counting(name, original):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)
        return wrapped

    for name in ("eigvalsh", "eigh", "svd", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    result = rk.unitarize(mixed, su2_rule)
    assert calls == [("eigvalsh", (5, 5)), ("cholesky", (5, 5)), ("inv", (5, 5))]
    calls.clear()
    report = rk.specialness_report(mixed, su2_rule)
    assert report.d == 2
    assert calls[:3] == [("eigvalsh", (5, 5)), ("cholesky", (5, 5)), ("inv", (5, 5))]
    assert calls[-1] == ("eigvalsh", (2, 5, 5))
    assert calls[3:-1] and all(name == "eigh" and shape[-1] < 25 for name, shape in calls[3:-1])
    monkeypatch.undo()
    # the same factor and inverse, to the byte, as the Cholesky of the
    # averaged form and its checked inverse
    A = rk.cholesky_hermitian(rk.averaged_form(mixed, su2_rule).gram)
    assert result.basis_change.tobytes() == A.tobytes()
    assert result.unitary_rep.matrix_inv.tobytes() == rk.linalg.invert(A).tobytes()
    assert report.unitarization.basis_change.tobytes() == A.tobytes()


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


def test_invariant_form_space_one_eigh(z2, s3, monkeypatch):
    # d and the commutant are read off one real symmetric eigensolve, after
    # passes at the rule nodes (one for the map of a unitary input, one more
    # for its unitary basis otherwise, and one more for the commutant's
    # residual) and none at their inverses, with no
    # SVD at all: at degree 2 the Rayleigh-Ritz block is the whole space of
    # the averaging map, so one step reads it; on a trivial rep the map is
    # the identity and every form is invariant (d = r^2)
    eighs, svds, evaluated = [], [], []
    original_eigh, original_svd = np.linalg.eigh, np.linalg.svd
    original_evaluate = rk.FiniteTableRepresentation.evaluate_batch

    def counting_eigh(*args, **kwargs):
        eighs.append((args[0].shape, args[0].dtype))
        return original_eigh(*args, **kwargs)

    def counting_svd(*args, **kwargs):
        svds.append((args[0].shape, args[0].dtype))
        return original_svd(*args, **kwargs)

    def recording(self, nodes, out=None):
        evaluated.append(nodes)
        return original_evaluate(self, nodes, out)

    def check(call, rep, rule, passes):
        eighs.clear()
        svds.clear()
        evaluated.clear()
        answer = call(rep, rule)
        assert eighs == [((4, 4), np.float64)]
        assert svds == []
        assert len(evaluated) == passes and all(np.shares_memory(nodes, rule.nodes) for nodes in evaluated)
        return answer[1] if call is rk.invariant_form_space else answer.dimension

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(rk.FiniteTableRepresentation, "evaluate_batch", recording)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(2, dtype=complex)] * 2))
    for rep, rule, expected in ((triv, rk.haar_rule(z2, 1), 4),
                                (rk.s3_standard(s3), rk.haar_rule(s3, 1), 1)):
        for call, passes in ((rk.invariant_form_space, 1), (rk.commutant, 2)):
            assert check(call, rep, rule, passes) == expected
    # a non-unitary input: the one real eigensolve is still the only one
    # (the unitarizing factor's definiteness and conditioning are read off
    # the eigenvalues of the averaged form)
    rule = rk.haar_rule(s3, 1)
    mixed = rk.FiniteTableRepresentation(
        s3, rk.conjugate(rk.s3_standard(s3), np.array([[2.0, 1.0], [0.0, 1.0]])).evaluate_batch(rule.nodes))
    for call, passes in ((rk.invariant_form_space, 2), (rk.commutant, 3)):
        assert check(call, mixed, rule, passes) == 1


def test_unitarizing_factor_refusals_keep_their_threshold(z2):
    # Z2 with rho(s) = [[1, -2t], [0, -1]]: the averaged form has condition
    # number about 4 t^2, so its Cholesky factor about 2 t, and the factor is
    # refused as singular once that passes 1 / KERNEL_TOL
    rule = rk.haar_rule(z2, 1)

    def rep(t):
        return rk.FiniteTableRepresentation(z2, np.array([np.eye(2), [[1, -2 * t], [0, -1]]], dtype=complex))

    for call in (rk.invariant_form_space, rk.commutant, rk.unitarize, rk.specialness_report):
        call(rep(3e11), rule)
        with pytest.raises(rk.SingularMatrixError, match="condition estimate 2.000e"):
            call(rep(1e12), rule)


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


@pytest.mark.memory
@pytest.mark.parametrize("call", [rk.commutant, rk.invariant_form_space])
def test_fixed_space_holds_two_stacks(su2, call):
    # no node stack: the averaging map is summed over passes of evaluation
    # chunks, one GEMM per sub-chunk against a weighted conjugate of it,
    # and the commutation residual is read in one more pass
    rng = np.random.default_rng(1)
    rep = rk.conjugate(rk.spin_irrep(4.5, su2), np.linalg.qr(rng.normal(size=(10, 10)))[0])
    rule = rk.haar_rule(su2, 24)
    _, peak = traced_peak(lambda: call(rep, rule))
    assert peak <= CHUNKS_HELD * chunk_bytes(rep.degree)


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


@pytest.mark.memory
def test_invariant_gram_holds_one_stack_sized_temporary(su2, su2_rule):
    # the averaged form is one GEMM per node sub-chunk against a weighted
    # conjugate of that sub-chunk: sub-chunk-sized temporaries, no copy of
    # the stack
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(1.5, su2), rk.spin_irrep(2, su2)),
                       np.diag(np.arange(1.0, 10.0)))
    mats = rep.evaluate_batch(su2_rule.nodes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        H, w = rk.unitarization.invariant_gram(rk.groups.integrate_product(su2_rule, mats, mats))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * mats.nbytes
    reference = np.tensordot(su2_rule.weights, mats.conj().transpose(0, 2, 1) @ mats, axes=(0, 0))
    assert np.abs(H - reference).max() <= 1e-12
    assert np.array_equal(w, np.linalg.eigvalsh(H)) and w[0] > 0


def test_input_that_fails_the_audit_after_its_first_chunk_sums_its_gram_in_one_more_pass(su2):
    # the first evaluation chunk of nodes is the identity, where every
    # conjugate of a representation is unitary, so the audit fails only on
    # the second chunk: the averaged Gram then takes a pass of its own, and
    # the unitarizing factor is that of one contraction of the whole stack
    chunk = rk.representations.EVAL_CHUNK
    fine = rk.haar_rule(su2, 12)
    nodes = np.concatenate([np.broadcast_to(np.eye(2, dtype=complex), (chunk, 2, 2)), fine.nodes])
    weights = np.r_[np.full(chunk, 0.5 / chunk), 0.5 * fine.weights]
    rule = rk.HaarRule(group=su2, nodes=nodes, weights=weights, resolution=12)
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)),
                       random_invertible(np.random.default_rng(6), 5))
    maps, basis = rk.unitarization._unitary(rep, rule, lambda _: rk.unitarization._AveragingMap(rule))
    stack = rep.evaluate_batch(rule.nodes)
    gram = rk.unitarization.invariant_gram(rk.groups.integrate_product(rule, stack, stack))
    assert basis[0].tobytes() == rk.unitarization._cholesky_pair(*gram)[0].tobytes()
    assert len(rk.unitarization.fixed_hermitian(maps)[0]) == 2
