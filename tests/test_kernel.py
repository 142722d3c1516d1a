"""The averaging contraction and the code routed through it.

References here are built without ``integrate_product``: node sums go
through ``numpy.tensordot`` and the invariant-form map is assembled one
Hermitian basis element at a time, as the per-basis implementation did.
"""

import numpy as np
import pytest

import repkit as rk
from repkit.groups import integrate_product
from repkit.schur import _commutation_residual


def _rules_and_reps(s3, circle, su2):
    return [
        (rk.haar_rule(s3, 1), rk.s3_standard(s3)),
        (rk.haar_rule(circle, 16),
         rk.conjugate(rk.CircleWeightRepresentation(circle, [2, -1, 0]),
                      np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.3, 1.0]]))),
        (rk.haar_rule(su2, 8), rk.spin_irrep(1, su2)),
    ]


def test_outer_contraction_matches_tensordot(s3, circle, su2):
    for rule, rep in _rules_and_reps(s3, circle, su2):
        n, r = rule.node_count, rep.degree
        X = rep.evaluate_batch(rule.nodes).reshape(n, r * r)
        Y = rep.evaluate_batch(rule.group.invert_nodes(rule.nodes)).reshape(n, r * r)
        got = integrate_product(rule, X[:, None, :], Y[:, None, :].conj())
        ref = np.tensordot(rule.weights, X[:, :, None] * Y[:, None, :].conj(), axes=(0, 0))
        assert np.abs(got - ref).max() <= 1e-13


def test_inner_contraction_matches_tensordot(s3, circle, su2):
    for rule, rep in _rules_and_reps(s3, circle, su2):
        mats = rep.evaluate_batch(rule.nodes)
        got = integrate_product(rule, mats.conj(), mats)
        ref = np.tensordot(rule.weights, mats.conj().transpose(0, 2, 1) @ mats, axes=(0, 0))
        assert np.abs(got - ref).max() <= 1e-13
        # integrate_stacked is the contraction against the constant one
        assert np.abs(rk.groups.integrate_stacked(rule, mats)
                      - np.tensordot(rule.weights, mats, axes=(0, 0))).max() <= 1e-13


def test_contraction_refuses_non_finite_entries(z3):
    rule = rk.haar_rule(z3, 1)
    X = np.ones((3, 1, 2), dtype=complex)
    Y = np.ones((3, 1, 2), dtype=complex)
    X[1, 0, 1] = np.nan
    with pytest.raises(rk.EvaluationFailureError):
        integrate_product(rule, X, Y)
    Y[2, 0, 0] = np.inf
    with pytest.raises(rk.EvaluationFailureError):
        integrate_product(rule, np.ones((3, 1, 2)), Y)
    with pytest.raises(rk.ShapeMismatchError):
        integrate_product(rule, X[:2], Y[:2])


def _residual_reference(mats, basis):
    return max(float(np.abs(mats @ B[None] - B[None] @ mats).max()) for B in basis)


def test_chunked_residual_equals_unchunked(su2):
    # resolution 12: the axis-angle rule at 8 under-resolves this commutant
    rule = rk.haar_rule(su2, 12)
    rep = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    report = rk.commutant(rep, rule)
    assert report.dimension == 4
    mats = rep.evaluate_batch(rule.nodes)
    # 1728 nodes x 4 elements run in chunks of at most 432 pairs
    assert report.max_residual == pytest.approx(_residual_reference(mats, report.basis),
                                                abs=1e-15)
    # on matrices that do not commute the residual is O(1), so chunking
    # errors (a skipped node or element) would show
    rng = np.random.default_rng(3)
    others = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    got = _commutation_residual(mats, others)
    assert got == pytest.approx(_residual_reference(mats, others), rel=1e-12)
    assert got > 0.1


def _hermitian_basis(r):
    basis = []
    for i in range(r):
        D = np.zeros((r, r), dtype=complex)
        D[i, i] = 1.0
        basis.append(D)
    s = 1.0 / np.sqrt(2.0)
    for i in range(r):
        for j in range(i + 1, r):
            S = np.zeros((r, r), dtype=complex)
            S[i, j] = S[j, i] = s
            basis.append(S)
            A = np.zeros((r, r), dtype=complex)
            A[i, j] = 1j * s
            A[j, i] = -1j * s
            basis.append(A)
    return basis


def _invariant_forms_reference(rep, rule, rank_tol=1e-7):
    """Per-basis-element averaging: returns the orthonormal real coordinates
    of the invariant forms over ``_hermitian_basis``."""
    r = rep.degree
    basis = _hermitian_basis(r)
    mats = rep.evaluate_batch(rule.nodes)
    conj_t = mats.conj().transpose(0, 2, 1)
    L = np.empty((r * r, r * r))
    for q, B in enumerate(basis):
        avg = np.tensordot(rule.weights, conj_t @ B[None] @ mats, axes=(0, 0))
        L[:, q] = [np.trace(C.conj().T @ avg).real for C in basis]
    _, s, Vh = np.linalg.svd(L - np.eye(r * r))
    return Vh[s <= rank_tol * max(1.0, s[0])]


def test_invariant_form_space_matches_per_basis_reference(s3, circle, su2):
    cases = [
        (rk.haar_rule(s3, 1), rk.s3_standard(s3)),
        (rk.haar_rule(s3, 1), rk.direct_sum(rk.s3_trivial(s3), rk.s3_sign(s3))),
        (rk.haar_rule(circle, 16),
         rk.conjugate(rk.CircleWeightRepresentation(circle, [1, 1, 2]),
                      np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 1j], [0.0, 0.3, 1.0]]))),
        (rk.haar_rule(su2, 8), rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))),
    ]
    for rule, rep in cases:
        forms, d = rk.invariant_form_space(rep, rule)
        ref = _invariant_forms_reference(rep, rule)
        assert d == len(ref)
        basis = _hermitian_basis(rep.degree)
        coords = np.array([[np.trace(C.conj().T @ f.gram).real for C in basis] for f in forms])
        # same span: each form lies in the reference space, and the forms
        # are independent
        assert np.abs(coords - coords @ ref.T @ ref).max() <= 1e-8
        assert np.linalg.matrix_rank(coords, tol=1e-8) == d


def test_hermitian_coords_order():
    H = np.array([[1.0, 2 + 3j, 4j], [2 - 3j, 5.0, 6.0], [-4j, 6.0, 7.0]])
    r2 = np.sqrt(2.0)
    expected = [1, 5, 7, 2 * r2, 3 * r2, 0, 4 * r2, 6 * r2, 0]
    assert np.allclose(rk.unitarization.hermitian_coords(H), expected)
    basis = _hermitian_basis(3)
    assert np.allclose(rk.unitarization.hermitian_coords(H),
                       [np.trace(C.conj().T @ H).real for C in basis])
