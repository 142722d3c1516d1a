"""The averaging contraction and the code routed through it.

``integrate_product(rule, X, Y)`` is the sum over nodes of w_n X_n^* Y_n,
the one weighted GEMM behind every averaged matrix.  References here are
built without it: node sums go through ``numpy.tensordot`` and the
invariant-form map is assembled one Hermitian basis element at a time, as
the per-basis implementation did.
"""

import warnings

import numpy as np
import pytest

import repkit as rk
from repkit.groups import integrate_product
from repkit.schur import _commutation_residual

from conftest import (
    CHUNKS_HELD,
    averaging_map,
    chunk_bytes,
    library_map,
    random_complex,
    random_unitary,
    regular_representation,
    traced_peak,
)


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
        got = integrate_product(rule, X[:, None, :].conj(), Y[:, None, :].conj())
        ref = np.tensordot(rule.weights, X[:, :, None] * Y[:, None, :].conj(), axes=(0, 0))
        assert np.abs(got - ref).max() <= 1e-13


def test_inner_contraction_matches_tensordot(s3, circle, su2):
    for rule, rep in _rules_and_reps(s3, circle, su2):
        mats = rep.evaluate_batch(rule.nodes)
        got = integrate_product(rule, mats, mats)
        ref = np.tensordot(rule.weights, mats.conj().transpose(0, 2, 1) @ mats, axes=(0, 0))
        assert np.abs(got - ref).max() <= 1e-13
        # integrate_stacked is the contraction against the constant one
        assert np.abs(rk.groups.integrate_stacked(rule, mats)
                      - np.tensordot(rule.weights, mats, axes=(0, 0))).max() <= 1e-13


def test_contraction_runs_in_node_chunks(z3, su2):
    # a rule of one chunk is one GEMM, to the byte; a longer one sums its
    # chunks' GEMMs in node order; real stacks are taken chunk by chunk
    rule = rk.haar_rule(z3, 1)
    rng = np.random.default_rng(8)
    X, Y = random_complex(rng, (3, 2, 3)), random_complex(rng, (3, 2, 4))
    one = (X.conj() * rule.weights[:, None, None]).reshape(6, 3).T @ Y.reshape(6, 4)
    assert integrate_product(rule, X, Y).tobytes() == one.tobytes()
    rule = rk.haar_rule(su2, 9)
    n = rule.node_count
    assert n > 2 * rk.linalg.NODE_CHUNK
    X, Y = rng.normal(size=(n, 2, 3)), rng.normal(size=(n, 2, 4))
    ref = np.tensordot(rule.weights, X.transpose(0, 2, 1) @ Y, axes=(0, 0))
    got = integrate_product(rule, X, Y)
    assert got.dtype == complex and np.abs(got - ref).max() <= 1e-14


@pytest.mark.parametrize("resolution", [24, 11])
def test_chunk_sums_equal_one_contraction_of_the_whole_stack(su2, resolution):
    # 13 824 nodes are 13.5 evaluation chunks; 1331 nodes end in an
    # evaluation chunk of 307 nodes whose last sub-chunk has 51.  A pass
    # hands out sub-chunks that tile the rule in order, each of at most
    # NODE_CHUNK nodes from a multiple of it, so the averaged Gram and the
    # averaging map summed over them add the same GEMMs in the same node
    # order as one contraction of the whole stack, and are equal to it bit
    # for bit (the map as the library sums it over the whole stack's
    # sub-chunks); a pass in a basis B is the sandwich of the whole stack
    rule = rk.haar_rule(su2, resolution)
    n, size = rule.node_count, rk.linalg.NODE_CHUNK
    rng = np.random.default_rng(9)
    rep = rk.conjugate(rk.direct_sum(rk.spin_irrep(1, su2), rk.spin_irrep(1.5, su2)),
                       random_complex(rng, (7, 7)) + 3 * np.eye(7))
    stack = rep.evaluate_batch(rule.nodes)
    gram, maps, slices, chunks = rk.groups.ProductSum(rule), rk.unitarization._AveragingMap(rule), [], []
    for nodes, chunk in rk.representations.node_chunks(rep, rule):
        slices.append((nodes.start, nodes.stop))
        chunks.append(chunk.copy())
        gram.add(nodes, chunk, chunk)
        maps.add(nodes, chunk)
    assert slices == [(i, min(i + size, n)) for i in range(0, n, size)]
    assert np.concatenate(chunks).tobytes() == stack.tobytes()
    whole_gram = integrate_product(rule, stack, stack)
    assert gram.total().tobytes() == whole_gram.tobytes()
    assert maps.take().reshape(49, 49).T.tobytes() == library_map(rule, stack).tobytes()
    assert rk.averaged_form(rep, rule).gram.tobytes() == (
        rk.unitarization.invariant_gram(whole_gram)[0].tobytes())
    B = random_complex(rng, (7, 7)) + 3 * np.eye(7)
    basis = (B, np.linalg.inv(B))
    in_basis = [chunk.copy() for _, chunk in rk.representations.node_chunks(rep, rule, basis)]
    assert np.concatenate(in_basis).tobytes() == rk.linalg.sandwich(B, stack, basis[1]).tobytes()


def test_contraction_is_the_weighted_sum_of_conjugate_products(su2):
    # X and Y differ and so do their widths, so a missing conjugate or a
    # swapped operand shows
    rule = rk.haar_rule(su2, 4)
    rng = np.random.default_rng(7)
    n = rule.node_count
    X = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    Y = rng.normal(size=(n, 2, 4)) + 1j * rng.normal(size=(n, 2, 4))
    ref = np.tensordot(rule.weights, X.conj().transpose(0, 2, 1) @ Y, axes=(0, 0))
    got = integrate_product(rule, X, Y)
    assert got.shape == (3, 4)
    assert np.abs(got - ref).max() <= 1e-13


def test_overflowing_average_of_finite_stacks_is_refused_without_warnings(z3):
    # every entry is finite, but each node product is 1e400
    rule = rk.haar_rule(z3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rk.EvaluationFailureError):
            integrate_product(rule, np.full((3, 1, 2), 1e200), np.full((3, 1, 2), 1e200))
        with pytest.raises(rk.EvaluationFailureError):
            rk.unitarization.averaged_form(rk.FiniteTableRepresentation(
                z3, np.stack([np.eye(2)] + [np.full((2, 2), 1e200)] * 2).astype(complex)), rule)


@pytest.mark.memory
def test_matrix_element_audit_holds_one_stack_sized_temporary(su2):
    # the Gram matrix of the matrix elements is one contraction of the
    # flattened chunks with themselves, summed over one pass: a chunk
    # buffer and sub-chunk temporaries, far under one stack
    rule = rk.haar_rule(su2, 24)
    rep = rk.spin_irrep(3, su2)
    deviation, peak = traced_peak(lambda: rk.matrix_element_audit(rep, rule))
    assert deviation <= 1e-12
    assert peak <= CHUNKS_HELD * chunk_bytes(rep.degree)


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
    # commutant hands it 256-node sub-chunks, cut into pieces of 64 nodes
    # against the 4 elements; a whole stack of 1728 nodes is cut into
    # pieces of 1728 // m nodes
    assert report.max_residual == pytest.approx(_residual_reference(mats, report.basis),
                                                abs=1e-15)
    # on matrices that do not commute the residual is O(1), so chunking
    # errors (a skipped node or element) would show
    rng = np.random.default_rng(3)
    others = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    got = _commutation_residual(mats, others)
    assert got == pytest.approx(_residual_reference(mats, others), rel=1e-12)
    assert got > 0.1
    # the regular representation of Z6 on its exact rule: its commutant
    # outnumbers n/4, so each chunk is one node against every element
    z6 = rk.cyclic_group(6)
    regular = np.zeros((6, 6, 6), dtype=complex)
    for g in range(6):
        regular[g, z6.mult_table[g], np.arange(6)] = 1.0
    report = rk.commutant(rk.FiniteTableRepresentation(z6, regular), rk.haar_rule(z6, 1))
    assert report.dimension == 6
    assert report.max_residual == pytest.approx(_residual_reference(regular, report.basis),
                                                abs=1e-15)
    others = rng.normal(size=(7, 6, 6)) + 1j * rng.normal(size=(7, 6, 6))
    got = _commutation_residual(regular, others)
    assert got == pytest.approx(_residual_reference(regular, others), rel=1e-12)
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


def _random_su2(rng, n):
    a, b = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / norm, b / norm
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def _weights(raw):
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum()


def test_symmetric_reading_matches_reference_on_rules_not_closed_under_inversion(s3, circle, su2):
    # the averaging map of such a node set is not symmetric, yet its
    # symmetric part fixes exactly what the map fixes: each node map is a
    # Frobenius isometry, so an average of them fixes B only if every term
    # does; node sets that generate a proper subgroup give d > 1
    rng = np.random.default_rng(5)
    cases = [
        (rk.HaarRule(group=circle, nodes=np.array([0.0, np.pi / 2, np.pi]),
                     weights=_weights([5, 3, 2]), resolution=3),
         rk.CircleWeightRepresentation(circle, [0, 4, 1]), 5),
        (rk.HaarRule(group=su2, nodes=_random_su2(rng, 2), weights=_weights([3, 1]), resolution=2),
         rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)), 2),
        (rk.HaarRule(group=su2, nodes=_random_su2(rng, 5), weights=_weights(rng.uniform(1, 3, 5)),
                     resolution=5),
         rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2)), 4),
        # the identity and one 3-cycle, without its inverse
        (rk.HaarRule(group=s3, nodes=np.array([0, 4]), weights=_weights([1, 2]), resolution=1),
         rk.s3_standard(s3), 2),
    ]
    for rule, rep, expected in cases:
        mats = rep.evaluate_batch(rule.nodes)
        L = averaging_map(rule, mats)
        assert np.abs(L - L.T).max() > 1e-3
        forms, d = rk.invariant_form_space(rep, rule)
        ref = _invariant_forms_reference(rep, rule)
        assert d == len(ref) == expected
        basis = _hermitian_basis(rep.degree)
        coords = np.array([[np.trace(C.conj().T @ f.gram).real for C in basis] for f in forms])
        q = np.linalg.qr(coords.T)[0]
        assert np.abs(q @ q.T - ref.T @ ref).max() <= 1e-10


def test_symmetric_spectrum_is_the_singular_spectrum_on_builtin_rules(s3, circle, su2):
    # on the built-in rules the map is symmetric to roundoff, so the |mu|
    # the cut reads are the singular values of L - I
    cases = [
        (rk.haar_rule(s3, 1), rk.DirectSumRepresentation(rk.s3_irreps(s3) + [rk.s3_standard(s3)])),
        (rk.haar_rule(circle, 8), rk.CircleWeightRepresentation(circle, [0, 3, -2, 3])),
        (rk.haar_rule(circle, 64), rk.CircleWeightRepresentation(circle, [1, 1, 5])),
        (rk.haar_rule(su2, 6), rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1.5, su2))),
        (rk.haar_rule(su2, 12), rk.spin_irrep(2, su2)),
    ]
    for rule, rep in cases:
        r = rep.degree
        L = averaging_map(rule, rep.evaluate_batch(rule.nodes))
        mu = np.linalg.eigvalsh((L + L.T) / 2.0 - np.eye(r * r))
        singular = np.linalg.svd(L - np.eye(r * r), compute_uv=False)
        assert np.abs(np.sort(np.abs(mu))[::-1] - singular).max() <= 1e-13


def _coordinate_basis(r):
    """G_kl = w E_kl + conj(w) E_lk, w = (1 + i)/2, row by row: the basis
    dual to ``hermitian_coords``."""
    w = (1 + 1j) / 2
    basis = []
    for k in range(r):
        for l in range(r):
            G = np.zeros((r, r), dtype=complex)
            G[k, l] += w
            G[l, k] += np.conj(w)
            basis.append(G)
    return basis


def test_hermitian_coords_order():
    H = np.array([[1.0, 2 + 3j, 4j], [2 - 3j, 5.0, 6.0], [-4j, 6.0, 7.0]])
    coords = rk.unitarization.hermitian_coords(H)
    assert np.array_equal(coords, [1, 5, 4, -1, 5, 6, -4, 6, 7])
    basis = _coordinate_basis(3)
    assert all(np.array_equal(G, G.conj().T) for G in basis)
    gram = np.array([[np.trace(A.conj().T @ B) for B in basis] for A in basis])
    assert np.abs(gram - np.eye(9)).max() <= 1e-15
    assert np.allclose(coords, [np.trace(G.conj().T @ H) for G in basis])
    assert np.array_equal(rk.unitarization._hermitian_from_coords(coords.reshape(3, 3)), H)
    # an isometry from the Hermitian matrices onto the real r x r matrices
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    batch = X + X.conj().transpose(0, 2, 1)
    v = rk.unitarization.hermitian_coords(batch)
    assert v.shape == (6, 16) and v.dtype == np.float64
    frobenius = np.einsum("aij,bij->ab", batch.conj(), batch)
    assert np.abs(v @ v.T - frobenius).max() <= 1e-12
    assert np.abs(rk.unitarization._hermitian_from_coords(v.reshape(6, 4, 4)) - batch).max() <= 1e-15


def test_averaging_map_columns_are_the_averaged_basis_images(su2):
    # column (k, l) holds the coordinates of the sum over nodes of
    # w_n W_n* G_kl W_n, summed node by node; the first node set is not
    # closed under inversion, so its map is not symmetric
    rng = np.random.default_rng(5)
    cases = [
        (rk.HaarRule(group=su2, nodes=_random_su2(rng, 2), weights=_weights([3, 1]), resolution=2),
         rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)), True),
        (rk.haar_rule(su2, 8), rk.spin_irrep(1, su2), False),
    ]
    for rule, rep, asymmetric in cases:
        W = rep.evaluate_batch(rule.nodes)
        L = library_map(rule, W)
        images = [np.einsum("n,nki,kl,nlj->ij", rule.weights, W.conj(), G, W)
                  for G in _coordinate_basis(rep.degree)]
        ref = np.stack([rk.unitarization.hermitian_coords(B) for B in images], axis=1)
        assert np.abs(L - ref).max() <= 1e-13
        assert (np.abs(L - L.T).max() > 1e-3) == asymmetric


def test_averaging_map_sum_equals_the_dense_map_of_the_whole_stack(su2):
    # the library sums L sub-chunk by sub-chunk, one GEMM per block of
    # max(1, c // r) rows k of the outer product O, each block's real and
    # imaginary parts added where they belong; the reference realigns one
    # contraction over the whole stack.  1331 nodes of spin 3/2 + 1 are
    # six sub-chunks and a short seventh, one block each; the 24 nodes of
    # the Z24 regular representation in a random unitary basis are one
    # sub-chunk cut into 24 blocks
    z24 = rk.cyclic_group(24)
    regular = regular_representation(z24).evaluate_batch(np.arange(24))
    rng = np.random.default_rng(11)
    su2_rule = rk.haar_rule(su2, 11)
    sheared = rk.conjugate(rk.direct_sum(rk.spin_irrep(1.5, su2), rk.spin_irrep(1, su2)),
                           random_complex(rng, (7, 7)) + 3 * np.eye(7))
    U = random_unitary(rng, 24)
    cases = [(su2_rule, sheared.evaluate_batch(su2_rule.nodes)),
             (rk.haar_rule(z24, 1), U @ regular @ U.conj().T)]
    for rule, W in cases:
        got, ref = library_map(rule, W), averaging_map(rule, W)
        assert got.shape == ref.shape == (W.shape[-1] ** 2,) * 2 and got.dtype == np.float64
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    # a non-finite entry, or products that overflow, leave the map
    # non-finite, and taking it is refused without a warning
    W = sheared.evaluate_batch(su2_rule.nodes)
    W[700, 3, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rk.EvaluationFailureError):
            library_map(su2_rule, W)
        with pytest.raises(rk.EvaluationFailureError):
            library_map(rk.haar_rule(z24, 1), np.full((24, 24, 24), 1e200))
