import numpy as np
import pytest

import repkit as rk
from repkit.lie_algebras import COMPACT_SEMISIMPLE, COMPACT_WITH_CENTER, NOT_COMPACT_TYPE

from conftest import abelian_spec, sl2_spec

SQRT2 = np.sqrt(2.0)


def su2_spec():
    return rk.su2_standard().to_spec()


# --- bracket table oracle: multiply the 2x2 matrices by hand ---------------

def test_su2_bracket_table_against_matrices():
    alg = rk.su2_standard()
    spec = alg.to_spec()
    basis = alg.basis
    flat = np.column_stack([X.reshape(-1) for X in basis])
    for a in range(3):
        for b in range(3):
            matrix_bracket = basis[a] @ basis[b] - basis[b] @ basis[a]
            coeff, *_ = np.linalg.lstsq(flat, matrix_bracket.reshape(-1), rcond=None)
            ea, eb = np.eye(3)[a], np.eye(3)[b]
            assert np.abs(rk.bracket(spec, ea, eb) - coeff.real).max() <= 1e-12


def test_bracket_antisymmetry_and_values():
    spec = su2_spec()
    u = np.array([0.3, -1.2, 0.7])
    assert np.abs(rk.bracket(spec, u, u)).max() == 0.0
    # [E, F] = sqrt(2) H
    out = rk.bracket(spec, [0, 1, 0], [0, 0, 1])
    assert np.abs(out - np.array([SQRT2, 0, 0])).max() <= 1e-12


def test_bracket_abelian():
    spec = abelian_spec()
    assert np.abs(rk.bracket(spec, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])).max() == 0.0


def test_bracket_dimension_mismatch():
    with pytest.raises(rk.DimensionMismatchError):
        rk.bracket(su2_spec(), [1.0, 0.0], [0.0, 1.0, 0.0])


def test_adjoint_matrix_su2_H():
    spec = su2_spec()
    ad_H = rk.adjoint_matrix(spec, [1, 0, 0])
    # E -> sqrt2 F, F -> -sqrt2 E, H -> 0
    expected = np.array([[0, 0, 0], [0, 0, -SQRT2], [0, SQRT2, 0]])
    assert np.abs(ad_H - expected).max() <= 1e-12


def test_adjoint_matrix_abelian_and_linearity():
    spec = abelian_spec()
    assert np.abs(rk.adjoint_matrix(spec, [1.0, 1.0, 1.0])).max() == 0.0
    spec = su2_spec()
    u, v = np.array([0.2, 0.5, -1.0]), np.array([1.5, -0.25, 0.75])
    lhs = rk.adjoint_matrix(spec, u + v)
    rhs = rk.adjoint_matrix(spec, u) + rk.adjoint_matrix(spec, v)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_trace_form_su2():
    report = rk.trace_form(su2_spec())
    assert np.abs(report.gram - np.diag([4.0, 4.0, 4.0])).max() <= 1e-12
    assert report.classification == COMPACT_SEMISIMPLE
    assert report.center_basis == []
    assert report.invariance_residual <= 1e-10


def test_trace_form_abelian():
    report = rk.trace_form(abelian_spec())
    assert np.abs(report.gram).max() == 0.0
    assert report.classification == COMPACT_WITH_CENTER
    assert len(report.center_basis) == 3
    span = np.column_stack(report.center_basis)
    assert np.linalg.matrix_rank(span) == 3


def test_trace_form_sl2():
    # hand oracle: ad matrices of (h, e, f) give gram [[-8,0,0],[0,0,-4],[0,-4,0]]
    report = rk.trace_form(sl2_spec())
    expected = np.array([[-8.0, 0, 0], [0, 0, -4.0], [0, -4.0, 0]])
    assert np.abs(report.gram - expected).max() <= 1e-12
    assert report.classification == NOT_COMPACT_TYPE
    assert sorted(np.round(report.eigenvalues, 9)) == [-8.0, -4.0, 4.0]


def test_trace_form_su2_plus_center():
    # su2 + a 1-dimensional center: compact with a genuine center
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = su2_spec().structure_constants
    report = rk.trace_form(rk.LieAlgebraSpec(c))
    assert report.classification == COMPACT_WITH_CENTER
    assert len(report.center_basis) == 1
    v = report.center_basis[0]
    assert np.abs(v - np.array([0, 0, 0, 1.0]) * np.sign(v[3])).max() <= 1e-12


def test_trace_form_heisenberg_not_mistaken_for_center():
    # [e, f] = z: Gram is identically zero but e does not commute,
    # so this must not classify as compact-with-center
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    report = rk.trace_form(rk.LieAlgebraSpec(c))
    assert report.classification == NOT_COMPACT_TYPE
    assert report.center_basis == []


def test_trace_form_gram_symmetric_and_invariant():
    for spec in (su2_spec(), sl2_spec(), abelian_spec()):
        report = rk.trace_form(spec)
        assert np.abs(report.gram - report.gram.T).max() <= 1e-12
        assert report.invariance_residual <= 1e-10


def test_spec_validation_rejects_asymmetry():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError):
        rk.LieAlgebraSpec(c)


def test_spec_validation_rejects_jacobi_failure():
    c = np.zeros((3, 3, 3))
    # antisymmetric but deliberately non-Jacobi
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    c[2, 0, 1] = 1.0
    c[0, 2, 1] = -1.0
    c[0, 1, 0] = 0.5
    c[1, 0, 0] = -0.5
    with pytest.raises(ValueError):
        rk.LieAlgebraSpec(c)


def test_su2_standard_orthonormal_and_traceless():
    alg = rk.su2_standard()
    assert np.abs(alg.gram_defining - np.eye(3)).max() <= 1e-14
    for X in alg.basis:
        assert abs(np.trace(X)) <= 1e-14
        assert np.abs(X + X.conj().T).max() <= 1e-14  # anti-Hermitian


def test_su2_gram_ratio_is_four():
    alg = rk.su2_standard()
    report = rk.trace_form(alg.to_spec())
    assert np.abs(report.gram - 4.0 * alg.gram_defining).max() <= 1e-12


def test_theta_isometry():
    H, E, F = rk.su2_standard().basis
    assert np.abs(rk.theta_isometry([1.0, 0, 0]) - E).max() == 0.0
    assert np.abs(rk.theta_isometry([0.0, 0, 0])).max() == 0.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rng.normal(size=(2, 3))
        inner = -np.trace(rk.theta_isometry(x) @ rk.theta_isometry(y)).real
        assert abs(inner - x @ y) <= 1e-12 * max(1.0, abs(x @ y))
    inner = -np.trace(rk.theta_isometry([1, 2, 3]) @ rk.theta_isometry([4, 5, 6])).real
    assert abs(inner - 32.0) <= 1e-12


def test_matrix_algebra_closure_rejected():
    # a basis whose brackets leave the span is rejected at construction
    X = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    Y = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        rk.MatrixLieAlgebra(basis=[X, Y])


def test_array_forms_match_the_per_element_loops():
    # u(2) in a random real basis: brackets mix every basis element and the
    # algebra has a centre; the references are the per-element loops
    rng = np.random.default_rng(4)
    M = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    std = rk.su2_standard().basis + [1j * np.eye(2) / SQRT2]
    basis = [sum(m * X for m, X in zip(row, std)) for row in M]
    alg = rk.MatrixLieAlgebra(basis=basis)
    gram = np.array([[-np.trace(X @ Y).real for Y in basis] for X in basis])
    assert np.abs(alg.gram_defining - gram).max() <= 1e-13 * np.abs(gram).max()
    flat = np.column_stack([X.reshape(-1) for X in basis])
    c = np.zeros((4, 4, 4))
    for a in range(4):
        for b in range(4):
            rhs = (basis[a] @ basis[b] - basis[b] @ basis[a]).reshape(-1)
            c[a, b] = np.linalg.lstsq(flat, rhs, rcond=None)[0].real
    got = alg.structure_constants()
    assert np.abs(got - c).max() <= 1e-12 * np.abs(c).max()
    spec = rk.LieAlgebraSpec(got)
    report = rk.trace_form(spec)
    ads = np.stack([rk.adjoint_matrix(spec, e) for e in np.eye(4)])
    ref = -np.einsum("aij,bji->ab", ads, ads)
    assert np.array_equal(report.gram, (ref + ref.T) / 2.0)
    assert report.classification == COMPACT_WITH_CENTER and len(report.center_basis) == 1
    z = report.center_basis[0]
    assert max(np.abs(rk.bracket(spec, z, e)).max() for e in np.eye(4)) <= 1e-12


def test_matrix_algebra_with_complex_structure_constants_rejected():
    # the Hermitian Pauli matrices close under brackets, [X, Y] = 2i Z, but
    # only over the complex numbers
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError, match="not real"):
        rk.MatrixLieAlgebra(basis=[X, Y, Z])
