import numpy as np
import pytest

import repkit as rk
from repkit import linalg

from conftest import random_complex


def test_cholesky_identity():
    assert np.allclose(rk.cholesky_hermitian(np.eye(3)), np.eye(3))


def test_cholesky_diagonal():
    A = rk.cholesky_hermitian(np.diag([4.0, 9.0]))
    assert np.allclose(A, np.diag([2.0, 3.0]))
    assert np.allclose(A.conj().T @ A, np.diag([4.0, 9.0]))


def test_cholesky_textbook_2x2():
    # hand Cholesky of [[2,1],[1,2]]: A = [[sqrt2, 1/sqrt2], [0, sqrt(3/2)]]
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    A = rk.cholesky_hermitian(H)
    hand = np.array([[np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [0.0, np.sqrt(1.5)]])
    assert np.abs(A - hand).max() <= 1e-12
    assert np.abs(A.conj().T @ A - H).max() <= 1e-12


def test_cholesky_rejects_non_square_and_non_hermitian():
    with pytest.raises(rk.NotSquareError):
        rk.cholesky_hermitian(np.zeros((2, 3)))
    with pytest.raises(rk.NotHermitianError):
        rk.cholesky_hermitian([[1, 1], [0, 1]])


def test_cholesky_rejects_indefinite():
    with pytest.raises(rk.NotPositiveDefiniteError):
        rk.cholesky_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(rk.NotPositiveDefiniteError):
        rk.cholesky_hermitian(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_cholesky_reconstruction_random(seed, n):
    # positive definite with condition number <= 1e6
    rng = np.random.default_rng(1000 * n + seed)
    Q, _ = np.linalg.qr(random_complex(rng, (n, n)))
    w = np.geomspace(1.0, 1e6, n)
    H = (Q * w) @ Q.conj().T
    H = (H + H.conj().T) / 2
    A = rk.cholesky_hermitian(H)
    assert np.abs(np.tril(A, -1)).max() == 0.0
    assert (np.diag(A).real > 0).all() and np.abs(np.diag(A).imag).max() == 0.0
    assert np.abs(A.conj().T @ A - H).max() <= 1e-12 * np.abs(H).max()
    # spectra of A*A stay clear of negative territory
    assert np.linalg.eigvalsh(A.conj().T @ A)[0] > -1e-12 * np.abs(H).max()


def test_invert_identity_and_diagonal():
    assert np.allclose(rk.invert(np.eye(2)), np.eye(2))
    assert np.allclose(rk.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_invert_unitriangular():
    # 2x2 inverse formula: [[1,1],[0,1]]^-1 = [[1,-1],[0,1]]
    out = rk.invert(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.abs(out - np.array([[1.0, -1.0], [0.0, 1.0]])).max() <= 1e-14


def test_invert_residual_random():
    rng = np.random.default_rng(3)
    for n in (2, 8, 32):
        M = random_complex(rng, (n, n)) + 2 * np.eye(n)
        out = rk.invert(M)
        assert np.abs(M @ out - np.eye(n)).max() <= 1e-12


def test_invert_rejects_singular():
    with pytest.raises(rk.SingularMatrixError):
        rk.invert(np.ones((2, 2)))


def test_matrices_must_be_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.nan, 0], [0, 1]])


@pytest.mark.parametrize("shape", [(1, 3, 3, 3), (700, 4, 4, 4), (700, 2, 4, 2), (700, 4, 3, 5)])
def test_sandwich_matches_one_product_bytewise(shape):
    # the node-chunked left product gives the entries of the plain one,
    # square or not, across chunk boundaries
    n, a, r, s = shape
    rng = np.random.default_rng(3)
    A, stack, B = random_complex(rng, (a, r)), random_complex(rng, (n, r, r)), random_complex(rng, (r, s))
    plain = np.matmul(A, (stack.reshape(n * r, r) @ B).reshape(n, r, s))
    assert linalg.sandwich(A, stack, B).tobytes() == plain.tobytes()


@pytest.mark.parametrize("n", [1, 3 * linalg.NODE_CHUNK + 5])
def test_sandwich_in_place_matches_a_new_stack(n):
    # each chunk is read before it is written, so overwriting the caller's
    # stack gives the bytes a new stack gets
    rng = np.random.default_rng(6)
    A, B, stack = random_complex(rng, (4, 4)), random_complex(rng, (4, 4)), random_complex(rng, (n, 4, 4))
    expected = linalg.sandwich(A, stack, B)
    assert linalg.sandwich(A, stack, B, out=stack) is stack
    assert stack.tobytes() == expected.tobytes()
