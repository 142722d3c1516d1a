"""Shared fixtures and independent oracles.

The oracles here intentionally avoid the library code paths they check:
commutants and invariant forms are found by stacking linear systems over all
nodes and calling the SVD directly, so the averaging-based implementations
have something honest to disagree with.
"""

import tracemalloc

import numpy as np
import pytest

import repkit as rk

# evaluation chunks an averaging call may hold at its peak: its chunk
# buffer, the kernels' sub-chunk temporaries and its outputs
CHUNKS_HELD = 4


@pytest.fixture(scope="session")
def z2():
    return rk.builtin_group("z2")


@pytest.fixture(scope="session")
def z3():
    return rk.builtin_group("z3")


@pytest.fixture(scope="session")
def s3():
    return rk.builtin_group("s3")


@pytest.fixture(scope="session")
def circle():
    return rk.builtin_group("circle")


@pytest.fixture(scope="session")
def su2():
    return rk.builtin_group("su2")


@pytest.fixture(scope="session")
def su2_rule(su2):
    return rk.haar_rule(su2, 16)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_invertible(rng, n, diag_boost=2.0):
    """Random complex matrix kept comfortably away from singularity."""
    return random_complex(rng, (n, n)) + diag_boost * np.eye(n)


def random_unitary(rng, n):
    Q, R = np.linalg.qr(random_complex(rng, (n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def nodes_list(rule):
    return list(rule.iter_nodes())


def chunk_bytes(degree):
    """Bytes of one evaluation chunk of a degree-``degree`` representation."""
    return rk.representations.EVAL_CHUNK * degree ** 2 * 16


def traced_peak(call):
    """(result, peak): what ``call()`` returns, and the most bytes it held
    at once above what was allocated before it (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def averaging_map(rule, W):
    """The averaging map of a whole stack W (n, r, r): the library's map of
    the averaged outer product of the flattened stack."""
    flat = W.reshape(len(W), 1, -1)
    return rk.unitarization._averaging_map(rk.groups.integrate_product(rule, flat, flat))


def unitary_stack(rep, rule):
    """(W, maps): the unitary stack W = A rho A^-1 the library reads, put
    together from its chunks, and the averaged outer product it summed."""
    maps, basis = rk.unitarization._unitary(rep, rule, lambda _: rk.unitarization._outer)
    chunks = rk.representations.node_chunks(rep, rule, basis)
    return np.concatenate([chunk.copy() for _, chunk in chunks]), maps


def commutant_dim_bruteforce(rep, rule, tol=1e-8):
    """Dimension of {T : rho(x) T = T rho(x) at every node}, solved as one
    stacked linear system on vec(T) (row-major: vec(AXB) = (A kron B^T) vec X)."""
    r = rep.degree
    eye = np.eye(r)
    blocks = []
    for x in nodes_list(rule):
        R = rep.evaluate(x)
        blocks.append(np.kron(R, eye) - np.kron(eye, R.T))
    system = np.vstack(blocks)
    s = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(s <= tol * s[0]))


def invariant_form_dim_bruteforce(rep, rule, tol=1e-8):
    """Real dimension of {H Hermitian : rho(x)* H rho(x) = H at every node},
    solved on real coordinates (diagonal, then re/im of the upper triangle)."""
    r = rep.degree
    basis = []
    for i in range(r):
        D = np.zeros((r, r), dtype=complex)
        D[i, i] = 1
        basis.append(D)
    for i in range(r):
        for j in range(i + 1, r):
            S = np.zeros((r, r), dtype=complex)
            S[i, j] = S[j, i] = 1
            basis.append(S)
            A = np.zeros((r, r), dtype=complex)
            A[i, j] = 1j
            A[j, i] = -1j
            basis.append(A)
    # the defect map is linear in the real coefficients over `basis`;
    # assemble its matrix column by column and read off the kernel dimension
    mats = [rep.evaluate(x) for x in nodes_list(rule)]
    cols = []
    for B in basis:
        col = []
        for R in mats:
            defect = R.conj().T @ B @ R - B
            col.append(np.concatenate([defect.real.reshape(-1), defect.imag.reshape(-1)]))
        cols.append(np.concatenate(col))
    system = np.column_stack(cols)
    s = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(s <= tol * s[0])) if s[0] > 0 else len(basis)


def sl2_spec():
    """sl(2, R) with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    return rk.LieAlgebraSpec(c, labels=["h", "e", "f"])


def abelian_spec(n=3):
    return rk.LieAlgebraSpec(np.zeros((n, n, n)))
