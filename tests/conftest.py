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
    return rk.linalg.EVAL_CHUNK * degree ** 2 * 16


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
    """The averaging map B -> sum of w_n W_n* B W_n of a whole stack W
    (n, r, r) in ``hermitian_coords``, as an (r^2, r^2) matrix whose column
    (k, l) is the image of G_kl: the averaged outer product O of the
    flattened stack, one contraction over every node, realigned as
    L[(i, j), (k, l)] = Re O[k, i, l, j] + Im O[l, i, k, j] (the image is
    w A + conj(w) A* with A = O[k, :, l, :], w = (1 + i)/2)."""
    r = W.shape[-1]
    flat = W.reshape(len(W), 1, -1)
    O = rk.groups.integrate_product(rule, flat, flat).reshape(r, r, r, r)
    return (O.real.transpose(1, 3, 0, 2) + O.imag.transpose(1, 3, 2, 0)).reshape(r * r, r * r)


def library_map(rule, W, size=rk.linalg.NODE_CHUNK):
    """The library's averaging map of a whole stack W (n, r, r), summed by
    ``unitarization._AveragingMap`` over its slices of ``size`` nodes, as
    an (r^2, r^2) matrix (the transpose of the sum it holds)."""
    maps = rk.unitarization._AveragingMap(rule)
    for i in range(0, len(W), size):
        maps.add(slice(i, i + size), W[i:i + size])
    r = W.shape[-1]
    return maps.take().reshape(r * r, r * r).T


def unitary_stack(rep, rule):
    """(W, maps): the unitary stack W = A rho A^-1 the library reads, put
    together from the chunks of a pass over its unitary representation,
    and the averaging map it summed."""
    maps, unitary = rk.unitarization._unitary(rep, rule, lambda _: rk.unitarization._AveragingMap(rule))
    chunks = rk.representations.node_chunks(unitary, rule)
    return np.concatenate([chunk.copy() for _, chunk in chunks]), maps


def regular_representation(group):
    """The left regular representation of a finite group: g acts on the
    basis e_h as e_h -> e_gh."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.mult_table[g], np.arange(n)] = 1.0
    return rk.FiniteTableRepresentation(group, mats)


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
