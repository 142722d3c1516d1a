"""The fixed-space reader against the full eigensolve it replaces.

``unitarization.fixed_hermitian`` reads the fixed Hermitian matrices of the
averaging map L of a unitary stack by a certified Rayleigh-Ritz step on
S = (L + L^T)/2.  The reference here is the full ``numpy.linalg.eigh`` of
S - I, for the same map L, with its own cut,
|mu| <= RANK_TOL * max(1, max |mu|); the two must give the same dimension
and the same subspace.  Since that reference reads
the same averaging map, each reading is also checked on its own terms:
Hermitian, Frobenius-orthonormal, commuting with the stack at every node,
and of the dimension sum m^2 the input was built with.  The certificate
itself is checked on symmetric matrices with a known spectrum.
"""

import itertools

import numpy as np
import pytest

import repkit as rk
from repkit.unitarization import (
    RANK_TOL,
    _top_eigenspace,
    fixed_hermitian,
    hermitian_coords,
)

from conftest import random_invertible, random_unitary, regular_representation, unitary_stack


def _fixed_space_reference(L):
    """Orthonormal real coordinates (columns) of the fixed space, from the
    full eigensolve of the symmetric part of the averaging map L (r^2, r^2)
    minus I, and the trace of the map."""
    mu, V = np.linalg.eigh((L + L.T) / 2.0 - np.eye(len(L)))
    size = np.abs(mu)
    return V[:, size <= RANK_TOL * max(1.0, size.max())], float(np.trace(L))


def _s4():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return rk.FiniteGroup([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])


def _spins(su2, *js):
    parts = [rk.spin_irrep(j, su2) for j in js]
    return parts[0] if len(parts) == 1 else rk.DirectSumRepresentation(parts)


def _cases():
    """(id, rep, rule) for the inputs whose fixed-space readings the tests
    pin, and the degree-heavy and under-resolved ones."""
    z2, z3, s3 = (rk.builtin_group(name) for name in ("z2", "z3", "s3"))
    circle, su2 = rk.builtin_group("circle"), rk.builtin_group("su2")
    s3_rule, su2_rule, fine = rk.haar_rule(s3, 1), rk.haar_rule(su2, 16), rk.haar_rule(su2, 24)
    rng = np.random.default_rng(7)
    kappa = random_unitary(rng, 3) @ np.diag(np.geomspace(1.0, 100.0, 3)) @ random_unitary(rng, 3)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    return [
        ("z3 phase", rk.cyclic_phase_rep(z3, [1]), rk.haar_rule(z3, 1)),
        ("z2 trivial+trivial", rk.direct_sum(triv, triv), rk.haar_rule(z2, 1)),
        *((f"s3 irrep {i}", rep, s3_rule) for i, rep in enumerate(rk.s3_irreps(s3))),
        ("s3 trivial+sign", rk.direct_sum(rk.s3_trivial(s3), rk.s3_sign(s3)), s3_rule),
        ("s3 conj(standard+trivial)",
         rk.conjugate(rk.direct_sum(rk.s3_standard(s3), rk.s3_trivial(s3)), random_invertible(rng, 3)),
         s3_rule),
        ("s3 regular", regular_representation(s3), s3_rule),
        ("z6 regular", regular_representation(rk.cyclic_group(6)), rk.haar_rule(rk.cyclic_group(6), 1)),
        ("circle [1]", rk.CircleWeightRepresentation(circle, [1]), rk.haar_rule(circle, 64)),
        ("circle conj[1,1,2]",
         rk.conjugate(rk.CircleWeightRepresentation(circle, [1, 1, 2]),
                      np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 1j], [0.0, 0.3, 1.0]])),
         rk.haar_rule(circle, 16)),
        ("circle [0,3,-2,3]", rk.CircleWeightRepresentation(circle, [0, 3, -2, 3]), rk.haar_rule(circle, 8)),
        ("circle [1,1,5]", rk.CircleWeightRepresentation(circle, [1, 1, 5]), rk.haar_rule(circle, 64)),
        *((f"2j={t}@16", rk.SpinRepresentation(su2, t), su2_rule) for t in range(4)),
        *((f"2j={t}@24", rk.SpinRepresentation(su2, t), fine) for t in (4, 5, 6)),
        ("1/2+1/2@16", _spins(su2, 0.5, 0.5), su2_rule),
        ("1/2+1@16", _spins(su2, 0.5, 1), su2_rule),
        ("1/2@8", _spins(su2, 0.5), rk.haar_rule(su2, 8)),
        ("1/2+1/2@8", _spins(su2, 0.5, 0.5), rk.haar_rule(su2, 8)),
        ("1/2+1/2@12", _spins(su2, 0.5, 0.5), rk.haar_rule(su2, 12)),
        ("spin 1 kappa 100@12", rk.conjugate(_spins(su2, 1), kappa), rk.haar_rule(su2, 12)),
        ("1/2+1/2+1+1+1@16", _spins(su2, 0.5, 0.5, 1, 1, 1), su2_rule),
        ("spin 5@16", _spins(su2, 5), su2_rule),
        ("2j=12@16", _spins(su2, 6), su2_rule),
        ("2j=12@24", _spins(su2, 6), fine),
        ("6+6@24", _spins(su2, 6, 6), fine),
        ("z24 regular", regular_representation(rk.cyclic_group(24)), rk.haar_rule(rk.cyclic_group(24), 1)),
        ("s4 regular", regular_representation(_s4()), rk.haar_rule(_s4(), 1)),
        ("z48 regular", regular_representation(rk.cyclic_group(48)), rk.haar_rule(rk.cyclic_group(48), 1)),
    ]


CASES = _cases()


@pytest.mark.parametrize("rep, rule", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_reader_matches_the_full_eigensolve(rep, rule):
    _, maps = unitary_stack(rep, rule)
    # a copy of the summed map, which the reading makes symmetric in place
    ref, ref_trace = _fixed_space_reference(maps.total().reshape(rep.degree ** 2, -1).T.copy())
    K, trace = fixed_hermitian(maps)
    assert len(K) == ref.shape[1]
    assert trace == ref_trace
    got = hermitian_coords(K).T
    assert np.abs(got.T @ got - np.eye(len(K))).max() <= 1e-12
    assert np.abs(got @ got.T - ref @ ref.T).max() <= 1e-12


def _with_spectrum(values, seed=0):
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(values), len(values))))[0]
    return (Q * values) @ Q.T, Q


def _eigh_sizes(monkeypatch):
    sizes, original = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def test_undercounting_trace_doubles_the_block(monkeypatch):
    # 40 eigenvalues at 1 and 60 at -0.6: tr S = 4 starts k at 12, which
    # holds no more than 12 of the 40 fixed directions; the certificate
    # fails until k reaches n, where the Rayleigh-Ritz step is the full
    # eigensolve
    S, Q = _with_spectrum(np.r_[np.ones(40), np.full(60, -0.6)])
    sizes = _eigh_sizes(monkeypatch)
    U = _top_eigenspace(S, 4.0)
    assert sizes[0] == 12 and sizes[-1] == 100 and sorted(set(sizes)) == [12, 24, 48, 96, 100]
    assert U.shape == (100, 40)
    assert np.abs(U @ U.T - Q[:, :40] @ Q[:, :40].T).max() <= 1e-12


@pytest.mark.parametrize("dropped, sizes", [(1, [14]), (2, [15, 30, 50])])
def test_cut_keeps_within_rank_tol_and_the_certificate_decides(monkeypatch, dropped, sizes):
    # three eigenvalues at 1 and two at 1 - RANK_TOL/2 are kept, the ones at
    # 1 - 2 RANK_TOL are dropped.  One dropped eigenvalue leaves the
    # certificate room, so the first block answers; two of them sum past
    # (1 - RANK_TOL)^2 in squares, so the certificate cannot exclude a third
    # fixed direction and k doubles up to n = 50
    values = np.zeros(50)
    values[:3], values[3:5], values[5:5 + dropped] = 1.0, 1.0 - 0.5 * RANK_TOL, 1.0 - 2.0 * RANK_TOL
    S, Q = _with_spectrum(values, seed=1)
    seen = _eigh_sizes(monkeypatch)
    U = _top_eigenspace(S, float(np.trace(S)))
    assert sorted(set(seen)) == sizes
    assert U.shape == (50, 5)
    # kept and dropped eigenvalues are 1.5 RANK_TOL apart, so any
    # eigensolver places the kept space only to roundoff over that gap
    assert np.abs(U @ U.T - Q[:, :5] @ Q[:, :5].T).max() <= 1e-8


def test_z48_commutant_reads_no_full_size_eigensolve(monkeypatch):
    z48 = rk.cyclic_group(48)
    sizes = _eigh_sizes(monkeypatch)
    values, original = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        values.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    report = rk.commutant(regular_representation(z48), rk.haar_rule(z48, 1))
    assert report.dimension == 48
    assert report.max_residual <= 1e-12
    assert sizes and max(sizes + values) < 48 * 48


# The multiplicities m of the inequivalent irreducible constituents of each
# case, read off how it is built; the commutant has dimension sum m^2.  A
# regular representation holds each irreducible of degree d d times.
MULTIPLICITIES = {
    "z3 phase": [1], "z2 trivial+trivial": [2],
    "s3 irrep 0": [1], "s3 irrep 1": [1], "s3 irrep 2": [1],
    "s3 trivial+sign": [1, 1], "s3 conj(standard+trivial)": [1, 1],
    "s3 regular": [1, 1, 2], "z6 regular": [1] * 6,
    "circle [1]": [1], "circle conj[1,1,2]": [2, 1],
    # eight nodes see the weights modulo 8: 0, 3, 6 and 3 again
    "circle [0,3,-2,3]": [1, 2, 1], "circle [1,1,5]": [2, 1],
    **{f"2j={t}@16": [1] for t in range(4)}, **{f"2j={t}@24": [1] for t in (4, 5, 6)},
    "1/2+1/2@16": [2], "1/2+1@16": [1, 1],
    # the fixed space is the commutant of the node set, which generates a
    # dense subgroup also where the rule under-resolves the character
    "1/2@8": [1], "1/2+1/2@8": [2], "1/2+1/2@12": [2], "spin 1 kappa 100@12": [1],
    "1/2+1/2+1+1+1@16": [2, 3], "spin 5@16": [1], "2j=12@16": [1], "2j=12@24": [1],
    "6+6@24": [2],
    "z24 regular": [1] * 24, "s4 regular": [1, 1, 2, 3, 3], "z48 regular": [1] * 48,
}


@pytest.mark.parametrize("rep, rule, multiplicities",
                         [(*case[1:], MULTIPLICITIES[case[0]]) for case in CASES],
                         ids=[case[0] for case in CASES])
def test_reader_returns_an_orthonormal_hermitian_commutant(rep, rule, multiplicities):
    # checked on K itself, not against the averaging map K is read from
    W, maps = unitary_stack(rep, rule)
    K, _ = fixed_hermitian(maps)
    assert len(K) == sum(m * m for m in multiplicities)
    assert np.abs(K - K.conj().transpose(0, 2, 1)).max() <= 1e-12
    gram = np.einsum("iab,jab->ij", K.conj(), K)
    assert np.abs(gram - np.eye(len(K))).max() <= 1e-12
    for k in K:
        commutator = (np.einsum("nab,bc->nac", W, k, optimize=True)
                      - np.einsum("ab,nbc->nac", k, W, optimize=True))
        assert np.abs(commutator).max() <= 1e-10
