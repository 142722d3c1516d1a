"""Commutants, intertwiners, irreducibility, block splitting and the
orthogonality integrals.

The workhorse is group averaging: T(A) = integral of rho(x) A sigma(x^-1) is
an intertwiner for any seed matrix A.  For sigma = rho, the map A -> T(A) is
the projection onto the commutant; its r^2 x r^2 matrix is one averaging
contraction of rho against rho^-1 over the rule nodes, and the commutant is
its row space.  The same contraction of rho against conj(rho) gives every
matrix-element integral at once.  Scalar commutant (dimension one) is the
irreducibility criterion; a non-scalar commutant element is Hermitian up to
splitting into parts, and its eigenspaces are invariant subspaces along
which reducible representations are split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AlreadyIrreducibleError,
    GroupMismatchError,
    NonIntegerMultiplicityError,
    NotIrreducibleError,
    RuleMismatchError,
    ShapeMismatchError,
)
from .groups import HaarRule, integrate_product, integrate_stacked, integrate_values
from .representations import (
    BlockRepresentation,
    Character,
    FiniteTableRepresentation,
    Representation,
    character,
    unitarity_audit,
)
from .unitarization import unitarize

RANK_TOL = 1e-7
UNITARY_TOL = 1e-8
EIGENVALUE_GAP = 1e-6
MULTIPLICITY_WINDOW = 0.05


def _check_groups(rule: HaarRule, *reps: Representation) -> None:
    for rep in reps:
        if rep.group != rule.group:
            raise GroupMismatchError("representation and rule are defined over different groups")


def averaged_intertwiner(phi: Representation, psi: Representation, A, rule: HaarRule) -> np.ndarray:
    """T = integral of phi(x) A psi(x^-1): intertwines phi and psi.

    Between non-equivalent irreducibles the result vanishes for every seed A;
    for phi = psi irreducible it is tr(A)/degree times the identity.
    """
    if phi.group != psi.group:
        raise GroupMismatchError("the two representations live over different groups")
    _check_groups(rule, phi)
    A = linalg.as_matrix(A)
    if A.shape != (phi.degree, psi.degree):
        raise ShapeMismatchError(f"seed matrix must be {phi.degree}x{psi.degree}, got {A.shape}")
    phis = phi.evaluate_batch(rule.nodes)
    psis_inv = psi.evaluate_batch(rule.group.invert_nodes(rule.nodes))
    return integrate_stacked(rule, phis @ A[None] @ psis_inv)


@dataclass(frozen=True, eq=False)
class CommutantReport:
    """Orthonormal basis (Frobenius) of matrices commuting with the whole
    representation, with the worst commutation defect over the rule nodes."""

    dimension: int
    basis: list[np.ndarray]
    max_residual: float

    def to_json_dict(self) -> dict:
        from .serialize import matrix_to_json
        return {
            "dimension": self.dimension,
            "basis": [matrix_to_json(B) for B in self.basis],
            "max_residual": self.max_residual,
        }


def commutant(rep: Representation, rule: HaarRule, *, rank_tol: float = RANK_TOL) -> CommutantReport:
    """Orthonormal basis of the commutant, read off the averaged superoperator.

    The map A -> integral of rho(x) A rho(x^-1) projects every matrix onto
    the commutant.  Its r^2 x r^2 matrix comes from one averaging contraction
    of rho against rho^-1 over the rule nodes, and its row space, cut off at
    ``rank_tol`` times the largest singular value, is the commutant.
    """
    _check_groups(rule, rep)
    r = rep.degree
    n = rule.node_count
    mats = rep.evaluate_batch(rule.nodes)
    mats_inv = rep.evaluate_batch(rule.group.invert_nodes(rule.nodes))
    # outer[i, k, l, j] = integral of rho_ik rhoinv_lj, the (i, j) entry of
    # the average of rho E_kl rho^-1; row (k, l) of the superoperator
    outer = integrate_product(rule, mats.reshape(n, 1, r * r), mats_inv.reshape(n, 1, r * r))
    rows = outer.reshape(r, r, r, r).transpose(1, 2, 0, 3).reshape(r * r, r * r)
    _, s, Vh = np.linalg.svd(rows)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    basis = Vh[:rank].reshape(rank, r, r)
    residual = _commutation_residual(mats, basis)
    return CommutantReport(dimension=rank, basis=list(basis), max_residual=residual)


def _commutation_residual(mats: np.ndarray, basis: np.ndarray) -> float:
    """max |rho B - B rho| over every node and basis element.

    Runs over chunks of (node, basis element) pairs, two GEMMs per chunk,
    with at most n/4 pairs per chunk so the temporaries (the two products,
    a transposed copy of the node chunk and the modulus) stay below the
    size of ``mats``.
    """
    n, r, _ = mats.shape
    m = basis.shape[0]
    pairs = max(1, n // 4)
    per_b = max(1, min(m, pairs))
    per_n = max(1, pairs // per_b)
    residual = 0.0
    for b0 in range(0, m, per_b):
        B = basis[b0:b0 + per_b]
        b = B.shape[0]
        right = B.transpose(1, 0, 2).reshape(r, b * r)     # [k, (b, j)]
        left = B.reshape(b * r, r)                          # [(b, i), k]
        for n0 in range(0, n, per_n):
            chunk = mats[n0:n0 + per_n]
            c = chunk.shape[0]
            rho_b = (chunk.reshape(c * r, r) @ right).reshape(c, r, b, r)
            b_rho = (left @ chunk.transpose(1, 0, 2).reshape(r, c * r)).reshape(b, r, c, r)
            rho_b -= b_rho.transpose(2, 1, 0, 3)
            residual = max(residual, linalg.max_abs(rho_b))
    return residual


def _ensure_unitary(rep: Representation, rule: HaarRule):
    """Return (unitary rep, basis change, inverse); the identity change when
    the input is already unitary on the rule nodes."""
    if unitarity_audit(rep, rule) <= UNITARY_TOL:
        eye = np.eye(rep.degree, dtype=complex)
        return rep, eye, eye
    result = unitarize(rep, rule)
    A = result.basis_change
    return result.unitary_rep, A, linalg.invert(A)


def irreducibility_test(rep: Representation, rule: HaarRule) -> bool:
    """Scalar-commutant criterion; non-unitary input is unitarized first."""
    work, _, _ = _ensure_unitary(rep, rule)
    return commutant(work, rule).dimension == 1


def _eigen_clusters(w: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Contiguous index ranges of ascending eigenvalues separated by more
    than ``gap``."""
    ranges = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            ranges.append((start, i))
            start = i
    ranges.append((start, len(w)))
    return ranges


def _splitting_eigensystem(report: CommutantReport, r: int):
    """Eigen-decomposition of a non-scalar Hermitian commutant element.

    Takes the first commutant basis element whose Hermitian part (or
    i times the anti-Hermitian part, whichever deviates more from a scalar)
    has at least two eigenvalue clusters; returns (eigenvalues, vectors,
    cluster ranges) or None when every element is effectively scalar.
    """
    eye = np.eye(r)
    for T in report.basis:
        herm = (T + T.conj().T) / 2.0
        anti = (T - T.conj().T) / 2j
        scored = []
        for H in (herm, anti):
            scored.append((linalg.max_abs(H - (np.trace(H) / r) * eye), H))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        deviation, H = scored[0]
        if deviation <= EIGENVALUE_GAP:
            continue
        w, V = linalg.hermitian_eigensystem(H)
        clusters = _eigen_clusters(w, EIGENVALUE_GAP)
        if len(clusters) >= 2:
            return w, V, clusters
    return None


def _materialize_blocks(rep: Representation, P: np.ndarray, P_inv: np.ndarray,
                        sizes: list[int]) -> list[Representation]:
    """Diagonal blocks of P rho P^-1 as representations: explicit tables over
    finite groups, block projections of the parent otherwise."""
    blocks = []
    if rep.group.kind == "finite":
        full = linalg.sandwich(P, rep.evaluate_batch(np.arange(rep.group.order)), P_inv)
        offset = 0
        for size in sizes:
            sl = slice(offset, offset + size)
            blocks.append(FiniteTableRepresentation(rep.group, full[:, sl, sl]))
            offset += size
    else:
        offset = 0
        for size in sizes:
            blocks.append(BlockRepresentation(rep, P, offset, size, P_inv=P_inv))
            offset += size
    return blocks


def split_once(rep: Representation, rule: HaarRule):
    """Split a reducible representation into two invariant blocks.

    Returns (P, (part_a, part_b)) with P rho(x) P^-1 block-diagonal.  P is
    unitary when the input already was; otherwise it includes the
    unitarization change of basis.  Raises AlreadyIrreducibleError when the
    commutant is scalar.
    """
    _check_groups(rule, rep)
    work, base, base_inv = _ensure_unitary(rep, rule)
    report = commutant(work, rule)
    if report.dimension < 2:
        raise AlreadyIrreducibleError("representation has a scalar commutant")
    eigensystem = _splitting_eigensystem(report, work.degree)
    if eigensystem is None:
        raise AlreadyIrreducibleError("no non-scalar commutant element found")
    _, V, clusters = eigensystem
    first = clusters[0][1] - clusters[0][0]
    P = V.conj().T @ base
    P_inv = base_inv @ V
    parts = _materialize_blocks(rep, P, P_inv, [first, rep.degree - first])
    return P, (parts[0], parts[1])


def _split_unitary_fully(work: Representation, rule: HaarRule):
    """Recursive splitting of a unitary representation; returns (Q, sizes)
    with Q unitary and Q work Q^-1 block-diagonal, every block irreducible."""
    report = commutant(work, rule)
    if report.dimension == 1:
        return np.eye(work.degree, dtype=complex), [work.degree]
    eigensystem = _splitting_eigensystem(report, work.degree)
    if eigensystem is None:
        return np.eye(work.degree, dtype=complex), [work.degree]
    _, V, clusters = eigensystem
    Vh = V.conj().T
    q_blocks = []
    sizes: list[int] = []
    for start, stop in clusters:
        sub = BlockRepresentation(work, Vh, start, stop - start, P_inv=V)
        Q_sub, sub_sizes = _split_unitary_fully(sub, rule)
        q_blocks.append(Q_sub)
        sizes.extend(sub_sizes)
    Q = np.zeros((work.degree, work.degree), dtype=complex)
    offset = 0
    for block in q_blocks:
        d = block.shape[0]
        Q[offset:offset + d, offset:offset + d] = block
        offset += d
    return Q @ Vh, sizes


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """A full splitting into irreducible blocks: the combined change of
    basis, the blocks, their characters, and the worst off-block leakage of
    P rho(x) P^-1 over the rule nodes."""

    P: np.ndarray
    blocks: list[Representation]
    block_characters: list[Character]
    residual: float

    def to_json_dict(self) -> dict:
        from .serialize import complex_list_to_json, matrix_to_json
        return {
            "P": matrix_to_json(self.P),
            "block_degrees": [b.degree for b in self.blocks],
            "block_characters": [complex_list_to_json(c.values) for c in self.block_characters],
            "residual": self.residual,
        }


def decompose(rep: Representation, rule: HaarRule) -> DecompositionReport:
    """Unitarize, then split recursively until every block is irreducible."""
    _check_groups(rule, rep)
    result = unitarize(rep, rule)
    Q, sizes = _split_unitary_fully(result.unitary_rep, rule)
    P = Q @ result.basis_change
    P_inv = linalg.invert(P)
    blocks = _materialize_blocks(rep, P, P_inv, sizes)
    block_chars = [character(b, rule) for b in blocks]

    full = linalg.sandwich(P, rep.evaluate_batch(rule.nodes), P_inv)
    mask = np.ones((rep.degree, rep.degree), dtype=bool)
    offset = 0
    for size in sizes:
        mask[offset:offset + size, offset:offset + size] = False
        offset += size
    residual = float(np.abs(full[:, mask]).max()) if mask.any() else 0.0
    return DecompositionReport(P=P, blocks=blocks, block_characters=block_chars, residual=residual)


def character_inner(c1: Character, c2: Character, rule: HaarRule) -> complex:
    """Integral of c1 times the conjugate of c2 over the rule."""
    if not (c1.rule.same_rule(rule) and c2.rule.same_rule(rule)):
        raise RuleMismatchError("characters were sampled over a different Haar rule")
    return integrate_values(rule, c1.values * np.conj(c2.values))


def orthogonality_audit(reps, rule: HaarRule) -> np.ndarray:
    """Residual matrix |<chi_i, chi_j> - delta_ij| over irreducible
    representations; raises NotIrreducibleError if any input fails the
    scalar-commutant test."""
    reps = list(reps)
    _check_groups(rule, *reps)
    for i, rep in enumerate(reps):
        if not irreducibility_test(rep, rule):
            raise NotIrreducibleError(f"representation {i} is not irreducible")
    chars = [character(rep, rule) for rep in reps]
    n = len(reps)
    residual = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            inner = character_inner(chars[i], chars[j], rule)
            residual[i, j] = abs(inner - (1.0 if i == j else 0.0))
    return residual


def matrix_element_audit(rep: Representation, rule: HaarRule) -> float:
    """Largest deviation of integral of rho_ij conj(rho_kl) from the scalar
    orthogonality pattern delta_ik delta_jl / degree, over all index
    quadruples of an irreducible unitary representation."""
    _check_groups(rule, rep)
    if not irreducibility_test(rep, rule):
        raise NotIrreducibleError("matrix-element orthogonality requires an irreducible input")
    r = rep.degree
    flat = rep.evaluate_batch(rule.nodes).reshape(rule.node_count, 1, r * r)
    gram = integrate_product(rule, flat, flat.conj())
    return linalg.max_abs(gram - np.eye(r * r) / r)


def multiplicity(rep: Representation, irrep: Representation, rule: HaarRule) -> int:
    """Nearest integer to <chi_rep, chi_irrep>; raises when the inner product
    is further than 0.05 from an integer (an under-resolved rule)."""
    _check_groups(rule, rep, irrep)
    if not irreducibility_test(irrep, rule):
        raise NotIrreducibleError("multiplicity requires an irreducible reference representation")
    inner = character_inner(character(rep, rule), character(irrep, rule), rule)
    nearest = int(round(inner.real))
    if abs(inner - nearest) > MULTIPLICITY_WINDOW or nearest < 0:
        raise NonIntegerMultiplicityError(
            f"character inner product {inner:.6f} is not close to a non-negative integer")
    return nearest
