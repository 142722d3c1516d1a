"""Commutants, intertwiners, irreducibility, block splitting and the
orthogonality integrals.

The workhorse is group averaging: T(A) = integral of rho(x) A sigma(x^-1) is
an intertwiner for any seed matrix A.  Every commutant is read off one
object, the averaging map B -> integral of W* B W of the unitary stack
W = A rho A^-1 that ``unitarization._unitary`` returns (A is the identity
when the input passes its unitarity audit): its fixed Hermitian
matrices K span the commutant of W, the commutant of the input is
A^-1 K A, and its trace is the character norm integral of |chi|^2.  The
contraction of rho against conj(rho) gives every matrix-element integral at
once.  Scalar commutant (dimension one) is the irreducibility criterion;
``_irreducible`` reads only that dimension, with no commutation residual.

Splitting follows the proof of Schur's lemma and never forms the averaging
map.  ``split_once`` and ``decompose`` take the same unitary stack, then the
eigenspaces of one averaged Hermitian seed T(X), a generic commutant
element, are the irreducible blocks.  Every block is a
``BlockRepresentation`` of the input.  Blocks whose character norms are not
1, or whose isotypic multiplicities disagree with the character norm of the
whole, are refused, so an under-resolved rule gives no wrong blocks.

Each public call evaluates its input once at the rule nodes
(``tabulate``) and hands that stack to its steps; only
``averaged_intertwiner`` also evaluates at their inverses
(``HaarRule.inverse_nodes``).  Nothing else needs them: rho(x^-1) = W(x)^*
once the stack W is unitary.

Each discrete answer is one threshold decision against one module constant:
``unitarization.RANK_TOL`` for the commutant dimension, ``CLUSTER_GAP`` for
the block sizes, ``unitarization.UNITARY_TOL`` for whether to unitarize,
``MULTIPLICITY_WINDOW`` for the character-norm checks.
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
    IDENTITY_TOL,
    BlockRepresentation,
    Character,
    Representation,
    _character,
    character,
    check_rule_group,
    tabulate,
)
from .unitarization import _unitary, fixed_hermitian

CLUSTER_GAP = 1e-6
SPLIT_SEED = 0
MULTIPLICITY_WINDOW = 0.05


def averaged_intertwiner(phi: Representation, psi: Representation, A, rule: HaarRule) -> np.ndarray:
    """T = integral of phi(x) A psi(x^-1): intertwines phi and psi.

    Between non-equivalent irreducibles the result vanishes for every seed A;
    for phi = psi irreducible it is tr(A)/degree times the identity.
    """
    if phi.group != psi.group:
        raise GroupMismatchError("the two representations live over different groups")
    check_rule_group(rule, phi)
    A = linalg.as_matrix(A)
    if A.shape != (phi.degree, psi.degree):
        raise ShapeMismatchError(f"seed matrix must be {phi.degree}x{psi.degree}, got {A.shape}")
    phis = phi.evaluate_batch(rule.nodes)
    psis_inv = psi.evaluate_batch(rule.inverse_nodes)
    return integrate_stacked(rule, phis @ A[None] @ psis_inv)


@dataclass(frozen=True, eq=False)
class CommutantReport:
    """Orthonormal basis (Frobenius) of matrices commuting with the whole
    representation, with the worst commutation defect over the rule nodes
    and the character norm (integral of |chi|^2, the trace of the averaging
    map, which equals the dimension when the rule resolves the input)."""

    dimension: int
    basis: list[np.ndarray]
    max_residual: float
    character_norm: float

    def to_json_dict(self) -> dict:
        from .serialize import matrix_to_json
        return {
            "dimension": self.dimension,
            "basis": [matrix_to_json(B) for B in self.basis],
            "max_residual": self.max_residual,
            "character_norm": self.character_norm,
        }


def commutant(rep: Representation, rule: HaarRule) -> CommutantReport:
    """Orthonormal basis of the commutant: A^-1 K A, orthonormalized, over
    the fixed Hermitian matrices K of the averaging map of the unitary stack
    W = A rho A^-1, read off one symmetric eigensolve (``fixed_hermitian``),
    with its residual on the input's own stack and the trace of the map as
    the character norm."""
    mats = tabulate(rep, rule)
    W, A, A_inv = _unitary(rule, mats)
    K, norm = fixed_hermitian(rule, W)
    del W  # the residual reads the input's own stack
    basis = np.linalg.qr((A_inv @ K @ A).reshape(len(K), -1).T)[0].T.reshape(K.shape)
    return CommutantReport(dimension=len(K), basis=list(basis),
                           max_residual=_commutation_residual(mats, basis), character_norm=norm)


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


def unitary_commutant(rep: Representation, rule: HaarRule) -> CommutantReport:
    """The commutant in the unitary basis W = A rho A^-1 of ``commutant``:
    the fixed Hermitian matrices K of one symmetric eigensolve
    (``fixed_hermitian``) themselves, with their residual on W; its
    dimension is the input's commutant dimension."""
    W = _unitary(rule, tabulate(rep, rule))[0]
    K, norm = fixed_hermitian(rule, W)
    return CommutantReport(dimension=len(K), basis=list(K), max_residual=_commutation_residual(W, K),
                           character_norm=norm)


def irreducibility_test(rep: Representation, rule: HaarRule) -> bool:
    """Scalar-commutant criterion; non-unitary input is unitarized first."""
    return _irreducible(rule, tabulate(rep, rule))


def _irreducible(rule: HaarRule, mats: np.ndarray) -> bool:
    """``irreducibility_test`` read off ``mats``, the stack of rho at the rule
    nodes: the dimension of the fixed space of its unitary stack, and
    nothing else."""
    return len(fixed_hermitian(rule, _unitary(rule, mats)[0])[0]) == 1


def _unresolved(rule: HaarRule, basis_change: np.ndarray) -> str:
    """The two causes of a character-norm refusal, with their sizes."""
    return (f"the {rule.group.kind} rule at resolution {rule.resolution} ({rule.node_count} nodes) "
            f"under-resolves this representation, or its basis change to a unitary one "
            f"(condition number {np.linalg.cond(basis_change):.3g}) is too ill-conditioned for it")


def _split(rep: Representation, rule: HaarRule):
    """The route ``split_once`` and ``decompose`` share: (report, P^-1),
    with P = Q A for the unitarization A and the split Q of W = A rho A^-1.

    The block characters and the off-block leakage are read off Q W Q^* in
    node chunks.  Every block's character norm must be 1, and the squared
    multiplicities of the isotypic classes (blocks grouped by character
    inner product) must sum to the input's character norm.
    """
    W, A, A_inv = _unitary(rule, tabulate(rep, rule))
    Q, sizes = _split_unitary_fully(W, rule)
    P, P_inv = Q @ A, A_inv @ Q.conj().T
    starts = np.cumsum([0, *sizes[:-1]])
    label = np.repeat(np.arange(len(sizes)), sizes)
    values = np.empty((len(sizes), len(W)), dtype=complex)
    leakage = 0.0
    for i in range(0, len(W), linalg.NODE_CHUNK):
        chunk = linalg.sandwich(Q, W[i:i + linalg.NODE_CHUNK], Q.conj().T)
        values[:, i:i + len(chunk)] = np.add.reduceat(np.einsum("nii->ni", chunk), starts, axis=1).T
        leakage = max(leakage, linalg.max_abs(chunk[:, label[:, None] != label[None, :]]))
    # inner[a, b] = integral of chi_a conj(chi_b): 1 inside an isotypic class
    # and 0 across, so classes are cut at 1/2; its sum is the input's norm
    inner = integrate_product(rule, values.T[:, None], values.T.conj()[:, None])
    for size, norm in zip(sizes, inner.diagonal().real):
        if abs(norm - 1.0) > MULTIPLICITY_WINDOW:
            raise NotIrreducibleError(
                f"a block of degree {size} has character norm {norm:.6f}, not 1: {_unresolved(rule, A)}")
    m = np.bincount(np.argmax(np.abs(inner) > 0.5, axis=0))
    if abs(np.sum(m ** 2) - inner.sum().real) > MULTIPLICITY_WINDOW:
        raise NotIrreducibleError(
            f"the blocks form isotypic classes of multiplicities {m[m > 0].tolist()} but the character "
            f"norm is {inner.sum().real:.6f}, not {np.sum(m ** 2)}: {_unresolved(rule, A)}")
    at_identity = P @ rep.evaluate(rep.group.identity_element()) @ P_inv
    identity_tol = IDENTITY_TOL * np.linalg.cond(P)
    blocks, chars = [], []
    for offset, size, chi in zip(starts.tolist(), sizes, values):
        ident_trace = np.trace(at_identity[offset:offset + size, offset:offset + size])
        if abs(ident_trace - size) > identity_tol * (1 + size):
            raise ValueError(f"character at the identity is {ident_trace}, expected degree {size}")
        blocks.append(BlockRepresentation(rep, P, offset, size, P_inv=P_inv))
        chars.append(Character(rep=blocks[-1], rule=rule, values=chi, degree=size))
    return DecompositionReport(P=P, blocks=blocks, block_characters=chars, residual=leakage), P_inv


def split_once(rep: Representation, rule: HaarRule):
    """Split a reducible representation into two invariant blocks.

    The route of ``decompose``, cut into the first eigenvalue cluster (an
    irreducible block) against the rest, so P is the same matrix.  Returns
    (P, (part_a, part_b)) with P rho(x) P^-1 block-diagonal and both parts
    ``BlockRepresentation``s of the input.  P is unitary when the input
    passes the unitarity audit; otherwise it includes the unitarization
    change of basis.  Raises AlreadyIrreducibleError when the averaged seed
    gives one block, and NotIrreducibleError as ``decompose`` does.
    """
    report, P_inv = _split(rep, rule)
    if len(report.blocks) < 2:
        raise AlreadyIrreducibleError("representation has a scalar commutant")
    first = report.blocks[0].degree
    return report.P, (report.blocks[0],
                      BlockRepresentation(rep, report.P, first, rep.degree - first, P_inv=P_inv))


def _split_unitary_fully(W: np.ndarray, rule: HaarRule):
    """One averaged seed splitting the unitary stack W (n, r, r) of a
    representation at the rule nodes into irreducibles.

    T(X) = sum of w_n W_n X W_n^* projects X onto the commutant, a direct
    sum of full matrix algebras M_{m_i}.  For a generic Hermitian X,
    drawn from ``SPLIT_SEED``, it has m_i distinct eigenvalues on the
    isotypic component of multiplicity m_i, each eigenspace one copy.  It
    is summed in chunks of ``linalg.NODE_CHUNK`` nodes, O(N r^3) work.  Its
    ascending eigenvalues are cut where neighbours differ by more than
    ``CLUSTER_GAP`` times the larger of their spread and |X|_2: on an
    irreducible input T(X) = tr(X)/r I, and the spread is roundoff.
    Returns (Q, sizes), Q unitary, blocks in ascending eigenvalue order.
    """
    r = W.shape[-1]
    g = np.random.default_rng(SPLIT_SEED).standard_normal((2, r, r))
    X = g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T
    T = np.zeros((r, r), dtype=complex)
    for i in range(0, len(W), linalg.NODE_CHUNK):
        nodes = slice(i, i + linalg.NODE_CHUNK)
        # T_ij += sum over (node n, column l) of (W_n X)_il w_n conj(W_n)_jl
        left = (W[nodes].reshape(-1, r) @ X).reshape(-1, r, r).transpose(1, 0, 2).reshape(r, -1)
        right = (W[nodes].conj() * rule.weights[nodes, None, None]).transpose(1, 0, 2).reshape(r, -1)
        T += left @ right.T
    w, V = linalg.hermitian_eigensystem(T)
    # cluster boundaries: both ends and every gap wider than the cut-off
    cut = CLUSTER_GAP * max(w[-1] - w[0], np.linalg.norm(X, 2))
    bounds = np.flatnonzero(np.r_[True, np.diff(w) > cut, True])
    return V.conj().T, np.diff(bounds).tolist()


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
    """Split into irreducible blocks with one averaged seed, on the route of
    ``split_once``, evaluating the input once at the rule nodes.

    P is the splitting change times the unitarization change A (the
    identity when the input passes the unitarity audit); the blocks are
    ``BlockRepresentation``s of the input in ascending eigenvalue order of
    the seed.  The degree check at the identity allows roundoff of order
    cond(P).  Raises NotIrreducibleError, naming the rule and cond(A), when
    a block's character norm or the sum of squared isotypic multiplicities
    misses its target by more than ``MULTIPLICITY_WINDOW``.
    """
    return _split(rep, rule)[0]


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
    check_rule_group(rule, *reps)
    chars = []
    for i, rep in enumerate(reps):
        mats = tabulate(rep, rule)
        if not _irreducible(rule, mats):
            raise NotIrreducibleError(f"representation {i} is not irreducible")
        chars.append(_character(rep, rule, mats))
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
    mats = tabulate(rep, rule)
    if not _irreducible(rule, mats):
        raise NotIrreducibleError("matrix-element orthogonality requires an irreducible input")
    r = rep.degree
    flat = mats.reshape(rule.node_count, 1, r * r)
    gram = integrate_product(rule, flat, flat.conj())
    return linalg.max_abs(gram - np.eye(r * r) / r)


def multiplicity(rep: Representation, irrep: Representation, rule: HaarRule) -> int:
    """Nearest integer to <chi_rep, chi_irrep>; raises when the inner product
    is further than 0.05 from an integer (an under-resolved rule)."""
    check_rule_group(rule, rep, irrep)
    mats = tabulate(irrep, rule)
    if not _irreducible(rule, mats):
        raise NotIrreducibleError("multiplicity requires an irreducible reference representation")
    inner = character_inner(character(rep, rule), _character(irrep, rule, mats), rule)
    nearest = int(round(inner.real))
    if abs(inner - nearest) > MULTIPLICITY_WINDOW or nearest < 0:
        raise NonIntegerMultiplicityError(
            f"character inner product {inner:.6f} is not close to a non-negative integer")
    return nearest
