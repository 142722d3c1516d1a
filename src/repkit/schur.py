"""Commutants, intertwiners, irreducibility, block splitting and the
orthogonality integrals.

The workhorse is group averaging: T(A) = integral of rho(x) A sigma(x^-1) is
an intertwiner for any seed matrix A.  For sigma = rho, the map A -> T(A) is
the projection onto the commutant; its r^2 x r^2 matrix is one averaging
contraction of rho against rho^-1 over the rule nodes, the commutant is its
row space, and its trace is the character norm integral of |chi|^2.  The same
contraction of rho against conj(rho) gives every matrix-element integral at
once.  Scalar commutant (dimension one) is the irreducibility criterion.

Splitting rests on Schur's lemma: the commutant of a unitary representation
is a direct sum of full matrix algebras M_{m_i}, one per isotypic component,
so the eigenspaces of one generic Hermitian commutant element are already
the irreducible blocks.  ``split_once`` and ``decompose`` take one route: an
input that fails the unitarity audit is first conjugated by the Cholesky
factor of its averaged form, then one commutant and one eigendecomposition
split it completely.  Every block, over any group kind, is a
``BlockRepresentation`` of the input.  The character norms of the blocks and
of the whole are checked against 1 and against the commutant dimension, so
an under-resolved rule is refused instead of giving wrong blocks.

Each public call evaluates its input once at the rule nodes and, where it
needs them, once at their inverses (``HaarRule.inverse_nodes``); the stacks
pass from step to step in a ``TabulatedRepresentation`` that lives only as
long as the call.  ``decompose`` is the one exception: it evaluates the rule
nodes again for its final sandwich rather than keep that stack alive next
to the two unitarized ones.

Each discrete answer is one threshold decision against one module constant:
``RANK_TOL`` for the commutant dimension, ``CLUSTER_GAP`` for the block
sizes, ``UNITARY_TOL`` for whether to unitarize, ``MULTIPLICITY_WINDOW`` for
the character-norm checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    TabulatedRepresentation,
    character,
    check_rule_group,
    conjugate,
    tabulate,
    unitarity_defect,
)
from .unitarization import RANK_TOL, invariant_gram

UNITARY_TOL = 1e-8
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
    and the character norm (integral of chi(x) chi(x^-1), which equals the
    dimension when the rule resolves the representation)."""

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
    """Orthonormal basis of the commutant, read off the averaged superoperator.

    The map A -> integral of rho(x) A rho(x^-1) projects every matrix onto
    the commutant.  Its r^2 x r^2 matrix comes from one averaging contraction
    of rho against rho^-1 over the rule nodes, and its row space, cut off at
    ``RANK_TOL`` times the largest singular value, is the commutant.  Its
    trace is the character norm.
    """
    check_rule_group(rule, rep)
    r = rep.degree
    n = rule.node_count
    mats = rep.evaluate_batch(rule.nodes)
    mats_inv = rep.evaluate_batch(rule.inverse_nodes)
    # outer[i, k, l, j] = integral of rho_ik rhoinv_lj, the (i, j) entry of
    # the average of rho E_kl rho^-1; row (k, l) of the superoperator
    outer = integrate_product(rule, mats.reshape(n, 1, r * r), mats_inv.reshape(n, 1, r * r))
    rows = outer.reshape(r, r, r, r).transpose(1, 2, 0, 3).reshape(r * r, r * r)
    _, s, Vh = np.linalg.svd(rows)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    basis = Vh[:rank].reshape(rank, r, r)
    residual = _commutation_residual(mats, basis)
    return CommutantReport(dimension=rank, basis=list(basis), max_residual=residual,
                           character_norm=float(np.trace(rows).real))


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
    """Return (unitary rep, basis change A, A^-1): the identity change when
    the input passes the unitarity audit, else the Cholesky factor of its
    averaged form.

    The input is evaluated once at the rule nodes and once at their
    inverses, and the unitary rep is tabulated at both, so a ``commutant``
    of it evaluates nothing.  The stack at the nodes is used up forming the
    unitarized one before the inverse nodes are evaluated, so no more
    stacks are alive at once than in ``commutant`` itself.
    """
    mats = rep.evaluate_batch(rule.nodes)
    if unitarity_defect(mats) <= UNITARY_TOL:
        eye = np.eye(rep.degree, dtype=complex)
        stacks = [(rule.nodes, mats), (rule.inverse_nodes, rep.evaluate_batch(rule.inverse_nodes))]
        return TabulatedRepresentation(rep, stacks), eye, eye
    work = conjugate(rep, linalg.cholesky_hermitian(invariant_gram(rule, mats)[0]))
    A, A_inv = work.matrix, work.matrix_inv
    mats = linalg.sandwich(A, mats, A_inv)
    mats_inv = linalg.sandwich(A, rep.evaluate_batch(rule.inverse_nodes), A_inv)
    return TabulatedRepresentation(work, [(rule.nodes, mats), (rule.inverse_nodes, mats_inv)]), A, A_inv


def unitary_commutant(rep: Representation, rule: HaarRule) -> CommutantReport:
    """The commutant of the input in a unitary basis: of the input itself
    when it passes the unitarity audit, else of the input conjugated by the
    Cholesky factor of its averaged form.  Its dimension is the input's
    commutant dimension, and its basis is orthonormal in that basis."""
    check_rule_group(rule, rep)
    work, _, _ = _ensure_unitary(rep, rule)
    return commutant(work, rule)


def irreducibility_test(rep: Representation, rule: HaarRule) -> bool:
    """Scalar-commutant criterion; non-unitary input is unitarized first."""
    return unitary_commutant(rep, rule).dimension == 1


def _unresolved(rule: HaarRule, basis_change: np.ndarray) -> str:
    """The two causes of a character-norm refusal, with their sizes."""
    return (f"the {rule.group.kind} rule at resolution {rule.resolution} ({rule.node_count} nodes) "
            f"under-resolves this representation, or its basis change to a unitary one "
            f"(condition number {np.linalg.cond(basis_change):.3g}) is too ill-conditioned for it")


def _split(rep: Representation, rule: HaarRule):
    """The route ``split_once`` and ``decompose`` share: (P, P^-1, blocks)
    with P rho(x) P^-1 block-diagonal, P the splitting change times the
    unitarization change from ``_ensure_unitary``, and each block a
    ``BlockRepresentation`` of the input."""
    check_rule_group(rule, rep)
    work, A, A_inv = _ensure_unitary(rep, rule)
    try:
        Q, sizes = _split_unitary_fully(work, rule)
    except NotIrreducibleError as exc:
        raise NotIrreducibleError(f"{exc}: {_unresolved(rule, A)}") from None
    P, P_inv = Q @ A, A_inv @ Q.conj().T
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()
    return P, P_inv, [BlockRepresentation(rep, P, o, d, P_inv=P_inv) for o, d in zip(offsets, sizes)]


def split_once(rep: Representation, rule: HaarRule):
    """Split a reducible representation into two invariant blocks.

    The route of ``decompose``, cut into the first eigenvalue cluster (an
    irreducible block) against the rest, so P is the same matrix.  Returns
    (P, (part_a, part_b)) with P rho(x) P^-1 block-diagonal and both parts
    ``BlockRepresentation``s of the input.  P is unitary when the input
    passes the unitarity audit; otherwise it includes the unitarization
    change of basis.  Raises AlreadyIrreducibleError when the commutant is
    scalar, and NotIrreducibleError when the rule under-resolves the
    representation or the basis change to a unitary one is too
    ill-conditioned for it (see ``_split_unitary_fully``).
    """
    P, P_inv, blocks = _split(rep, rule)
    if len(blocks) < 2:
        raise AlreadyIrreducibleError("representation has a scalar commutant")
    first = blocks[0].degree
    return P, (blocks[0], BlockRepresentation(rep, P, first, rep.degree - first, P_inv=P_inv))


def _split_unitary_fully(work: Representation, rule: HaarRule):
    """One eigen-step splitting a unitary representation into irreducibles.

    A generic Hermitian commutant element has m_i distinct eigenvalues on
    the isotypic component of an irreducible of multiplicity m_i, each
    eigenspace one copy of it.  The element is the Hermitian part of a
    complex Gaussian combination of the commutant basis, drawn from
    ``SPLIT_SEED`` so the answer repeats exactly.  Its ascending eigenvalues
    are cut where neighbours differ by more than ``CLUSTER_GAP`` times their
    spread.  Returns (Q, sizes) with Q unitary and Q work Q^-1
    block-diagonal, blocks in ascending eigenvalue order.  Raises
    NotIrreducibleError when the commutant dimension and the character norm
    disagree by more than ``MULTIPLICITY_WINDOW``.
    """
    report = commutant(work, rule)
    if abs(report.character_norm - report.dimension) > MULTIPLICITY_WINDOW:
        raise NotIrreducibleError(
            f"commutant dimension {report.dimension} but character norm {report.character_norm:.6f}")
    if report.dimension <= 1:
        return np.eye(work.degree, dtype=complex), [work.degree]
    g = np.random.default_rng(SPLIT_SEED).standard_normal((2, report.dimension))
    w, V = linalg.hermitian_eigensystem(np.tensordot(g[0] + 1j * g[1], report.basis, axes=1))
    # cluster boundaries: both ends and every gap wider than the cut-off
    bounds = np.flatnonzero(np.r_[True, np.diff(w) > CLUSTER_GAP * (w[-1] - w[0]), True])
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
    """Split into irreducible blocks in one eigen-step, on the route of
    ``split_once``.

    P is the splitting basis change times the unitarization change, which is
    the identity when the input passes the unitarity audit; every block is a
    ``BlockRepresentation`` of the input, in ascending eigenvalue order of
    the seeded commutant element.  The block characters and the off-block
    leakage are read off one evaluation of P rho P^-1 at the rule nodes; the
    degree check at the identity allows roundoff of order cond(P).  Raises
    NotIrreducibleError, naming the rule, when a block's character norm is
    not within ``MULTIPLICITY_WINDOW`` of 1 or the input's is not within it
    of the commutant dimension: the rule under-resolves the representation.
    """
    P, P_inv, blocks = _split(rep, rule)
    full = linalg.sandwich(P, rep.evaluate_batch(rule.nodes), P_inv)
    at_identity = P @ rep.evaluate(rep.group.identity_element()) @ P_inv
    identity_tol = IDENTITY_TOL * np.linalg.cond(P)
    mask = np.ones((rep.degree, rep.degree), dtype=bool)
    block_chars = []
    offset = 0
    for block in blocks:
        sl = slice(offset, offset + block.degree)
        offset += block.degree
        mask[sl, sl] = False
        ident_trace = np.trace(at_identity[sl, sl])
        if abs(ident_trace - block.degree) > identity_tol * (1 + block.degree):
            raise ValueError(f"character at the identity is {ident_trace}, expected degree {block.degree}")
        values = np.einsum("nii->n", full[:, sl, sl])
        norm = integrate_values(rule, np.abs(values) ** 2).real
        if abs(norm - 1.0) > MULTIPLICITY_WINDOW:
            raise NotIrreducibleError(
                f"a block of degree {block.degree} has character norm {norm:.6f}, not 1: "
                f"{_unresolved(rule, P)}")
        block_chars.append(Character(rep=block, rule=rule, values=values, degree=block.degree))
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
    check_rule_group(rule, *reps)
    chars = []
    for i, rep in enumerate(reps):
        seen = tabulate(rep, rule)
        if not irreducibility_test(seen, rule):
            raise NotIrreducibleError(f"representation {i} is not irreducible")
        # the character reads the stack the test evaluated, and keeps the input
        chars.append(replace(character(seen, rule), rep=rep))
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
    seen = tabulate(rep, rule)
    if not irreducibility_test(seen, rule):
        raise NotIrreducibleError("matrix-element orthogonality requires an irreducible input")
    r = rep.degree
    flat = seen.evaluate_batch(rule.nodes).reshape(rule.node_count, 1, r * r)
    gram = integrate_product(rule, flat, flat.conj())
    return linalg.max_abs(gram - np.eye(r * r) / r)


def multiplicity(rep: Representation, irrep: Representation, rule: HaarRule) -> int:
    """Nearest integer to <chi_rep, chi_irrep>; raises when the inner product
    is further than 0.05 from an integer (an under-resolved rule)."""
    check_rule_group(rule, rep, irrep)
    seen = tabulate(irrep, rule)
    if not irreducibility_test(seen, rule):
        raise NotIrreducibleError("multiplicity requires an irreducible reference representation")
    inner = character_inner(character(rep, rule), character(seen, rule), rule)
    nearest = int(round(inner.real))
    if abs(inner - nearest) > MULTIPLICITY_WINDOW or nearest < 0:
        raise NonIntegerMultiplicityError(
            f"character inner product {inner:.6f} is not close to a non-negative integer")
    return nearest
