"""Commutants, intertwiners, irreducibility, block splitting and the
orthogonality integrals.

The workhorse is group averaging: T(A) = integral of rho(x) A sigma(x^-1) is
an intertwiner for any seed matrix A.  Every commutant is read off one
object, the averaging map B -> integral of W* B W of the unitary stack
W = A rho A^-1 that ``unitarization._unitary`` returns (A is the identity
when the input passes its unitarity audit): its fixed Hermitian
matrices K span the commutant of W, read by a certified Rayleigh-Ritz
step on the map's symmetric part (``unitarization.fixed_hermitian``), the
commutant of the input is A^-1 K A, and its trace is the character norm
integral of |chi|^2.  The map is summed block by block from the averaged
outer product of the flattened matrices (``unitarization._AveragingMap``),
and that outer product, every matrix-element integral at once, is read
back off it.
Scalar commutant (dimension one) is the irreducibility criterion;
``_irreducible`` reads only that dimension, with no commutation residual.

Splitting follows the proof of Schur's lemma and never forms the averaging
map.  ``split_once`` and ``decompose`` take the same unitary stack, then the
eigenspaces of one averaged Hermitian seed T(X), a generic commutant
element, are the irreducible blocks.  Every block is a
``BlockRepresentation`` of the input.  Blocks whose character norms are not
1, or whose isotypic multiplicities disagree with the character norm of the
whole, are refused, so an under-resolved rule gives no wrong blocks.

Every call reads its input in passes over the rule nodes
(``representations.node_chunks``), chunks of ``EVAL_CHUNK`` nodes in one
buffer each pass reuses, handed out in sub-chunks of ``linalg.NODE_CHUNK``
nodes, so no call holds an (N, r, r) node stack, and every average but
the averaging map is one ``groups.ProductSum`` of a pair of views of each
sub-chunk (``unitarization._unitary``): the split seed forms W X one
sub-chunk at a time, and the split's leakage is read per sub-chunk too,
so every temporary but the chunk buffers and the one real r^4 map is
sub-chunk-sized.  Only ``_commutation_residual`` cuts its sub-chunk
again, by the number of basis elements, into pieces of at most as many
(node, element) pairs as the sub-chunk has nodes.  None evaluates at the
inverse nodes: rho(x^-1) = W(x)^* once the stack W is unitary, and
``averaged_intertwiner`` reads psi(x^-1) = B^-1 W(x)^* B off the unitary
stack W = B psi B^-1 of its second input, with phi's sub-chunks read in
step.  On input that passes
the unitarity audit, the first pass (``unitarization._unitary``) also
sums the averaging map or the split seed and reads the character; other
input takes a second pass in the unitary basis.  A step that needs a
whole average before it reads the nodes again takes one more pass: the
commutation residual of ``commutant`` and
``unitary_commutant``, the block characters and leakage of the split, and
the input's own matrix-element Gram of ``matrix_element_audit`` on input
that fails the audit.

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
from .groups import HaarRule, _weighted_fsum_rows, integrate_product, integrate_values
from .representations import (
    BlockRepresentation,
    Character,
    ConjugatedRepresentation,
    Representation,
    _average,
    _character,
    _PairSum,
    character,
    check_rule_group,
    node_chunks,
)
from .unitarization import _AveragingMap, _identity_or, _unitary, fixed_hermitian

CLUSTER_GAP = 1e-6
SPLIT_SEED = 0
MULTIPLICITY_WINDOW = 0.05


def averaged_intertwiner(phi: Representation, psi: Representation, A, rule: HaarRule) -> np.ndarray:
    """T = integral of phi(x) A psi(x^-1): intertwines phi and psi.

    Between non-equivalent irreducibles the result vanishes for every seed A;
    for phi = psi irreducible it is tr(A)/degree times the identity.  On the
    unitary stack W = B psi B^-1 (``_unitary``), psi(x^-1) = B^-1 W(x)^* B,
    so T = [sum of w_n phi_n C W_n^*] B with C = A B^-1, one averaging
    contraction of the two inputs' sub-chunks at the same rule nodes: one pass
    over each when psi passes the unitarity audit, two otherwise.
    """
    if phi.group != psi.group:
        raise GroupMismatchError("the two representations live over different groups")
    check_rule_group(rule, phi)
    A = linalg.as_matrix(A)
    if A.shape != (phi.degree, psi.degree):
        raise ShapeMismatchError(f"seed matrix must be {phi.degree}x{psi.degree}, got {A.shape}")

    def terms(basis):
        # sum of w_n phi_n C W_n^* is the transpose of the sum of the pairs
        # (W_n^T, (phi_n C)^T): the pairs come a sub-chunk at a time, and
        # phi's sub-chunk at the same nodes comes in step, multiplied in
        # place when C is square
        C = A if basis is None else A @ basis[1]
        phis = (M for _, M in node_chunks(phi, rule))

        def pair(W):
            M = next(phis)
            M = np.matmul(M, C, out=M if C.shape[0] == C.shape[1] else None)
            return W.transpose(0, 2, 1), M.transpose(0, 2, 1)

        return _PairSum(rule, pair)

    total, basis = _unitary(psi, rule, terms)
    return total.take().T @ _identity_or(basis, psi.degree)[0]


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
    W = A rho A^-1, read by a certified Rayleigh-Ritz step (``fixed_hermitian``),
    with the trace of the map as the character norm and the residual read
    on the input's own matrices in one more pass."""
    maps, change = _unitary(rep, rule, lambda _: _AveragingMap(rule))
    K, norm = fixed_hermitian(maps)
    A, A_inv = _identity_or(change, rep.degree)
    basis = np.linalg.qr((A_inv @ K @ A).reshape(len(K), -1).T)[0].T.reshape(K.shape)
    residual = max(_commutation_residual(sub, basis) for _, sub in node_chunks(rep, rule))
    return CommutantReport(dimension=len(K), basis=list(basis), max_residual=residual, character_norm=norm)


def _commutation_residual(mats: np.ndarray, basis: np.ndarray) -> float:
    """max |rho B - B rho| over every node and basis element.

    ``mats`` is a sub-chunk of a pass of c nodes, cut once more into
    pieces of max(1, c/m) nodes, two GEMMs per piece against all m basis
    elements at once, so a piece holds at most max(c, m) (node, element)
    pairs and its temporaries (the two products, a transposed copy of the
    nodes and the modulus) are sub-chunk-sized.
    """
    n, r, _ = mats.shape
    m = basis.shape[0]
    right = basis.transpose(1, 0, 2).reshape(r, m * r)     # [k, (b, j)]
    left = basis.reshape(m * r, r)                          # [(b, i), k]
    per_n = max(1, n // m)
    residual = 0.0
    for n0 in range(0, n, per_n):
        chunk = mats[n0:n0 + per_n]
        c = chunk.shape[0]
        rho_b = (chunk.reshape(c * r, r) @ right).reshape(c, r, m, r)
        b_rho = (left @ chunk.transpose(1, 0, 2).reshape(r, c * r)).reshape(m, r, c, r)
        rho_b -= b_rho.transpose(2, 1, 0, 3)
        residual = max(residual, linalg.max_abs(rho_b))
    return residual


def unitary_commutant(rep: Representation, rule: HaarRule) -> CommutantReport:
    """The commutant in the unitary basis W = A rho A^-1 of ``commutant``:
    the fixed Hermitian matrices K of the Rayleigh-Ritz reading
    (``fixed_hermitian``) themselves, with their residual on W read in one
    more pass; its dimension is the input's commutant dimension."""
    maps, basis = _unitary(rep, rule, lambda _: _AveragingMap(rule))
    K, norm = fixed_hermitian(maps)
    residual = max(_commutation_residual(sub, K) for _, sub in node_chunks(rep, rule, basis))
    return CommutantReport(dimension=len(K), basis=list(K), max_residual=residual, character_norm=norm)


def irreducibility_test(rep: Representation, rule: HaarRule) -> bool:
    """Scalar-commutant criterion; non-unitary input is unitarized first."""
    return _irreducible(rep, rule)


def _irreducible(rep: Representation, rule: HaarRule, raw=None) -> bool:
    """``irreducibility_test``: the dimension of the fixed space of the
    unitary stack of ``rep``, and nothing else; ``raw`` reads the input's
    own sub-chunks on the first pass (``_unitary``)."""
    return len(fixed_hermitian(_unitary(rep, rule, lambda _: _AveragingMap(rule), raw)[0])[0]) == 1


def _irreducible_character(rep: Representation, rule: HaarRule, refusal: str) -> Character:
    """The character of ``rep``, its degree checked first and its values
    read on the first pass of the irreducibility test; raises
    NotIrreducibleError(``refusal``) when the test fails."""
    char = _character(rep, rule, np.empty(rule.node_count, dtype=complex))

    def traces(nodes, chunk):
        char.values[nodes] = np.einsum("nii->n", chunk)

    if not _irreducible(rep, rule, traces):
        raise NotIrreducibleError(refusal)
    return char


def _unresolved(rule: HaarRule, basis_change: np.ndarray) -> str:
    """The two causes of a character-norm refusal, with their sizes."""
    return (f"the {rule.group.kind} rule at resolution {rule.resolution} ({rule.node_count} nodes) "
            f"under-resolves this representation, or its basis change to a unitary one "
            f"(condition number {np.linalg.cond(basis_change):.3g}) is too ill-conditioned for it")


def _split(rep: Representation, rule: HaarRule):
    """The route ``split_once`` and ``decompose`` share: (report, P^-1),
    with P = Q A for the unitarization A and the split Q of W = A rho A^-1.

    The averaged seed T(X), for a Hermitian X drawn from ``SPLIT_SEED``, is
    the transposed sum of the pairs (W^T, (W X)^T) of each sub-chunk on the
    passes of ``_unitary``, O(N r^3) work; the block characters and the
    off-block leakage, its largest entry a sub-chunk at a time, are read
    off P rho P^-1 = Q W Q^* in one more pass.  Every block's character
    norm must be 1, and the squared multiplicities of the isotypic classes
    (blocks grouped by character inner product) must sum to the input's
    character norm.
    """
    g = np.random.default_rng(SPLIT_SEED).standard_normal((2, rep.degree, rep.degree))
    X = g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T

    def pair(W):
        return W.transpose(0, 2, 1), (W @ X).transpose(0, 2, 1)

    seed, basis = _unitary(rep, rule, lambda _: _PairSum(rule, pair))
    Q, sizes = _split_unitary_fully(seed.take().T, X)
    A, A_inv = _identity_or(basis, rep.degree)
    P, P_inv = Q @ A, A_inv @ Q.conj().T
    starts = np.cumsum([0, *sizes[:-1]])
    label = np.repeat(np.arange(len(sizes)), sizes)
    values = np.empty((len(sizes), rule.node_count), dtype=complex)
    leakage = 0.0
    # one sandwich per sub-chunk: P = Q A, with a conjugated input's own change
    # of basis composed into it
    body, left, right = rep, P, P_inv
    if isinstance(rep, ConjugatedRepresentation) and rep.inner.degree == rep.degree:
        body, left, right = rep.inner, P @ rep.matrix, rep.matrix_inv @ P_inv
    off_block = label[:, None] != label[None, :]
    for nodes, m in node_chunks(body, rule, (left, right)):
        values[:, nodes] = np.add.reduceat(np.einsum("nii->ni", m), starts, axis=1).T
        leakage = max(leakage, linalg.max_abs(m[:, off_block]))
    # inner[a, b] = integral of conj(chi_a) chi_b: 1 inside an isotypic class
    # and 0 across, so classes are cut at 1/2; its real sum is the input's norm
    v = values.T[:, None]
    inner = integrate_product(rule, v, v)
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
    identity_tol = linalg.KERNEL_TOL * np.linalg.cond(P)
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


def _split_unitary_fully(T: np.ndarray, X: np.ndarray):
    """The split into irreducibles by one averaged seed T = T(X), the sum
    of w_n W_n X W_n^* over the unitary stack W (``_split``).

    T(X) projects X onto the commutant, a direct sum of full matrix
    algebras M_{m_i}.  For a generic Hermitian X it has m_i distinct
    eigenvalues on the isotypic component of multiplicity m_i, each
    eigenspace one copy.  Its ascending eigenvalues are cut where
    neighbours differ by more than ``CLUSTER_GAP`` times the larger of
    their spread and |X|_2: on an irreducible input T(X) = tr(X)/r I, and
    the spread is roundoff.  Returns (Q, sizes), Q unitary, blocks in
    ascending eigenvalue order.
    """
    w, V = np.linalg.eigh((T + T.conj().T) / 2.0)
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
    ``split_once``: two passes over the rule on input that passes the
    unitarity audit, three otherwise.

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
    chars = [_irreducible_character(rep, rule, f"representation {i} is not irreducible")
             for i, rep in enumerate(reps)]
    # each inner product is correctly rounded on its own, as in ``character_inner``
    inner = _weighted_fsum_rows((a.values * np.conj(b.values) for a in chars for b in chars), rule.weights)
    defect = np.reshape(inner, (len(chars),) * 2) - np.eye(len(chars))
    # the modulus as Python's abs rounds it; numpy's complex abs may differ by an ulp
    return np.hypot(defect.real, defect.imag)


def matrix_element_audit(rep: Representation, rule: HaarRule) -> float:
    """Largest deviation of integral of rho_ij conj(rho_kl) from the scalar
    orthogonality pattern delta_ik delta_jl / degree, over all index
    quadruples of an irreducible unitary representation.  The integrals
    are the averaged outer product of the input's flattened matrices, the
    one the irreducibility test sums on input that passes the unitarity
    audit; other input takes one more pass for it.  They are read off the
    summed averaging map (``_AveragingMap``) before the fixed-space reading
    makes it symmetric."""
    maps, basis = _unitary(rep, rule, lambda _: _AveragingMap(rule))
    deviation = _matrix_element_deviation(maps.total()) if basis is None else None
    if len(fixed_hermitian(maps)[0]) != 1:
        raise NotIrreducibleError("matrix-element orthogonality requires an irreducible input")
    if basis is not None:
        deviation = _matrix_element_deviation(_average(rep, rule, _AveragingMap(rule)).take())
    return deviation


def _matrix_element_deviation(T: np.ndarray) -> float:
    """max |O[k, i, l, j] - delta_kl delta_ij / r| over the averaged outer
    product O, read off the sum T[k, l, i, j] = Re O[k, i, l, j] +
    Im O[l, i, k, j] of ``_AveragingMap``: O is Hermitian, so
    T[l, k, j, i] = Re O[k, i, l, j] - Im O[l, i, k, j], and the two give
    2 Re O[k, i, l, j] and 2 Im O[l, i, k, j] at [k, l, i, j]."""
    re = T + T.transpose(1, 0, 3, 2) - np.multiply.outer(np.eye(len(T)), np.eye(len(T)) * (2.0 / len(T)))
    return float(np.hypot(re, T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)).max()) / 2.0


def multiplicity(rep: Representation, irrep: Representation, rule: HaarRule) -> int:
    """Nearest integer to <chi_rep, chi_irrep>; raises when the inner product
    is further than 0.05 from an integer (an under-resolved rule)."""
    check_rule_group(rule, rep, irrep)
    irrep_character = _irreducible_character(
        irrep, rule, "multiplicity requires an irreducible reference representation")
    inner = character_inner(character(rep, rule), irrep_character, rule)
    nearest = int(round(inner.real))
    if abs(inner - nearest) > MULTIPLICITY_WINDOW or nearest < 0:
        raise NonIntegerMultiplicityError(
            f"character inner product {inner:.6f} is not close to a non-negative integer")
    return nearest
