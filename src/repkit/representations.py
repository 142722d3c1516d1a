"""Representations of the supported groups.

A representation maps group elements to invertible complex matrices.  Bodies
come in five flavours: explicit matrix tables over a finite group, integer
weight vectors over the circle (acting as diagonal phase matrices), spin
representations of su2 built as symmetric powers of the defining action,
direct sums, and conjugations by a fixed invertible matrix.  Splitting a
reducible representation produces blocks: conjugations of it by the rows of
the basis change P and the columns of P^-1 that each block keeps.

Every body supports vectorized evaluation over a whole array of group
elements (``evaluate_batch``), which is what keeps quadrature-heavy
operations fast.  A library body also writes its matrices into an array it
is given (``out``): a direct sum fills its diagonal blocks in place, and a
conjugation sandwiches its inner body's matrices in place when the two
degrees agree.  ``node_chunks`` is the one place that cuts a pass over a
Haar rule: it evaluates a representation in chunks of ``EVAL_CHUNK``
nodes into one buffer it reuses and hands them out in sub-chunks of
``linalg.NODE_CHUNK`` nodes, so the averaging calls of ``unitarization``
and ``schur`` read their input in passes, one sub-chunk per step, and
never hold its (N, r, r) node stack; only what a user-defined body
returns is copied into that buffer.  ``_average`` sums one average over
such a pass.  A pass in a call's own basis, B rho B^-1, sandwiches each
sub-chunk once more in place; ``node_chunks`` does not compose B with a
conjugated body's own matrix, so a library
representation and a user-defined body that returns the same matrices
give a call the same bytes; only ``schur._split`` composes them, in the
pass for its block characters and leakage, which move at roundoff.

Node arrays are read as the group's elements, never cast: a finite
table takes an integer array of indices in 0..order-1, a circle body an
integer or real-float array of angles and a spin body a numeric array of
shape (n, 2, 2) (``groups._node_array``), and anything else is refused
with ``KindMismatchError``.  The one stack a
library object keeps is ``_LastStack``'s, which lets a probe family
evaluate once per node array; it lets go of that stack before it
evaluates the next, so the Haar audit holds one stack per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    GroupMismatchError,
    KindMismatchError,
    ShapeMismatchError,
    SpinOutOfRangeError,
)
from .groups import HaarRule, ProductSum, _is_integer, _node_array, _require_integers, enumerate_or_sample

MAX_TWO_J = 12
# nodes per evaluation chunk of a pass (``node_chunks``) and of the spin
# body: its buffer and power tables are chunk-sized.  A multiple of
# ``linalg.NODE_CHUNK``, so a pass's sub-chunks start at the same nodes as
# those of a whole stack and add the same GEMMs in the same order
EVAL_CHUNK = 4 * linalg.NODE_CHUNK


class Representation:
    """Base class; concrete bodies implement ``evaluate_batch``."""

    group = None
    degree = 0

    def evaluate(self, g) -> np.ndarray:
        """The representing matrix at a single group element."""
        return self.evaluate_batch(self._pack_one(g))[0]

    def evaluate_batch(self, nodes) -> np.ndarray:
        raise NotImplementedError

    def _evaluate_into(self, nodes, out: np.ndarray) -> np.ndarray:
        """The matrices at ``nodes`` written into ``out``: a body that only
        defines ``evaluate_batch`` has its result checked and copied in."""
        stack = np.asarray(self.evaluate_batch(nodes))
        if stack.shape != out.shape:
            raise ShapeMismatchError(f"evaluate_batch returned shape {stack.shape}, expected {out.shape}")
        out[...] = stack
        return out

    def _pack_one(self, g):
        kind = self.group.kind
        if kind == "finite":
            return np.array([self.group._index(g)])
        if kind == "circle":
            return np.array([self.group._angle(g)])
        return np.asarray(self.group._element(g))[None, :, :]


class _LibraryBody(Representation):
    """A body whose ``evaluate_batch`` takes ``out``: it writes its
    matrices there, with no copy."""

    def _evaluate_into(self, nodes, out: np.ndarray) -> np.ndarray:
        return self.evaluate_batch(nodes, out=out)


def _empty(nodes, degree: int) -> np.ndarray:
    return np.empty((len(nodes), degree, degree), dtype=complex)


class FiniteTableRepresentation(_LibraryBody):
    """One matrix per element of a finite group, indexed like the group."""

    def __init__(self, group, matrices):
        if group.kind != "finite":
            raise KindMismatchError("matrix tables require a finite group")
        table = np.asarray(matrices, dtype=complex)
        if table.ndim != 3 or table.shape[0] != group.order or table.shape[1] != table.shape[2]:
            raise ShapeMismatchError(
                f"expected {group.order} square matrices of equal size, got shape {table.shape}")
        if not np.isfinite(table).all():
            raise ValueError("representation table contains non-finite entries")
        r = table.shape[1]
        if linalg.max_abs(table[group.identity_index] - np.eye(r)) > linalg.KERNEL_TOL:
            raise ValueError("identity element is not represented by the identity matrix")
        self.group = group
        self.degree = r
        self.table = table

    def evaluate_batch(self, nodes, out=None):
        index = self.group._indices(nodes)
        if out is None:
            return self.table[index]
        out[...] = self.table[index]
        return out


class CircleWeightRepresentation(_LibraryBody):
    """diag(exp(i n_1 t), ..., exp(i n_r t)) for integer weights n_k."""

    def __init__(self, group, weights):
        if group.kind != "circle":
            raise KindMismatchError("weight vectors require the circle group")
        ws = list(weights)
        _require_integers(ws, "weights")
        self.weights = np.array(ws, dtype=int)
        if not ws or self.weights.ndim != 1:
            raise ValueError("weights must be a nonempty list of integers")
        self.group = group
        self.degree = len(ws)

    def evaluate_batch(self, nodes, out=None):
        angles = _node_array(nodes, "circle").astype(float, copy=False)
        phases = np.exp(1j * np.outer(angles, self.weights))
        out = _empty(angles, self.degree) if out is None else out
        out[...] = 0
        idx = np.arange(self.degree)
        out[:, idx, idx] = phases
        return out


def _spin_terms(two_j: int):
    """Expansion table for the symmetric-power matrix entries.

    Entry (row, col) of the degree-(two_j+1) matrix is a polynomial in the
    2x2 entries a, b, c, d; returned as a list of
    (row, col, coefficient, k_a, k_b, k_c, k_d) monomials.  Basis vectors are
    the monomials x^p y^q / sqrt(p! q!) with p descending, so two_j = 1
    reproduces the defining representation exactly.
    """
    n = two_j
    terms = []
    for mprime in range(n + 1):
        pp, qp = n - mprime, mprime
        for m in range(n + 1):
            p, q = n - m, m
            scale = math.sqrt(math.factorial(pp) * math.factorial(qp)
                              / (math.factorial(p) * math.factorial(q)))
            for k in range(max(0, pp - q), min(p, pp) + 1):
                coeff = scale * math.comb(p, k) * math.comb(q, pp - k)
                terms.append((mprime, m, coeff, k, pp - k, p - k, q - pp + k))
    return terms


_SPIN_TERM_CACHE: dict[int, list] = {}


class SpinRepresentation(_LibraryBody):
    """Irreducible su2 representation of spin j = two_j / 2, realized as the
    two_j-th symmetric power of the defining action on an orthonormalized
    monomial basis (exactly unitary up to roundoff)."""

    def __init__(self, group, two_j: int):
        if group.kind != "su2":
            raise KindMismatchError("spin representations require the su2 group")
        if not _is_integer(two_j) or not 0 <= two_j <= MAX_TWO_J:
            raise SpinOutOfRangeError(f"two_j must be an integer in 0..{MAX_TWO_J}, got {two_j!r}")
        self.group = group
        self.two_j = int(two_j)
        self.degree = self.two_j + 1
        if self.two_j not in _SPIN_TERM_CACHE:
            _SPIN_TERM_CACHE[self.two_j] = _spin_terms(self.two_j)

    def evaluate_batch(self, nodes, out=None):
        """The matrices at ``nodes``, a numeric (n, 2, 2) array
        (``groups._node_array``; unitarity is not checked per batch), in
        chunks of ``EVAL_CHUNK`` nodes: the power tables and products are
        chunk-sized, and each term's update stays in cache."""
        U = _node_array(nodes, "su2").astype(complex, copy=False)
        out = _empty(U, self.degree) if out is None else out
        out[...] = 0
        for i in range(0, len(U), EVAL_CHUNK):
            self._fill(U[i:i + EVAL_CHUNK], out[i:i + EVAL_CHUNK])
        return out

    def _fill(self, U, out):
        """Add every monomial term ((coeff a^k_a) b^k_b) c^k_c d^k_d of the
        matrices at the nodes U into ``out``, a zeroed chunk of the output
        stack.  A zeroth power is 1, and skipping it changes no value."""
        n = self.two_j
        # powers[x][k] = x^k at each node for x = a, b, c, d (k >= 1)
        powers = []
        for base in (U[:, 0, 0], U[:, 0, 1], U[:, 1, 0], U[:, 1, 1]):
            table = [None, base]
            for _ in range(n - 1):
                table.append(table[-1] * base)
            powers.append(table)
        for row, col, coeff, *exponents in _SPIN_TERM_CACHE[n]:
            term = coeff
            for table, k in zip(powers, exponents):
                if k:
                    term = term * table[k]
            out[:, row, col] += term


class DirectSumRepresentation(_LibraryBody):
    """Block-diagonal sum of representations of the same group."""

    def __init__(self, parts):
        parts = list(parts)
        if len(parts) < 2:
            raise ValueError("a direct sum needs at least two parts")
        for p in parts[1:]:
            if p.group != parts[0].group:
                raise GroupMismatchError("direct sum parts live over different groups")
        self.group = parts[0].group
        self.parts = parts
        self.degree = sum(p.degree for p in parts)

    def evaluate_batch(self, nodes, out=None):
        """Each part's matrices written into its diagonal block of ``out``."""
        out = _empty(nodes, self.degree) if out is None else out
        out[...] = 0
        offset = 0
        for p in self.parts:
            p._evaluate_into(nodes, out[:, offset:offset + p.degree, offset:offset + p.degree])
            offset += p.degree
        return out


class ConjugatedRepresentation(_LibraryBody):
    """x -> A rho(x) A^{-1} for a fixed invertible A (an equivalent
    representation with the same character); A^{-1} may be given."""

    def __init__(self, inner, matrix, matrix_inv=None):
        A = linalg.as_matrix(matrix)
        if A.shape != (inner.degree, inner.degree):
            raise ShapeMismatchError(
                f"conjugating matrix must be {inner.degree}x{inner.degree}, got {A.shape}")
        self.group = inner.group
        self.inner = inner
        self.matrix = A
        self.matrix_inv = linalg.invert(A) if matrix_inv is None else linalg.as_matrix(matrix_inv)
        self.degree = inner.degree

    def evaluate_batch(self, nodes, out=None):
        """A rho A^-1 at ``nodes``: the inner body's matrices sandwiched in
        place in ``out`` when the degrees agree (a block keeps fewer rows)."""
        out = _empty(nodes, self.degree) if out is None else out
        inner = out if self.degree == self.inner.degree else _empty(nodes, self.inner.degree)
        return linalg.sandwich(self.matrix, self.inner._evaluate_into(nodes, inner), self.matrix_inv, out=out)


class BlockRepresentation(ConjugatedRepresentation):
    """A diagonal block of P rho(x) P^{-1}, the conjugation of the parent by
    the rows P[sl] and the columns P^{-1}[:, sl] the block keeps; produced
    when a reducible representation is split along an invariant subspace."""

    def __init__(self, parent, P, offset: int, size: int, P_inv):
        P = linalg.as_matrix(P)
        if P.shape != (parent.degree, parent.degree):
            raise ShapeMismatchError("projection basis change has the wrong shape")
        if not (0 <= offset and offset + size <= parent.degree):
            raise ShapeMismatchError("block slice outside the parent degree")
        sl = slice(offset, offset + size)
        self.group = parent.group
        self.inner = self.parent = parent
        self.P = P
        self.matrix, self.matrix_inv = P[sl], linalg.as_matrix(P_inv)[:, sl]
        self.offset = offset
        self.degree = size


def evaluate(rep: Representation, g) -> np.ndarray:
    return rep.evaluate(g)


def direct_sum(a: Representation, b: Representation) -> Representation:
    return DirectSumRepresentation([a, b])


def conjugate(rep: Representation, A) -> Representation:
    return ConjugatedRepresentation(rep, A)


def spin_irrep(j, group=None) -> SpinRepresentation:
    """The spin-j representation of su2 for a real number j (an int, a
    half-integer float, a Fraction) with 0 <= 2j <= 12.  A boolean, string
    or bytes is not a spin and is refused, not parsed."""
    from .groups import SU2Group
    if isinstance(j, (bool, np.bool_, str, bytes)):
        raise SpinOutOfRangeError(f"a spin is a number, got j={j!r}")
    two_j = float(2 * j)
    rounded = round(two_j)
    if abs(two_j - rounded) > 1e-9:
        raise SpinOutOfRangeError(f"twice the spin must be an integer, got j={j!r}")
    return SpinRepresentation(group if group is not None else SU2Group(), rounded)


def homomorphism_audit(rep: Representation, pair_count: int = 200, seed: int = 0) -> float:
    """Max-norm defect of rho(xy) = rho(x) rho(y) over sampled pairs.

    Finite groups with at most 10^4 pairs are checked exhaustively, one
    left factor x at a time against every y, so no (N, N, r, r) product
    tensor is held; larger ones on ``pair_count`` index pairs drawn with
    ``seed``.  Each side is evaluated in one batch.
    """
    if not _is_integer(pair_count) or pair_count < 1:
        raise ValueError(f"pair_count must be a positive integer, got {pair_count!r}")
    group = rep.group
    if group.kind == "finite":
        if group.order ** 2 <= 10_000:
            mats = rep.evaluate_batch(np.arange(group.order))
            return max(linalg.max_abs(mats[x] @ mats - mats[row])
                       for x, row in enumerate(group.mult_table))
        xs, ys = np.random.default_rng(seed).integers(0, group.order, size=(2, pair_count))
    else:
        xs = np.asarray(enumerate_or_sample(group, pair_count, seed=seed))
        ys = np.asarray(enumerate_or_sample(group, pair_count, seed=seed + 1))
    products = rep.evaluate_batch(xs) @ rep.evaluate_batch(ys)
    return linalg.max_abs(rep.evaluate_batch(group.multiply_nodes(xs, ys)) - products)


def unitarity_defect(mats: np.ndarray) -> float:
    """Max over a stack (n, r, r) of |M* M - I|; a pass hands it one sub-chunk."""
    return linalg.max_abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(mats.shape[-1]))


def unitarity_audit(rep: Representation, rule: HaarRule) -> float:
    """Max over rule nodes of |rho(x)* rho(x) - I|, one pass."""
    return max(unitarity_defect(sub) for _, sub in node_chunks(rep, rule))


@dataclass(frozen=True, eq=False)
class Character:
    """Trace of a representation sampled at the nodes of a Haar rule."""

    rep: Representation
    rule: HaarRule
    values: np.ndarray
    degree: int


def check_rule_group(rule: HaarRule, *reps: Representation) -> None:
    """Refuse representations defined over another group than the rule."""
    for rep in reps:
        if rep.group != rule.group:
            raise GroupMismatchError("representation and rule are defined over different groups")


def _chunks(rep: Representation, nodes, basis=None):
    """Yield (slice, sub) over ``nodes``, the one place a pass is cut: the
    matrices of ``rep`` are evaluated ``EVAL_CHUNK`` nodes at a time into
    one buffer, and handed out a sub-chunk of ``linalg.NODE_CHUNK`` nodes
    at a time, sub the matrices at ``nodes[slice]``, B rho B^-1 when
    ``basis`` = (B, B^-1) is given (sandwiched in place, one sub-chunk at
    a time).  A step reads a sub-chunk before it asks for the next one and
    keeps none of it, and every temporary it makes is sub-chunk-sized."""
    buffer = _empty(nodes[:EVAL_CHUNK], rep.degree)
    for i in range(0, len(nodes), EVAL_CHUNK):
        part = nodes[i:i + EVAL_CHUNK]
        chunk = rep._evaluate_into(part, buffer[:len(part)])
        for j in range(0, len(part), linalg.NODE_CHUNK):
            sub = chunk[j:j + linalg.NODE_CHUNK]
            if basis is not None:
                linalg.sandwich(basis[0], sub, basis[1], out=sub)
            yield slice(i + j, i + j + len(sub)), sub


def node_chunks(rep: Representation, rule: HaarRule, basis=None):
    """One pass over the rule: (nodes, sub) for each sub-chunk of
    ``linalg.NODE_CHUNK`` rule nodes, nodes the slice of the rule they are
    and sub the matrices of ``rep`` (or B rho B^-1, for ``basis`` =
    (B, B^-1)) at them, in one buffer of ``EVAL_CHUNK`` nodes the pass
    reuses (``_chunks``)."""
    check_rule_group(rule, rep)
    return _chunks(rep, rule.nodes, basis)


class _PairSum(ProductSum):
    """The ``ProductSum`` of ``pair(W)`` over the sub-chunks W a pass adds
    (``add(nodes, W)``), for a pair function mapping a sub-chunk to two
    views (X, Y) of it."""

    def __init__(self, rule: HaarRule, pair):
        super().__init__(rule)
        self.pair = pair

    def add(self, nodes: slice, W: np.ndarray) -> None:
        super().add(nodes, *self.pair(W))


def _average(rep: Representation, rule: HaarRule, total, basis=None):
    """One pass: ``total.add(nodes, W)`` for the sub-chunks W of ``rep``, or
    of B rho B^-1 for ``basis`` = (B, B^-1); returns ``total``."""
    for nodes, W in node_chunks(rep, rule, basis):
        total.add(nodes, W)
    return total


def character(rep: Representation, rule: HaarRule) -> Character:
    """The character at the rule nodes, one pass."""
    return _character(rep, rule, _traces(node_chunks(rep, rule), rule.node_count))


def _traces(chunks, n: int) -> np.ndarray:
    """The traces of the matrices of a pass of ``n`` nodes."""
    values = np.empty(n, dtype=complex)
    for nodes, chunk in chunks:
        values[nodes] = np.einsum("nii->n", chunk)
    return values


def _character(rep: Representation, rule: HaarRule, values: np.ndarray) -> Character:
    """``character`` from its ``values`` at the rule nodes, after the degree
    check at the identity."""
    ident_trace = np.trace(rep.evaluate(rep.group.identity_element()))
    if abs(ident_trace - rep.degree) > linalg.KERNEL_TOL * (1 + rep.degree):
        raise ValueError(f"character at the identity is {ident_trace}, expected degree {rep.degree}")
    return Character(rep=rep, rule=rule, values=values, degree=rep.degree)


def class_invariance_audit(rep: Representation, rule: HaarRule, shifts) -> float:
    """Max over nodes x and shifts a of |tr rho(a^-1 x a) - tr rho(x)|; one
    pass over the rule and one over each shifted node set."""
    shifts = list(shifts)
    if not shifts:
        raise ValueError("at least one shift element is required")
    group = rep.group
    n = rule.node_count
    base = _traces(node_chunks(rep, rule), n)
    worst = 0.0
    for a in shifts:
        moved = group.shift_nodes(group.inverse(a), rule.nodes, "left")
        moved = group.shift_nodes(a, moved, "right")
        worst = max(worst, float(np.abs(_traces(_chunks(rep, moved), n) - base).max()))
    return worst


class MatrixEntryProbe:
    """Scalar probe f(x) = rho(x)[i, j], the (i, j) matrix entry of ``rep``,
    for integer indices 0 <= i, j < degree (any other index is refused with
    ``ShapeMismatchError``, not wrapped around or cast).  It evaluates per
    node (``__call__``) or over a node array (``batch``), which is how the
    integrals and the Haar-axiom audit call it."""

    def __init__(self, rep: Representation, i: int, j: int, label: str | None = None):
        if not all(_is_integer(k) and 0 <= k < rep.degree for k in (i, j)):
            raise ShapeMismatchError(
                f"entry ({i!r}, {j!r}) is not an index of a {rep.degree}x{rep.degree} matrix")
        self.rep = rep
        self.i = i
        self.j = j
        self.label = label or f"entry[{i},{j}]"
        self._family = None

    @classmethod
    def family(cls, rep: Representation, label: str) -> list:
        """Every entry probe of ``rep``, labelled ``label[i,j]``, row by row.
        The family shares one evaluation per node array: it keeps the stack
        at the last node array any of its probes was asked for."""
        probes = [cls(rep, i, j, label=f"{label}[{i},{j}]")
                  for i in range(rep.degree) for j in range(rep.degree)]
        shared = _LastStack(rep)
        for probe in probes:
            probe._family = shared
        return probes

    def __call__(self, g):
        return complex(self.rep.evaluate(g)[self.i, self.j])

    def batch(self, nodes):
        mats = self.rep.evaluate_batch(nodes) if self._family is None else self._family(nodes)
        return mats[:, self.i, self.j]


class _LastStack:
    """The stack of ``rep`` at the last node array asked for, released
    before the stack at a new node array is evaluated."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self.nodes = self.stack = None

    def __call__(self, nodes):
        if nodes is not self.nodes:
            self.nodes = self.stack = None
            self.nodes, self.stack = nodes, self.rep.evaluate_batch(nodes)
        return self.stack
