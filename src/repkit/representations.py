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
operations fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    GroupMismatchError,
    KindMismatchError,
    ShapeMismatchError,
    SpinOutOfRangeError,
)
from .groups import HaarRule, enumerate_or_sample

MAX_TWO_J = 12


class Representation:
    """Base class; concrete bodies implement ``evaluate_batch``."""

    group = None
    degree = 0

    def evaluate(self, g) -> np.ndarray:
        """The representing matrix at a single group element."""
        return self.evaluate_batch(self._pack_one(g))[0]

    def evaluate_batch(self, nodes) -> np.ndarray:
        raise NotImplementedError

    def _pack_one(self, g):
        kind = self.group.kind
        if kind == "finite":
            return np.array([self.group._index(g)])
        if kind == "circle":
            return np.array([self.group._angle(g)])
        return np.asarray(self.group._element(g))[None, :, :]


class FiniteTableRepresentation(Representation):
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

    def evaluate_batch(self, nodes):
        return self.table[np.asarray(nodes, dtype=int)]


class CircleWeightRepresentation(Representation):
    """diag(exp(i n_1 t), ..., exp(i n_r t)) for integer weights n_k."""

    def __init__(self, group, weights):
        if group.kind != "circle":
            raise KindMismatchError("weight vectors require the circle group")
        ws = list(weights)
        if not ws or any(int(w) != w for w in ws):
            raise ValueError("weights must be a nonempty list of integers")
        self.group = group
        self.weights = np.array([int(w) for w in ws])
        self.degree = len(ws)

    def evaluate_batch(self, nodes):
        angles = np.asarray(nodes, dtype=float)
        phases = np.exp(1j * np.outer(angles, self.weights))
        out = np.zeros((len(angles), self.degree, self.degree), dtype=complex)
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
# nodes per chunk of the spin evaluation: its power tables and products are
# chunk-sized, and each term's update stays in cache.  On haar_rule(su2, 24)
# on a 2-vCPU x86_64 host, 2048-node chunks took 0.008 s for spin 3 against
# 0.009 s for the whole stack at once and 0.0007 s against 0.0023 s for
# spin 1/2, with the same bytes; 256-node chunks were slower than the whole
# stack from spin 9/2 up, since each chunk repeats the per-term Python loop
SPIN_CHUNK = 8 * linalg.NODE_CHUNK


class SpinRepresentation(Representation):
    """Irreducible su2 representation of spin j = two_j / 2, realized as the
    two_j-th symmetric power of the defining action on an orthonormalized
    monomial basis (exactly unitary up to roundoff)."""

    def __init__(self, group, two_j: int):
        if group.kind != "su2":
            raise KindMismatchError("spin representations require the su2 group")
        if not isinstance(two_j, (int, np.integer)) or not 0 <= two_j <= MAX_TWO_J:
            raise SpinOutOfRangeError(f"two_j must be an integer in 0..{MAX_TWO_J}, got {two_j!r}")
        self.group = group
        self.two_j = int(two_j)
        self.degree = self.two_j + 1
        if self.two_j not in _SPIN_TERM_CACHE:
            _SPIN_TERM_CACHE[self.two_j] = _spin_terms(self.two_j)

    def evaluate_batch(self, nodes):
        U = np.asarray(nodes, dtype=complex)
        out = np.zeros((U.shape[0], self.degree, self.degree), dtype=complex)
        for i in range(0, len(U), SPIN_CHUNK):
            self._fill(U[i:i + SPIN_CHUNK], out[i:i + SPIN_CHUNK])
        return out

    def _fill(self, U, out):
        """Add every monomial term of the matrices at the nodes U into
        ``out``, a zeroed chunk of the output stack."""
        a, b = U[:, 0, 0], U[:, 0, 1]
        c, d = U[:, 1, 0], U[:, 1, 1]
        n = self.two_j
        pows = {
            "a": [np.ones_like(a)], "b": [np.ones_like(a)],
            "c": [np.ones_like(a)], "d": [np.ones_like(a)],
        }
        for base, key in ((a, "a"), (b, "b"), (c, "c"), (d, "d")):
            for _ in range(n):
                pows[key].append(pows[key][-1] * base)
        for row, col, coeff, ka, kb, kc, kd in _SPIN_TERM_CACHE[n]:
            out[:, row, col] += coeff * pows["a"][ka] * pows["b"][kb] * pows["c"][kc] * pows["d"][kd]


class DirectSumRepresentation(Representation):
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

    def evaluate_batch(self, nodes):
        out = np.zeros((len(nodes), self.degree, self.degree), dtype=complex)
        offset = 0
        for p in self.parts:
            out[:, offset:offset + p.degree, offset:offset + p.degree] = p.evaluate_batch(nodes)
            offset += p.degree
        return out


class ConjugatedRepresentation(Representation):
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

    def evaluate_batch(self, nodes):
        inner = _node_stack(self.inner, nodes)
        in_place = self.degree == self.inner.degree and inner.flags.writeable
        return linalg.sandwich(self.matrix, inner, self.matrix_inv, out=inner if in_place else None)


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


# the library bodies whose ``evaluate_batch`` returns a new complex stack on
# every call, which no one else holds
_FRESH_BODIES = frozenset(body.evaluate_batch for body in (
    FiniteTableRepresentation, CircleWeightRepresentation, SpinRepresentation,
    DirectSumRepresentation, ConjugatedRepresentation))


def _node_stack(rep: Representation, nodes) -> np.ndarray:
    """The stack of ``rep`` at ``nodes``, writeable exactly when the caller
    may write over it.  A library body's stack is new and held by no one
    else, so it comes back as it is; a user-defined body may return an
    array it still holds, so that comes back as a read-only view, with no
    copy, and a write into it raises."""
    stack = rep.evaluate_batch(nodes)
    if type(rep).evaluate_batch not in _FRESH_BODIES:
        stack = np.asarray(stack).view()
        stack.flags.writeable = False
    return stack


def evaluate(rep: Representation, g) -> np.ndarray:
    return rep.evaluate(g)


def direct_sum(a: Representation, b: Representation) -> Representation:
    return DirectSumRepresentation([a, b])


def conjugate(rep: Representation, A) -> Representation:
    return ConjugatedRepresentation(rep, A)


def spin_irrep(j, group=None) -> SpinRepresentation:
    """The spin-j representation of su2; j may be an int, half-integer float,
    or Fraction with 0 <= 2j <= 12."""
    from .groups import SU2Group
    two_j = float(2 * Fraction(j)) if isinstance(j, (str, Fraction)) else float(2 * j)
    rounded = int(round(two_j))
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
    if pair_count < 1:
        raise ValueError("pair_count must be at least 1")
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
    """Max over a node stack (n, r, r) of |M* M - I|."""
    eye = np.eye(mats.shape[-1])
    return linalg.max_abs_over_nodes(lambda m: m.conj().transpose(0, 2, 1) @ m - eye, mats)


def unitarity_audit(rep: Representation, rule: HaarRule) -> float:
    """Max over rule nodes of |rho(x)* rho(x) - I|."""
    return unitarity_defect(tabulate(rep, rule))


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


def tabulate(rep: Representation, rule: HaarRule) -> np.ndarray:
    """The stack (n, r, r) of ``rep`` at the rule nodes.  A call evaluates
    its input once with it and hands the stack to each of its steps; a step
    writes over it exactly when it is writeable (``_node_stack``)."""
    check_rule_group(rule, rep)
    return _node_stack(rep, rule.nodes)


def character(rep: Representation, rule: HaarRule) -> Character:
    return _character(rep, rule, tabulate(rep, rule))


def _character(rep: Representation, rule: HaarRule, mats: np.ndarray) -> Character:
    """``character`` read off ``mats``, the stack of ``rep`` at the rule nodes."""
    ident_trace = np.trace(rep.evaluate(rep.group.identity_element()))
    if abs(ident_trace - rep.degree) > linalg.KERNEL_TOL * (1 + rep.degree):
        raise ValueError(f"character at the identity is {ident_trace}, expected degree {rep.degree}")
    return Character(rep=rep, rule=rule, values=np.einsum("nii->n", mats), degree=rep.degree)


def class_invariance_audit(rep: Representation, rule: HaarRule, shifts) -> float:
    """Max over nodes x and shifts a of |tr rho(a^-1 x a) - tr rho(x)|."""
    shifts = list(shifts)
    if not shifts:
        raise ValueError("at least one shift element is required")
    group = rep.group
    base = np.einsum("nii->n", tabulate(rep, rule))
    worst = 0.0
    for a in shifts:
        moved = group.shift_nodes(group.inverse(a), rule.nodes, "left")
        moved = group.shift_nodes(a, moved, "right")
        conj_tr = np.einsum("nii->n", rep.evaluate_batch(moved))
        worst = max(worst, float(np.abs(conj_tr - base).max()))
    return worst


class MatrixEntryProbe:
    """Scalar probe f(x) = rho(x)[i, j] with vectorized node evaluation;
    the shape the audit expects for representation-entry probes."""

    def __init__(self, rep: Representation, i: int, j: int, label: str | None = None):
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
    """The stack of ``rep`` at the last node array asked for."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self.nodes = self.stack = None

    def __call__(self, nodes):
        if nodes is not self.nodes:
            self.nodes, self.stack = nodes, self.rep.evaluate_batch(nodes)
        return self.stack
