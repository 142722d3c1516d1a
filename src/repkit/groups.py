"""Compact group descriptors and invariant-integral engines.

Three group kinds are supported:

* finite  -- elements are integer indices into a validated multiplication
             table; the invariant integral is the exact uniform average;
* circle  -- elements are angles in [0, 2pi); the rule is the equispaced
             average, exact on band-limited trigonometric polynomials;
* su2     -- elements are 2x2 special-unitary matrices; the rule is a
             product quadrature in axis-angle coordinates: Gauss-Legendre in
             the class angle t on [0, 2pi] against the class density
             sin^2(t/2)/pi, Gauss-Legendre in the axis polar cosine, and a
             uniform azimuth, renormalized to total weight one.

Scalar integration goes through ``math.fsum`` so sums are correctly
rounded: deterministic, independent of node order, and exactly invariant
under the node permutations induced by finite-group translations.  Matrix
integrals go through one averaging contraction, ``integrate_product``: a
single weighted GEMM over the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    EvaluationFailureError,
    InvalidResolutionError,
    KindMismatchError,
    ShapeMismatchError,
)

SU2_UNITARITY_TOL = 1e-10
SU2_DRIFT_TOL = 1e-12

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class FiniteGroup:
    """A finite group as a multiplication table on indices 0..N-1.

    The table is validated on construction: it must be a Latin square with a
    two-sided identity and two-sided inverses, and associativity is checked
    exhaustively up to N = 64 (by at least 10^4 random triples beyond that).
    """

    kind = "finite"

    def __init__(self, mult_table, *, identity=None, inverse=None, labels=None, name=None):
        table = np.asarray(mult_table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"multiplication table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise ValueError("empty multiplication table")
        ref = np.arange(n)
        for i in range(n):
            if not np.array_equal(np.sort(table[i]), ref):
                raise ValueError(f"multiplication table row {i} is not a permutation of 0..{n - 1}")
            if not np.array_equal(np.sort(table[:, i]), ref):
                raise ValueError(f"multiplication table column {i} is not a permutation of 0..{n - 1}")
        ident = None
        for k in range(n):
            if np.array_equal(table[k], ref) and np.array_equal(table[:, k], ref):
                ident = k
                break
        if ident is None:
            raise ValueError("multiplication table has no two-sided identity")
        if identity is not None and int(identity) != ident:
            raise ValueError(f"declared identity {identity} but the table identity is {ident}")
        inv = np.empty(n, dtype=int)
        for a in range(n):
            b = int(np.nonzero(table[a] == ident)[0][0])
            if table[b, a] != ident:
                raise ValueError(f"element {a} has no two-sided inverse")
            inv[a] = b
        if inverse is not None and not np.array_equal(np.asarray(inverse, dtype=int), inv):
            raise ValueError("declared inverse table disagrees with the multiplication table")
        if n <= 64:
            left = table[table, :]                  # left[a,b,c] = (ab)c
            right = np.take(table, table, axis=1)   # right[a,b,c] = a(bc)
            if not np.array_equal(left, right):
                raise ValueError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            a, b, c = rng.integers(0, n, size=(3, 10_000))
            if not np.array_equal(table[table[a, b], c], table[a, table[b, c]]):
                raise ValueError("multiplication table is not associative (sampled triples)")
        if labels is not None and len(labels) != n:
            raise ValueError("label count does not match group order")
        self.mult_table = table
        self.inverse_table = inv
        self.identity_index = ident
        self.labels = list(labels) if labels is not None else None
        self.name = name
        self.order = n

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(self.mult_table, other.mult_table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}{', name=' + self.name if self.name else ''})"

    def identity_element(self):
        return self.identity_index

    def _index(self, g):
        if isinstance(g, (bool, float, complex, np.floating, np.complexfloating)):
            raise KindMismatchError(f"finite group elements are integer indices, got {type(g).__name__}")
        try:
            k = int(g)
        except (TypeError, ValueError):
            raise KindMismatchError(f"finite group elements are integer indices, got {type(g).__name__}")
        if not 0 <= k < self.order:
            raise KindMismatchError(f"element index {k} outside 0..{self.order - 1}")
        return k

    def multiply(self, g, h):
        return int(self.mult_table[self._index(g), self._index(h)])

    def inverse(self, g):
        return int(self.inverse_table[self._index(g)])

    def elements(self):
        return list(range(self.order))

    # vectorized node transforms used by quadrature audits
    def shift_nodes(self, a, nodes, side):
        a = self._index(a)
        return self.mult_table[a, nodes] if side == "left" else self.mult_table[nodes, a]

    def invert_nodes(self, nodes):
        return self.inverse_table[nodes]

    def multiply_nodes(self, xs, ys):
        return self.mult_table[xs, ys]


class CircleGroup:
    """The rotation group of the plane; elements are angles in [0, 2pi)."""

    kind = "circle"

    def __eq__(self, other):
        return isinstance(other, CircleGroup)

    def __repr__(self):
        return "CircleGroup()"

    def identity_element(self):
        return 0.0

    def _angle(self, g):
        try:
            theta = float(g)
        except (TypeError, ValueError):
            raise KindMismatchError(f"circle elements are angles, got {type(g).__name__}")
        return theta % (2 * np.pi)

    def multiply(self, g, h):
        return (self._angle(g) + self._angle(h)) % (2 * np.pi)

    def inverse(self, g):
        return (-self._angle(g)) % (2 * np.pi)

    def shift_nodes(self, a, nodes, side):
        del side  # abelian
        return (nodes + self._angle(a)) % (2 * np.pi)

    def invert_nodes(self, nodes):
        return (-nodes) % (2 * np.pi)

    def multiply_nodes(self, xs, ys):
        return (np.asarray(xs, dtype=float) + ys) % (2 * np.pi)


class SU2Group:
    """2x2 special-unitary matrices.

    Products of many elements are re-projected onto the group whenever the
    unitarity drift exceeds SU2_DRIFT_TOL, so long chains cannot wander off.
    """

    kind = "su2"

    def __eq__(self, other):
        return isinstance(other, SU2Group)

    def __repr__(self):
        return "SU2Group()"

    def identity_element(self):
        return np.eye(2, dtype=complex)

    def _element(self, g):
        U = np.asarray(g)
        if U.shape != (2, 2):
            raise KindMismatchError(f"su2 elements are 2x2 matrices, got shape {U.shape}")
        return self._elements(U[None])[0]

    def _elements(self, nodes):
        """Validate a stack of group elements (n, 2, 2)."""
        U = np.asarray(nodes)
        if U.ndim != 3 or U.shape[1:] != (2, 2):
            raise KindMismatchError(f"su2 node stacks have shape (n, 2, 2), got {U.shape}")
        U = U.astype(complex, copy=False)
        if linalg.max_abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2)) > SU2_UNITARITY_TOL:
            raise KindMismatchError("matrix is not unitary within tolerance")
        if linalg.max_abs(np.linalg.det(U) - 1.0) > SU2_UNITARITY_TOL:
            raise KindMismatchError("matrix determinant is not 1 within tolerance")
        return U

    def project(self, U):
        """Nearest special-unitary matrix (polar projection, det renormalized);
        works on one matrix or on a stack."""
        W, _, Vh = np.linalg.svd(U)
        P = W @ Vh
        return P / np.sqrt(np.linalg.det(P))[..., None, None]

    def multiply(self, g, h):
        return self.multiply_nodes(self._element(g)[None], self._element(h)[None])[0]

    def multiply_nodes(self, xs, ys):
        """Products of two validated node stacks, each re-projected onto the
        group when its unitarity drift exceeds SU2_DRIFT_TOL."""
        U = self._elements(xs) @ self._elements(ys)
        drift = np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2)).max(axis=(1, 2))
        drifted = drift > SU2_DRIFT_TOL
        if drifted.any():
            U[drifted] = self.project(U[drifted])
        return U

    def inverse(self, g):
        return self._element(g).conj().T

    def shift_nodes(self, a, nodes, side):
        a = self._element(a)
        return np.einsum("ij,njk->nik", a, nodes) if side == "left" else np.einsum("nij,jk->nik", nodes, a)

    def invert_nodes(self, nodes):
        return nodes.conj().transpose(0, 2, 1)


def multiply(group, g, h):
    return group.multiply(g, h)


def inverse(group, g):
    return group.inverse(g)


def identity(group):
    return group.identity_element()


def enumerate_or_sample(group, count, seed=0):
    """All elements of a finite group, or ``count`` pseudo-random elements of
    a continuous one (deterministic for a fixed seed)."""
    if group.kind == "finite":
        return group.elements()
    rng = np.random.default_rng(seed)
    if group.kind == "circle":
        return list(rng.uniform(0.0, 2 * np.pi, size=count))
    quat = rng.normal(size=(count, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    out = []
    for a, b, c, d in quat:
        alpha, beta = a + 1j * b, c + 1j * d
        out.append(np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]]))
    return out


@dataclass(frozen=True)
class HaarRule:
    """A normalized quadrature realization of the invariant integral: nodes
    are group elements, weights are positive and sum to one."""

    group: object
    nodes: np.ndarray
    weights: np.ndarray
    resolution: int

    def __post_init__(self):
        if (self.weights <= 0).any():
            raise ValueError("all quadrature weights must be positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def node_count(self) -> int:
        return len(self.weights)

    @cached_property
    def inverse_nodes(self):
        """The inverses of the nodes, computed once per rule: one node array
        that per-call stacks can be keyed on."""
        return self.group.invert_nodes(self.nodes)

    def iter_nodes(self):
        if self.group.kind == "finite":
            return (int(k) for k in self.nodes)
        if self.group.kind == "circle":
            return (float(t) for t in self.nodes)
        return (self.nodes[i] for i in range(self.nodes.shape[0]))

    def same_rule(self, other) -> bool:
        return (self.group == other.group and self.resolution == other.resolution
                and self.weights.shape == other.weights.shape
                and np.array_equal(self.weights, other.weights))


def haar_rule(group, resolution: int) -> HaarRule:
    """Build the invariant-integral rule for a group at a given resolution.

    Finite groups ignore the resolution (the exact uniform average is used);
    the circle gets ``resolution`` equispaced angles; su2 gets the
    axis-angle product rule with ``resolution`` points per coordinate.
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise InvalidResolutionError(f"resolution must be a positive integer, got {resolution!r}")
    if group.kind == "finite":
        n = group.order
        return HaarRule(group=group, nodes=np.arange(n), weights=np.full(n, 1.0 / n),
                        resolution=resolution)
    if group.kind == "circle":
        angles = 2 * np.pi * np.arange(resolution) / resolution
        return HaarRule(group=group, nodes=angles, weights=np.full(resolution, 1.0 / resolution),
                        resolution=resolution)
    if group.kind == "su2":
        return _su2_rule(group, resolution)
    raise KindMismatchError(f"unsupported group kind {group.kind!r}")


def _su2_rule(group, resolution: int) -> HaarRule:
    x, wx = np.polynomial.legendre.leggauss(resolution)
    t = np.pi * (x + 1.0)                      # class angle on [0, 2pi]
    wt = wx * np.sin(t / 2.0) ** 2             # pi from the interval map cancels 1/pi in the density
    u, wu = np.polynomial.legendre.leggauss(resolution)   # polar cosine on [-1, 1]
    phi = 2 * np.pi * np.arange(resolution) / resolution  # uniform azimuth

    half = t / 2.0
    cos_half, sin_half = np.cos(half), np.sin(half)
    sin_beta = np.sqrt(np.clip(1.0 - u ** 2, 0.0, None))
    nx = np.einsum("b,p->bp", sin_beta, np.cos(phi))
    ny = np.einsum("b,p->bp", sin_beta, np.sin(phi))
    nz = np.broadcast_to(u[:, None], (resolution, resolution))

    nodes = np.empty((resolution, resolution, resolution, 2, 2), dtype=complex)
    c = cos_half[:, None, None]
    s = sin_half[:, None, None]
    nodes[..., 0, 0] = c + 1j * s * nz[None]
    nodes[..., 0, 1] = 1j * s * (nx[None] - 1j * ny[None])
    nodes[..., 1, 0] = 1j * s * (nx[None] + 1j * ny[None])
    nodes[..., 1, 1] = c - 1j * s * nz[None]
    nodes = nodes.reshape(-1, 2, 2)

    weights = np.einsum("a,b,p->abp", wt, wu, np.full(resolution, 1.0 / resolution)).reshape(-1)
    weights = weights / math.fsum(weights)
    return HaarRule(group=group, nodes=nodes, weights=weights, resolution=resolution)


def _weighted_fsum(values: np.ndarray, weights: np.ndarray) -> complex:
    terms = weights * values
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def evaluate_probe(f, rule: HaarRule, nodes=None) -> np.ndarray:
    """Evaluate a scalar function at every node (batched when supported).

    Functions may expose a ``batch(nodes) -> values`` method for vectorized
    evaluation; otherwise they are called once per node.
    """
    if nodes is None:
        nodes = rule.nodes
    batch = getattr(f, "batch", None)
    try:
        if batch is not None:
            values = np.asarray(batch(nodes), dtype=complex)
        else:
            if rule.group.kind == "su2":
                it = (nodes[i] for i in range(nodes.shape[0]))
            else:
                it = iter(nodes)
            values = np.fromiter((complex(f(x)) for x in it), dtype=complex, count=len(nodes))
    except EvaluationFailureError:
        raise
    except Exception as exc:
        raise EvaluationFailureError(f"probe failed at a node: {exc}")
    if values.shape != (len(nodes),):
        raise EvaluationFailureError(f"probe returned shape {values.shape}, expected ({len(nodes)},)")
    if not np.isfinite(values).all():
        raise EvaluationFailureError("probe returned a non-finite value at a node")
    return values


def integrate_scalar(rule: HaarRule, f) -> complex:
    """Invariant integral of a scalar function: the weighted node sum,
    accumulated with correctly rounded summation."""
    return _weighted_fsum(evaluate_probe(f, rule), rule.weights)


def integrate_values(rule: HaarRule, values: np.ndarray) -> complex:
    """Weighted sum of precomputed per-node scalar values."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (rule.node_count,):
        raise ShapeMismatchError(f"expected {rule.node_count} node values, got shape {values.shape}")
    return _weighted_fsum(values, rule.weights)


def integrate_product(rule: HaarRule, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The averaging contraction: sum over nodes of w_n X_n^T Y_n, for node
    stacks X of shape (n, k, a) and Y of shape (n, k, b); returns (a, b).

    With k = 1 this is the averaged outer product of the flattened node
    matrices (integrate X_n (x) Y_n), from which the matrix-element
    integrals and the block-character inner products are read off; with
    k > 1 it also contracts the shared middle index, as in the averaged
    Gram matrix rho* rho.  Either way it is a single GEMM of shape
    (a x n*k) (n*k x b) with the weights folded into the narrower operand.
    Sums run in BLAS over the fixed node order (deterministic run to run);
    the scalar path keeps the stronger correctly-rounded accumulation.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    n = rule.node_count
    if X.ndim != 3 or Y.ndim != 3 or X.shape[:2] != Y.shape[:2] or X.shape[0] != n:
        raise ShapeMismatchError(
            f"expected ({n}, k, a) and ({n}, k, b) node stacks, got shapes {X.shape} and {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise EvaluationFailureError("integrand has a non-finite entry at some node")
    k = X.shape[1]
    w = np.repeat(rule.weights, k)[:, None]
    Xf, Yf = X.reshape(n * k, -1), Y.reshape(n * k, -1)
    if Xf.shape[1] <= Yf.shape[1]:
        return (w * Xf).T @ Yf
    return Xf.T @ (w * Yf)


def integrate_stacked(rule: HaarRule, stacked: np.ndarray) -> np.ndarray:
    """Entrywise weighted sum of precomputed per-node matrices (n, r, s):
    the contraction against the constant function one."""
    stacked = np.asarray(stacked, dtype=complex)
    if stacked.ndim != 3 or stacked.shape[0] != rule.node_count:
        raise ShapeMismatchError(
            f"expected ({rule.node_count}, r, s) node matrices, got shape {stacked.shape}")
    n, r, s = stacked.shape
    ones = np.ones((n, 1, 1))
    return integrate_product(rule, stacked.reshape(n, 1, r * s), ones).reshape(r, s)


def integrate_matrix(rule: HaarRule, F) -> np.ndarray:
    """Invariant integral of a matrix-valued function, entry by entry."""
    batch = getattr(F, "batch", None)
    if batch is not None:
        stacked = np.asarray(batch(rule.nodes), dtype=complex)
        if stacked.ndim != 3:
            raise ShapeMismatchError("batched matrix integrand must return (n, r, s)")
    else:
        mats = [np.asarray(F(x), dtype=complex) for x in rule.iter_nodes()]
        shape = mats[0].shape
        if len(shape) != 2:
            raise ShapeMismatchError(f"integrand values must be matrices, got shape {shape}")
        for k, m in enumerate(mats):
            if m.shape != shape:
                raise ShapeMismatchError(f"integrand shape changed at node {k}: {m.shape} != {shape}")
        stacked = np.stack(mats)
    return integrate_stacked(rule, stacked)


@dataclass(frozen=True)
class AxiomAuditReport:
    """Residuals of the invariant-integral axioms, measured on a finite probe
    and shift inventory.

    ``positivity_margin`` is the smallest integral of the non-negative probe
    family (larger is better); every other field is an absolute residual.
    """

    homogeneity: float
    additivity: float
    positivity_margin: float
    normalization: float
    translation: float
    inversion: float
    inventory: dict = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "homogeneity": self.homogeneity,
            "additivity": self.additivity,
            "positivity_margin": self.positivity_margin,
            "normalization": self.normalization,
            "translation": self.translation,
            "inversion": self.inversion,
        }


_AUDIT_SCALARS = (2.0, 1j, -1.0)


def axiom_audit(rule: HaarRule, probes, shifts) -> AxiomAuditReport:
    """Measure how well a rule satisfies the invariant-integral axioms.

    Homogeneity is probed with the scalars 2, i and -1 (whose pointwise
    action on binary floats is exact, so the residual isolates the rule);
    additivity is probed by doubling each probe, for the same reason.
    Translation invariance is probed on both sides with every supplied
    shift, and inversion invariance with the node inverses.  The audit is
    sampled, not proven: the returned inventory records what was used.
    """
    probes = list(probes)
    shifts = list(shifts)
    if not probes:
        raise ValueError("at least one probe function is required")
    if not shifts:
        raise ValueError("at least one shift element is required")

    group = rule.group
    base = [evaluate_probe(f, rule) for f in probes]
    base_int = [integrate_values(rule, v) for v in base]

    homogeneity = 0.0
    for v, iv in zip(base, base_int):
        for alpha in _AUDIT_SCALARS:
            homogeneity = max(homogeneity, abs(integrate_values(rule, alpha * v) - alpha * iv))

    additivity = 0.0
    for v, iv in zip(base, base_int):
        additivity = max(additivity, abs(integrate_values(rule, v + v) - (iv + iv)))

    margin = min(_weighted_fsum(np.abs(v) ** 2 + 0j, rule.weights).real for v in base)

    ones = np.ones(rule.node_count, dtype=complex)
    normalization = abs(integrate_values(rule, ones) - 1.0)

    translation = 0.0
    for a in shifts:
        for side in ("left", "right"):
            moved = group.shift_nodes(a, rule.nodes, side)
            for f, iv in zip(probes, base_int):
                shifted = evaluate_probe(f, rule, nodes=moved)
                translation = max(translation, abs(integrate_values(rule, shifted) - iv))

    inv_nodes = rule.inverse_nodes
    inversion = 0.0
    for f, iv in zip(probes, base_int):
        inversion = max(inversion, abs(integrate_values(rule, evaluate_probe(f, rule, nodes=inv_nodes)) - iv))

    inventory = {
        "probe_count": len(probes),
        "probe_labels": [getattr(f, "label", f"probe{i}") for i, f in enumerate(probes)],
        "shift_count": len(shifts),
        "scalars": ["2", "i", "-1"],
        "additivity_pairing": "each probe added to itself",
        "positivity_probes": "squared moduli of the probe family",
    }
    return AxiomAuditReport(homogeneity=homogeneity, additivity=additivity,
                            positivity_margin=margin, normalization=normalization,
                            translation=translation, inversion=inversion, inventory=inventory)
