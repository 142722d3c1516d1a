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

Scalar integrals are correctly rounded: deterministic, independent of node
order, and exactly invariant under the node permutations induced by
finite-group translations.  They go through one vectorized kernel,
``_fsum_rows``, Rump, Ogita and Oishi's error-free extraction: it splits the
node terms into a few levels whose numpy sums are exact in any order, so
its values are those of ``math.fsum`` on the node array, bit for bit, at
numpy speed.  Every matrix integral goes through one averaging contraction,
``integrate_product(rule, X, Y)`` = sum of w_n X_n^* Y_n: one GEMM per
node sub-chunk against the weighted conjugate of that sub-chunk of X,
built in place, so it holds no stack-sized temporary.  A pass
(``representations.node_chunks``) hands out the same sub-chunks and sums
the same contraction in a ``ProductSum``: every average the library
takes is one pair (X, Y) of views of each sub-chunk added to one, but
for the averaging map, whose ``ProductSum`` sums the real map itself
(``unitarization._AveragingMap``), and ``take()`` hands the total over
and drops it.  It refuses a non-finite result, which is what a
non-finite node entry or an overflowing sum produces, so no input sweep
is needed.

Caller input is checked once per kind, here.  ``_is_integer`` decides every
integer the library takes (a Python or numpy int, never a bool, float or
string, and nothing is cast), ``_node_array`` every batch of nodes (by
its dtype kind, and on su2 its shape, O(1) per batch), and
``_evaluate`` evaluates every caller integrand, for ``integrate_scalar``,
``integrate_matrix`` and the Haar audit alike: ``f.batch(nodes)`` when
``f`` has one, else ``f(x)`` per node.  A ``Representation`` given to
``integrate_matrix`` is summed in one pass over its sub-chunks instead.

The Haar audit (``axiom_audit``) holds the probe values at the rule nodes
only until their integrals and the positivity margin are summed: a
probe family's values are views into its one shared stack, so once they
are dropped each family holds the stack of one node set at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    EvaluationFailureError,
    InvalidResolutionError,
    KindMismatchError,
    ShapeMismatchError,
)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a boolean: the
    library's one integrality test (a float or string is never cast)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# the numpy dtype kinds of a batch of nodes, by group kind, and what its
# nodes are
_NODE_KINDS = {"finite": ("iu", "finite group elements are integer indices"),
               "circle": ("iuf", "circle elements are angles"),
               "su2": ("iufc", "su2 elements are numeric matrices")}


def _node_array(nodes, group_kind: str) -> np.ndarray:
    """A batch of nodes as an array, refused with ``KindMismatchError``
    unless its dtype kind is one of that group kind's ``_NODE_KINDS`` and,
    on su2, its shape is (n, 2, 2): O(1) per batch, never cast."""
    kinds, what = _NODE_KINDS[group_kind]
    nodes = np.asarray(nodes)
    if nodes.dtype.kind not in kinds:
        raise KindMismatchError(f"{what}, got an array of dtype {nodes.dtype}")
    if group_kind == "su2" and (nodes.ndim != 3 or nodes.shape[1:] != (2, 2)):
        raise KindMismatchError(f"su2 node stacks have shape (n, 2, 2), got {nodes.shape}")
    return nodes


def _require_integers(value, field: str) -> None:
    """Refuse anything but an int64 integer, or a (nested) list, range or
    integer array of them, in ``field``: a float, string or boolean is
    refused, never cast, and the first one is named by its index."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" and np.can_cast(value.dtype, np.int64):
            return
        value = value.tolist()
    if isinstance(value, (list, tuple, range)):
        for i, item in enumerate(value):
            _require_integers(item, f"{field}[{i}]")
    elif not _is_integer(value):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    elif not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{field} must be an integer in the int64 range, got {value!r}")


class FiniteGroup:
    """A finite group as a multiplication table on indices 0..N-1.

    The table is validated on construction: its entries, and the declared
    identity and inverses, must be integers (never cast); it must be a
    Latin square with a two-sided identity and two-sided inverses, and
    associativity is checked exhaustively up to N = 64 (by at least 10^4
    random triples beyond that).
    """

    kind = "finite"

    def __init__(self, mult_table, *, identity=None, inverse=None, labels=None, name=None):
        for field, value in (("mult_table", mult_table), ("identity", identity), ("inverse", inverse)):
            if value is not None:
                _require_integers(value, field)
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
        if identity is not None and identity != ident:
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
        if not _is_integer(g):
            raise KindMismatchError(f"finite group elements are integer indices, got {type(g).__name__}")
        if not 0 <= g < self.order:
            raise KindMismatchError(f"element index {g} outside 0..{self.order - 1}")
        return g

    def _indices(self, nodes) -> np.ndarray:
        """``_index`` for a batch: an integer array (``_node_array``) whose
        min and max lie in 0..order-1, never cast or wrapped around."""
        index = _node_array(nodes, self.kind)
        if index.size and not (index.min() >= 0 and index.max() < self.order):
            raise KindMismatchError(
                f"element indices {index.min()}..{index.max()} outside 0..{self.order - 1}")
        return index

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

    @staticmethod
    def _angle(g):
        """``g``, a real number or 0-d array, as an angle in [0, 2pi)."""
        if not isinstance(g, (bool, np.bool_, str, bytes)):
            try:
                return float(g) % (2 * np.pi)
            except (TypeError, ValueError):
                pass
        raise KindMismatchError(f"circle elements are angles, got {type(g).__name__}")

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
    unitarity drift exceeds ``linalg.KERNEL_TOL``, so long chains cannot
    wander off.
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
        """Validate a stack of group elements (n, 2, 2): ``_node_array``,
        then unitarity and determinant."""
        U = _node_array(nodes, self.kind).astype(complex, copy=False)
        if linalg.max_abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2)) > linalg.STRUCTURAL_TOL:
            raise KindMismatchError("matrix is not unitary within tolerance")
        if linalg.max_abs(np.linalg.det(U) - 1.0) > linalg.STRUCTURAL_TOL:
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
        group when its unitarity drift exceeds ``linalg.KERNEL_TOL``."""
        U = self._elements(xs) @ self._elements(ys)
        drift = np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2)).max(axis=(1, 2))
        drifted = drift > linalg.KERNEL_TOL
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
    if not _is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if group.kind == "finite":
        return group.elements()
    rng = np.random.default_rng(seed)
    if group.kind == "circle":
        return list(rng.uniform(0.0, 2 * np.pi, size=count))
    quat = rng.normal(size=(count, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    alpha, beta = quat[:, 0] + 1j * quat[:, 1], quat[:, 2] + 1j * quat[:, 3]
    return list(np.stack([alpha, beta, -beta.conj(), alpha.conj()], axis=1).reshape(count, 2, 2))


@dataclass(frozen=True, eq=False)
class HaarRule:
    """A normalized quadrature realization of the invariant integral: nodes
    are group elements, one per weight, and weights are positive and sum to
    one.  The nodes pass the O(1) ``_node_array`` check of the group kind,
    not a per-node one.  Rules compare and hash by identity;
    ``same_rule`` compares their contents."""

    group: object
    nodes: np.ndarray
    weights: np.ndarray
    resolution: int

    def __post_init__(self):
        shape = _node_array(self.nodes, self.group.kind).shape
        if np.ndim(self.weights) != 1 or np.shape(self.weights) != shape[:1]:
            raise ShapeMismatchError(f"a rule takes one weight per node, got nodes of shape {shape} "
                                     f"and weights of shape {np.shape(self.weights)}")
        if (self.weights <= 0).any():
            raise ValueError("all quadrature weights must be positive")
        if abs(_fsum_rows(self.weights[None])[0] - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def iter_nodes(self):
        """The nodes one at a time, as a per-node integrand reads them."""
        return iter(_per_node(self.nodes))

    def same_rule(self, other) -> bool:
        """Same group, nodes and weights; a finite group ignores the
        resolution, and on the circle and su2 the nodes fix it."""
        return self is other or (self.group == other.group
                                 and np.array_equal(self.weights, other.weights)
                                 and np.array_equal(self.nodes, other.nodes))


def haar_rule(group, resolution: int) -> HaarRule:
    """Build the invariant-integral rule for a group at a given resolution.

    Finite groups ignore the resolution (the exact uniform average is used);
    the circle gets ``resolution`` equispaced angles; su2 gets the
    axis-angle product rule with ``resolution`` points per coordinate.  A
    resolution whose rule cannot be allocated is refused with
    ``InvalidResolutionError``, naming its node count.
    """
    if not _is_integer(resolution) or resolution < 1:
        raise InvalidResolutionError(f"resolution must be a positive integer, got {resolution!r}")
    if group.kind == "finite":
        n = group.order
        return HaarRule(group=group, nodes=np.arange(n), weights=np.full(n, 1.0 / n),
                        resolution=resolution)
    try:
        if group.kind == "circle":
            angles = 2 * np.pi * np.arange(resolution) / resolution
            return HaarRule(group=group, nodes=angles, weights=np.full(resolution, 1.0 / resolution),
                            resolution=resolution)
        if group.kind == "su2":
            return _su2_rule(group, resolution)
    except (MemoryError, OverflowError, ValueError) as exc:
        count = resolution ** 3 if group.kind == "su2" else resolution
        raise InvalidResolutionError(
            f"resolution {resolution} asks for a rule of {count} nodes, which cannot be allocated") from exc
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
    weights = weights / _fsum_rows(weights[None])[0]
    return HaarRule(group=group, nodes=nodes, weights=weights, resolution=resolution)


def _fsum_rows(rows: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a (k, n) float array, bit for bit, in
    whole-array numpy operations: Rump, Ogita and Oishi's error-free
    extraction (Accurate floating-point summation, SIAM J. Sci. Comput. 2008).

    Each level splits each row v into q = (sigma + v) - sigma and the
    leftover v - q, where sigma is 2^ceil(log2(n + 2)) times a power of two
    above max|v|.  Both parts are exact; every q is a multiple of
    2^-53 sigma and their absolute sum is below sigma, so numpy sums q
    exactly in any order; the leftover is at most 2^-53 sigma, so a few
    levels exhaust the row.  The level sums then add up to the row's exact
    sum, and ``math.fsum`` of them is its correctly rounded value.  A row
    with a non-finite term, or whose sigma would overflow, goes to
    ``math.fsum`` itself (same value or same exception); a row without a
    non-zero term gets the zero ``math.fsum`` gives it.
    """
    spread = (rows.shape[1] + 1).bit_length()   # ceil(log2(n + 2))
    top = np.abs(rows).max(axis=1, initial=0.0)
    # finite, not all zero, and sigma at most 2^1023
    usable = (top > 0) & (top < 2.0 ** (1023 - spread))
    v, exps = rows[usable], np.frexp(top[usable])[1] + spread
    levels = []
    while v.size:
        sigma = np.ldexp(1.0, exps)[:, None]
        q = sigma + v
        q -= sigma
        v -= q
        levels.append(q.sum(axis=1))
        left = np.abs(v).max(axis=1)
        if not left.any():
            break
        exps = np.frexp(left)[1] + spread
    sums = iter(np.transpose(levels).tolist())
    out = []
    for row, t, ok in zip(rows, top, usable):
        if ok:
            out.append(math.fsum(next(sums)))
        elif t:
            out.append(math.fsum(row))
        else:   # no non-zero term: fsum's zero depends only on whether all are -0.0
            out.append(math.fsum(row[:1] if np.signbit(row).all() else (0.0,)))
    return out


# complex node terms per ``_fsum_rows`` batch of ``_weighted_fsum_rows``
# (64 KB): each extraction level sweeps its batch several times, and a
# batch much larger than this falls out of cache (26 rows of 13 824 terms
# measured 3 times slower in one batch than in 13) and holds more
# temporaries than one row of a larger rule would
FSUM_CHUNK = 1 << 12


def _weighted_fsum_rows(rows, weights: np.ndarray) -> list[complex]:
    """The correctly rounded weighted sum of each complex node-value row of
    an iterable: the real and imaginary rows of node terms go through
    ``_fsum_rows`` in batches of about ``FSUM_CHUNK`` terms, and the rows
    are drawn one batch at a time, so a generator holds one batch."""
    rows = iter(rows)
    step = max(1, FSUM_CHUNK // len(weights))
    out = []
    while batch := list(itertools.islice(rows, step)):
        terms = np.empty((len(batch), len(weights)), dtype=complex)
        for row, t in zip(batch, terms):
            np.multiply(weights, row, out=t)
        sums = _fsum_rows(np.concatenate((terms.real, terms.imag)))
        out += [complex(re, im) for re, im in zip(sums[:len(batch)], sums[len(batch):])]
    return out


def _per_node(nodes):
    """``nodes`` as a per-node integrand reads them: a 1-d array (finite
    indices, circle angles) as a list of Python numbers, any other array
    (su2 matrices) as it is, one element per row."""
    nodes = np.asarray(nodes)
    return nodes.tolist() if nodes.ndim == 1 else nodes


def _evaluate(f, nodes) -> np.ndarray:
    """The values of a caller's integrand ``f`` at ``nodes``, stacked on a
    first node axis as a complex array: ``f.batch(nodes)`` when ``f`` has a
    ``batch`` method, else ``f(x)`` at each node x as ``_per_node`` reads
    it.  A per-node value that changes shape from one node to the next is
    refused with ``ShapeMismatchError``; a call that raises, or a
    non-finite value, with ``EvaluationFailureError``."""
    batch = getattr(f, "batch", None)
    try:
        if batch is not None:
            values = np.asarray(batch(nodes), dtype=complex)
        else:
            values = [np.asarray(f(x), dtype=complex) for x in _per_node(nodes)]
    except EvaluationFailureError:
        raise
    except Exception as exc:
        raise EvaluationFailureError(f"integrand failed at a node: {exc}") from exc
    if batch is None:
        for k, value in enumerate(values):
            if value.shape != values[0].shape:
                raise ShapeMismatchError(
                    f"integrand shape changed at node {k}: {value.shape} != {values[0].shape}")
        values = np.stack(values)
    if not np.isfinite(values).all():
        raise EvaluationFailureError("integrand returned a non-finite value at a node")
    return values


def evaluate_probe(f, rule: HaarRule, nodes=None) -> np.ndarray:
    """The values of a scalar function at every rule node, or at ``nodes``
    (``_evaluate``: batched when ``f`` has a ``batch`` method, else one
    call per node)."""
    nodes = rule.nodes if nodes is None else nodes
    values = _evaluate(f, nodes)
    if values.shape != (len(nodes),):
        raise EvaluationFailureError(f"probe returned shape {values.shape}, expected ({len(nodes)},)")
    return values


def integrate_scalar(rule: HaarRule, f) -> complex:
    """Invariant integral of a scalar function: its node values
    (``evaluate_probe``) summed by ``integrate_values``."""
    return integrate_values(rule, evaluate_probe(f, rule))


def integrate_values(rule: HaarRule, values: np.ndarray) -> complex:
    """Weighted sum of precomputed per-node scalar values, correctly rounded
    in its real and imaginary parts: both rows of node terms go through the
    error-free kernel ``_fsum_rows`` in one batch, whose values are those
    of ``math.fsum`` bit for bit."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (rule.node_count,):
        raise ShapeMismatchError(f"expected {rule.node_count} node values, got shape {values.shape}")
    return _weighted_fsum_rows([values], rule.weights)[0]


class ProductSum:
    """The averaging contraction of ``integrate_product`` summed over node
    sub-chunks: ``add(nodes, X, Y)`` adds the sum over the rule nodes
    ``nodes`` (a slice) of w_n X_n^* Y_n for the sub-chunks X (c, k, a) and
    Y (c, k, b) of two stacks at those nodes, ``total()`` returns the sum
    and ``take()`` returns it and lets go of it, so a large total (the
    r^4 averaging map of ``unitarization._AveragingMap``, which sums into
    the same slot) lives no longer than its last reader.

    Each ``add`` is one GEMM against the weighted conjugate of X, built in
    place.  The first product is the accumulator and later ones add theirs
    in node order, so a pass and ``integrate_product`` add the same GEMMs
    in the same order.  The weights are positive, so a non-finite entry in
    either stack, like an overflowing sum, leaves the total non-finite,
    and that is refused.
    """

    def __init__(self, rule: HaarRule):
        self.weights = rule.weights
        self.sum = None

    def add(self, nodes: slice, X: np.ndarray, Y: np.ndarray) -> None:
        with np.errstate(invalid="ignore", over="ignore"):
            t = np.conjugate(X, dtype=complex)
            t *= self.weights[nodes, None, None]
            part = t.reshape(-1, X.shape[2]).T @ Y.reshape(-1, Y.shape[2])
            if self.sum is None:
                self.sum = part
            else:
                self.sum += part

    def total(self) -> np.ndarray:
        if not np.isfinite(self.sum).all():
            raise EvaluationFailureError("the averaged integrand has a non-finite entry")
        return self.sum

    def take(self) -> np.ndarray:
        total, self.sum = self.total(), None
        return total


def integrate_product(rule: HaarRule, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The averaging contraction, sum over nodes of w_n X_n^* Y_n, for node
    stacks X of shape (n, k, a) and Y of shape (n, k, b); returns (a, b).

    Every averaged matrix but the averaging map is this contraction: with
    k = 1 the averaged outer product of the flattened node matrices (the
    block-character inner products, the integral of a representation),
    with k > 1 a contraction over the middle index too (the averaged Gram
    rho* rho).  The averaging map is summed from blocks of such outer
    products (``unitarization._AveragingMap``).  It is one ``ProductSum``
    over the ``linalg.NODE_CHUNK``-node sub-chunks of the stacks, so a pass
    over them gets the same bytes.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    n = rule.node_count
    if X.ndim != 3 or Y.ndim != 3 or X.shape[:2] != Y.shape[:2] or X.shape[0] != n:
        raise ShapeMismatchError(
            f"expected ({n}, k, a) and ({n}, k, b) node stacks, got shapes {X.shape} and {Y.shape}")
    total = ProductSum(rule)
    for i in range(0, n, linalg.NODE_CHUNK):
        nodes = slice(i, i + linalg.NODE_CHUNK)
        total.add(nodes, X[nodes], Y[nodes])
    return total.total()


def integrate_stacked(rule: HaarRule, stacked: np.ndarray) -> np.ndarray:
    """Entrywise weighted sum of precomputed per-node matrices (n, r, s):
    the contraction of the constant function one against them."""
    stacked = np.asarray(stacked, dtype=complex)
    if stacked.ndim != 3 or stacked.shape[0] != rule.node_count:
        raise ShapeMismatchError(
            f"expected ({rule.node_count}, r, s) node matrices, got shape {stacked.shape}")
    n, r, s = stacked.shape
    return integrate_product(rule, np.ones((n, 1, 1)), stacked.reshape(n, 1, r * s)).reshape(r, s)


def integrate_matrix(rule: HaarRule, F) -> np.ndarray:
    """Invariant integral of a matrix-valued function, entry by entry: its
    node values (``_evaluate``, as for ``integrate_scalar``) summed by
    ``integrate_stacked``.

    For a ``Representation`` F this is the paper's integral of rho, the
    projection onto its invariant vectors, summed in one pass over F
    (``representations._average``, which refuses F over another group
    with ``GroupMismatchError``): the pair (ones, flattened sub-chunk),
    the sum ``integrate_stacked`` takes, so no stack is held."""
    from .representations import Representation, _average, _PairSum
    if isinstance(F, Representation):
        total = _PairSum(rule, lambda W: (np.ones((len(W), 1, 1)), W.reshape(len(W), 1, -1)))
        return _average(F, rule, total).take().reshape(F.degree, F.degree)
    stacked = _evaluate(F, rule.nodes)
    if stacked.ndim != 3:
        raise ShapeMismatchError(f"matrix integrand must return (n, r, s), got shape {stacked.shape}")
    return integrate_stacked(rule, stacked)


@dataclass(frozen=True)
class AxiomAuditReport:
    """Residuals of the invariant-integral axioms, measured on a finite probe
    and shift inventory.

    ``positivity_margin`` is the smallest integral of the non-negative probe
    family (larger is better); every other field is an absolute residual.
    ``homogeneity`` and ``additivity`` read 0.0: linearity is exact by
    construction (``axiom_audit``).
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


def axiom_audit(rule: HaarRule, probes, shifts) -> AxiomAuditReport:
    """Measure how well a rule satisfies the invariant-integral axioms.

    Linearity holds by construction: the integral is one fixed weighted
    sum, and scaling a probe by 2, i or -1, or adding it to itself, acts
    exactly on binary floats, node terms and sums alike, so any correctly
    rounded sum reads 0 on them.  ``homogeneity`` and ``additivity`` are
    therefore 0.0, and nothing is summed for them.  Translation invariance
    is probed on both sides with every supplied shift, and inversion
    invariance with the node inverses; with correctly rounded sums these
    read exactly 0 on finite groups.  The audit is sampled, not proven: the
    returned inventory records what was used.
    """
    probes = list(probes)
    shifts = list(shifts)
    if not probes:
        raise ValueError("at least one probe function is required")
    if not shifts:
        raise ValueError("at least one shift element is required")

    group = rule.group
    base = [evaluate_probe(f, rule) for f in probes]
    # the kernel batches: the base integrals, the positivity margins, and
    # per shifted or inverted node set every probe there, evaluated in turn
    # so that a probe family evaluates once per node set
    base_int = _weighted_fsum_rows(base, rule.weights)
    margin = min(s.real for s in _weighted_fsum_rows((np.abs(v) ** 2 + 0j for v in base), rule.weights))
    # the base values are views into the probe families' stacks at the
    # rule nodes: dropped here, each family lets go of its stack when it
    # evaluates the first shifted node set
    del base

    def moved(nodes):
        sums = _weighted_fsum_rows((evaluate_probe(f, rule, nodes=nodes) for f in probes), rule.weights)
        return max(abs(s - iv) for s, iv in zip(sums, base_int))

    translation = max(moved(group.shift_nodes(a, rule.nodes, side))
                      for a in shifts for side in ("left", "right"))
    inversion = moved(group.invert_nodes(rule.nodes))

    ones = np.ones(rule.node_count, dtype=complex)
    normalization = abs(integrate_values(rule, ones) - 1.0)

    inventory = {
        "probe_count": len(probes),
        "probe_labels": [getattr(f, "label", f"probe{i}") for i, f in enumerate(probes)],
        "shift_count": len(shifts),
        "linearity": "exact by construction: the integral is a fixed weighted sum",
        "positivity_probes": "squared moduli of the probe family",
    }
    return AxiomAuditReport(homogeneity=0.0, additivity=0.0,
                            positivity_margin=margin, normalization=normalization,
                            translation=translation, inversion=inversion, inventory=inventory)
