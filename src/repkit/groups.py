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
built in place, so it holds no stack-sized temporary.  Every average the
library takes, over a pass (``representations.node_chunks``) or over a
whole stack, is that contraction summed in one ``ProductSum``, whose
docstring states the protocol.  It refuses a non-finite result, which is
what a non-finite node entry or an overflowing sum produces, so no input
sweep is needed.

Caller input is checked once per kind, here.  ``_is_integer`` decides every
integer the library takes (a Python or numpy int, never a bool, float or
string, and nothing is cast), and ``_shown`` names one in a refusal, by its
size when it is too long to print.  Each group class carries what its kind
does: ``node_array`` checks a batch of nodes (by its dtype kind, and on su2
its shape, O(1) per batch), ``_one`` packs one validated element as a batch
of one, ``_rule`` builds the nodes and weights of ``haar_rule`` with the
index of each node's inverse among them, and ``_sample`` draws the
elements of ``enumerate_or_sample``.  The inverse index is integer
arithmetic on the node grid: a finite group's inverse table, angle k with
angle -k on the circle, and on su2 at even resolution the node (a, b, p)
of the angle, polar and azimuth grid with (a, res-1-b, p + res/2); an
su2 rule at odd resolution has no azimuth node opposite each one, so its
nodes, like those of a rule built by hand, are self-paired.  A pass over
input that passes the unitarity audit reads one node of each inverse
pair (``representations.node_chunks``).  A new per-kind piece is one
more such method.  ``_evaluate`` evaluates every caller
integrand, for ``integrate_scalar``,
``integrate_matrix`` and the Haar audit alike: ``f.batch(nodes)`` when
``f`` has one, else ``f(x)`` per node.  A ``Representation`` given to
``integrate_matrix`` is summed in one pass over its sub-chunks instead.

The Haar audit (``axiom_audit``) reads each node set in evaluation
chunks, moving the rule nodes one chunk at a time: a probe family's
values are views into its one shared stack of one chunk, and each
integral's exact parts are merged chunk by chunk, so the audit holds
no node array and its peak does not grow with the rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field

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


def _shown(value) -> str:
    """``repr(value)`` for a refusal, or for an integer past Python's limit
    on printed digits its size, so formatting the refusal cannot raise."""
    try:
        return repr(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def _node_array(nodes, kinds: str, what: str) -> np.ndarray:
    """A batch of nodes as an array, refused with ``KindMismatchError``, as
    ``what`` nodes are, unless its dtype kind is one of ``kinds``: the dtype
    test of every ``node_array``, O(1) per batch, never cast."""
    nodes = np.asarray(nodes)
    if nodes.dtype.kind not in kinds:
        raise KindMismatchError(f"{what}, got an array of dtype {nodes.dtype}")
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
        raise ValueError(f"{field} must be an integer in the int64 range, got {_shown(value)}")


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
        # the first bad index is named, its row before its column
        bad = np.stack([np.sort(table, axis=1) != ref, np.sort(table.T, axis=1) != ref]).any(axis=2)
        if bad.any():
            i, side = divmod(int(np.argmax(bad.T)), 2)
            raise ValueError(f"multiplication table {('row', 'column')[side]} {i} is not a permutation "
                             f"of 0..{n - 1}")
        two_sided = (table == ref).all(axis=1) & (table.T == ref).all(axis=1)
        if not two_sided.any():
            raise ValueError("multiplication table has no two-sided identity")
        ident = int(np.argmax(two_sided))
        if identity is not None and identity != ident:
            raise ValueError(f"declared identity {identity} but the table identity is {ident}")
        inv = np.argmax(table == ident, axis=1)
        one_sided = table[inv, ref] != ident
        if one_sided.any():
            raise ValueError(f"element {np.argmax(one_sided)} has no two-sided inverse")
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

    @staticmethod
    def node_array(nodes) -> np.ndarray:
        """A batch of elements: an integer array (``_node_array``)."""
        return _node_array(nodes, "iu", "finite group elements are integer indices")

    def _index(self, g):
        if not _is_integer(g):
            raise KindMismatchError(f"finite group elements are integer indices, got {type(g).__name__}")
        if not 0 <= g < self.order:
            raise KindMismatchError(f"element index {_shown(g)} outside 0..{self.order - 1}")
        return g

    def _one(self, g) -> np.ndarray:
        return np.array([self._index(g)])

    def _indices(self, nodes) -> np.ndarray:
        """``_index`` for a batch: an integer array (``node_array``) whose
        min and max lie in 0..order-1, never cast or wrapped around."""
        index = self.node_array(nodes)
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

    def _rule(self, resolution):
        """Every element at weight 1/order, the exact uniform average, at
        any resolution, each paired with its inverse."""
        return np.arange(self.order), np.full(self.order, 1.0 / self.order), self.inverse_table

    def _sample(self, count, seed):
        """Every element: a finite group is listed, not sampled."""
        return self.elements()

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
    _RULE_AXES = 1

    def __eq__(self, other):
        return isinstance(other, CircleGroup)

    def __repr__(self):
        return "CircleGroup()"

    def identity_element(self):
        return 0.0

    @staticmethod
    def node_array(nodes) -> np.ndarray:
        """A batch of angles: an integer or real-float array (``_node_array``)."""
        return _node_array(nodes, "iuf", "circle elements are angles")

    def _one(self, g) -> np.ndarray:
        return np.array([self._angle(g)])

    @staticmethod
    def _angle(g):
        """``g``, a finite real number or 0-d array, as an angle in [0, 2pi)."""
        if not isinstance(g, (bool, np.bool_, str, bytes)) and not np.iscomplexobj(g):
            try:
                if math.isfinite(g):
                    return float(g) % (2 * np.pi)
            except (TypeError, ValueError, OverflowError):
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

    def _rule(self, resolution):
        """``resolution`` equispaced angles at equal weights, angle k paired
        with angle -k."""
        k = np.arange(resolution)
        return 2 * np.pi * k / resolution, np.full(resolution, 1.0 / resolution), -k % resolution

    def _sample(self, count, seed):
        return list(np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=count))


class SU2Group:
    """2x2 special-unitary matrices.

    Products of many elements are re-projected onto the group whenever the
    unitarity drift exceeds ``linalg.KERNEL_TOL``, so long chains cannot
    wander off.
    """

    kind = "su2"
    _RULE_AXES = 3

    def __eq__(self, other):
        return isinstance(other, SU2Group)

    def __repr__(self):
        return "SU2Group()"

    def identity_element(self):
        return np.eye(2, dtype=complex)

    @staticmethod
    def node_array(nodes) -> np.ndarray:
        """A batch of elements: a numeric array (``_node_array``) of shape
        (n, 2, 2)."""
        nodes = _node_array(nodes, "iufc", "su2 elements are numeric matrices")
        if nodes.ndim != 3 or nodes.shape[1:] != (2, 2):
            raise KindMismatchError(f"su2 node stacks have shape (n, 2, 2), got {nodes.shape}")
        return nodes

    def _one(self, g) -> np.ndarray:
        U = np.asarray(g)
        if U.shape != (2, 2):
            raise KindMismatchError(f"su2 elements are 2x2 matrices, got shape {U.shape}")
        return self._elements(U[None])

    def _elements(self, nodes):
        """Validate a stack of group elements (n, 2, 2): ``node_array``,
        then unitarity and determinant."""
        U = self.node_array(nodes).astype(complex, copy=False)
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
        return self.multiply_nodes(self._one(g), self._one(h))[0]

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
        return self._one(g)[0].conj().T

    def shift_nodes(self, a, nodes, side):
        a = self._one(a)[0]
        return np.einsum("ij,njk->nik", a, nodes) if side == "left" else np.einsum("nij,jk->nik", nodes, a)

    def invert_nodes(self, nodes):
        return nodes.conj().transpose(0, 2, 1)

    def _rule(self, resolution):
        """The axis-angle product rule of the module docstring."""
        # one Gauss-Legendre rule for the class angle and the polar cosine
        u, wu = linalg._leggauss(resolution)
        t = np.pi * (u + 1.0)                      # class angle on [0, 2pi]
        wt = wu * np.sin(t / 2.0) ** 2             # pi from the interval map cancels 1/pi in the density
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
        # the inverse is the rotation by t about -n: polar cosine -u (the
        # symmetric Gauss-Legendre node res-1-b, of equal weight) and
        # azimuth phi + pi, an azimuth node only at even resolution
        partner = None
        if resolution % 2 == 0:
            a, b, p = np.ogrid[:resolution, :resolution, :resolution]
            partner = ((a * resolution + resolution - 1 - b) * resolution
                       + (p + resolution // 2) % resolution).reshape(-1)
        return nodes, weights / _fsum_rows(weights[None])[0], partner

    def _sample(self, count, seed):
        """``count`` elements, uniform unit quaternions."""
        quat = np.random.default_rng(seed).normal(size=(count, 4))
        quat /= np.linalg.norm(quat, axis=1, keepdims=True)
        alpha, beta = quat[:, 0] + 1j * quat[:, 1], quat[:, 2] + 1j * quat[:, 3]
        return list(np.stack([alpha, beta, -beta.conj(), alpha.conj()], axis=1).reshape(count, 2, 2))


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
    return group._sample(count, seed)


@dataclass(frozen=True, eq=False)
class HaarRule:
    """A normalized quadrature realization of the invariant integral: nodes
    are group elements, one per weight, and weights are positive and sum to
    one.  The nodes pass the O(1) ``node_array`` check of the group,
    not a per-node one.  Rules compare and hash by identity;
    ``same_rule`` compares their contents.

    ``partner[n]`` is the index of the node that is the inverse of node n.
    A rule ``haar_rule`` builds pairs every node it can (``_rule``); a rule
    built by hand pairs each node with itself.  The walk of a pass by
    pairs is fixed with the rule, by index arithmetic: the first
    ``_half`` entries of ``_walk`` are the nodes it reads on unitary
    input, every node of the first sub-chunk of ``linalg.NODE_CHUNK``
    nodes (where the pass reads the input's audit) and one node of each
    other pair, ascending, and the rest of ``_walk`` the other nodes,
    ascending; ``_pair_weights`` gives a node read there the summed
    weight of its pair when its partner is not read, and its own weight
    otherwise (a self-paired node, or a pair inside the first
    sub-chunk)."""

    group: object
    nodes: np.ndarray
    weights: np.ndarray
    resolution: int
    _partner: InitVar[np.ndarray | None] = None
    partner: np.ndarray = field(init=False, repr=False)
    _walk: np.ndarray = field(init=False, repr=False)
    _half: int = field(init=False, repr=False)
    _pair_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, _partner):
        shape = self.group.node_array(self.nodes).shape
        if np.ndim(self.weights) != 1 or np.shape(self.weights) != shape[:1]:
            raise ShapeMismatchError(f"a rule takes one weight per node, got nodes of shape {shape} "
                                     f"and weights of shape {np.shape(self.weights)}")
        # a nan is not > 0, and a list or a complex array has no float64 dtype
        if getattr(self.weights, "dtype", None) != np.float64 or not (self.weights > 0).all():
            raise ValueError("all quadrature weights must be positive, in a float64 array")
        if abs(_fsum_rows(self.weights[None])[0] - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")
        index = np.arange(len(self.weights))
        partner = index if _partner is None else _partner
        head = index < linalg.NODE_CHUNK
        read = head | (~head[partner] & (partner >= index))
        for name, value in (("partner", partner), ("_walk", np.concatenate((index[read], index[~read]))),
                            ("_half", int(np.count_nonzero(read))),
                            ("_pair_weights", np.where(read[partner], self.weights,
                                                       self.weights + self.weights[partner]))):
            object.__setattr__(self, name, value)

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
    ``InvalidResolutionError``, naming its node count, resolution **
    ``_RULE_AXES`` (a finite group's rule, its order at any resolution,
    always can be).  The group builds the nodes, the weights and the
    index of each node's inverse (``_rule``).
    """
    if not _is_integer(resolution) or resolution < 1:
        raise InvalidResolutionError(f"resolution must be a positive integer, got {_shown(resolution)}")
    try:
        nodes, weights, partner = group._rule(resolution)
        return HaarRule(group=group, nodes=nodes, weights=weights, resolution=resolution, _partner=partner)
    except (MemoryError, OverflowError, ValueError) as exc:
        count = _shown(resolution ** group._RULE_AXES)
        raise InvalidResolutionError(f"resolution {_shown(resolution)} asks for a rule of {count} nodes, "
                                     "which cannot be allocated") from exc


def _fsum_rows(rows: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a (k, n) float array, bit for bit: the
    ``math.fsum`` of its ``_fsum_parts``."""
    return [math.fsum(parts) for parts in _fsum_parts(rows)]


def _fsum_parts(rows: np.ndarray) -> list[list[float]]:
    """For each row of a (k, n) float array, a few floats whose
    ``math.fsum`` is that of the row, bit for bit, also with the parts of
    further rows appended: the ``math.fsum`` of the parts of a row's pieces
    is that of the whole row.  Whole-array numpy operations compute them:
    Rump, Ogita and Oishi's error-free extraction (Accurate floating-point
    summation, SIAM J. Sci. Comput. 2008).

    Each level splits each row v into q = (sigma + v) - sigma and the
    leftover v - q, where sigma is 2^ceil(log2(n + 2)) times a power of two
    above max|v|.  Both parts are exact; every q is a multiple of
    2^-53 sigma and their absolute sum is below sigma, so numpy sums q
    exactly in any order; the leftover is at most 2^-53 sigma, so a few
    levels exhaust the row.  The level sums, a row's parts, then add up to
    its exact sum, and ``math.fsum`` of them is its correctly rounded value.
    A row with a non-finite term, or whose sigma would overflow, is its own
    parts (``math.fsum`` gives the same value or the same exception); a row
    without a non-zero term has the one zero that stands for it.
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
            out.append(next(sums))
        elif t:
            out.append(row.tolist())
        else:   # no non-zero term: fsum's zero depends only on whether all are -0.0
            out.append(row[:1].tolist() if np.signbit(row).all() else [0.0])
    return out


# complex node terms per ``_fsum_parts`` batch of ``_weighted_fsum_parts``
# (64 KB): each extraction level sweeps its batch several times, and a
# batch much larger than this falls out of cache (26 rows of 13 824 terms
# measured 3 times slower in one batch than in 13) and holds more
# temporaries than one row of a larger rule would
FSUM_CHUNK = 1 << 12


def _weighted_fsum_rows(rows, weights: np.ndarray) -> list[complex]:
    """The correctly rounded weighted sum of each complex node-value row of
    an iterable: the ``math.fsum`` of its ``_weighted_fsum_parts``."""
    return [complex(math.fsum(re), math.fsum(im)) for re, im in _weighted_fsum_parts(rows, weights)]


def _weighted_fsum_parts(rows, weights: np.ndarray) -> list[tuple[list, list]]:
    """The ``_fsum_parts`` of the real and imaginary weighted node terms of
    each complex row of an iterable, in batches of about ``FSUM_CHUNK``
    terms; the rows are drawn one batch at a time, so a generator holds
    one batch."""
    rows = iter(rows)
    step = max(1, FSUM_CHUNK // len(weights))
    out = []
    while batch := list(itertools.islice(rows, step)):
        terms = np.empty((len(batch), len(weights)), dtype=complex)
        for row, t in zip(batch, terms):
            np.multiply(weights, row, out=t)
        parts = _fsum_parts(np.concatenate((terms.real, terms.imag)))
        out += zip(parts[:len(batch)], parts[len(batch):])
    return out


def _merged_parts(parts: list[tuple[list, list]], more: list[tuple[list, list]]) -> list[tuple[list, list]]:
    """The ``_weighted_fsum_parts`` of rows read in two pieces, from the
    parts of each piece: the ``_fsum_parts`` of both, as one row padded
    with -0.0, which changes no ``math.fsum``, so a row read in many
    pieces keeps a few parts."""
    rows = [a + b for pair, other in zip(parts, more) for a, b in zip(pair, other)]
    width = max(map(len, rows))
    merged = _fsum_parts(np.array([row + [-0.0] * (width - len(row)) for row in rows]))
    return list(zip(merged[::2], merged[1::2]))


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
    """The one sum every average is taken in: ``add(nodes, W)`` adds the
    sum over the rule nodes ``nodes`` (a slice) of w_n X_n^* Y_n for the
    sub-chunks (X, Y) = ``pair(W)`` of shapes (c, k, a) and (c, k, b) at
    those nodes.  A pass (``representations._average``) adds each of its
    sub-chunks W; the pair defaults to (W, W), the averaged Gram rho* rho.
    ``total()`` returns the sum and ``take()`` returns it and lets go of
    it, so a large total (the r^4 averaging map of
    ``unitarization._AveragingMap``, whose ``add`` sums in a layout of its
    own) lives no longer than its last reader.

    Each ``add`` is one GEMM against the weighted conjugate of X, built in
    place.  The first product is the accumulator and later ones add theirs
    in node order, so a pass and ``integrate_product`` (whose W is the
    pair of sub-chunks itself) add the same GEMMs in the same order.  The
    weights are positive, so a non-finite entry in either stack, like an
    overflowing sum, leaves the total non-finite, and that is refused.
    A sum a pass by inverse pairs adds to weighs each node by its pair's
    summed weight: its ``weights`` are the rule's ``_pair_weights``
    (``unitarization._audited``).
    """

    def __init__(self, rule: HaarRule, pair=lambda W: (W, W)):
        self.weights = rule.weights
        self.pair = pair
        self.sum = None

    def add(self, nodes: slice, W) -> None:
        X, Y = self.pair(W)
        with np.errstate(invalid="ignore", over="ignore"):
            t = np.conjugate(X, dtype=complex, order="C")
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
    over the ``linalg.NODE_CHUNK``-node sub-chunks of the stacks, each
    added as its own pair, so a pass over them gets the same bytes.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    n = rule.node_count
    if X.ndim != 3 or Y.ndim != 3 or X.shape[:2] != Y.shape[:2] or X.shape[0] != n:
        raise ShapeMismatchError(
            f"expected ({n}, k, a) and ({n}, k, b) node stacks, got shapes {X.shape} and {Y.shape}")
    total = ProductSum(rule, lambda pair: pair)
    for i in range(0, n, linalg.NODE_CHUNK):
        nodes = slice(i, i + linalg.NODE_CHUNK)
        total.add(nodes, (X[nodes], Y[nodes]))
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
    with ``GroupMismatchError``): the ``ProductSum`` of the pair (ones,
    flattened sub-chunk), the sum ``integrate_stacked`` takes, so no stack
    is held."""
    from .representations import Representation, _average
    if isinstance(F, Representation):
        total = ProductSum(rule, lambda W: (np.ones((len(W), 1, 1)), W.reshape(len(W), 1, -1)))
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
    Linearity has no field: it is exact by construction (``axiom_audit``),
    and the inventory's ``"linearity"`` entry says why.
    """

    positivity_margin: float
    normalization: float
    translation: float
    inversion: float
    inventory: dict = field(repr=False)

    def as_dict(self) -> dict:
        return {
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
    rounded sum reads 0 on them, so the report has no linearity residual
    and nothing is summed for one.  Translation invariance is probed on
    both sides with every supplied shift, and inversion invariance with
    the node inverses; with correctly rounded sums these read exactly 0 on
    finite groups.  The audit is sampled, not proven: the
    returned inventory records what was used.

    Each node set (the rule nodes, each shift on each side, the inverses)
    is read in chunks of ``linalg.EVAL_CHUNK`` rule nodes: the
    chunk is shifted or inverted, every probe is evaluated there (a probe
    family once, so its ``_LastStack`` holds one chunk), and the exact
    ``_weighted_fsum_parts`` of every row are merged chunk by chunk
    (``_merged_parts``), so each integral is one ``math.fsum`` per row, the
    value ``integrate_values`` gives.  The rule nodes add the rows of the
    positivity margin and the constant one of the normalization.
    """
    probes = list(probes)
    shifts = list(shifts)
    if not probes:
        raise ValueError("at least one probe function is required")
    if not shifts:
        raise ValueError("at least one shift element is required")

    group = rule.group

    def integrals(move, base=False):
        parts = None
        for i in range(0, rule.node_count, linalg.EVAL_CHUNK):
            nodes = move(rule.nodes[i:i + linalg.EVAL_CHUNK])
            rows = [evaluate_probe(f, rule, nodes=nodes) for f in probes]
            if base:
                rows += [np.abs(v) ** 2 + 0j for v in rows] + [np.ones(len(nodes), dtype=complex)]
            chunk = _weighted_fsum_parts(rows, rule.weights[i:i + linalg.EVAL_CHUNK])
            parts = chunk if parts is None else _merged_parts(parts, chunk)
        return [complex(math.fsum(re), math.fsum(im)) for re, im in parts]

    p = len(probes)
    sums = integrals(lambda nodes: nodes, base=True)
    base_int, normalization = sums[:p], abs(sums[-1] - 1.0)
    margin = min(s.real for s in sums[p:-1])

    def moved(move):
        return max(abs(s - iv) for s, iv in zip(integrals(move), base_int))

    translation = max(moved(lambda nodes: group.shift_nodes(a, nodes, side))
                      for a in shifts for side in ("left", "right"))
    inversion = moved(group.invert_nodes)

    inventory = {
        "probe_count": len(probes),
        "probe_labels": [getattr(f, "label", f"probe{i}") for i, f in enumerate(probes)],
        "shift_count": len(shifts),
        "linearity": "exact by construction: the integral is a fixed weighted sum",
        "positivity_probes": "squared moduli of the probe family",
    }
    return AxiomAuditReport(positivity_margin=margin, normalization=normalization,
                            translation=translation, inversion=inversion, inventory=inventory)
