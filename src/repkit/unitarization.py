"""Group averaging: invariant Hermitian forms, unitarization and the one
fixed-space reader.

Averaging the standard inner product over the group produces a positive
definite Hermitian form H invariant under the representation; its Cholesky
factor A (H = A* A) makes W = A rho A^-1 unitary.  ``_unitary`` takes it
only when the input fails the unitarity audit.  Each node map
B -> W_n* B W_n is then unitary, so their average with the rule's positive
weights, B -> integral of W* B W, fixes exactly what every node fixes, the
commutant of W: ``fixed_hermitian`` reads that fixed space by a certified
Rayleigh-Ritz step on the symmetric part of that map, a block of about
the fixed dimension in place of the full r^2 x r^2 eigensolve, and every
Schur dimension in the library is read there.  The invariant Hermitian
forms of the input are A* K A over it, so their real dimension d, the
uniqueness certificate of ``specialness_report`` (d = 1: the invariant
form, hence the equivalent unitary representation, is unique up to
scale), is the commutant dimension by construction.

Compactness is what makes the averaging exist.  The classic counterexample
to keep in mind is the 2x2 representation A -> [[1, log|det A|], [0, 1]] of
the general linear group: reducible, yet no basis change makes it unitary or
splits the invariant line off, because a non-compact group admits no
normalized invariant integral to average with.  That is why only the compact
group kinds are supported here.

Every call reads its input in passes over the rule (``node_chunks``):
chunks of ``representations.EVAL_CHUNK`` nodes in one buffer each pass
reuses, handed out in sub-chunks of ``linalg.NODE_CHUNK`` nodes, so no
call holds the (N, r, r) node stack, and every step of a pass reads one
sub-chunk.  Every average a pass takes is a sum it adds each sub-chunk
to (``representations._average``), in the node order of one contraction
over the whole stack.  Most are one ``groups.ProductSum`` of a pair
(``representations._PairSum``): a pair function maps each sub-chunk to
two views (X, Y) of it, and the pass adds sum of w_n X_n^* Y_n, so a
pair that computes (the split seed's W X) holds a sub-chunk; the Gram
is the sub-chunk twice (``_gram``).  The averaging map is summed as the
real r^2 x r^2 map itself (``_AveragingMap``), block by block from the
averaged outer product of each sub-chunk, so no complex r^4 total is
formed.
``_unitary`` reads the unitary stack W in one pass on input that passes
the unitarity audit: that pass audits the input a sub-chunk at a time
and adds the input's own sub-chunks to its sum.  On other input it sums
the averaged Gram instead, and a second pass adds the sub-chunks of
A rho A^-1 to a new sum.  A step that needs a
whole average before it reads the nodes again takes one more pass:
``averaged_form`` and ``unitarize`` read the invariance defect
rho* H rho - H of the averaged form H there, a sub-chunk at a time, and
``unitarize`` reads the unitarity defect of W off the same sub-chunk of
defects, as W* W - I = A^-* (rho* H rho - H) A^-1, in place, before it
sandwiches that sub-chunk into W.  ``specialness_report`` takes those two
passes of ``unitarize`` (``_unitarize``) and, in the second, adds the
sub-chunks of W to its averaging map: it reads its invariant forms in the basis of
its one unitarization, on any input, so it audits nothing and averages
the form once.  ``_unitary`` and ``_unitarize`` read the definiteness and
the conditioning of their factor off the one eigenvalue computation of
the averaged form (``invariant_gram``).  Every call thus holds its one
evaluation chunk, and every other temporary is the size of a sub-chunk of
``linalg.NODE_CHUNK`` nodes, but for the one real r^4 averaging map,
which ``fixed_hermitian`` takes (``ProductSum.take``) and makes symmetric
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError, SingularMatrixError
from .groups import HaarRule, ProductSum
from .representations import (
    ConjugatedRepresentation,
    Representation,
    _average,
    _PairSum,
    node_chunks,
    unitarity_defect,
)

# the one cut-off for the fixed space of the averaged map: eigenvalues theta
# of its symmetric part, whose spectral norm is at most 1, with
# 1 - theta at most this count as fixed (``fixed_hermitian``)
RANK_TOL = 1e-7
# the unitarity audit above which ``_unitary`` conjugates its input
UNITARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """A Hermitian Gram matrix with its smallest eigenvalue; the averaged
    form additionally records its invariance defect over the rule nodes."""

    gram: np.ndarray
    definiteness: float
    invariance_residual: float | None = None


@dataclass(frozen=True, eq=False)
class UnitarizationResult:
    basis_change: np.ndarray
    unitary_rep: Representation
    invariance_residual: float
    unitarity_residual: float


def averaged_form(rep: Representation, rule: HaarRule) -> HermitianForm:
    """H = integral of rho(x)* rho(x): an invariant positive definite form.

    Raises NotPositiveDefiniteError if the average fails to be positive
    definite, which signals a broken input or an under-resolved rule rather
    than a numerical accident.  Two passes: the average, then its
    invariance defect at the nodes, a sub-chunk at a time.
    """
    H, w = invariant_gram(_average(rep, rule, _PairSum(rule, _gram)).take())
    residual = max(linalg.max_abs(m.conj().transpose(0, 2, 1) @ H[None] @ m - H[None])
                   for _, m in node_chunks(rep, rule))
    return HermitianForm(gram=H, definiteness=float(w[0]), invariance_residual=residual)


def _gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair of the averaged Gram, sum of w_n rho_n* rho_n."""
    return m, m


class _AveragingMap(ProductSum):
    """The averaging map L: B -> sum of w_n W_n* B W_n of a stack W in
    ``hermitian_coords``, summed over the sub-chunks a pass adds
    (``add(nodes, W)``) into one real (r, r, r, r) array T whose
    (r^2, r^2) matrix is L^T: T[k, l] holds the coordinates of the image of
    G_kl, so T[k, l, i, j] = L[(i, j), (k, l)].

    That image is w A + conj(w) A* with A = O[k, :, l, :] for the averaged
    outer product O[k, i, l, j] = sum of w_n conj(W_ki) W_lj, so
    T[k, l, i, j] = Re O[k, i, l, j] + Im O[l, i, k, j].  A sub-chunk of c
    nodes runs one GEMM per block of b = max(1, c // r) rows k of O, whose
    result holds at most max(c, r) r^2 entries, and adds its real part to
    T[k] and its imaginary part to T[:, k], both along the last axis j of
    O, so no complex r^4 total is formed.  ``take()`` refuses a non-finite
    map.
    """

    def add(self, nodes: slice, W: np.ndarray) -> None:
        c, r, _ = W.shape
        if self.sum is None:
            self.sum = np.zeros((r, r, r, r))
        b = max(1, c // r)
        with np.errstate(invalid="ignore", over="ignore"):
            t = np.conjugate(W, dtype=complex)
            t *= self.weights[nodes, None, None]
            for k in range(0, r, b):
                O = (t[:, k:k + b].reshape(c, -1).T @ W.reshape(c, -1)).reshape(-1, r, r, r)
                self.sum[k:k + b] += O.real.transpose(0, 2, 1, 3)
                self.sum[:, k:k + b] += O.imag.transpose(2, 0, 1, 3)


def invariant_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix of ``averaged_form`` and its ascending eigenvalues,
    from the averaged Gram sum of w_n rho_n* rho_n (``ProductSum`` of the
    stack with itself over (node, row) pairs), without the invariance
    residual: the sum made exactly Hermitian, refused unless definite."""
    H = (gram + gram.conj().T) / 2.0
    w = np.linalg.eigvalsh(H)
    if w[0] <= linalg.STRUCTURAL_TOL:
        raise NotPositiveDefiniteError(
            f"averaged form has smallest eigenvalue {w[0]:.3e}; "
            "the input is not a representation or the rule is under-resolved")
    return H, w


def _cholesky_pair(H: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upper-triangular Cholesky factor A of an averaged form H = A* A,
    and A^-1, given the ascending eigenvalues w of H (``invariant_gram``,
    which refuses an indefinite form).  The singular values of A are the
    square roots of w, so cond(A) = sqrt(cond(H)) and the singularity
    refusal of ``linalg.invert`` is read off w with no further
    decomposition; A^-1 is the inverse of the triangular factor."""
    if np.sqrt(w[0]) <= linalg.KERNEL_TOL * np.sqrt(w[-1]):
        raise SingularMatrixError(f"condition estimate {np.sqrt(w[-1] / w[0]):.3e} beyond threshold")
    A = np.linalg.cholesky(H).conj().T
    A_inv = np.linalg.inv(A)
    if not np.isfinite(A_inv).all():
        raise SingularMatrixError("inverse contains non-finite entries")
    return A, A_inv


def _unitary(rep: Representation, rule: HaarRule, terms, raw=None):
    """(total, basis): ``total`` the sum ``terms(basis)`` (a ``_PairSum`` or
    an ``_AveragingMap``) over the sub-chunks of the unitary stack
    W = A rho A^-1 of ``rep`` at the rule nodes, and ``basis`` = (A, A^-1),
    or None when W is the input's own stack.

    The first pass (``_audited``) hands each sub-chunk of the input to
    ``raw(nodes, sub)`` when given, and audits the input's unitarity
    sub-chunk by sub-chunk: while every sub-chunk so far passes, it adds
    the sub-chunk.  Input that passes the audit is its own W, so that pass
    serves.  Otherwise A is the Cholesky factor of the averaged form, and a
    second pass adds the sub-chunks of W to a new sum.  The first pass
    sums the averaged Gram from the first sub-chunk on when that sub-chunk
    fails the audit; input that fails it only on a later one (past its
    first ``linalg.NODE_CHUNK`` nodes) takes one more pass for the Gram.
    Each pass is a call of its own, so no pass holds the buffer of
    another.
    """
    total, gram = _audited(rep, rule, terms(None), raw)
    if total is not None:
        return total, None
    if gram is None:
        gram = _average(rep, rule, _PairSum(rule, _gram))
    basis = _cholesky_pair(*invariant_gram(gram.take()))
    return _average(rep, rule, terms(basis), basis), basis


def _audited(rep: Representation, rule: HaarRule, total, raw):
    """The first pass of ``_unitary``, adding to ``total``: (total, None) on
    input that passes the unitarity audit, else (None, gram), gram the
    averaged Gram's sum when the first sub-chunk failed and None when a
    later one did."""
    gram = None
    for nodes, W in node_chunks(rep, rule):
        if raw is not None:
            raw(nodes, W)
        if total is not None:
            if unitarity_defect(W) <= UNITARY_TOL:
                total.add(nodes, W)
            else:
                total, gram = None, ProductSum(rule) if nodes.start == 0 else None
        if gram is not None:
            gram.add(nodes, W, W)
    return total, gram


def _identity_or(basis, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, A^-1) of a ``_unitary`` basis, the identity for None."""
    if basis is None:
        eye = np.eye(r, dtype=complex)
        return eye, eye
    return basis


def unitarize(rep: Representation, rule: HaarRule) -> UnitarizationResult:
    """Change basis by the Cholesky factor of the averaged form so the
    representation becomes unitary; the character is untouched.

    Two passes: the averaged form, then its residuals (``_unitarize``).
    The averaged form is decomposed once: A and A^-1 come from the
    eigenvalues ``invariant_gram`` computed, and the Gram matrix is exactly
    Hermitian, so A is the factor ``linalg.cholesky_hermitian`` gives, to
    the byte.  The unitary rep is built on ``rep``.
    """
    return _unitarize(rep, rule)[0]


def _unitarize(rep: Representation, rule: HaarRule, total=None):
    """(result, total): the unitarization of ``unitarize``, and ``total``
    (an ``_AveragingMap``, or None) with the sub-chunks of the unitary
    stack W = A rho A^-1 added.  The first pass sums the averaged Gram; the
    second reads the residuals of each sub-chunk (``_residuals``) and then
    sandwiches it in place into W."""
    H, w = invariant_gram(_average(rep, rule, _PairSum(rule, _gram)).take())
    A, A_inv = _cholesky_pair(H, w)
    residuals = []
    for nodes, m in node_chunks(rep, rule):
        residuals.append(_residuals(m, H, A_inv))
        if total is not None:
            total.add(nodes, linalg.sandwich(A, m, A_inv, out=m))
    invariance, unitarity = map(max, zip(*residuals))
    return UnitarizationResult(basis_change=A, unitary_rep=ConjugatedRepresentation(rep, A, matrix_inv=A_inv),
                               invariance_residual=invariance, unitarity_residual=unitarity), total


def _residuals(m: np.ndarray, H: np.ndarray, A_inv: np.ndarray) -> tuple[float, float]:
    """The largest invariance defect D = rho* H rho - H of the averaged form
    H = A* A at the nodes of a sub-chunk m, and the largest unitarity defect
    of W = A rho A^-1 there, read off D as W* W - I = A^-* D A^-1 in D's
    own sub-chunk-sized array, so W is never formed."""
    D = m.conj().transpose(0, 2, 1) @ H[None] @ m - H[None]
    return linalg.max_abs(D), linalg.max_abs(linalg.sandwich(A_inv.conj().T, D, A_inv, out=D))


def hermitian_coords(H: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (..., r, r): Re H + Im H, row
    by row.  They are orthonormal: Re H is symmetric and Im H antisymmetric,
    so the two are Frobenius-orthogonal and |Re H + Im H| = |H|.  Entry
    (k, l) is tr(G_kl* H) for the basis G_kl = w E_kl + conj(w) E_lk,
    w = (1 + i)/2 (G_kk = E_kk); the inverse is ``_hermitian_from_coords``."""
    H = np.asarray(H)
    return (H.real + H.imag).reshape(*H.shape[:-2], -1)


def _hermitian_from_coords(R: np.ndarray) -> np.ndarray:
    """sym(R) + i skew(R), the sum of R_kl G_kl, for real R (..., r, r)."""
    return ((1 + 1j) * R + (1 - 1j) * np.swapaxes(R, -1, -2)) / 2.0


def fixed_hermitian(maps: _AveragingMap) -> tuple[np.ndarray, float]:
    """(K, trace) for the averaging map L: B -> sum of w_n W_n* B W_n of a
    unitary stack W (n, r, r) that ``maps`` summed: K (m, r, r) is a
    Frobenius-orthonormal real basis of the Hermitian matrices it fixes,
    and trace, its trace, is the integral of |chi|^2.

    The fixed space is the eigenspace of S = (L + L^T)/2 for the
    eigenvalues theta with 1 - theta at most ``RANK_TOL``, read by a
    certified Rayleigh-Ritz step (``_top_eigenspace``) whose orthonormal
    columns are the ``hermitian_coords`` of K.  S and the trace are those
    of the L^T that ``maps`` summed, taken from it and made symmetric in
    place, r rows and the r matching columns at a time, so the reading
    holds one real r^4 array.  This is exact.
    Each node map is a Frobenius isometry whose transpose is the map of
    W_n^*, so S averages the node maps together with their inverses, and
    an average of isometries with positive weights fixes B only if every
    term does: S fixes exactly what L fixes, on any node set, and its
    spectral norm is at most 1, which is the scale of the cut.
    """
    L = maps.take()
    r, S = len(L), L.reshape(len(L) ** 2, -1)
    trace = float(np.trace(S))
    for i in range(0, r * r, r):
        s = (S[i:i + r, i:] + S[i:, i:i + r].T) / 2.0
        S[i:i + r, i:], S[i:, i:i + r] = s, s.T
    return _hermitian_from_coords(_top_eigenspace(S, trace).T.reshape(-1, r, r)), trace


def _top_eigenspace(S: np.ndarray, trace: float) -> np.ndarray:
    """Orthonormal columns spanning the eigenvectors of the symmetric S,
    with spectral norm at most 1, whose eigenvalues theta have
    1 - theta <= ``RANK_TOL``; ``trace`` is tr S.

    Subspace iteration V <- orth(S V) on k = min(n, ceil(trace) + 8)
    columns from a fixed start, with a k x k Rayleigh-Ritz step each time,
    runs until the residual S U - U Theta of the kept Ritz pairs reaches
    roundoff or stops shrinking.  The m kept Ritz values are lower bounds
    of the m largest eigenvalues (Cauchy interlacing), so S has at least m
    eigenvalues in [1 - ``RANK_TOL``, 1].  It has no more when the
    certificate ||S||_F^2 - ||S U||_F^2 < (1 - ``RANK_TOL``)^2 holds: by
    Courant-Fischer (Ky Fan on S^2), ||S U||_F^2 is at most the sum of the
    m largest eigenvalues of S^2, so an (m+1)-th eigenvalue of modulus at
    least 1 - ``RANK_TOL`` would leave at least its square.  Otherwise k
    doubles.  At k = n the Rayleigh-Ritz step is the full eigensolve, so
    the reading always ends, with the answer the full eigensolve gives.
    """
    n = len(S)
    k = min(n, int(np.ceil(trace)) + 8)
    cut, eps = 1.0 - RANK_TOL, np.finfo(float).eps
    norm2 = np.vdot(S, S)
    while True:
        # a fixed start with no random generator: correctness rests on the
        # certificate, not on the start
        SV = S @ np.sin(np.arange(1.0, n * k + 1.0) ** 2).reshape(n, k)
        last = (-1, np.inf)
        while True:
            V = np.linalg.qr(SV)[0]
            SV = S @ V
            theta, Y = np.linalg.eigh(V.T @ SV)
            U, SV = V @ Y, SV @ Y
            # the kept pairs, or the top one while none is kept yet
            top = theta >= min(cut, theta[-1])
            R = SV[:, top] - U[:, top] * theta[top]
            residual = np.linalg.norm(R)
            # at roundoff once its root-mean-square entry is at most eps
            at_roundoff = residual <= eps * np.sqrt(R.size)
            if k == n or at_roundoff or (top.sum() == last[0] and residual >= last[1]):
                break
            last = (top.sum(), residual)
        keep = theta >= cut
        SU = SV[:, keep]
        if k == n or norm2 - np.vdot(SU, SU) < cut * cut:
            return U[:, keep]
        k = min(n, 2 * k)


def invariant_form_space(rep: Representation, rule: HaarRule) -> tuple[list[HermitianForm], int]:
    """Real basis of the Hermitian matrices H with rho(x)* H rho(x) = H.

    They are A* K A over the fixed space K of the averaging map of the
    unitary stack W = A rho A^-1 (``fixed_hermitian``), so d is the
    commutant dimension by construction.  One pass on input that passes
    the unitarity audit, two otherwise (``_unitary``).
    """
    maps, basis = _unitary(rep, rule, lambda _: _AveragingMap(rule))
    forms = _forms(maps, _identity_or(basis, rep.degree)[0])
    return forms, len(forms)


def _forms(maps: _AveragingMap, A: np.ndarray) -> list[HermitianForm]:
    """The invariant forms A* K A over the fixed space K of the unitary
    stack W = A rho A^-1 whose averaging map ``maps`` summed."""
    K, _ = fixed_hermitian(maps)
    grams = A.conj().T @ K @ A
    lowest = np.linalg.eigvalsh(grams)[:, 0]
    return [HermitianForm(gram=H, definiteness=float(w)) for H, w in zip(grams, lowest)]


@dataclass(frozen=True, eq=False)
class SpecialnessReport:
    """Uniqueness certificate for the invariant form: d is the real dimension
    of the invariant-form space and special means d == 1."""

    d: int
    special: bool
    unitarization: UnitarizationResult
    form_basis: list[HermitianForm]


def specialness_report(rep: Representation, rule: HaarRule) -> SpecialnessReport:
    """The invariant-form space and the unitarization, off one averaged
    form, in the two passes of ``unitarize``: the forms are read in the
    basis of that unitarization, whatever the input, so nothing is
    audited."""
    unitarization, maps = _unitarize(rep, rule, _AveragingMap(rule))
    forms = _forms(maps, unitarization.basis_change)
    return SpecialnessReport(d=len(forms), special=(len(forms) == 1), unitarization=unitarization,
                             form_basis=forms)
