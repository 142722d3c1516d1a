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

``averaged_form``, ``invariant_form_space``, ``unitarize`` and
``specialness_report`` each evaluate their input once at the rule nodes
(``tabulate``) and hand that stack to their steps; ``unitarize`` reads its
form and its unitarity audit off it, and ``specialness_report`` reads its
invariant forms in the basis of that one unitarization, so it averages the
form once.  ``_unitary`` and ``unitarize`` read the definiteness and the
conditioning of their factor off the one eigenvalue computation of the
averaged form.  Both the averaged form (``invariant_gram``) and the
averaging map (``_averaging_map``) are one call of the averaging
contraction ``groups.integrate_product``, which holds the weights, the
weighted temporary of each node chunk and the refusal of a non-finite
average.

Each call holds one node stack, its evaluation, and a step writes over a
stack exactly when the array is writeable (``representations._node_stack``):
the unitary stack W is written over the evaluation once no later step
reads the input again, ``unitarize`` audits W one node chunk at a time and
never holds it, and every other temporary is the size of a chunk of
``linalg.NODE_CHUNK`` nodes.  A user-defined body's stack is a read-only
view, so such input costs a second stack for W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError, SingularMatrixError
from .groups import HaarRule, integrate_product
from .representations import (
    ConjugatedRepresentation,
    Representation,
    tabulate,
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
    than a numerical accident.
    """
    return _averaged_form(rule, tabulate(rep, rule))[0]


def _averaged_form(rule: HaarRule, mats: np.ndarray) -> tuple[HermitianForm, np.ndarray]:
    """``averaged_form`` of the stack of rho at the rule nodes, and the
    ascending eigenvalues of its Gram matrix (``invariant_gram``)."""
    H, w = invariant_gram(rule, mats)
    residual = linalg.max_abs_over_nodes(lambda m: m.conj().transpose(0, 2, 1) @ H[None] @ m - H[None],
                                         mats)
    return HermitianForm(gram=H, definiteness=float(w[0]), invariance_residual=residual), w


def invariant_gram(rule: HaarRule, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix of ``averaged_form`` and its ascending eigenvalues,
    from the stack of rho at the rule nodes, without the invariance
    residual: the averaging contraction of the stack with itself over
    (node, row) pairs, whose temporaries are the weighted conjugates of its
    node chunks."""
    H = integrate_product(rule, mats, mats)
    H = (H + H.conj().T) / 2.0
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


def _unitary(rule: HaarRule, mats: np.ndarray):
    """(W, A, A^-1): the unitary stack W = A rho A^-1 of ``mats``, the stack
    of rho at the rule nodes.  A is the identity, and W is ``mats`` itself,
    when the stack passes the unitarity audit; otherwise A is the Cholesky
    factor of its averaged form, and W is written over ``mats`` if writeable."""
    if unitarity_defect(mats) <= UNITARY_TOL:
        eye = np.eye(mats.shape[-1], dtype=complex)
        return mats, eye, eye
    A, A_inv = _cholesky_pair(*invariant_gram(rule, mats))
    return linalg.sandwich(A, mats, A_inv, out=mats if mats.flags.writeable else None), A, A_inv


def unitarize(rep: Representation, rule: HaarRule) -> UnitarizationResult:
    """Change basis by the Cholesky factor of the averaged form so the
    representation becomes unitary; the character is untouched.  The input
    is evaluated once: the averaged form and the unitarity audit of the new
    basis both read that stack."""
    return _unitarize(rep, rule, tabulate(rep, rule))


def _unitarize(rep: Representation, rule: HaarRule, mats: np.ndarray) -> UnitarizationResult:
    """``unitarize`` read off ``mats``, the stack of ``rep`` at the rule
    nodes, which it leaves as it is; the unitary rep is built on ``rep``
    and does not hold the stack.  The unitary stack W = A rho A^-1 is
    audited chunk by chunk and never held whole.  The averaged form is
    decomposed once: A and A^-1 come from the eigenvalues
    ``invariant_gram`` computed, and the Gram matrix is exactly Hermitian,
    so A is the factor ``linalg.cholesky_hermitian`` gives, to the byte."""
    form, w = _averaged_form(rule, mats)
    A, A_inv = _cholesky_pair(form.gram, w)
    audit = max(unitarity_defect(linalg.sandwich(A, mats[i:i + linalg.NODE_CHUNK], A_inv))
                for i in range(0, len(mats), linalg.NODE_CHUNK))
    return UnitarizationResult(
        basis_change=A,
        unitary_rep=ConjugatedRepresentation(rep, A, matrix_inv=A_inv),
        invariance_residual=form.invariance_residual,
        unitarity_residual=audit,
    )


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


def _averaging_map(rule: HaarRule, W: np.ndarray) -> np.ndarray:
    """The real (r^2, r^2) matrix L of B -> sum of w_n W_n* B W_n in
    ``hermitian_coords``, for a stack W (n, r, r).  Column (k, l) is the
    image of G_kl, w A + conj(w) A* with A = O[k, :, l, :] the average of
    W* E_kl W, where O[k, i, l, j] = sum of w_n conj(W_ki) W_lj is the
    averaged outer product of the flattened stack (``integrate_product``);
    as (A*)_ij = O[l, i, k, j], L[(i, j), (k, l)] = Re O[k, i, l, j] + Im O[l, i, k, j]."""
    n, r, _ = W.shape
    flat = W.reshape(n, 1, r * r)
    outer = integrate_product(rule, flat, flat).reshape(r, r, r, r)
    # built as L^T: both terms keep the last axis j, so their sum is
    # C-ordered and neither reshape nor transpose copies it
    return (outer.real.transpose(0, 2, 1, 3) + outer.imag.transpose(2, 0, 1, 3)).reshape(r * r, r * r).T


def fixed_hermitian(rule: HaarRule, W: np.ndarray) -> tuple[np.ndarray, float]:
    """(K, trace) for the averaging map L: B -> sum of w_n W_n* B W_n of a
    unitary stack W (n, r, r): K (m, r, r) is a Frobenius-orthonormal real
    basis of the Hermitian matrices it fixes, and trace, its trace, is the
    integral of |chi|^2.

    The fixed space is the eigenspace of S = (L + L^T)/2 for the
    eigenvalues theta with 1 - theta at most ``RANK_TOL``, read by a
    certified Rayleigh-Ritz step (``_top_eigenspace``) whose orthonormal
    columns are the ``hermitian_coords`` of K.  This is exact.
    Each node map is a Frobenius isometry whose transpose is the map of
    W_n^*, so S averages the node maps together with their inverses, and
    an average of isometries with positive weights fixes B only if every
    term does: S fixes exactly what L fixes, on any node set, and its
    spectral norm is at most 1, which is the scale of the cut.
    """
    r = W.shape[-1]
    L = _averaging_map(rule, W)
    trace = float(np.trace(L))
    return _hermitian_from_coords(_top_eigenspace((L + L.T) / 2.0, trace).T.reshape(-1, r, r)), trace


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
    commutant dimension by construction.
    """
    W, A, _ = _unitary(rule, tabulate(rep, rule))
    forms = _forms(rule, W, A)
    return forms, len(forms)


def _forms(rule: HaarRule, W: np.ndarray, A: np.ndarray) -> list[HermitianForm]:
    """The invariant forms A* K A over the fixed space K of the unitary
    stack W = A rho A^-1."""
    K, _ = fixed_hermitian(rule, W)
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
    """The invariant-form space and the unitarization, off one evaluation and
    one averaged form: on input that fails the unitarity audit, the forms
    are read in the unitarization's own basis, the one ``_unitary`` would
    build, written over the input's stack when it is writeable."""
    mats = tabulate(rep, rule)
    unitarization = _unitarize(rep, rule, mats)
    if unitarity_defect(mats) <= UNITARY_TOL:
        A = np.eye(rep.degree, dtype=complex)
    else:
        A = unitarization.basis_change
        mats = linalg.sandwich(A, mats, unitarization.unitary_rep.matrix_inv,
                               out=mats if mats.flags.writeable else None)
    forms = _forms(rule, mats, A)
    return SpecialnessReport(d=len(forms), special=(len(forms) == 1), unitarization=unitarization,
                             form_basis=forms)
