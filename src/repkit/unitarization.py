"""Group averaging: invariant Hermitian forms, unitarization and the one
fixed-space reader.

Averaging the standard inner product over the group produces a positive
definite Hermitian form H invariant under the representation; its Cholesky
factor A (H = A* A) makes W = A rho A^-1 unitary.  ``_unitary`` takes it
only when the input fails the unitarity audit.  Each node map
B -> W_n* B W_n is then unitary, so their average with the rule's positive
weights, B -> integral of W* B W, fixes exactly what every node fixes, the
commutant of W: ``fixed_hermitian`` reads that fixed space off one
symmetric eigensolve, and every Schur dimension in the library is read
there.  The invariant Hermitian forms of the input are A* K A over it, so
their real dimension d, the uniqueness certificate of ``specialness_report``
(d = 1: the invariant form, hence the equivalent unitary representation, is
unique up to scale), is the commutant dimension by construction.

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
averaged form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EvaluationFailureError, NotPositiveDefiniteError, SingularMatrixError
from .groups import HaarRule
from .representations import (
    ConjugatedRepresentation,
    Representation,
    tabulate,
    unitarity_defect,
)

# the one cut-off for the fixed space of the averaged map: eigenvalues of its
# symmetric part minus the identity at most this, relative to the largest
# (and to 1), count as zero (``fixed_hermitian``)
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
    residual: one GEMM over (node, row) pairs against a weighted conjugate
    of the stack, built in place as the one stack-sized temporary."""
    n, r, _ = mats.shape
    weighted = mats.conj()
    weighted *= rule.weights[:, None, None]
    H = weighted.reshape(n * r, r).T @ mats.reshape(n * r, r)
    if not np.isfinite(H).all():
        raise EvaluationFailureError("the averaged form has a non-finite entry")
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
    factor of its averaged form."""
    if unitarity_defect(mats) <= UNITARY_TOL:
        eye = np.eye(mats.shape[-1], dtype=complex)
        return mats, eye, eye
    A, A_inv = _cholesky_pair(*invariant_gram(rule, mats))
    return linalg.sandwich(A, mats, A_inv), A, A_inv


def unitarize(rep: Representation, rule: HaarRule) -> UnitarizationResult:
    """Change basis by the Cholesky factor of the averaged form so the
    representation becomes unitary; the character is untouched.  The input
    is evaluated once: the averaged form and the unitarity audit of the new
    basis both read that stack."""
    return _unitarize(rep, rule, tabulate(rep, rule))[0]


def _unitarize(rep: Representation, rule: HaarRule, mats: np.ndarray):
    """``unitarize`` read off ``mats``, the stack of ``rep`` at the rule
    nodes, and the unitary stack it audits; the unitary rep is built on
    ``rep`` and does not hold the stack.  The averaged form is decomposed
    once: A and A^-1 come from the eigenvalues ``invariant_gram`` computed,
    and the Gram matrix is exactly Hermitian, so A is the factor
    ``linalg.cholesky_hermitian`` gives, to the byte."""
    form, w = _averaged_form(rule, mats)
    A, A_inv = _cholesky_pair(form.gram, w)
    unitary_rep = ConjugatedRepresentation(rep, A, matrix_inv=A_inv)
    W = linalg.sandwich(A, mats, A_inv)
    return UnitarizationResult(
        basis_change=A,
        unitary_rep=unitary_rep,
        invariance_residual=form.invariance_residual,
        unitarity_residual=unitarity_defect(W),
    ), W


def hermitian_coords(H: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (..., r, r) in the orthonormal
    (Frobenius) basis of the Hermitian matrices, ordered as: the r diagonal
    entries, then sqrt(2) Re and sqrt(2) Im of each upper-triangle entry
    (row by row)."""
    H = np.asarray(H)
    r = H.shape[-1]
    iu, ju = np.triu_indices(r, 1)
    upper = np.sqrt(2.0) * H[..., iu, ju]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(*H.shape[:-2], -1)
    return np.concatenate([np.diagonal(H, axis1=-2, axis2=-1).real, pairs], axis=-1)


def _hermitian_from_coords(v: np.ndarray, r: int) -> np.ndarray:
    """Inverse of ``hermitian_coords`` on the last axis of ``v``."""
    v = np.asarray(v)
    iu, ju = np.triu_indices(r, 1)
    upper = (v[..., r::2] + 1j * v[..., r + 1::2]) / np.sqrt(2.0)
    H = np.zeros(v.shape[:-1] + (r, r), dtype=complex)
    H[..., np.arange(r), np.arange(r)] = v[..., :r]
    H[..., iu, ju] = upper
    H[..., ju, iu] = upper.conj()
    return H


def _on_hermitian_basis(images: np.ndarray) -> np.ndarray:
    """Values of a linear map at the Hermitian basis elements, in the
    ``hermitian_coords`` order, from its values images[k, l] at the
    elementary matrices E_kl."""
    r = images.shape[0]
    iu, ju = np.triu_indices(r, 1)
    a, b = images[iu, ju], images[ju, iu]
    s = np.sqrt(0.5)
    pairs = np.stack([s * (a + b), 1j * s * (a - b)], axis=1).reshape(-1, *images.shape[2:])
    return np.concatenate([images[np.arange(r), np.arange(r)], pairs])


def _averaging_map(rule: HaarRule, W: np.ndarray) -> np.ndarray:
    """The real (r^2, r^2) matrix L of B -> sum of w_n W_n* B W_n in
    ``hermitian_coords``, for a stack W (n, r, r): one GEMM of a weighted
    conjugate of W, built in place as the one stack-sized temporary,
    against W."""
    n, r, _ = W.shape
    weighted = W.conj()
    weighted *= rule.weights[:, None, None]
    # outer[k, i, l, j] = sum of w_n conj(W_ki) W_lj, the (i, j) entry of
    # the average of W* E_kl W
    outer = weighted.reshape(n, r * r).T @ W.reshape(n, r * r)
    if not np.isfinite(outer).all():
        raise EvaluationFailureError("the averaged map has a non-finite entry")
    return hermitian_coords(_on_hermitian_basis(outer.reshape(r, r, r, r).transpose(0, 2, 1, 3))).T


def fixed_hermitian(rule: HaarRule, W: np.ndarray) -> tuple[np.ndarray, float]:
    """(K, trace) for the averaging map L: B -> sum of w_n W_n* B W_n of a
    unitary stack W (n, r, r): K (m, r, r) is a Frobenius-orthonormal real
    basis of the Hermitian matrices it fixes, and trace, its trace, is the
    integral of |chi|^2.

    The fixed space is read off one symmetric eigensolve of
    (L + L^T)/2 - I: eigenvalues mu with |mu| at most
    ``RANK_TOL * max(1, max |mu|)`` count as zero.  This is exact.  Each
    node map is a Frobenius isometry whose transpose is the map of W_n^*,
    so (L + L^T)/2 averages the node maps together with their inverses,
    and an average of isometries with positive weights fixes B only if
    every term does: the symmetric part fixes exactly what L fixes, on any
    node set.  On a rule closed under inversion L is symmetric, and the
    |mu| are the singular values of L - I.
    """
    r = W.shape[-1]
    L = _averaging_map(rule, W)
    mu, V = np.linalg.eigh((L + L.T) / 2.0 - np.eye(r * r))
    size = np.abs(mu)
    return _hermitian_from_coords(V[:, size <= RANK_TOL * max(1.0, size.max())].T, r), float(np.trace(L))


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
    build again."""
    mats = tabulate(rep, rule)
    unitarization, W = _unitarize(rep, rule, mats)
    if unitarity_defect(mats) <= UNITARY_TOL:
        W, A = mats, np.eye(rep.degree, dtype=complex)
    else:
        A = unitarization.basis_change
    forms = _forms(rule, W, A)
    return SpecialnessReport(d=len(forms), special=(len(forms) == 1), unitarization=unitarization,
                             form_basis=forms)
