"""Group averaging: invariant Hermitian forms, unitarization and the one
fixed-space reader.

Averaging the standard inner product over the group produces a positive
definite Hermitian form H invariant under the representation; its Cholesky
factor A (H = A* A) makes W = A rho A^-1 unitary.  ``_ensure_unitary`` takes
it only when the input fails the unitarity audit.  Each node map
B -> W_n* B W_n is then unitary, so their average with the rule's positive
weights, B -> integral of W* B W, fixes exactly what every node fixes, the
commutant of W: ``fixed_hermitian`` reads that fixed space off one SVD, and
every Schur dimension in the library is read there.  The invariant Hermitian forms of
the input are A* K A over it, so their real dimension d, the uniqueness
certificate of ``specialness_report`` (d = 1: the invariant form, hence the
equivalent unitary representation, is unique up to scale), is the commutant
dimension by construction.

Compactness is what makes the averaging exist.  The classic counterexample
to keep in mind is the 2x2 representation A -> [[1, log|det A|], [0, 1]] of
the general linear group: reducible, yet no basis change makes it unitary or
splits the invariant line off, because a non-compact group admits no
normalized invariant integral to average with.  That is why only the compact
group kinds are supported here.

``averaged_form``, ``invariant_form_space``, ``unitarize`` and
``specialness_report`` each evaluate their input once at the rule nodes;
``unitarize`` reads its form and its unitarity audit off that one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EvaluationFailureError, NotPositiveDefiniteError
from .groups import HaarRule
from .representations import Representation, check_rule_group, conjugate, tabulate, unitarity_defect

# the one cut-off for the fixed space of the averaged map (``fixed_hermitian``)
RANK_TOL = 1e-7
# the unitarity audit above which ``_ensure_unitary`` conjugates its input
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
    check_rule_group(rule, rep)
    mats = rep.evaluate_batch(rule.nodes)
    H, lowest = invariant_gram(rule, mats)
    residual = linalg.max_abs_over_nodes(lambda m: m.conj().transpose(0, 2, 1) @ H[None] @ m - H[None],
                                         mats)
    return HermitianForm(gram=H, definiteness=lowest, invariance_residual=residual)


def invariant_gram(rule: HaarRule, mats: np.ndarray) -> tuple[np.ndarray, float]:
    """The Gram matrix of ``averaged_form`` and its smallest eigenvalue, from
    the stack of rho at the rule nodes, without the invariance residual: one
    GEMM over (node, row) pairs against a weighted conjugate of the stack,
    built in place as the one stack-sized temporary."""
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
    return H, float(w[0])


def _ensure_unitary(rep: Representation, rule: HaarRule):
    """(stack, W, A, A^-1): the input evaluated once at the rule nodes and
    the unitary stack W = A rho A^-1.  A is the identity, and W the stack
    itself, when the input passes the unitarity audit; otherwise A is the
    Cholesky factor of its averaged form.  Callers that do not need the
    input's own stack drop it, so that W alone stays alive."""
    check_rule_group(rule, rep)
    mats = rep.evaluate_batch(rule.nodes)
    if unitarity_defect(mats) <= UNITARY_TOL:
        eye = np.eye(rep.degree, dtype=complex)
        return mats, mats, eye, eye
    A = linalg.cholesky_hermitian(invariant_gram(rule, mats)[0])
    A_inv = linalg.invert(A)
    return mats, linalg.sandwich(A, mats, A_inv), A, A_inv


def unitarize(rep: Representation, rule: HaarRule) -> UnitarizationResult:
    """Change basis by the Cholesky factor of the averaged form so the
    representation becomes unitary; the character is untouched.  The input
    is evaluated once: the averaged form and the unitarity audit of the new
    basis both read that stack."""
    return _unitarize(rep, tabulate(rep, rule), rule)


def _unitarize(rep: Representation, seen: Representation, rule: HaarRule) -> UnitarizationResult:
    """``unitarize`` read off ``seen``, the input tabulated at the rule nodes;
    the unitary rep is built on ``rep`` and does not hold the stack."""
    form = averaged_form(seen, rule)
    A = linalg.cholesky_hermitian(form.gram)
    unitary_rep = conjugate(rep, A)
    mats = linalg.sandwich(A, seen.evaluate_batch(rule.nodes), unitary_rep.matrix_inv)
    return UnitarizationResult(
        basis_change=A,
        unitary_rep=unitary_rep,
        invariance_residual=form.invariance_residual,
        unitarity_residual=unitarity_defect(mats),
    )


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


def fixed_hermitian(rule: HaarRule, W: np.ndarray) -> tuple[np.ndarray, float]:
    """(K, trace) for the averaging map B -> sum of w_n W_n* B W_n of a
    unitary stack W (n, r, r): K (m, r, r) is a Frobenius-orthonormal real
    basis of the Hermitian matrices it fixes, and trace, its trace, is the
    integral of |chi|^2.

    The map is one GEMM of a weighted conjugate of W, built in place as the
    one stack-sized temporary, against W, written in ``hermitian_coords``.
    Its fixed space is read off one SVD of (map - identity): singular values
    at most ``RANK_TOL * max(1, largest)`` count as zero.
    """
    n, r, _ = W.shape
    weighted = W.conj()
    weighted *= rule.weights[:, None, None]
    # outer[k, i, l, j] = sum of w_n conj(W_ki) W_lj, the (i, j) entry of
    # the average of W* E_kl W
    outer = weighted.reshape(n, r * r).T @ W.reshape(n, r * r)
    if not np.isfinite(outer).all():
        raise EvaluationFailureError("the averaged map has a non-finite entry")
    L = hermitian_coords(_on_hermitian_basis(outer.reshape(r, r, r, r).transpose(0, 2, 1, 3))).T
    _, s, Vh = np.linalg.svd(L - np.eye(r * r))
    return _hermitian_from_coords(Vh[s <= RANK_TOL * max(1.0, s[0])], r), float(np.trace(L))


def invariant_form_space(rep: Representation, rule: HaarRule) -> tuple[list[HermitianForm], int]:
    """Real basis of the Hermitian matrices H with rho(x)* H rho(x) = H.

    They are A* K A over the fixed space K of the averaging map of the
    unitary stack W = A rho A^-1 (``fixed_hermitian``), so d is the
    commutant dimension by construction.
    """
    W, A, _ = _ensure_unitary(rep, rule)[1:]
    K, _ = fixed_hermitian(rule, W)
    grams = A.conj().T @ K @ A
    lowest = np.linalg.eigvalsh(grams)[:, 0]
    forms = [HermitianForm(gram=H, definiteness=float(w)) for H, w in zip(grams, lowest)]
    return forms, len(forms)


@dataclass(frozen=True, eq=False)
class SpecialnessReport:
    """Uniqueness certificate for the invariant form: d is the real dimension
    of the invariant-form space and special means d == 1."""

    d: int
    special: bool
    unitarization: UnitarizationResult
    form_basis: list[HermitianForm]


def specialness_report(rep: Representation, rule: HaarRule) -> SpecialnessReport:
    seen = tabulate(rep, rule)
    forms, d = invariant_form_space(seen, rule)
    return SpecialnessReport(d=d, special=(d == 1), unitarization=_unitarize(rep, seen, rule),
                             form_basis=forms)
