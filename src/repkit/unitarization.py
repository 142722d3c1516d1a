"""Group averaging: invariant Hermitian forms and unitarization.

Averaging the standard inner product over the group produces a positive
definite Hermitian form H invariant under the representation; the Cholesky
factor A of H (H = A* A) is a change of basis after which the representation
is unitary.  The averaging map B -> integral of rho* B rho itself comes from
one averaging contraction of conj(rho) against rho; written in real
Hermitian coordinates, its fixed space is the space of *all* invariant
Hermitian forms.  That space's real dimension d is the uniqueness
certificate reported by ``specialness_report`` (d = 1 means the invariant
form, hence the equivalent unitary representation, is unique up to scale).

Compactness is what makes the averaging exist.  The classic counterexample
to keep in mind is the 2x2 representation A -> [[1, log|det A|], [0, 1]] of
the general linear group: reducible, yet no basis change makes it unitary or
splits the invariant line off, because a non-compact group admits no
normalized invariant integral to average with.  That is why only the compact
group kinds are supported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import GroupMismatchError, NotPositiveDefiniteError
from .groups import HaarRule, integrate_product
from .representations import Representation, conjugate, unitarity_audit

RANK_TOL = 1e-7


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


def _check_rule(rep: Representation, rule: HaarRule) -> None:
    if rep.group != rule.group:
        raise GroupMismatchError("representation and rule are defined over different groups")


def averaged_form(rep: Representation, rule: HaarRule, *,
                  definiteness_tol: float = linalg.STRUCTURAL_TOL) -> HermitianForm:
    """H = integral of rho(x)* rho(x): an invariant positive definite form.

    Raises NotPositiveDefiniteError if the average fails to be positive
    definite, which signals a broken input or an under-resolved rule rather
    than a numerical accident.
    """
    _check_rule(rep, rule)
    mats = rep.evaluate_batch(rule.nodes)
    H = integrate_product(rule, mats.conj(), mats)
    H = (H + H.conj().T) / 2.0
    w = np.linalg.eigvalsh(H)
    if w[0] <= definiteness_tol:
        raise NotPositiveDefiniteError(
            f"averaged form has smallest eigenvalue {w[0]:.3e}; "
            "the input is not a representation or the rule is under-resolved")
    residual = linalg.max_abs(mats.conj().transpose(0, 2, 1) @ H[None] @ mats - H[None])
    return HermitianForm(gram=H, definiteness=float(w[0]), invariance_residual=residual)


def unitarize(rep: Representation, rule: HaarRule) -> UnitarizationResult:
    """Change basis by the Cholesky factor of the averaged form so the
    representation becomes unitary; the character is untouched."""
    form = averaged_form(rep, rule)
    A = linalg.cholesky_hermitian(form.gram)
    unitary_rep = conjugate(rep, A)
    return UnitarizationResult(
        basis_change=A,
        unitary_rep=unitary_rep,
        invariance_residual=form.invariance_residual,
        unitarity_residual=unitarity_audit(unitary_rep, rule),
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


def invariant_form_space(rep: Representation, rule: HaarRule, *,
                         rank_tol: float = RANK_TOL) -> tuple[list[HermitianForm], int]:
    """Real basis of the Hermitian matrices H with rho(x)* H rho(x) = H.

    The averaging map B -> integral of rho* B rho comes from one averaging
    contraction of conj(rho) against rho over the rule nodes.  It is written
    in ``hermitian_coords`` by index arithmetic, and the invariant forms are
    the nullspace of (averaging - identity), with singular values below
    ``rank_tol`` times the largest treated as zero.
    """
    _check_rule(rep, rule)
    r = rep.degree
    n = rule.node_count
    mats = rep.evaluate_batch(rule.nodes).reshape(n, 1, r * r)
    # outer[k, i, l, j] = integral of conj(rho_ki) rho_lj, the (i, j) entry
    # of the average of rho* E_kl rho
    outer = integrate_product(rule, mats.conj(), mats).reshape(r, r, r, r)
    images = _on_hermitian_basis(outer.transpose(0, 2, 1, 3))
    L = hermitian_coords(images).T
    defect = L - np.eye(r * r)
    # the averaging map has unit scale, so rank decisions are cut off at
    # rank_tol * max(1, |defect|); a pure-noise defect means every form is fixed
    smax = float(np.linalg.svd(defect, compute_uv=False)[0])
    if smax <= rank_tol:
        null_vecs = np.eye(r * r)
    else:
        null_vecs = np.reshape(linalg.solve_nullspace(defect, rank_tol * max(1.0, smax) / smax),
                               (-1, r * r))
    grams = _hermitian_from_coords(np.real(null_vecs), r)
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
    forms, d = invariant_form_space(rep, rule)
    return SpecialnessReport(d=d, special=(d == 1), unitarization=unitarize(rep, rule),
                             form_basis=forms)
