"""Real Lie algebras given by structure constants.

An algebra is a rank-3 array c with [e_a, e_b] = sum_k c[a,b,k] e_k.  The
module computes the trace scalar product <u,v> = -tr(ad_u ad_v), audits its
adjoint invariance, classifies compactness from the sign pattern of the Gram
spectrum, and extracts the center.  It also ships the standard anti-Hermitian
basis of the 2x2 special-unitary algebra together with the isometry from
Euclidean 3-space that it induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError

CENTER_COMMUTATION_TOL = 1e-9

COMPACT_SEMISIMPLE = "compact_semisimple"
COMPACT_WITH_CENTER = "compact_with_center"
NOT_COMPACT_TYPE = "not_compact_type"


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants of a finite-dimensional real Lie algebra.

    Input is validated, never repaired: antisymmetry must hold exactly and
    the Jacobi identity up to ``linalg.STRUCTURAL_TOL``, otherwise
    construction fails.
    """

    structure_constants: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be n x n x n, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("structure constants contain NaN or Inf")
        object.__setattr__(self, "structure_constants", c)
        if not np.array_equal(c, -c.transpose(1, 0, 2)):
            raise ValueError("structure constants are not antisymmetric in the first two indices")
        jac = jacobi_residual(c)
        if jac > linalg.STRUCTURAL_TOL:
            raise ValueError(f"Jacobi identity residual {jac:.3e} exceeds {linalg.STRUCTURAL_TOL:.1e}")
        if self.labels is not None and len(self.labels) != c.shape[0]:
            raise ValueError("label count does not match dimension")

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]


def jacobi_residual(c: np.ndarray) -> float:
    """Max-norm of [[a,b],c] + [[b,c],a] + [[c,a],b] over all basis triples."""
    term = np.einsum("abm,mck->abck", c, c)
    cyc = term + term.transpose(1, 2, 0, 3) + term.transpose(2, 0, 1, 3)
    return linalg.max_abs(cyc)


def _check_vector(alg: LieAlgebraSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (alg.dim,):
        raise DimensionMismatchError(f"expected a length-{alg.dim} coefficient vector, got shape {u.shape}")
    return u


def bracket(alg: LieAlgebraSpec, u, v) -> np.ndarray:
    """[u, v] in basis coefficients."""
    u = _check_vector(alg, u)
    v = _check_vector(alg, v)
    return np.einsum("abk,a,b->k", alg.structure_constants, u, v)


def adjoint_matrix(alg: LieAlgebraSpec, u) -> np.ndarray:
    """Matrix of the inner derivation x -> [u, x]; column k is bracket(u, e_k)."""
    u = _check_vector(alg, u)
    return np.einsum("abk,a->kb", alg.structure_constants, u)


@dataclass(frozen=True)
class TraceFormReport:
    """Gram matrix of the trace scalar product with its spectrum, compactness
    classification, center basis and adjoint-invariance residual."""

    gram: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    center_basis: list[np.ndarray]
    invariance_residual: float


def trace_form(alg: LieAlgebraSpec) -> TraceFormReport:
    """Compute <e_a, e_b> = -tr(ad_a ad_b) and classify the algebra.

    Classification: all eigenvalues above the tolerance band means compact
    semisimple; a mix of zero-band and positive eigenvalues means compact
    with center, provided every zero-band eigenvector actually commutes with
    the whole algebra (checked directly, so a degenerate Gram coming from a
    non-compact algebra is not mistaken for a center); any negative
    eigenvalue, or a failed commutation check, means not of compact type.
    """
    c = alg.structure_constants
    n = alg.dim
    ads = c.transpose(0, 2, 1)     # ads[a] = adjoint_matrix(alg, e_a)
    gram = -np.einsum("aij,bji->ab", ads, ads)
    gram = (gram + gram.T) / 2.0

    # invariance: <[x,u],v> + <u,[x,v]> over basis triples
    inv = np.einsum("xuk,kv->xuv", c, gram) + np.einsum("xvk,uk->xuv", c, gram)
    invariance_residual = linalg.max_abs(inv)

    w, V = np.linalg.eigh(gram)
    band = linalg.STRUCTURAL_TOL * max(1.0, linalg.max_abs(gram))
    if w[0] < -band:
        classification = NOT_COMPACT_TYPE
        center: list[np.ndarray] = []
    elif w[0] > band:
        classification = COMPACT_SEMISIMPLE
        center = []
    else:
        candidates = [V[:, i] for i in range(n) if abs(w[i]) <= band]
        # row b of the einsum is [v, e_b]
        commuting = all(linalg.max_abs(np.einsum("abk,a->bk", c, v)) <= CENTER_COMMUTATION_TOL
                        for v in candidates)
        if commuting:
            classification = COMPACT_WITH_CENTER
            center = candidates
        else:
            classification = NOT_COMPACT_TYPE
            center = []
    return TraceFormReport(gram=gram, eigenvalues=w, classification=classification,
                           center_basis=center, invariance_residual=invariance_residual)


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """A Lie algebra realized by concrete matrices, with the Gram matrix of
    the defining scalar product -tr(XY) on the chosen basis."""

    basis: list[np.ndarray]
    labels: list[str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "basis", [linalg.as_matrix(X) for X in self.basis])
        self.structure_constants()  # bracket closure is a construction invariant

    @property
    def gram_defining(self) -> np.ndarray:
        """The Gram matrix -tr(X_i X_j) of the basis, read-only."""
        return -np.einsum("iab,jba->ij", self.basis, self.basis).real

    @property
    def dim(self) -> int:
        return len(self.basis)

    def structure_constants(self) -> np.ndarray:
        """Expand all pairwise matrix brackets in the basis.

        Raises ValueError if some bracket leaves the basis span by more than
        ``linalg.STRUCTURAL_TOL`` (the basis does not define a Lie algebra).
        """
        n = self.dim
        basis = np.array(self.basis)
        flat = basis.reshape(n, -1).T
        a, b = np.triu_indices(n, 1)
        # one column per bracket [e_a, e_b], a < b, in row-major pair order
        rhs = (basis[a] @ basis[b] - basis[b] @ basis[a]).reshape(-1, len(flat)).T
        coeff = np.linalg.lstsq(flat, rhs, rcond=None)[0]
        defect = np.abs(flat @ coeff - rhs).max(axis=0, initial=0.0)
        if (defect > linalg.STRUCTURAL_TOL).any():
            q = np.argmax(defect > linalg.STRUCTURAL_TOL)
            raise ValueError(f"bracket of basis elements {a[q]},{b[q]} leaves the span "
                             f"(defect {defect[q]:.3e})")
        if linalg.max_abs(coeff.imag) > linalg.STRUCTURAL_TOL:
            raise ValueError("structure constants are not real")
        c = np.zeros((n, n, n))
        c[a, b] = coeff.real.T
        c[b, a] = -coeff.real.T
        return c

    def to_spec(self) -> LieAlgebraSpec:
        return LieAlgebraSpec(self.structure_constants(), labels=self.labels)


def su2_standard() -> MatrixLieAlgebra:
    """Anti-Hermitian traceless 2x2 basis, orthonormal for -tr(XY).

    Basis order (H, E, F) with H = diag(i,-i)/sqrt(2), E = [[0,1],[-1,0]]/sqrt(2),
    F = [[0,i],[i,0]]/sqrt(2); brackets are [H,E] = sqrt(2) F, [H,F] = -sqrt(2) E,
    [E,F] = sqrt(2) H.
    """
    s = 1.0 / np.sqrt(2.0)
    H = np.array([[1j, 0], [0, -1j]]) * s
    E = np.array([[0, 1], [-1, 0]], dtype=complex) * s
    F = np.array([[0, 1j], [1j, 0]]) * s
    return MatrixLieAlgebra(basis=[H, E, F], labels=["H", "E", "F"])


def theta_isometry(xyz) -> np.ndarray:
    """Linear map sending (x, y, z) to x E + y H + z F.

    An isometry between Euclidean 3-space and the span of the standard basis
    under the -tr(XY) scalar product.
    """
    xyz = np.asarray(xyz, dtype=float)
    if xyz.shape != (3,):
        raise DimensionMismatchError(f"expected a 3-vector, got shape {xyz.shape}")
    H, E, F = su2_standard().basis
    return xyz[0] * E + xyz[1] * H + xyz[2] * F
