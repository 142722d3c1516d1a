"""Dense complex matrix kernel used by every other module.

Thin, contract-enforcing wrappers around numpy's LAPACK bindings.  All
tolerances are explicit parameters: ``KERNEL_TOL`` bounds pure floating-point
defects (reconstruction, inversion residuals) and ``STRUCTURAL_TOL`` bounds
defects that signal a wrong *input* (hermiticity, bracket closure).  Values
are plain ``numpy.ndarray``s and are never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSquareError,
    SingularMatrixError,
)

KERNEL_TOL = 1e-12
STRUCTURAL_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array (copying only if needed)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return out


# Alias kept local so as_matrix reads naturally; shape problems at this level
# are programming errors, not domain errors.
ShapeError = ValueError


def max_abs(m) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def sandwich(A, stack, B) -> np.ndarray:
    """A M_n B for every matrix M_n of a stack (n, r, s).

    The right factor is one reshaped GEMM over all nodes; the left factor is
    a single broadcast product, which measured faster than a second GEMM
    because that needs a transposed copy of the whole stack.
    """
    n, r, s = stack.shape
    return np.matmul(A, (stack.reshape(n * r, s) @ B).reshape(n, r, B.shape[1]))


def _require_square(H: np.ndarray) -> None:
    if H.shape[0] != H.shape[1]:
        raise NotSquareError(f"matrix is {H.shape[0]}x{H.shape[1]}")


def _require_hermitian(H: np.ndarray, tol: float) -> float:
    defect = max_abs(H - H.conj().T)
    if defect > tol * max(1.0, max_abs(H)):
        raise NotHermitianError(f"hermiticity defect {defect:.3e} above tolerance")
    return defect


@dataclass(frozen=True)
class HermitianSpectrum:
    """Ascending eigenvalues of a Hermitian matrix plus the max-norm defect of
    reconstructing the input from its eigendecomposition."""

    eigenvalues: np.ndarray
    residual: float


def hermitian_eigenvalues(H, *, hermiticity_tol: float = STRUCTURAL_TOL) -> HermitianSpectrum:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    Raises NotSquareError / NotHermitianError if the input fails its
    preconditions.  The reported residual is max |V diag(w) V* - H|, which
    stays below KERNEL_TOL * max|H| for any input that passes them.
    """
    H = as_matrix(H)
    _require_square(H)
    _require_hermitian(H, hermiticity_tol)
    w, V = np.linalg.eigh((H + H.conj().T) / 2.0)
    residual = max_abs((V * w) @ V.conj().T - H)
    return HermitianSpectrum(eigenvalues=w, residual=residual)


def hermitian_eigensystem(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of the
    Hermitian part of H.  Internal helper: no precondition checks."""
    H = as_matrix(H)
    return np.linalg.eigh((H + H.conj().T) / 2.0)


def cholesky_hermitian(H, *, definiteness_tol: float = STRUCTURAL_TOL,
                       hermiticity_tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Upper-triangular A with positive real diagonal and H = A* A.

    Raises NotPositiveDefiniteError when the smallest eigenvalue does not
    clear ``definiteness_tol`` -- for averaged forms this signals a broken
    quadrature rule or a non-representation input, not a kernel failure.
    """
    H = as_matrix(H)
    _require_square(H)
    _require_hermitian(H, hermiticity_tol)
    Hs = (H + H.conj().T) / 2.0
    w = np.linalg.eigvalsh(Hs)
    if w[0] <= definiteness_tol:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.3e} <= definiteness tolerance {definiteness_tol:.1e}")
    L = np.linalg.cholesky(Hs)  # lower, positive real diagonal
    return L.conj().T


def solve_nullspace(M, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the numerical nullspace {v : |Mv| <= tol |M| |v|}.

    Works on real or complex rectangular input; singular directions are kept
    when their singular value is at most ``tol`` times the largest one.  The
    empty list is the answer for injective maps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = np.asarray(M)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or Inf entries")
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    cutoff = tol * (s[0] if s.size else 0.0)
    basis = []
    for i in range(Vh.shape[0]):
        sigma = s[i] if i < s.size else 0.0
        if sigma <= cutoff:
            basis.append(Vh[i].conj())
    return basis


def invert(M, *, rcond: float = 1e-12) -> np.ndarray:
    """Inverse of a square matrix, refusing near-singular input.

    The singularity threshold is relative: smallest singular value at most
    ``rcond`` times the largest raises SingularMatrixError.
    """
    M = as_matrix(M)
    _require_square(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[-1] <= rcond * s[0]:
        raise SingularMatrixError(
            f"condition estimate {s[0] / s[-1] if s.size and s[-1] > 0 else np.inf:.3e} beyond threshold")
    out = np.linalg.inv(M)
    if not np.isfinite(out).all():
        raise SingularMatrixError("inverse contains non-finite entries")
    return out
