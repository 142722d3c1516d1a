"""Dense complex matrix kernel used by every other module.

The input contract of every matrix (``as_matrix``), the node-chunked
product over a stack of node matrices (``sandwich``) and the two
factorizations with a contract of their own, wrapped around numpy's LAPACK
bindings: ``cholesky_hermitian`` and ``invert``.  Every other eigen- or
singular-value step calls ``np.linalg`` directly, the Gauss-Legendre
rule of the su2 quadrature (``_leggauss``) included.  Every tolerance is a
module constant: ``KERNEL_TOL`` bounds pure floating-point defects
(inversion residuals, the singularity threshold) and ``STRUCTURAL_TOL``
bounds defects that signal a wrong *input* (hermiticity, definiteness,
bracket closure).  Values are plain ``numpy.ndarray``s and are never
mutated once returned.  A pass
over a rule (``representations.node_chunks``) hands its steps sub-chunks
of ``NODE_CHUNK`` nodes of the one buffer it owns, so a step's kernels
(``max_abs`` of a defect, ``sandwich`` with ``out`` writing a sub-chunk
over itself) see sub-chunks; ``sandwich`` cuts a whole stack a caller
gives it into the same sub-chunks.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSquareError,
    SingularMatrixError,
)

KERNEL_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
# nodes per sub-chunk: a pass hands out its nodes in sub-chunks of this
# size (``representations.node_chunks``), and ``sandwich`` and
# ``groups.integrate_product`` cut a whole stack into them; it sets the
# size of every temporary a call holds next to its evaluation chunk
# (``EVAL_CHUNK``, a multiple of it, so a pass adds the GEMMs of a whole
# stack in the same order)
NODE_CHUNK = 256
EVAL_CHUNK = 4 * NODE_CHUNK


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array (copying only if needed)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return out


def max_abs(m) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def sandwich(A, stack, B, out=None) -> np.ndarray:
    """A M_n B for every matrix M_n of a stack (n, r, s).

    Both products run per sub-chunk of ``NODE_CHUNK`` nodes: the right
    one as a reshaped GEMM into one sub-chunk-sized temporary, the left
    one as a broadcast product written straight into ``out``, so that
    temporary is the only one whatever stack a caller gives.  ``out``,
    when given, may be ``stack`` itself when A and B are square: each
    sub-chunk is read before it is written, so a pass sandwiches each of
    its sub-chunks in place, in the one buffer it holds.
    """
    n, r, s = stack.shape
    if out is None:
        out = np.empty((n, A.shape[0], B.shape[1]), dtype=np.result_type(A, stack, B))
    for i in range(0, n, NODE_CHUNK):
        chunk = stack[i:i + NODE_CHUNK]
        np.matmul(A, (chunk.reshape(-1, s) @ B).reshape(len(chunk), r, -1), out=out[i:i + NODE_CHUNK])
    return out


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], as
    ``numpy.polynomial.legendre.leggauss(n)`` computes them, to the byte,
    without importing ``numpy.polynomial``: the eigenvalues of the
    symmetric companion matrix of the Legendre polynomial P_n, one Newton
    step, and the weights from P_n' and P_(n-1), each series summed by
    the Clenshaw recurrence of ``legval``."""
    c = np.zeros(n + 1)
    c[-1] = 1.0

    def legval(x, c):
        c = c.reshape(-1, 1)
        if len(c) < 3:
            return c[0] + (c[1] if len(c) == 2 else 0) * x
        nd, c0, c1 = len(c), c[-2], c[-1]
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
        return c0 + c1 * x

    if n == 1:
        companion = np.array([[-c[0] / c[1]]])
    else:
        scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
        companion = np.zeros((n, n))
        companion.reshape(-1)[1::n + 1] = companion.reshape(-1)[n::n + 1] = (
            np.arange(1, n) * scale[:n - 1] * scale[1:n])
    x = np.linalg.eigvalsh(companion)
    # the Legendre series of P_n' (``legder``)
    d, der = c.copy(), np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * d[j]
        d[j - 2] += d[j]
    if n > 1:
        der[1] = 3 * d[2]
    der[0] = d[1]
    df = legval(x, der)
    x -= legval(x, c) / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _require_square(H: np.ndarray) -> None:
    if H.shape[0] != H.shape[1]:
        raise NotSquareError(f"matrix is {H.shape[0]}x{H.shape[1]}")


def _require_hermitian(H: np.ndarray) -> None:
    defect = max_abs(H - H.conj().T)
    if defect > STRUCTURAL_TOL * max(1.0, max_abs(H)):
        raise NotHermitianError(f"hermiticity defect {defect:.3e} above tolerance")


def cholesky_hermitian(H) -> np.ndarray:
    """Upper-triangular A with positive real diagonal and H = A* A.

    Raises NotPositiveDefiniteError when the smallest eigenvalue does not
    clear ``STRUCTURAL_TOL`` -- for averaged forms this signals a broken
    quadrature rule or a non-representation input, not a kernel failure.
    """
    H = as_matrix(H)
    _require_square(H)
    _require_hermitian(H)
    Hs = (H + H.conj().T) / 2.0
    w = np.linalg.eigvalsh(Hs)
    if w[0] <= STRUCTURAL_TOL:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.3e} <= definiteness tolerance {STRUCTURAL_TOL:.1e}")
    L = np.linalg.cholesky(Hs)  # lower, positive real diagonal
    return L.conj().T


def invert(M) -> np.ndarray:
    """Inverse of a square matrix, refusing near-singular input.

    The singularity threshold is relative: smallest singular value at most
    ``KERNEL_TOL`` times the largest raises SingularMatrixError.
    """
    M = as_matrix(M)
    _require_square(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[-1] <= KERNEL_TOL * s[0]:
        raise SingularMatrixError(
            f"condition estimate {s[0] / s[-1] if s.size and s[-1] > 0 else np.inf:.3e} beyond threshold")
    out = np.linalg.inv(M)
    if not np.isfinite(out).all():
        raise SingularMatrixError("inverse contains non-finite entries")
    return out
