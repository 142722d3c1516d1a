"""Named groups and stock representations used by the CLI and tests.

The symmetric group on three letters is ordered identity first, then the
three transpositions, then the two 3-cycles, so its standard character reads
(2, 0, 0, 0, -1, -1).
"""

from __future__ import annotations

import numpy as np

from .errors import InputParseError
from .groups import CircleGroup, FiniteGroup, SU2Group, _require_integers
from .representations import FiniteTableRepresentation

_S3_PERMS = [
    (0, 1, 2),  # identity
    (1, 0, 2),  # transpositions
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),  # 3-cycles
    (2, 0, 1),
]
_S3_LABELS = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def cyclic_group(n: int) -> FiniteGroup:
    _require_integers(n, "n")
    k = np.arange(n)
    table = (k[:, None] + k[None, :]) % n
    return FiniteGroup(table, labels=[str(i) for i in range(n)], name=f"z{n}")


def symmetric_group_3() -> FiniteGroup:
    index = {p: i for i, p in enumerate(_S3_PERMS)}
    table = np.empty((6, 6), dtype=int)
    for i, p in enumerate(_S3_PERMS):
        for j, q in enumerate(_S3_PERMS):
            table[i, j] = index[_perm_compose(p, q)]
    return FiniteGroup(table, labels=_S3_LABELS, name="s3")


BUILTIN_GROUPS = ("z2", "z3", "s3", "circle", "su2")


def builtin_group(name: str):
    name = name.lower()
    if name == "z2":
        return cyclic_group(2)
    if name == "z3":
        return cyclic_group(3)
    if name == "s3":
        return symmetric_group_3()
    if name == "circle":
        return CircleGroup()
    if name == "su2":
        return SU2Group()
    raise InputParseError(f"unknown builtin group {name!r}; choose from {', '.join(BUILTIN_GROUPS)}")


def cyclic_phase_rep(group: FiniteGroup, exponents) -> FiniteTableRepresentation:
    """diag(omega^(e_1 k), ..., omega^(e_r k)) over the cyclic group of order
    N, with omega the primitive N-th root of unity."""
    _require_integers(exponents, "exponents")
    exponents = np.asarray(exponents, dtype=int)
    n = group.order
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, exponents) / n)
    mats = np.zeros((n, len(exponents), len(exponents)), dtype=complex)
    idx = np.arange(len(exponents))
    mats[:, idx, idx] = phases
    return FiniteTableRepresentation(group, mats)


def _perm_matrices():
    mats = []
    for p in _S3_PERMS:
        P = np.zeros((3, 3))
        for j, image in enumerate(p):
            P[image, j] = 1.0
        mats.append(P)
    return mats


def _parity(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def s3_trivial(group: FiniteGroup) -> FiniteTableRepresentation:
    return FiniteTableRepresentation(group, np.ones((6, 1, 1), dtype=complex))


def s3_sign(group: FiniteGroup) -> FiniteTableRepresentation:
    mats = np.array([[[float(_parity(p))]] for p in _S3_PERMS], dtype=complex)
    return FiniteTableRepresentation(group, mats)


def s3_standard(group: FiniteGroup) -> FiniteTableRepresentation:
    """The 2-dimensional irreducible: the permutation action restricted to
    the plane x + y + z = 0 in an orthonormal basis (real orthogonal
    matrices)."""
    basis = np.column_stack([
        np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
    ])
    mats = np.stack([basis.T @ P @ basis for P in _perm_matrices()]).astype(complex)
    return FiniteTableRepresentation(group, mats)


def s3_irreps(group: FiniteGroup) -> list[FiniteTableRepresentation]:
    return [s3_trivial(group), s3_sign(group), s3_standard(group)]
