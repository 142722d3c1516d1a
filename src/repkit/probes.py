"""Default probe and shift inventories for the Haar-axiom audit.

Finite groups get exponential index functions (any probe works there: the
uniform average is exactly translation invariant), the circle gets the
trigonometric monomials up to degree eight, and su2 gets the matrix entries
of the spin-1/2 and spin-1 representations, one probe family each, so an
audit evaluates each spin once per node array.
"""

from __future__ import annotations

import numpy as np

from .errors import KindMismatchError
from .groups import CircleGroup, FiniteGroup, _is_integer, enumerate_or_sample
from .representations import MatrixEntryProbe, spin_irrep

SHIFT_SEED = 7


class ExpIndexProbe:
    """f(k) = exp(2 pi i m k / N) on the element indices of a finite group."""

    def __init__(self, m: int, order: int):
        self.m = m
        self.order = order
        self.label = f"exp({m}k)"

    def __call__(self, k):
        if not _is_integer(k):
            raise KindMismatchError(f"finite group elements are integer indices, got {type(k).__name__}")
        return np.exp(2j * np.pi * self.m * int(k) / self.order)

    def batch(self, nodes):
        index = FiniteGroup.node_array(nodes)
        return np.exp(2j * np.pi * self.m * index.astype(int, copy=False) / self.order)


class TrigProbe:
    """f(theta) = exp(i k theta) on the circle."""

    def __init__(self, k: int):
        self.k = k
        self.label = f"exp({k}i theta)"

    def __call__(self, theta):
        return np.exp(1j * self.k * CircleGroup._angle(theta))

    def batch(self, nodes):
        angles = CircleGroup.node_array(nodes)
        return np.exp(1j * self.k * angles.astype(float, copy=False))


def standard_probes(group) -> list:
    if group.kind == "finite":
        return [ExpIndexProbe(m, group.order) for m in range(min(group.order, 4))]
    if group.kind == "circle":
        return [TrigProbe(k) for k in range(-8, 9)]
    if group.kind == "su2":
        probes = []
        for two_j in (1, 2):
            probes += MatrixEntryProbe.family(spin_irrep(two_j / 2.0, group), f"spin(2j={two_j})")
        return probes
    raise KindMismatchError(f"unsupported group kind {group.kind!r}")


def standard_shifts(group, seed: int = SHIFT_SEED) -> list:
    if group.kind == "finite":
        return group.elements() if group.order <= 8 else list(
            np.random.default_rng(seed).integers(0, group.order, size=4))
    if group.kind == "circle":
        return [0.5, 1.25, 2 * np.pi / 7.0, 4.0]
    return enumerate_or_sample(group, 4, seed=seed)
