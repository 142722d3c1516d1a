"""JSON conversions for complex-valued payloads.

Complex numbers travel as [re, im] pairs and matrices as nested lists of
those pairs; floats keep full precision (shortest round-trip repr), so a
report serialized twice from the same data is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import InputParseError

# the type of each entry of an object array, in one ufunc pass
_entry_type = np.frompyfunc(type, 1, 1)


def _pairs(z: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one per entry of ``z``."""
    return np.stack((z.real, z.imag), -1).tolist()


def complex_list_to_json(values) -> list:
    return _pairs(np.asarray(values, dtype=complex).ravel())


def matrix_to_json(m) -> list:
    return _pairs(np.asarray(m, dtype=complex))


def real_matrix_to_json(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def matrix_from_json(data, *, what: str = "matrix") -> np.ndarray:
    """Parse a [[ [re, im], ... ], ...] nested list into a complex matrix.

    Every entry must be a JSON number: a string or a boolean is refused,
    never cast, by one type check over the whole nested list."""
    try:
        entries = np.array(data, dtype=object)
    except ValueError as exc:   # a ragged nesting
        raise InputParseError(f"{what}: expected rows of [re, im] pairs ({exc})")
    if entries.ndim != 3 or entries.shape[2] != 2:
        raise InputParseError(f"{what}: expected rows of [re, im] pairs, got shape {entries.shape}")
    types = _entry_type(entries)
    numeric = (types == float) | (types == int)
    if not numeric.all():
        bad = entries[~numeric][0]
        raise InputParseError(f"{what}: entries must be numeric [re, im] pairs, got {bad!r}")
    try:
        arr = entries.astype(float)
    except OverflowError as exc:
        raise InputParseError(f"{what}: entries must be numeric [re, im] pairs ({exc})")
    return arr[..., 0] + 1j * arr[..., 1]
