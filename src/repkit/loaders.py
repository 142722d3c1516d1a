"""Input-file parsing with eager validation.

Every loader raises InputParseError with a field-level diagnostic before any
computation starts.  Input is validated, never repaired: a float, string or
boolean in an integer field, or a string or boolean as a structure constant,
is refused, not cast.
Structural validation (Latin squares, Jacobi identity, identity matrices in
representation tables) is delegated to the domain constructors and their
messages are wrapped with the file context; so are the integer checks of a
group table, a weight list and a spin, which ``FiniteGroup``,
``CircleWeightRepresentation`` and ``SpinRepresentation`` make for library
callers too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import InputParseError, RepkitError
from .groups import CircleGroup, FiniteGroup, SU2Group, _is_integer
from .lie_algebras import LieAlgebraSpec
from .representations import (
    CircleWeightRepresentation,
    ConjugatedRepresentation,
    DirectSumRepresentation,
    FiniteTableRepresentation,
    SpinRepresentation,
)
from .serialize import matrix_from_json


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputParseError(f"{path}: cannot read file ({exc})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except ValueError as exc:   # an integer past Python's limit on digits
        raise InputParseError(f"{path}: cannot read a number in it ({exc})")
    if not isinstance(data, dict):
        raise InputParseError(f"{path}: top-level value must be an object")
    return data


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise InputParseError(f"{context}: missing required field {key!r}")
    return data[key]


def load_group(path):
    """Parse a group file: finite multiplication table, circle, or su2."""
    data = _read_json(path)
    kind = _require(data, "kind", str(path))
    if kind == "circle":
        return CircleGroup()
    if kind == "su2":
        return SU2Group()
    if kind != "finite":
        raise InputParseError(f"{path}: unknown group kind {kind!r}")
    table = _require(data, "mult_table", str(path))
    try:
        return FiniteGroup(
            table,
            identity=data.get("identity"),
            inverse=data.get("inverse"),
            labels=data.get("labels"),
            name=data.get("name"),
        )
    except (ValueError, TypeError) as exc:
        raise InputParseError(f"{path}: {exc}")


def load_algebra(path) -> LieAlgebraSpec:
    """Parse a Lie algebra file: dimension plus sparse structure constants.

    Constants are given as [alpha, beta, k, value] rows with alpha < beta;
    the antisymmetric completion is applied on load.
    """
    data = _read_json(path)
    context = str(path)
    dim = _require(data, "dim", context)
    if not _is_integer(dim) or dim < 1:
        raise InputParseError(f"{context}: 'dim' must be a positive integer, got {dim!r}")
    entries = _require(data, "structure_constants", context)
    c = np.zeros((dim, dim, dim))
    for row_no, row in enumerate(entries):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise InputParseError(
                f"{context}: structure_constants[{row_no}] must be [alpha, beta, k, value]")
        a, b, k, value = row
        if not all(_is_integer(i) for i in (a, b, k)):
            raise InputParseError(f"{context}: structure_constants[{row_no}]: indices must be integers")
        if not (0 <= a < dim and 0 <= b < dim and 0 <= k < dim):
            raise InputParseError(f"{context}: structure_constants[{row_no}]: index outside 0..{dim - 1}")
        if not a < b:
            raise InputParseError(
                f"{context}: structure_constants[{row_no}]: requires alpha < beta "
                "(the antisymmetric half is filled in automatically)")
        # an int beyond the float range compares exactly and is refused too
        if type(value) not in (int, float) or abs(value) > sys.float_info.max:
            raise InputParseError(
                f"{context}: structure_constants[{row_no}]: value must be a finite number, "
                f"got {value!r}")
        c[a, b, k] += float(value)
        c[b, a, k] -= float(value)
    try:
        return LieAlgebraSpec(c, labels=data.get("labels"))
    except ValueError as exc:
        raise InputParseError(f"{context}: {exc}")


def load_representation(path, group):
    """Parse the representation file at ``path`` against the group it is
    declared over."""
    return _rep_from_data(_read_json(path), group, str(path))


def _rep_from_data(data: dict, group, context: str):
    kind = _require(data, "kind", context)
    try:
        if kind == "finite_table":
            matrices = _require(data, "matrices", context)
            if not isinstance(matrices, list):
                raise InputParseError(f"{context}: 'matrices' must be a list of matrices")
            table = np.stack([matrix_from_json(m, what=f"{context}: matrices[{i}]")
                              for i, m in enumerate(matrices)])
            return FiniteTableRepresentation(group, table)
        if kind == "circle_weights":
            return CircleWeightRepresentation(group, _require(data, "weights", context))
        if kind == "su2_spin":
            return SpinRepresentation(group, _require(data, "two_j", context))
        if kind == "direct_sum":
            parts = _require(data, "parts", context)
            if not isinstance(parts, list) or len(parts) < 2:
                raise InputParseError(f"{context}: 'parts' must list at least two representations")
            return DirectSumRepresentation(
                [_rep_from_data(p, group, f"{context}: parts[{i}]") for i, p in enumerate(parts)])
        if kind == "conjugate":
            inner = _rep_from_data(_require(data, "inner", context), group, f"{context}: inner")
            A = matrix_from_json(_require(data, "matrix", context), what=f"{context}: matrix")
            return ConjugatedRepresentation(inner, A)
    except InputParseError:
        raise
    except (RepkitError, ValueError, TypeError) as exc:
        raise InputParseError(f"{context}: {exc}")
    raise InputParseError(f"{context}: unknown representation kind {kind!r}")


__all__ = ["load_group", "load_algebra", "load_representation"]
