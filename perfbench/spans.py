"""Span tracing of repkit from the outside.

The tracer replaces public repkit functions, representation methods and the
``numpy.linalg`` entry points with thin wrappers that record one span per
call: name, start, end, parent span and op id.  Spans stay in memory and are
written out once, when the run ends.  Nothing inside ``src/repkit`` changes;
every name a repkit module re-bound at import time (``from .groups import
integrate_stacked``) is replaced as well, so nested calls are seen.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np

# (span name, module, attribute): module-level functions.  A function is
# replaced in every loaded repkit module that holds the same object.
FUNCTIONS = [
    ("groups.haar_rule", "repkit.groups", "haar_rule"),
    ("groups.integrate_stacked", "repkit.groups", "integrate_stacked"),
    ("groups.integrate_values", "repkit.groups", "integrate_values"),
    ("groups.evaluate_probe", "repkit.groups", "evaluate_probe"),
    ("groups.axiom_audit", "repkit.groups", "axiom_audit"),
    ("representations.homomorphism_audit", "repkit.representations", "homomorphism_audit"),
    ("representations.character", "repkit.representations", "character"),
    ("unitarization.averaged_form", "repkit.unitarization", "averaged_form"),
    ("unitarization.unitarize", "repkit.unitarization", "unitarize"),
    ("unitarization.invariant_form_space", "repkit.unitarization", "invariant_form_space"),
    ("unitarization.hermitian_coords", "repkit.unitarization", "hermitian_coords"),
    ("schur.commutant", "repkit.schur", "commutant"),
    ("schur.decompose", "repkit.schur", "decompose"),
    ("schur.split", "repkit.schur", "_split_unitary_fully"),
    ("schur.orthogonality_audit", "repkit.schur", "orthogonality_audit"),
    ("schur.multiplicity", "repkit.schur", "multiplicity"),
    ("lie_algebras.trace_form", "repkit.lie_algebras", "trace_form"),
    ("loaders.load", "repkit.loaders", "load_group"),
    ("loaders.load", "repkit.loaders", "load_algebra"),
    ("loaders.load", "repkit.loaders", "load_representation"),
    ("serialize.to_json", "repkit.serialize", "complex_list_to_json"),
    ("serialize.to_json", "repkit.serialize", "matrix_to_json"),
    ("serialize.to_json", "repkit.serialize", "real_matrix_to_json"),
    ("cli.emit", "repkit.cli", "_emit"),
]

# numpy.linalg entry points; only calls made from a repkit frame are recorded
LINALG = ["svd", "eigh", "eigvalsh", "cholesky", "inv"]

EVALUATE_BATCH = "representations.evaluate_batch"


def _complex_bytes(shape) -> int:
    return int(np.prod(shape)) * np.dtype(complex).itemsize


def _note_haar_rule(args, kwargs, result):
    return {"nodes": result.node_count}


def _note_integrate_stacked(args, kwargs, result):
    stacked = args[1] if len(args) > 1 else kwargs["stacked"]
    return {"bytes": _complex_bytes(np.shape(stacked))}


def _note_evaluate_batch(args, kwargs, result):
    return {"nodes": int(result.shape[0]), "bytes": int(result.nbytes)}


def _note_commutant(args, kwargs, result):
    return {"dimension": result.dimension, "r2": args[0].degree ** 2}


def _note_invariant_form_space(args, kwargs, result):
    return {"dimension": result[1], "r2": args[0].degree ** 2}


def _note_svd(args, kwargs, result):
    return {"max_dim": max(np.shape(args[0])[-2:])}


NOTES = {
    "groups.haar_rule": _note_haar_rule,
    "groups.integrate_stacked": _note_integrate_stacked,
    EVALUATE_BATCH: _note_evaluate_batch,
    "schur.commutant": _note_commutant,
    "unitarization.invariant_form_space": _note_invariant_form_space,
    "linalg.svd": _note_svd,
}


class Tracer:
    """Records spans while ``active``; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, notes]
        self.stack: list[int] = []
        self.op = "setup"
        self.active = False
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, func, *, repkit_callers_only=False):
        note = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (repkit_callers_only and not
                                     sys._getframe(1).f_globals.get("__name__", "").startswith("repkit")):
                return func(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[2] = time.perf_counter()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self):
        """Replace every traced name; ``uninstall`` restores the originals."""
        import numpy.linalg

        import repkit.cli  # noqa: F401  (loaded so its re-bound names are replaced too)
        from repkit import representations

        modules = [m for n, m in sys.modules.items() if n == "repkit" or n.startswith("repkit.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for cls in _representation_classes(representations.Representation):
            if "evaluate_batch" in vars(cls):
                self._set(cls, "evaluate_batch", self.wrap(EVALUATE_BATCH, vars(cls)["evaluate_batch"]))
        self._set(representations.Representation, "evaluate",
                  self.wrap("representations.evaluate", representations.Representation.evaluate))
        for attr in LINALG:
            self._set(numpy.linalg, attr, self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr),
                                                    repkit_callers_only=True))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _representation_classes(base):
    out = [base]
    for sub in base.__subclasses__():
        out.extend(_representation_classes(sub))
    return out


class LayerStats:
    """Aggregates spans into per-layer call counts, self times and notes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.notes: dict[str, dict[str, float]] = {}
        self.max_depth = 0
        self.decompose_commutants = 0
        self.decompose_splits = 0

    def add(self, spans):
        """Fold one span list (one process) into the totals."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, notes) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time[i]
            if notes:
                bucket = self.notes.setdefault(name, {})
                for key, value in notes.items():
                    if key == "max_dim":
                        bucket[key] = max(bucket.get(key, 0), value)
                    else:
                        bucket[key] = bucket.get(key, 0) + value
            if name == EVALUATE_BATCH:
                self.max_depth = max(self.max_depth, _depth(spans, i, EVALUATE_BATCH))
            if name == "schur.commutant" and _depth(spans, i, "schur.decompose") > 0:
                self.decompose_commutants += 1
                self.decompose_splits += bool(notes) and notes["dimension"] > 1

    def note(self, name, key):
        return self.notes.get(name, {}).get(key, 0)

    def ratio(self, name):
        r2 = self.note(name, "r2")
        return self.note(name, "dimension") / r2 if r2 else 0.0


def _depth(spans, index, name):
    """Number of spans called ``name`` on the chain from ``index`` to the root,
    the span itself included when it has that name."""
    depth = 0
    while index >= 0:
        if spans[index][0] == name:
            depth += 1
        index = spans[index][3]
    return depth
