"""Command-line surface.

    repkit <command> [REP.json] [--group PATH | --builtin NAME]
                     [--rep PATH | --spin TWO_J | --weights W1,W2,...]
                     [--resolution N] [--tol X] [--out PATH] [--format text|json]

Exit codes: 0 when every residual is within tolerance, 1 on input errors
(usage errors and an unwritable ``--out`` included), 2 on tolerance failures.
Text reports print residuals to three significant digits plus a timing line;
JSON reports carry full precision and contain no timing, so repeated runs on
the same inputs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import click
import numpy as np

from .builtin import BUILTIN_GROUPS, builtin_group
from .errors import InputParseError, RepkitError
from .groups import axiom_audit, haar_rule
from .lie_algebras import trace_form
from .loaders import load_algebra, load_group, load_representation
from .probes import standard_probes, standard_shifts
from .representations import CircleWeightRepresentation, SpinRepresentation, character
from .schur import MULTIPLICITY_WINDOW, decompose, orthogonality_audit, unitary_commutant
from .serialize import complex_list_to_json, matrix_to_json, real_matrix_to_json
from .unitarization import unitarize

DEFAULT_RESOLUTION = {"circle": 64, "su2": 16}
EXACT_TOL = 1e-8
SU2_TOL = 1e-5


def _resolve_group(group_path, builtin_name, spin, weights):
    """The group and its label in the report options.  Without --group or
    --builtin, --spin implies su2 and --weights implies circle."""
    if group_path is None and builtin_name is None:
        builtin_name = "su2" if spin is not None else "circle" if weights is not None else None
    if group_path and builtin_name:
        raise InputParseError("give either --group or --builtin, not both")
    if group_path:
        # convenience: a builtin name also works where a path is expected
        if not os.path.exists(group_path) and str(group_path).lower() in BUILTIN_GROUPS:
            return builtin_group(str(group_path)), str(group_path)
        return load_group(group_path), str(group_path)
    if builtin_name:
        return builtin_group(builtin_name), builtin_name
    raise InputParseError("a group is required: --group PATH or --builtin NAME")


def _resolve_rep(group, rep_path, spin, weights):
    if sum(x is not None for x in (rep_path, spin, weights)) != 1:
        raise InputParseError("exactly one of --rep, --spin, --weights is required")
    if rep_path is not None:
        return load_representation(rep_path, group)
    if spin is not None:
        if group.kind != "su2":
            raise InputParseError("--spin requires the su2 group")
        return SpinRepresentation(group, spin)
    if group.kind != "circle":
        raise InputParseError("--weights requires the circle group")
    try:
        parsed = [int(part) for part in weights.split(",") if part.strip() != ""]
    except ValueError:
        raise InputParseError(f"--weights expects comma-separated integers, got {weights!r}")
    if not parsed:
        raise InputParseError(f"--weights expects at least one integer, got {weights!r}")
    try:
        return CircleWeightRepresentation(group, parsed)
    except ValueError as exc:
        raise InputParseError(f"--weights: {exc}")


def _rule_for(group, resolution):
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(group.kind, 1)
    return haar_rule(group, resolution)


def _emit(command: str, options: dict, residuals: dict, tolerances: dict,
          payload: dict, fmt: str, out, started: float) -> int:
    """Render the run report and return the exit code."""
    failures = sorted(name for name, value in residuals.items()
                      if name in tolerances and value > tolerances[name])
    status = "ok" if not failures else "tolerance_failure"
    report = {
        "command": command,
        "options": options,
        "residuals": residuals,
        "tolerances": tolerances,
        "payload": payload,
        "status": status,
    }
    rendered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out is not None:
        with open(out, "w") as fh:
            fh.write(rendered)
    if fmt == "json":
        if out is None:
            click.echo(rendered, nl=False)
    else:
        elapsed = time.perf_counter() - started
        click.echo(f"command: {command}")
        for key in sorted(options):
            click.echo(f"  {key}: {options[key]}")
        for key in sorted(residuals):
            limit = f" (tol {tolerances[key]:.3e})" if key in tolerances else ""
            click.echo(f"residual {key}: {residuals[key]:.3e}{limit}")
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (str, bool, int)):
                click.echo(f"{key}: {value}")
            elif isinstance(value, float):
                click.echo(f"{key}: {value:.6g}")
            elif isinstance(value, list) and value and isinstance(value[0], (int, str)):
                click.echo(f"{key}: {value}")
        click.echo(f"status: {status}")
        click.echo(f"elapsed: {elapsed:.3f} s")
    return 0 if not failures else 2


class _Main(click.Group):
    """Click usage errors (unknown command or option, bad option value) exit
    1, the input-error code, not click's 2, the tolerance-failure code."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Main)
def main():
    """Numerical representation theory of compact groups."""


def _tolerance(ctx, param, value):
    """Refuse a --tol that is not a finite number >= 0: nan would pass
    every check and -1 fail every one."""
    if value is not None and not 0.0 <= value < math.inf:
        raise click.BadParameter(f"must be a finite number >= 0, got {value!r}")
    return value


_REPORT_OPTIONS = (
    click.option("--tol", type=float, callback=_tolerance, help="Residual tolerance override."),
    click.option("--out", type=click.Path(), help="Write the JSON report to this path."),
    click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
                 help="Report format on stdout."),
)
_GROUP_OPTIONS = (
    click.option("--group", "group_path", type=click.Path(), help="Path to a group JSON file."),
    click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_GROUPS),
                 help="Builtin group name."),
)
_RESOLUTION_OPTION = click.option("--resolution", type=int,
                                  help="Quadrature resolution (circle default 64, su2 default 16).")


def _command(name, *options):
    """Register ``repkit NAME`` with ``options`` and --tol/--out/--format.

    The body takes the parsed inputs and returns (options, residuals,
    tolerances, payload).  The runner times it, reports through ``_emit`` and
    exits 0, or 2 on a residual above its tolerance; a refused input or an
    unwritable ``--out`` exits 1 as an input error, any other domain error as
    an error.
    """
    def register(body):
        def run(out, fmt, **inputs):
            started = time.perf_counter()
            try:
                sys.exit(_emit(name, *body(**inputs), fmt, out, started))
            except OSError as exc:
                if out is None or exc.filename != out:
                    raise
                message = f"input error: {out}: cannot write file ({exc.strerror})"
            except InputParseError as exc:
                message = f"input error: {exc}"
            except RepkitError as exc:
                message = f"error: {exc}"
            click.echo(message, err=True)
            sys.exit(1)
        for option in reversed(options + _REPORT_OPTIONS):
            run = option(run)
        return main.command(name, help=body.__doc__, short_help=body.__doc__.splitlines()[0])(run)
    return register


def _rep_command(name):
    """Register a single-representation command.  The body takes (rep, rule,
    tol), tol given its default for the group kind, and returns (residuals,
    tolerances, payload)."""
    def register(body):
        def run(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution, tol):
            if rep_file is not None:
                if rep_path is not None:
                    raise InputParseError("representation given both positionally and with --rep")
                rep_path = rep_file
            group, label = _resolve_group(group_path, builtin_name, spin, weights)
            rep = _resolve_rep(group, rep_path, spin, weights)
            rule = _rule_for(group, resolution)
            options = {"group": label, "resolution": rule.resolution,
                       "rep": str(rep_path) if rep_path else (f"spin:{spin}" if spin is not None
                                                              else f"weights:{weights}")}
            if tol is None:
                tol = SU2_TOL if group.kind == "su2" else EXACT_TOL
            return (options, *body(rep, rule, tol))
        run.__doc__ = body.__doc__
        return _command(
            name,
            # the representation file may also be given positionally
            click.argument("rep_file", required=False, type=click.Path()),
            *_GROUP_OPTIONS,
            click.option("--rep", "rep_path", type=click.Path(),
                         help="Path to a representation JSON file."),
            click.option("--spin", type=int,
                         help="Twice the spin (integer) of an su2 irreducible."),
            click.option("--weights",
                         help="Comma-separated integer weights of a circle representation."),
            _RESOLUTION_OPTION,
        )(run)
    return register


@_command("analyze-algebra", click.argument("algebra_path", type=click.Path()))
def analyze_algebra(algebra_path, tol):
    """Trace-form Gram matrix, compactness classification and center."""
    alg = load_algebra(algebra_path)
    report = trace_form(alg)
    payload = {
        "dim": alg.dim,
        "gram": real_matrix_to_json(report.gram),
        "eigenvalues": [float(w) for w in report.eigenvalues],
        "classification": report.classification,
        "center_basis": [[float(x) for x in v] for v in report.center_basis],
    }
    return ({"algebra": str(algebra_path)}, {"invariance": report.invariance_residual},
            {"invariance": tol if tol is not None else EXACT_TOL}, payload)


@_command("haar-audit", *_GROUP_OPTIONS, _RESOLUTION_OPTION)
def haar_audit(group_path, builtin_name, resolution, tol):
    """Audit the invariant-integral axioms on the standard probe inventory."""
    group, label = _resolve_group(group_path, builtin_name, None, None)
    rule = _rule_for(group, resolution)
    report = axiom_audit(rule, standard_probes(group), standard_shifts(group))
    if tol is None:
        tol = {"finite": 1e-12, "circle": 1e-10}.get(group.kind, SU2_TOL)
    residuals = report.as_dict()
    margin = residuals.pop("positivity_margin")
    payload = {"kind": group.kind, "resolution": rule.resolution, "node_count": rule.node_count,
               "positivity_margin": margin, "inventory": report.inventory}
    return ({"group": label, "resolution": rule.resolution}, residuals,
            dict.fromkeys(residuals, tol), payload)


@_rep_command("unitarize")
def unitarize_cmd(rep, rule, tol):
    """Average the standard form over the group and change basis to unitary."""
    result = unitarize(rep, rule)
    base_char = character(rep, rule).values
    new_char = character(result.unitary_rep, rule).values
    residuals = {
        "unitarity": result.unitarity_residual,
        "form_invariance": result.invariance_residual,
        "character_drift": float(np.abs(new_char - base_char).max()),
    }
    tolerances = {"unitarity": tol, "form_invariance": tol, "character_drift": 1e-9}
    return residuals, tolerances, {"degree": rep.degree,
                                   "basis_change": matrix_to_json(result.basis_change)}


@_rep_command("irreducible")
def irreducible_cmd(rep, rule, tol):
    """Scalar-commutant irreducibility test with the invariant-form count.

    The verdict, the dimension, the commutant block and d (the invariant
    forms are its Hermitian elements) all come from one commutant, in a
    unitary basis of the input; its gap to the character norm is a
    residual, so a rule that under-resolves the input exits 2.
    """
    report = unitary_commutant(rep, rule)
    residuals = {"commutant": report.max_residual,
                 "character_norm_gap": abs(report.dimension - report.character_norm)}
    tolerances = {"commutant": tol, "character_norm_gap": MULTIPLICITY_WINDOW}
    payload = {
        "irreducible": report.dimension == 1,
        "commutant": report.to_json_dict(),
        "commutant_dimension": report.dimension,
        "invariant_form_dimension": report.dimension,
        "special": report.dimension == 1,
        "degree": rep.degree,
    }
    return residuals, tolerances, payload


@_rep_command("decompose")
def decompose_cmd(rep, rule, tol):
    """Split a representation into irreducible blocks."""
    report = decompose(rep, rule)
    total = character(rep, rule).values
    stacked = np.sum([c.values for c in report.block_characters], axis=0)
    residuals = {"block_leakage": report.residual,
                 "character_sum": float(np.abs(stacked - total).max())}
    payload = report.to_json_dict()
    payload["degree"] = rep.degree
    return residuals, {"block_leakage": tol, "character_sum": 1e-8}, payload


@_rep_command("characters")
def characters_cmd(rep, rule, tol):
    """Character values of a representation at the rule nodes."""
    char = character(rep, rule)
    ident = rep.evaluate(rep.group.identity_element())
    payload = {"degree": rep.degree, "node_count": rule.node_count,
               "values": complex_list_to_json(char.values)}
    return ({"identity_trace": float(abs(np.trace(ident) - rep.degree))},
            {"identity_trace": tol}, payload)


@_command(
    "orthogonality",
    *_GROUP_OPTIONS,
    click.option("--rep", "rep_paths", type=click.Path(), multiple=True,
                 help="Representation file (repeatable)."),
    click.option("--spin", "spins", type=int, multiple=True,
                 help="Twice the spin of an su2 irreducible (repeatable)."),
    click.option("--weights", "weight_lists", multiple=True,
                 help="Comma-separated circle weights (repeatable)."),
    _RESOLUTION_OPTION,
)
def orthogonality_cmd(group_path, builtin_name, rep_paths, spins, weight_lists, resolution, tol):
    """Character-orthogonality residual matrix over a family of irreducibles."""
    group, label = _resolve_group(group_path, builtin_name, spins or None, weight_lists or None)
    rule = _rule_for(group, resolution)
    reps = [load_representation(p, group) for p in rep_paths]
    reps += [_resolve_rep(group, None, s, None) for s in spins]
    reps += [_resolve_rep(group, None, None, w) for w in weight_lists]
    if not reps:
        raise InputParseError("at least one representation is required "
                              "(--rep, --spin or --weights)")
    residual_matrix = orthogonality_audit(reps, rule)
    if tol is None:
        tol = 1e-6 if group.kind == "su2" else 1e-10
    payload = {"count": len(reps), "degrees": [r.degree for r in reps],
               "residual_matrix": real_matrix_to_json(residual_matrix)}
    return ({"group": label, "resolution": rule.resolution},
            {"orthogonality": float(residual_matrix.max())}, {"orthogonality": tol}, payload)


if __name__ == "__main__":
    main()
