"""Command-line surface.

    repkit <command> [REP.json] [--group PATH | --builtin NAME]
                     [--rep PATH | --spin TWO_J | --weights W1,W2,...]
                     [--resolution N] [--tol X] [--out PATH] [--format text|json]

Exit codes: 0 when every residual is within tolerance, 1 on input errors,
2 on tolerance failures.  Text reports print residuals to three significant
digits plus a timing line; JSON reports carry full precision and contain no
timing, so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

import click
import numpy as np

from .builtin import BUILTIN_GROUPS, builtin_group
from .errors import InputParseError, RepkitError
from .groups import axiom_audit, haar_rule
from .lie_algebras import trace_form
from .loaders import load_algebra, load_group, load_representation
from .probes import standard_probes, standard_shifts
from .representations import character, spin_irrep
from .schur import MULTIPLICITY_WINDOW, decompose, orthogonality_audit, unitary_commutant
from .serialize import complex_list_to_json, matrix_to_json, real_matrix_to_json
from .unitarization import unitarize

DEFAULT_RESOLUTION = {"circle": 64, "su2": 16}
EXACT_TOL = 1e-8
SU2_TOL = 1e-5


def _default_tol(group) -> float:
    return SU2_TOL if group.kind == "su2" else EXACT_TOL


def _resolve_group(group_path, builtin_name):
    if group_path and builtin_name:
        raise InputParseError("give either --group or --builtin, not both")
    if group_path:
        # convenience: a builtin name also works where a path is expected
        if not os.path.exists(group_path) and str(group_path).lower() in BUILTIN_GROUPS:
            return builtin_group(str(group_path))
        return load_group(group_path)
    if builtin_name:
        return builtin_group(builtin_name)
    raise InputParseError("a group is required: --group PATH or --builtin NAME")


def _parse_weights(text: str) -> list[int]:
    try:
        weights = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputParseError(f"--weights expects comma-separated integers, got {text!r}")
    if not weights:
        raise InputParseError(f"--weights expects at least one integer, got {text!r}")
    return weights


def _resolve_rep(group, rep_path, spin, weights):
    given = [x for x in (rep_path, spin, weights) if x is not None]
    if len(given) != 1:
        raise InputParseError("exactly one of --rep, --spin, --weights is required")
    if rep_path is not None:
        return load_representation(rep_path, group)
    if spin is not None:
        if group.kind != "su2":
            raise InputParseError("--spin requires the su2 group")
        return spin_irrep(Fraction(int(spin), 2), group)
    if group.kind != "circle":
        raise InputParseError("--weights requires the circle group")
    from .representations import CircleWeightRepresentation
    return CircleWeightRepresentation(group, _parse_weights(weights))


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


def _wrap(func):
    """Translate domain errors into the 0/1/2 exit-code contract."""
    def runner(*args, **kwargs):
        try:
            code = func(*args, **kwargs)
        except InputParseError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(1)
        except RepkitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        sys.exit(code)
    runner.__name__ = func.__name__
    return runner


group_option = click.option("--group", "group_path", type=click.Path(), default=None,
                            help="Path to a group JSON file.")
builtin_option = click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_GROUPS),
                              default=None, help="Builtin group name.")
rep_option = click.option("--rep", "rep_path", type=click.Path(), default=None,
                          help="Path to a representation JSON file.")
spin_option = click.option("--spin", type=int, default=None,
                           help="Twice the spin (integer) of an su2 irreducible.")
weights_option = click.option("--weights", type=str, default=None,
                              help="Comma-separated integer weights of a circle representation.")
resolution_option = click.option("--resolution", type=int, default=None,
                                 help="Quadrature resolution (circle default 64, su2 default 16).")
tol_option = click.option("--tol", type=float, default=None,
                          help="Residual tolerance override.")
out_option = click.option("--out", type=click.Path(), default=None,
                          help="Write the JSON report to this path.")
format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                             default="text", help="Report format on stdout.")


@click.group()
def main():
    """Numerical representation theory of compact groups."""


@main.command("analyze-algebra")
@click.argument("algebra_path", type=click.Path())
@tol_option
@out_option
@format_option
@_wrap
def analyze_algebra(algebra_path, tol, out, fmt):
    """Trace-form Gram matrix, compactness classification and center."""
    started = time.perf_counter()
    alg = load_algebra(algebra_path)
    report = trace_form(alg)
    tolerance = tol if tol is not None else EXACT_TOL
    payload = {
        "dim": alg.dim,
        "gram": real_matrix_to_json(report.gram),
        "eigenvalues": [float(w) for w in report.eigenvalues],
        "classification": report.classification,
        "center_basis": [[float(x) for x in v] for v in report.center_basis],
    }
    residuals = {"invariance": report.invariance_residual}
    return _emit("analyze-algebra", {"algebra": str(algebra_path)}, residuals,
                 {"invariance": tolerance}, payload, fmt, out, started)


@main.command("haar-audit")
@group_option
@builtin_option
@resolution_option
@tol_option
@out_option
@format_option
@_wrap
def haar_audit(group_path, builtin_name, resolution, tol, out, fmt):
    """Audit the invariant-integral axioms on the standard probe inventory."""
    started = time.perf_counter()
    group = _resolve_group(group_path, builtin_name)
    rule = _rule_for(group, resolution)
    report = axiom_audit(rule, standard_probes(group), standard_shifts(group))
    tolerance = tol if tol is not None else (1e-12 if group.kind == "finite"
                                             else 1e-10 if group.kind == "circle" else SU2_TOL)
    residuals = report.as_dict()
    margin = residuals.pop("positivity_margin")
    tolerances = {key: tolerance for key in residuals}
    payload = {
        "kind": group.kind,
        "resolution": rule.resolution,
        "node_count": rule.node_count,
        "positivity_margin": margin,
        "inventory": report.inventory,
    }
    options = {"group": str(group_path) if group_path else builtin_name,
               "resolution": rule.resolution}
    return _emit("haar-audit", options, residuals, tolerances, payload, fmt, out, started)


def _rep_command_options(func):
    for deco in (group_option, builtin_option, rep_option, spin_option, weights_option,
                 resolution_option, tol_option, out_option, format_option):
        func = deco(func)
    # representation file may also be given positionally: `repkit decompose rep.json ...`
    return click.argument("rep_file", required=False, type=click.Path(), default=None)(func)


def _rep_context(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution):
    if rep_file is not None:
        if rep_path is not None:
            raise InputParseError("representation given both positionally and with --rep")
        rep_path = rep_file
    if group_path is None and builtin_name is None:
        # convenience defaults: --spin implies su2, --weights implies circle
        if spin is not None:
            builtin_name = "su2"
        elif weights is not None:
            builtin_name = "circle"
    group = _resolve_group(group_path, builtin_name)
    rep = _resolve_rep(group, rep_path, spin, weights)
    rule = _rule_for(group, resolution)
    options = {
        "group": str(group_path) if group_path else (builtin_name or group.kind),
        "rep": str(rep_path) if rep_path else (f"spin:{spin}" if spin is not None
                                               else f"weights:{weights}"),
        "resolution": rule.resolution,
    }
    return group, rep, rule, options


@main.command("unitarize")
@_rep_command_options
@_wrap
def unitarize_cmd(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution, tol, out, fmt):
    """Average the standard form over the group and change basis to unitary."""
    started = time.perf_counter()
    group, rep, rule, options = _rep_context(rep_file, group_path, builtin_name, rep_path,
                                             spin, weights, resolution)
    result = unitarize(rep, rule)
    base_char = character(rep, rule).values
    new_char = character(result.unitary_rep, rule).values
    char_drift = float(np.abs(new_char - base_char).max())
    tolerance = tol if tol is not None else _default_tol(group)
    residuals = {
        "unitarity": result.unitarity_residual,
        "form_invariance": result.invariance_residual,
        "character_drift": char_drift,
    }
    tolerances = {"unitarity": tolerance, "form_invariance": tolerance, "character_drift": 1e-9}
    payload = {
        "degree": rep.degree,
        "basis_change": matrix_to_json(result.basis_change),
    }
    return _emit("unitarize", options, residuals, tolerances, payload, fmt, out, started)


@main.command("irreducible")
@_rep_command_options
@_wrap
def irreducible_cmd(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution, tol, out, fmt):
    """Scalar-commutant irreducibility test with the invariant-form count.

    The verdict, the dimension, the commutant block and d (the invariant
    forms are its Hermitian elements) all come from one commutant, in a
    unitary basis of the input; its gap to the character norm is a
    residual, so a rule that under-resolves the input exits 2.
    """
    started = time.perf_counter()
    group, rep, rule, options = _rep_context(rep_file, group_path, builtin_name, rep_path,
                                             spin, weights, resolution)
    report = unitary_commutant(rep, rule)
    tolerance = tol if tol is not None else _default_tol(group)
    residuals = {"commutant": report.max_residual,
                 "character_norm_gap": abs(report.dimension - report.character_norm)}
    tolerances = {"commutant": tolerance, "character_norm_gap": MULTIPLICITY_WINDOW}
    payload = {
        "irreducible": report.dimension == 1,
        "commutant": report.to_json_dict(),
        "commutant_dimension": report.dimension,
        "invariant_form_dimension": report.dimension,
        "special": report.dimension == 1,
        "degree": rep.degree,
    }
    return _emit("irreducible", options, residuals, tolerances, payload, fmt, out, started)


@main.command("decompose")
@_rep_command_options
@_wrap
def decompose_cmd(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution, tol, out, fmt):
    """Split a representation into irreducible blocks."""
    started = time.perf_counter()
    group, rep, rule, options = _rep_context(rep_file, group_path, builtin_name, rep_path,
                                             spin, weights, resolution)
    report = decompose(rep, rule)
    total = character(rep, rule).values
    stacked = np.sum([c.values for c in report.block_characters], axis=0)
    char_drift = float(np.abs(stacked - total).max())
    tolerance = tol if tol is not None else _default_tol(group)
    residuals = {"block_leakage": report.residual, "character_sum": char_drift}
    tolerances = {"block_leakage": tolerance, "character_sum": 1e-8}
    payload = report.to_json_dict()
    payload["degree"] = rep.degree
    return _emit("decompose", options, residuals, tolerances, payload, fmt, out, started)


@main.command("characters")
@_rep_command_options
@_wrap
def characters_cmd(rep_file, group_path, builtin_name, rep_path, spin, weights, resolution, tol, out, fmt):
    """Character values of a representation at the rule nodes."""
    started = time.perf_counter()
    group, rep, rule, options = _rep_context(rep_file, group_path, builtin_name, rep_path,
                                             spin, weights, resolution)
    char = character(rep, rule)
    ident = rep.evaluate(group.identity_element())
    identity_defect = float(abs(np.trace(ident) - rep.degree))
    tolerance = tol if tol is not None else _default_tol(group)
    residuals = {"identity_trace": identity_defect}
    payload = {
        "degree": rep.degree,
        "node_count": rule.node_count,
        "values": complex_list_to_json(char.values),
    }
    return _emit("characters", options, residuals, {"identity_trace": tolerance}, payload,
                 fmt, out, started)


@main.command("orthogonality")
@group_option
@builtin_option
@click.option("--rep", "rep_paths", type=click.Path(), multiple=True,
              help="Representation file (repeatable).")
@click.option("--spin", "spins", type=int, multiple=True,
              help="Twice the spin of an su2 irreducible (repeatable).")
@click.option("--weights", "weight_lists", type=str, multiple=True,
              help="Comma-separated circle weights (repeatable).")
@resolution_option
@tol_option
@out_option
@format_option
@_wrap
def orthogonality_cmd(group_path, builtin_name, rep_paths, spins, weight_lists,
                      resolution, tol, out, fmt):
    """Character-orthogonality residual matrix over a family of irreducibles."""
    started = time.perf_counter()
    if group_path is None and builtin_name is None:
        if spins:
            builtin_name = "su2"
        elif weight_lists:
            builtin_name = "circle"
    group = _resolve_group(group_path, builtin_name)
    rule = _rule_for(group, resolution)
    reps = [load_representation(p, group) for p in rep_paths]
    reps += [_resolve_rep(group, None, s, None) for s in spins]
    reps += [_resolve_rep(group, None, None, w) for w in weight_lists]
    if not reps:
        raise InputParseError("at least one representation is required "
                              "(--rep, --spin or --weights)")
    residual_matrix = orthogonality_audit(reps, rule)
    tolerance = tol if tol is not None else (1e-6 if group.kind == "su2" else 1e-10)
    residuals = {"orthogonality": float(residual_matrix.max())}
    payload = {
        "count": len(reps),
        "degrees": [r.degree for r in reps],
        "residual_matrix": real_matrix_to_json(residual_matrix),
    }
    options = {"group": str(group_path) if group_path else builtin_name,
               "resolution": rule.resolution}
    return _emit("orthogonality", options, residuals, {"orthogonality": tolerance}, payload,
                 fmt, out, started)


if __name__ == "__main__":
    main()
