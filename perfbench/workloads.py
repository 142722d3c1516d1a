"""Workload inputs, timed ops and their ground truth.

Every input is generated from the workload seed and every op is checked
against a truth known from how its input was built (a Schur-lemma dimension,
a block pattern, a multiplicity), never against repkit's own output.
``build`` returns the ops in the order one pass runs them.

* su2-highspin: node-heavy.  The axis-angle rule ``haar_rule(su2, 24)`` has
  N = 13 824 nodes and the degrees stay at or below 14, so the averaging
  contraction and ``evaluate_batch`` do almost all of the work.
* finite-regular: degree-heavy and node-light.  The regular representations
  of Z24 and S4 (r = N = 24) give thousands of tiny contractions, an r^2 x r^2
  SVD, deep ``decompose`` recursion and the exact ``fsum`` scalar path.
* cli-oneshot: one ``python -m repkit.cli`` process per call, so import,
  click, loading, serialization and default-resolution rule choice dominate.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repkit as rk
from repkit.cli import EXACT_TOL, SU2_TOL
from repkit.probes import standard_probes, standard_shifts
from repkit import serialize

# Wrong answers the parent code is known to give on these inputs.  They are
# counted as failed ops on every run; any other wrong answer makes the run
# incorrect.  An op listed here that answers correctly simply passes.
KNOWN_DEFECTS = {
    # the res-24 axis-angle rule under-resolves degree-13 products: dim 70
    "commutant[2j=12]",
    # the default su2 resolution 16 under-resolves spin 5: dim 12, exit 2
    "cli:irreducible --spin 5",
}

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call.  ``run`` returns the answer; ``check`` returns a
    failure message, or None when the answer matches the ground truth."""

    name: str            # public function (per-op metric), e.g. "commutant"
    label: str           # instance, e.g. "commutant[2j=6]"
    run: Callable[[], object]
    check: Callable[[object], str | None]
    summary: Callable[[object], object] = field(default=lambda answer: None)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    runner: "CliRunner | None" = None     # set for the subprocess workload


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(salt.encode())])


def random_unitary(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def conditioned_basis(rng, n):
    """A random invertible basis change with condition number at most 3."""
    return random_unitary(rng, n) @ np.diag(rng.uniform(1.0, 3.0, n)) @ random_unitary(rng, n)


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _conjugate_doc(inner: dict, A) -> dict:
    return {"kind": "conjugate", "matrix": serialize.matrix_to_json(A), "inner": inner}


def _within(label: str, values: dict, tol: float) -> str | None:
    bad = {k: v for k, v in values.items() if not v <= tol}
    return f"{label} {bad} above {tol:g}" if bad else None


def _first(*messages):
    return next((m for m in messages if m), None)


def _char_drift(a, b, rule) -> float:
    return float(np.abs(rk.character(a, rule).values - rk.character(b, rule).values).max())


def _decompose_check(rep, rule, sizes, tol):
    def check(report):
        got = sorted(b.degree for b in report.blocks)
        total = np.sum([c.values for c in report.block_characters], axis=0)
        drift = float(np.abs(total - rk.character(rep, rule).values).max())
        return _first(None if got == sorted(sizes) else f"block sizes {got}, expected {sorted(sizes)}",
                      _within("decompose", {"block_leakage": report.residual}, tol),
                      _within("decompose", {"character_sum": drift}, 1e-8))
    return check


def _unitarize_check(rep, rule, tol):
    def check(result):
        return _first(_within("unitarize", {"unitarity": result.unitarity_residual,
                                            "form_invariance": result.invariance_residual}, tol),
                      _within("unitarize", {"character_drift":
                                            _char_drift(rep, result.unitary_rep, rule)}, 1e-9))
    return check


def _commutant_check(expected, tol):
    def check(report):
        return _first(None if report.dimension == expected
                      else f"commutant dimension {report.dimension}, expected {expected}",
                      _within("commutant", {"residual": report.max_residual}, tol))
    return check


def _equals(what, expected):
    return lambda got: None if got == expected else f"{what} {got}, expected {expected}"


def _library_ops(tag, rep, rule, *, commutant_dim, form_dim, blocks, tol):
    return [
        Op("commutant", f"commutant[{tag}]", lambda: rk.commutant(rep, rule),
           _commutant_check(commutant_dim, tol), lambda r: r.dimension),
        Op("invariant_form_space", f"invariant_form_space[{tag}]",
           lambda: rk.invariant_form_space(rep, rule)[1], _equals("d", form_dim), lambda d: d),
        Op("unitarize", f"unitarize[{tag}]", lambda: rk.unitarize(rep, rule),
           _unitarize_check(rep, rule, tol)),
        Op("decompose", f"decompose[{tag}]", lambda: rk.decompose(rep, rule),
           _decompose_check(rep, rule, blocks, tol), lambda r: sorted(b.degree for b in r.blocks)),
        Op("homomorphism_audit", f"homomorphism_audit[{tag}]", lambda: rk.homomorphism_audit(rep),
           lambda defect: _within("homomorphism_audit", {"defect": defect}, tol)),
    ]


# ---------------------------------------------------------------- su2-highspin

SU2_RESOLUTION = 24
SUM_SPINS = (1, 2, 3, 4)        # twice the spins of 1/2 + 1 + 3/2 + 2, degree 14


def build_su2_highspin(seed: int, workdir: Path) -> Workload:
    group = rk.builtin_group("su2")
    rule = rk.haar_rule(group, SU2_RESOLUTION)
    rng = _rng(seed, "su2-highspin")

    def spin(two_j):
        doc = _conjugate_doc({"kind": "su2_spin", "two_j": two_j}, random_unitary(rng, two_j + 1))
        return rk.load_representation(_write_json(workdir / f"spin{two_j}.json", doc), group)

    spins = {two_j: spin(two_j) for two_j in (0, 1, 2, 3, 4, 5, 6, 9, 12)}
    parts = [{"kind": "su2_spin", "two_j": t} for t in SUM_SPINS]
    degree = sum(t + 1 for t in SUM_SPINS)
    doc = _conjugate_doc({"kind": "direct_sum", "parts": parts}, conditioned_basis(rng, degree))
    mixed = rk.load_representation(_write_json(workdir / "mixed.json", doc), group)
    shifts = standard_shifts(group, seed=seed)
    pair_seed = int(rng.integers(2 ** 31))
    family = [spins[t] for t in range(7)]
    tag = "conj(1/2+1+3/2+2)"

    def axiom_check(report):
        residuals = report.as_dict()
        margin = residuals.pop("positivity_margin")
        return _first(_within("axiom_audit", residuals, SU2_TOL),
                      None if margin > 0 else f"positivity margin {margin}")

    ops = [
        Op("commutant", f"commutant[2j={t}]", lambda t=t: rk.commutant(spins[t], rule),
           _commutant_check(1, SU2_TOL), lambda r: r.dimension)
        for t in (6, 12)
    ] + [
        Op("invariant_form_space", f"invariant_form_space[2j={t}]",
           lambda t=t: rk.invariant_form_space(spins[t], rule)[1], _equals("d", 1), lambda d: d)
        for t in (6, 9)
    ] + [
        Op("unitarize", f"unitarize[{tag}]", lambda: rk.unitarize(mixed, rule),
           _unitarize_check(mixed, rule, SU2_TOL)),
        Op("decompose", f"decompose[{tag}]", lambda: rk.decompose(mixed, rule),
           _decompose_check(mixed, rule, [t + 1 for t in SUM_SPINS], SU2_TOL),
           lambda r: sorted(b.degree for b in r.blocks)),
        Op("orthogonality_audit", "orthogonality_audit[2j=0..6]",
           lambda: rk.orthogonality_audit(family, rule),
           lambda m: _within("orthogonality_audit", {"max": float(m.max())}, 1e-6)),
        Op("axiom_audit", "axiom_audit[su2]",
           lambda: rk.axiom_audit(rule, standard_probes(group), shifts), axiom_check),
    ] + [
        Op("homomorphism_audit", f"homomorphism_audit[2j={t}]",
           lambda t=t: rk.homomorphism_audit(spins[t], seed=pair_seed),
           lambda defect: _within("homomorphism_audit", {"defect": defect}, SU2_TOL))
        for t in (2, 6)
    ]
    return Workload("su2-highspin", ops)


# -------------------------------------------------------------- finite-regular

S4_BLOCKS = [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]


def s4_table() -> np.ndarray:
    """Multiplication table of S4 from permutation composition, identity first."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])


def regular_matrices(table: np.ndarray) -> np.ndarray:
    """L(g) e_h = e_{gh}: one permutation matrix per group element."""
    n = len(table)
    mats = np.zeros((n, n, n))
    for g in range(n):
        mats[g, table[g], np.arange(n)] = 1.0
    return mats


def build_finite_regular(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "finite-regular")
    z = np.arange(24)
    tables = {"z24": (z[:, None] + z[None, :]) % 24, "s4": s4_table(),
              "s3": rk.symmetric_group_3().mult_table}
    groups, reps, rules = {}, {}, {}
    for name, table in tables.items():
        group_path = _write_json(workdir / f"{name}.json",
                                 {"kind": "finite", "mult_table": table.tolist(), "name": name})
        groups[name] = rk.load_group(group_path)
        A = conditioned_basis(rng, len(table))
        mats = A @ regular_matrices(table) @ np.linalg.inv(A)
        mats[0] = np.eye(len(table))   # exact identity, as the loader requires
        doc = {"kind": "finite_table", "matrices": [serialize.matrix_to_json(m) for m in mats]}
        reps[name] = rk.load_representation(_write_json(workdir / f"{name}_regular.json", doc),
                                            groups[name])
        rules[name] = rk.haar_rule(groups[name], 1)

    ops = _library_ops("z24", reps["z24"], rules["z24"], commutant_dim=24, form_dim=24,
                       blocks=[1] * 24, tol=EXACT_TOL)
    ops += _library_ops("s4", reps["s4"], rules["s4"], commutant_dim=24, form_dim=24,
                        blocks=S4_BLOCKS, tol=EXACT_TOL)
    for irrep, label, expected in zip(rk.s3_irreps(groups["s3"]), ("trivial", "sign", "standard"),
                                      (1, 1, 2)):
        ops.append(Op("multiplicity", f"multiplicity[s3 {label}]",
                      lambda irrep=irrep: rk.multiplicity(reps["s3"], irrep, rules["s3"]),
                      _equals("multiplicity", expected), lambda m: m))
    return Workload("finite-regular", ops)


# ----------------------------------------------------------------- cli-oneshot

SU2_ALGEBRA = [[0, 1, 2, float(np.sqrt(2.0))], [0, 2, 1, -float(np.sqrt(2.0))],
               [1, 2, 0, float(np.sqrt(2.0))]]
SL2_ALGEBRA = [[0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]]
CHARACTER_WEIGHTS = (1, -1, 3)
CIRCLE_RESOLUTION = 64          # the CLI default for the circle


def algebra_in_basis(rows, M) -> dict:
    """Structure constants of the same algebra in the basis e'_a = M_ai e_i."""
    n = len(M)
    c = np.zeros((n, n, n))
    for a, b, k, value in rows:
        c[a, b, k] += value
        c[b, a, k] -= value
    moved = np.einsum("ai,bj,ijl,lk->abk", M, M, c, np.linalg.inv(M))
    return {"dim": n, "structure_constants": [[a, b, k, float(moved[a, b, k])]
                                              for a in range(n) for b in range(a + 1, n)
                                              for k in range(n)]}


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


class CliRunner:
    """Runs one CLI process per call.  With ``trace_dir`` set, each process
    goes through the benchmark's launcher and leaves a span file there."""

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.trace_dir: Path | None = None
        self.span_files: list[Path] = []

    def __call__(self, args) -> CliResult:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repkit.cli", *args]
        else:
            span_file = self.trace_dir / f"cli-{len(self.span_files)}.json"
            self.span_files.append(span_file)
            cmd = [sys.executable, str(Path(__file__).with_name("launch.py")), str(span_file), *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli_check(expect, first_output: dict, repeat: bool):
    """Exit 0, status ok, the expected payload, and (on the repeat) stdout
    byte-identical to the first run of the same pass."""
    def check(result: CliResult):
        try:
            report = json.loads(result.stdout)
        except ValueError:
            return f"exit {result.code}, no JSON report: {result.stderr.decode()[-200:]!r}"
        messages = [expect(report["payload"]),
                    None if result.code == 0 else f"exit {result.code}",
                    None if report["status"] == "ok" else f"status {report['status']}"]
        if repeat:
            messages.append(None if result.stdout == first_output.get("stdout")
                            else "JSON report differs from the first run")
        else:
            first_output["stdout"] = result.stdout
        return "; ".join(m for m in messages if m) or None
    return check


def _payload_equals(**expected):
    def expect(payload):
        wrong = {k: payload.get(k) for k, v in expected.items() if payload.get(k) != v}
        return f"payload {wrong}, expected {expected}" if wrong else None
    return expect


def build_cli_oneshot(seed: int, workdir: Path, root: Path, env: dict) -> Workload:
    rng = _rng(seed, "cli-oneshot")

    def real_basis(n):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return Q @ np.diag(rng.uniform(1.0, 2.0, n))

    su2_path = _write_json(workdir / "su2_algebra.json", algebra_in_basis(SU2_ALGEBRA, real_basis(3)))
    sl2_path = _write_json(workdir / "sl2_algebra.json", algebra_in_basis(SL2_ALGEBRA, real_basis(3)))
    s3 = rk.symmetric_group_3()
    A = conditioned_basis(rng, 6)
    mats = A @ regular_matrices(s3.mult_table) @ np.linalg.inv(A)
    mats[0] = np.eye(6)
    s3_path = _write_json(workdir / "s3_regular.json",
                          {"kind": "finite_table", "matrices": [serialize.matrix_to_json(m) for m in mats]})

    angles = 2 * np.pi * np.arange(CIRCLE_RESOLUTION) / CIRCLE_RESOLUTION
    expected_chars = np.exp(1j * np.outer(angles, CHARACTER_WEIGHTS)).sum(axis=1)

    def characters_expect(payload):
        got = np.array([complex(re, im) for re, im in payload["values"]])
        if got.shape != expected_chars.shape:
            return f"{got.size} character values, expected {expected_chars.size}"
        err = float(np.abs(got - expected_chars).max())
        return None if err <= 1e-12 else f"character values off by {err:.3e}"

    def orthogonality_expect(payload):
        worst = max(max(row) for row in payload["residual_matrix"])
        return _first(_equals("count", 5)(payload["count"]),
                      _within("orthogonality", {"max": worst}, 1e-6))

    def rel(path):
        return str(path.relative_to(root))

    irreducible = _payload_equals(irreducible=True, commutant_dimension=1, invariant_form_dimension=1)
    commands = [
        (["analyze-algebra", rel(su2_path)], _payload_equals(classification="compact_semisimple")),
        (["analyze-algebra", rel(sl2_path)], _payload_equals(classification="not_compact_type")),
        (["haar-audit", "--builtin", "s3"], _payload_equals(kind="finite")),
        (["haar-audit", "--builtin", "circle"], _payload_equals(kind="circle")),
        (["haar-audit", "--builtin", "su2"], _payload_equals(kind="su2")),
        (["irreducible", "--spin", "2"], irreducible),
        (["irreducible", "--spin", "5"], irreducible),
        (["unitarize", "--spin", "3"], _payload_equals(degree=4)),
        (["decompose", "--builtin", "s3", "--rep", rel(s3_path)],
         lambda p: _equals("sorted block degrees", [1, 1, 2, 2])(sorted(p["block_degrees"]))),
        (["characters", "--weights", ",".join(map(str, CHARACTER_WEIGHTS))], characters_expect),
        (["orthogonality"] + [x for t in range(5) for x in ("--spin", str(t))], orthogonality_expect),
    ]
    runner = CliRunner(root, env)
    ops = []
    for args, expect in commands:
        label = "cli:" + " ".join(a if not a.startswith(".") else Path(a).name for a in args)
        if args[0] == "orthogonality":
            label = "cli:orthogonality --spin 0..4"
        first_output: dict = {}
        argv = args + ["--format", "json"]
        for repeat in (False, True):
            ops.append(Op("cli", label, lambda argv=argv: runner(argv),
                          _cli_check(expect, first_output, repeat),
                          lambda r: (r.code, r.stdout)))
    return Workload("cli-oneshot", ops, runner)


def build(name: str, seed: int, workdir: Path, root: Path, env: dict) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "su2-highspin":
        return build_su2_highspin(seed, workdir)
    if name == "finite-regular":
        return build_finite_regular(seed, workdir)
    if name == "cli-oneshot":
        return build_cli_oneshot(seed, workdir, root, env)
    raise ValueError(f"unknown workload {name!r}")
