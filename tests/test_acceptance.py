"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `-s` to see them all)
and then asserts, so a red criterion is visible both ways.  Tolerances are
pinned here, not configurable.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

import repkit as rk
from repkit.cli import main as cli_main
from repkit.probes import standard_probes, standard_shifts
from repkit.serialize import matrix_to_json

SQRT2 = np.sqrt(2.0)


def _report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{flag}] criterion {number}: {description} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def su2_class_angles(rule):
    traces = np.einsum("nii->n", rule.nodes).real
    return 2.0 * np.arccos(np.clip(traces / 2.0, -1.0, 1.0))


def random_invertible(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.5 * np.eye(n)


def test_criterion_1_su2_orthonormality():
    started = time.perf_counter()
    alg = rk.su2_standard()
    ok = np.abs(alg.gram_defining - np.eye(3)).max() <= 1e-14

    # hand-built adjoint oracle from the bracket table
    # [H,E] = sqrt2 F, [H,F] = -sqrt2 E, [E,F] = sqrt2 H
    ad_H = np.array([[0, 0, 0], [0, 0, -SQRT2], [0, SQRT2, 0]])
    ad_E = np.array([[0, 0, SQRT2], [0, 0, 0], [-SQRT2, 0, 0]])
    ad_F = np.array([[0, -SQRT2, 0], [SQRT2, 0, 0], [0, 0, 0]])
    ads = [ad_H, ad_E, ad_F]
    oracle = np.array([[-np.trace(a @ b) for b in ads] for a in ads])
    ok = ok and np.abs(oracle - np.diag([4.0, 4.0, 4.0])).max() <= 1e-12

    report = rk.trace_form(alg.to_spec())
    ok = ok and np.abs(report.gram - oracle).max() <= 1e-12
    _report(1, "su(2) basis orthonormal; adjoint-trace gram = diag(4,4,4)",
            ok, time.perf_counter() - started, 1.0)


def test_criterion_2_compactness_classification():
    started = time.perf_counter()
    su2_report = rk.trace_form(rk.su2_standard().to_spec())

    sl2 = np.zeros((3, 3, 3))
    sl2[0, 1, 1], sl2[1, 0, 1] = 2.0, -2.0
    sl2[0, 2, 2], sl2[2, 0, 2] = -2.0, 2.0
    sl2[1, 2, 0], sl2[2, 1, 0] = 1.0, -1.0
    sl2_report = rk.trace_form(rk.LieAlgebraSpec(sl2))

    abelian_report = rk.trace_form(rk.LieAlgebraSpec(np.zeros((3, 3, 3))))

    ok = su2_report.classification == "compact_semisimple"
    ok = ok and sl2_report.classification == "not_compact_type"
    ok = ok and abelian_report.classification == "compact_with_center"
    center = np.column_stack(abelian_report.center_basis) if abelian_report.center_basis else None
    ok = ok and center is not None and np.linalg.matrix_rank(center) == 3
    _report(2, "classification: su(2), sl(2,R), abelian R^3",
            ok, time.perf_counter() - started, 1.0)


def test_criterion_3_haar_axioms():
    started = time.perf_counter()
    ok = True
    for name in ("z2", "z3", "s3"):
        group = rk.builtin_group(name)
        rule = rk.haar_rule(group, 1)
        audit = rk.axiom_audit(rule, standard_probes(group), standard_shifts(group))
        ok = ok and audit.normalization == 0.0
        ok = ok and audit.translation == 0.0 and audit.inversion == 0.0
        ok = ok and audit.positivity_margin >= 0.0

    circle = rk.builtin_group("circle")
    audit = rk.axiom_audit(rk.haar_rule(circle, 64), standard_probes(circle),
                           standard_shifts(circle))
    ok = ok and max(audit.normalization, audit.translation, audit.inversion) <= 1e-12

    su2 = rk.builtin_group("su2")
    probes, shifts = standard_probes(su2), standard_shifts(su2)
    audit16 = rk.axiom_audit(rk.haar_rule(su2, 16), probes, shifts)
    audit8 = rk.axiom_audit(rk.haar_rule(su2, 8), probes, shifts)
    ok = ok and max(audit16.normalization, audit16.translation, audit16.inversion) <= 1e-6
    ok = ok and audit8.translation > audit16.translation
    _report(3, "invariant-integral axioms: finite exact, circle 1e-12, su2 1e-6 and "
               "monotone in resolution", ok, time.perf_counter() - started, 10.0)


def _conjugated_unitary_stock():
    """20 unitary representations, one random conjugator each."""
    rng = np.random.default_rng(2024)
    z3 = rk.builtin_group("z3")
    s3 = rk.builtin_group("s3")
    circle = rk.builtin_group("circle")
    su2 = rk.builtin_group("su2")
    stock = []

    z3_rule = rk.haar_rule(z3, 1)
    for exps in ([0], [1], [2], [0, 1], [1, 2]):
        stock.append((rk.cyclic_phase_rep(z3, exps), z3_rule, 1e-8))

    s3_rule = rk.haar_rule(s3, 1)
    trivial, sign, standard = rk.s3_irreps(s3)
    for rep in (trivial, sign, standard, rk.direct_sum(trivial, sign),
                rk.direct_sum(standard, sign)):
        stock.append((rep, s3_rule, 1e-8))

    circle_rule = rk.haar_rule(circle, 64)
    for ws in ([0], [1], [-1], [1, -1], [2, 0]):
        stock.append((rk.CircleWeightRepresentation(circle, ws), circle_rule, 1e-8))

    su2_rule = rk.haar_rule(su2, 16)
    half, one = rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2)
    zero = rk.spin_irrep(0, su2)
    for rep in (zero, half, one, rk.direct_sum(zero, half), rk.direct_sum(half, one)):
        stock.append((rep, su2_rule, 1e-5))

    out = []
    for rep, rule, tol in stock:
        out.append((rk.conjugate(rep, random_invertible(rng, rep.degree)), rule, tol))
    return out


def test_criterion_4_weyl_unitarization():
    started = time.perf_counter()
    stock = _conjugated_unitary_stock()
    ok = len(stock) == 20
    for rep, rule, tol in stock:
        result = rk.unitarize(rep, rule)
        ok = ok and result.unitarity_residual <= tol
        drift = np.abs(rk.character(rep, rule).values
                       - rk.character(result.unitary_rep, rule).values).max()
        ok = ok and drift <= 1e-9

    # 2x2 hand oracle over Z2: H = (I + M*M)/2 = diag(5/8, 5/2)
    z2 = rk.builtin_group("z2")
    M = np.array([[0.0, 2.0], [0.5, 0.0]], dtype=complex)
    rep = rk.FiniteTableRepresentation(z2, np.stack([np.eye(2, dtype=complex), M]))
    form = rk.averaged_form(rep, rk.haar_rule(z2, 1))
    ok = ok and np.abs(form.gram - np.diag([0.625, 2.5])).max() <= 1e-12
    _report(4, "20 conjugated unitary reps unitarize (chars preserved); Z2 hand oracle",
            ok, time.perf_counter() - started, 30.0)


def test_criterion_5_schur_dichotomy():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    circle = rk.builtin_group("circle")
    s3 = rk.builtin_group("s3")
    su2 = rk.builtin_group("su2")
    trivial, sign, standard = rk.s3_irreps(s3)
    cases = [
        (rk.CircleWeightRepresentation(circle, [1]), rk.CircleWeightRepresentation(circle, [2]),
         rk.haar_rule(circle, 64), 1e-10),
        (rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2), rk.haar_rule(su2, 16), 1e-6),
        (trivial, sign, rk.haar_rule(s3, 1), 1e-10),
        (trivial, standard, rk.haar_rule(s3, 1), 1e-10),
        (sign, standard, rk.haar_rule(s3, 1), 1e-10),
    ]
    ok = True
    for phi, psi, rule, tol in cases:
        for _ in range(10):
            A = rng.normal(size=(phi.degree, psi.degree)) \
                + 1j * rng.normal(size=(phi.degree, psi.degree))
            T = rk.averaged_intertwiner(phi, psi, A, rule)
            ok = ok and np.abs(T).max() <= tol
    _report(5, "averaged intertwiners between non-equivalent irreducibles vanish",
            ok, time.perf_counter() - started, 10.0)


def test_criterion_6_scalar_commutant():
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    s3 = rk.builtin_group("s3")
    su2 = rk.builtin_group("su2")
    circle = rk.builtin_group("circle")
    s3_rule = rk.haar_rule(s3, 1)
    su2_rule = rk.haar_rule(su2, 16)
    circle_rule = rk.haar_rule(circle, 64)

    ok = True
    cases = [
        (rk.s3_standard(s3), s3_rule, 1e-10),
        (rk.CircleWeightRepresentation(circle, [1]), circle_rule, 1e-10),
        (rk.spin_irrep(1, su2), su2_rule, 1e-6),
    ]
    for rep, rule, tol in cases:
        r = rep.degree
        for _ in range(10):
            A = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
            T = rk.averaged_intertwiner(rep, rep, A, rule)
            ok = ok and np.abs(T - (np.trace(A) / r) * np.eye(r)).max() <= tol
        ok = ok and rk.commutant(rep, rule).dimension == 1

    from conftest import commutant_dim_bruteforce
    half = rk.spin_irrep(0.5, su2)
    one = rk.spin_irrep(1, su2)
    doubled = rk.direct_sum(half, half)
    mixed = rk.direct_sum(half, one)
    small = rk.haar_rule(su2, 6)
    ok = ok and rk.commutant(doubled, su2_rule).dimension == 4
    ok = ok and commutant_dim_bruteforce(doubled, small) == 4
    ok = ok and rk.commutant(mixed, su2_rule).dimension == 2
    ok = ok and commutant_dim_bruteforce(mixed, small) == 2
    _report(6, "self-intertwiners are tr(A)/r * I; commutant dims 1 / 4 / 2 match brute force",
            ok, time.perf_counter() - started, 10.0)


def test_criterion_7_character_orthogonality():
    started = time.perf_counter()
    circle = rk.builtin_group("circle")
    s3 = rk.builtin_group("s3")
    su2 = rk.builtin_group("su2")

    circle_rule = rk.haar_rule(circle, 64)
    reps = [rk.CircleWeightRepresentation(circle, [k]) for k in (0, 1, 2)]
    ok = rk.orthogonality_audit(reps, circle_rule).max() <= 1e-12

    s3_rule = rk.haar_rule(s3, 1)
    ok = ok and rk.orthogonality_audit(rk.s3_irreps(s3), s3_rule).max() <= 1e-12
    std_char = rk.character(rk.s3_standard(s3), s3_rule)
    ok = ok and rk.character_inner(std_char, std_char, s3_rule) == 1.0  # (4+1+1)/6 exactly

    su2_rule = rk.haar_rule(su2, 16)
    spins = [rk.spin_irrep(j, su2) for j in (0, 0.5, 1)]
    ok = ok and rk.orthogonality_audit(spins, su2_rule).max() <= 1e-6
    _report(7, "character Gram = identity: circle/S3 at 1e-12 (S3 diagonal exact), su2 at 1e-6",
            ok, time.perf_counter() - started, 10.0)


def test_criterion_8_matrix_element_orthogonality():
    started = time.perf_counter()
    su2 = rk.builtin_group("su2")
    s3 = rk.builtin_group("s3")
    su2_rule = rk.haar_rule(su2, 16)
    s3_rule = rk.haar_rule(s3, 1)

    ok = rk.matrix_element_audit(rk.spin_irrep(0.5, su2), su2_rule) <= 1e-8
    ok = ok and rk.matrix_element_audit(rk.s3_standard(s3), s3_rule) <= 1e-12

    # diagonal entries carry the 1/r value with r = 2
    for rep, rule, tol in ((rk.spin_irrep(0.5, su2), su2_rule, 1e-8),
                           (rk.s3_standard(s3), s3_rule, 1e-12)):
        flat = rep.evaluate_batch(rule.nodes).reshape(rule.node_count, 4)
        for p in range(4):
            diag = rk.groups.integrate_values(rule, flat[:, p] * np.conj(flat[:, p]))
            ok = ok and abs(diag - 0.5) <= tol
    _report(8, "matrix-element orthogonality at 1/r with r = 2",
            ok, time.perf_counter() - started, 5.0)


def test_criterion_9_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(99)

    z2 = rk.builtin_group("z2")
    z2_rule = rk.haar_rule(z2, 1)
    triv = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1)] * 2).astype(complex))
    sign = rk.FiniteTableRepresentation(z2, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    mixer = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    premixed = rk.conjugate(rk.DirectSumRepresentation([triv, sign, sign]), mixer)
    report = rk.decompose(premixed, z2_rule)
    ok = sorted(b.degree for b in report.blocks) == [1, 1, 1]
    chars = sorted(tuple(np.round(c.values.real, 8)) for c in report.block_characters)
    ok = ok and chars == [(1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
    total = rk.character(premixed, z2_rule).values
    ok = ok and np.abs(np.sum([c.values for c in report.block_characters], axis=0)
                       - total).max() <= 1e-8

    su2 = rk.builtin_group("su2")
    su2_rule = rk.haar_rule(su2, 16)
    base = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(1, su2))
    rep = rk.conjugate(base, random_invertible(rng, 5))
    report = rk.decompose(rep, su2_rule)
    ok = ok and sorted(b.degree for b in report.blocks) == [2, 3]
    t = su2_class_angles(su2_rule)
    for block, char in zip(report.blocks, report.block_characters):
        expected = 2.0 * np.cos(t / 2.0) if block.degree == 2 else 1.0 + 2.0 * np.cos(t)
        ok = ok and np.abs(char.values - expected).max() <= 1e-8
    total = rk.character(rep, su2_rule).values
    ok = ok and np.abs(np.sum([c.values for c in report.block_characters], axis=0)
                       - total).max() <= 1e-8
    _report(9, "decomposition: Z2 {1,1,1} with known characters; su2 {2,3} with spin characters",
            ok, time.perf_counter() - started, 20.0)


def test_criterion_10_specialness_and_cli(tmp_path):
    started = time.perf_counter()
    su2 = rk.builtin_group("su2")
    s3 = rk.builtin_group("s3")
    circle = rk.builtin_group("circle")
    su2_rule = rk.haar_rule(su2, 16)
    s3_rule = rk.haar_rule(s3, 1)
    circle_rule = rk.haar_rule(circle, 64)

    ok = True
    irreducibles = [
        (rk.spin_irrep(0, su2), su2_rule), (rk.spin_irrep(0.5, su2), su2_rule),
        (rk.spin_irrep(1, su2), su2_rule),
        (rk.CircleWeightRepresentation(circle, [1]), circle_rule),
    ] + [(rep, s3_rule) for rep in rk.s3_irreps(s3)]
    for rep, rule in irreducibles:
        _, d = rk.invariant_form_space(rep, rule)
        ok = ok and d == 1

    doubled = rk.direct_sum(rk.spin_irrep(0.5, su2), rk.spin_irrep(0.5, su2))
    _, d4 = rk.invariant_form_space(doubled, su2_rule)
    ok = ok and d4 == 4

    # CLI: exit 0 and byte-identical JSON on repeated runs
    std = rk.s3_standard(s3)
    rep_file = tmp_path / "s3_std.json"
    rep_file.write_text(json.dumps({
        "kind": "finite_table",
        "matrices": [matrix_to_json(std.table[k]) for k in range(6)]}))
    mixed_file = tmp_path / "z2_mixed.json"
    mixed_file.write_text(json.dumps({
        "kind": "conjugate",
        "matrix": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "inner": {"kind": "direct_sum", "parts": [
            {"kind": "finite_table", "matrices": [matrix_to_json(np.eye(1))] * 2},
            {"kind": "finite_table",
             "matrices": [matrix_to_json(np.eye(1)), matrix_to_json(-np.eye(1))]}]}}))
    z2_file = tmp_path / "z2.json"
    z2_file.write_text(json.dumps({"kind": "finite", "mult_table": [[0, 1], [1, 0]]}))

    runner = CliRunner()
    invocations = [
        ["irreducible", "--spin", "2", "--resolution", "12"],
        ["irreducible", "--builtin", "s3", "--rep", str(rep_file)],
        ["decompose", "--group", str(z2_file), "--rep", str(mixed_file)],
        ["decompose", "--builtin", "s3", "--rep", str(rep_file)],
        ["unitarize", "--group", str(z2_file), "--rep", str(mixed_file)],
        ["unitarize", "--spin", "1", "--resolution", "12"],
    ]
    for k, args in enumerate(invocations):
        out_a = tmp_path / f"a{k}.json"
        out_b = tmp_path / f"b{k}.json"
        first = runner.invoke(cli_main, args + ["--out", str(out_a)])
        second = runner.invoke(cli_main, args + ["--out", str(out_b)])
        ok = ok and first.exit_code == 0 and second.exit_code == 0
        ok = ok and out_a.read_bytes() == out_b.read_bytes()
    _report(10, "d = 1 for builtin irreducibles, d = 4 doubled; CLI exit 0 and "
                "byte-identical JSON", ok, time.perf_counter() - started, 5.0)
