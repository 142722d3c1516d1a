import itertools
import math

import numpy as np
import pytest

import repkit as rk
from repkit.probes import ExpIndexProbe, TrigProbe, standard_probes, standard_shifts

from conftest import nodes_list


# --- group validation -------------------------------------------------------

def test_finite_group_builtins(z2, z3, s3):
    assert z2.order == 2 and z3.order == 3 and s3.order == 6
    assert s3.identity_index == 0


def test_latin_square_rejected():
    with pytest.raises(ValueError, match="row 0"):
        rk.FiniteGroup([[0, 0], [1, 1]])


def test_missing_identity_rejected():
    # Latin square of x*y = 2x+2y mod 3: no row is the identity row
    with pytest.raises(ValueError, match="identity"):
        rk.FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def test_wrong_declared_identity_rejected():
    # valid group table whose identity sits at index 1, declared as 0
    with pytest.raises(ValueError, match="identity"):
        rk.FiniteGroup([[1, 0], [0, 1]], identity=0)


def test_wrong_declared_inverse_rejected():
    with pytest.raises(ValueError, match="inverse"):
        rk.FiniteGroup([[0, 1], [1, 0]], inverse=[1, 0])


@pytest.mark.parametrize("kwargs, where", [
    ({"mult_table": [[0, 1.7], [1, 0]]}, r"mult_table\[0\]\[1\]"),
    ({"mult_table": [[0, True], [1, 0]]}, r"mult_table\[0\]\[1\]"),
    ({"mult_table": np.array([[0.0, 1.0], [1.0, 0.0]])}, r"mult_table\[0\]\[0\]"),
    ({"mult_table": [[0, 1], [1, 0]], "identity": 0.0}, "identity"),
    ({"mult_table": [[0, 1], [1, 0]], "inverse": [0, "1"]}, r"inverse\[1\]"),
])
def test_finite_group_refuses_non_integer_entries(kwargs, where):
    # the constructor used to cast each of these to Z2; files and library
    # calls now share its one check
    with pytest.raises(ValueError, match=where + " must be an integer"):
        rk.FiniteGroup(**kwargs)


def test_finite_group_takes_integer_arrays_and_scalars():
    z2 = rk.FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.int32), identity=np.int64(0), inverse=(0, 1))
    assert z2.order == 2 and z2.identity_index == 0


def test_associativity_rejected():
    # order-5 loop: Latin square with two-sided identity and inverses
    # (every element is an involution) but not associative
    table = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    with pytest.raises(ValueError, match="associative"):
        rk.FiniteGroup(table)


def test_group_ops_finite(s3):
    for g in s3.elements():
        assert s3.multiply(g, s3.inverse(g)) == s3.identity_index
        assert s3.multiply(s3.identity_index, g) == g


def test_group_ops_circle(circle):
    assert abs(circle.multiply(3 * np.pi / 2, 3 * np.pi / 2) - np.pi) <= 1e-12
    assert circle.inverse(0.0) == 0.0
    assert abs(circle.multiply(1.25, circle.inverse(1.25))) <= 1e-12


def test_group_ops_su2(su2):
    rng = np.random.default_rng(5)
    for U in rk.enumerate_or_sample(su2, 5, seed=3):
        prod = su2.multiply(U, su2.inverse(U))
        assert np.abs(prod - np.eye(2)).max() <= 1e-10
    # inverse is the conjugate transpose, checked by multiplication
    U = rk.enumerate_or_sample(su2, 1, seed=9)[0]
    assert np.abs(su2.inverse(U) - U.conj().T).max() == 0.0
    with pytest.raises(rk.KindMismatchError):
        su2.multiply(U, np.eye(3))


def test_su2_long_product_chain_stays_on_group(su2):
    U = rk.enumerate_or_sample(su2, 1, seed=13)[0]
    acc = su2.identity_element()
    for _ in range(500):
        acc = su2.multiply(acc, U)
    assert np.abs(acc.conj().T @ acc - np.eye(2)).max() <= 1e-10
    assert abs(np.linalg.det(acc) - 1) <= 1e-10


def test_kind_mismatch_on_finite(z2):
    with pytest.raises(rk.KindMismatchError):
        z2.multiply(0, 5)
    with pytest.raises(rk.KindMismatchError):
        z2.multiply(0.5, 1)


# --- Haar rules --------------------------------------------------------------

def test_haar_rule_finite(z2):
    rule = rk.haar_rule(z2, 1)
    assert list(rule.nodes) == [0, 1]
    assert np.allclose(rule.weights, 0.5)


def test_haar_rule_circle(circle):
    rule = rk.haar_rule(circle, 4)
    assert np.allclose(rule.nodes, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(rule.weights, 0.25)


@pytest.mark.parametrize("kind,resolution", [("z3", 1), ("circle", 64), ("su2", 8), ("su2", 16)])
def test_weights_normalized_and_positive(kind, resolution):
    rule = rk.haar_rule(rk.builtin_group(kind), resolution)
    assert (rule.weights > 0).all()
    assert abs(math.fsum(rule.weights) - 1.0) <= 1e-14


def test_su2_rule_nodes_are_group_elements(su2):
    rule = rk.haar_rule(su2, 4)
    for U in nodes_list(rule):
        assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(U) - 1.0) <= 1e-12


def test_haar_rules_compare_and_hash_by_identity(circle):
    # two rules with equal arrays: == neither raises on the array fields nor
    # calls them equal; same_rule compares contents
    r1, r2 = rk.haar_rule(circle, 4), rk.haar_rule(circle, 4)
    assert r1 == r1 and not (r1 == r2) and r1 != r2
    assert hash(r1) == hash(r1) and len({r1, r2, r1}) == 2
    assert r1.same_rule(r2)


def test_iter_nodes_yields_the_su2_node_array(su2):
    rule = rk.haar_rule(su2, 4)
    nodes = list(rule.iter_nodes())
    assert len(nodes) == rule.node_count
    assert all(U.shape == (2, 2) and np.array_equal(U, rule.nodes[i]) for i, U in enumerate(nodes))
    # the per-node path of integrate_matrix sums the same stack as the
    # batched one, to the byte
    F = lambda U: U @ U + np.diag([1.0, 2.0])  # noqa: E731
    stacked = np.stack([F(rule.nodes[i]) for i in range(rule.node_count)])
    assert rk.integrate_matrix(rule, F).tobytes() == rk.groups.integrate_stacked(rule, stacked).tobytes()


def test_invalid_resolution(circle):
    with pytest.raises(rk.InvalidResolutionError):
        rk.haar_rule(circle, 0)
    with pytest.raises(rk.InvalidResolutionError):
        rk.haar_rule(circle, -3)


@pytest.mark.parametrize("name, count", [("circle", 10 ** 20), ("su2", 10 ** 60)], ids=["circle", "su2"])
def test_a_rule_that_cannot_be_allocated_is_refused_with_its_node_count(name, count):
    # numpy refuses these sizes before it allocates anything
    with pytest.raises(rk.InvalidResolutionError, match=f"a rule of {count} nodes"):
        rk.haar_rule(rk.builtin_group(name), 10 ** 20)


def test_haar_rule_refuses_nodes_that_do_not_match_its_weights(su2, circle):
    # 100 nodes against 512 weights used to build, and commutant then
    # failed inside numpy; the node array gets its group kind's O(1)
    # check, as a batch of nodes does
    rule = rk.haar_rule(su2, 8)
    for nodes, weights in [(rule.nodes[:100], rule.weights), (rule.nodes, rule.weights[None])]:
        with pytest.raises(rk.ShapeMismatchError, match="one weight per node"):
            rk.HaarRule(group=su2, nodes=nodes, weights=weights, resolution=8)
    with pytest.raises(rk.ShapeMismatchError, match="one weight per node"):
        rk.HaarRule(group=circle, nodes=np.array(0.5), weights=np.ones(1), resolution=1)
    for nodes in [rule.nodes[0], rule.nodes[:, 0], rule.nodes.real > 0]:
        with pytest.raises(rk.KindMismatchError):
            rk.HaarRule(group=su2, nodes=nodes, weights=rule.weights, resolution=8)
    with pytest.raises(rk.KindMismatchError):
        rk.HaarRule(group=circle, nodes=np.array(["0.5"]), weights=np.ones(1), resolution=1)


# --- integration -------------------------------------------------------------

def test_integrate_constant_is_one(z3, circle, su2):
    for group, res in ((z3, 1), (circle, 16), (su2, 6)):
        rule = rk.haar_rule(group, res)
        assert rk.integrate_scalar(rule, lambda x: 1.0) == 1.0


def test_integrate_unit_frequency_circle(circle):
    rule = rk.haar_rule(circle, 8)
    out = rk.integrate_scalar(rule, lambda t: np.exp(1j * t))
    assert abs(out) <= 1e-12


def test_integrate_z2_sign(z2):
    rule = rk.haar_rule(z2, 1)
    assert rk.integrate_scalar(rule, lambda k: 1.0 if k == 0 else -1.0) == 0.0


def test_circle_rule_exactness_band():
    # equispaced resolution N: exp(i k t) integrates to 0 for 0 < |k| < N, 1 at k = 0
    circle = rk.builtin_group("circle")
    rule = rk.haar_rule(circle, 12)
    for k in range(-11, 12):
        out = rk.integrate_scalar(rule, lambda t, k=k: np.exp(1j * k * t))
        expected = 1.0 if k == 0 else 0.0
        assert abs(out - expected) <= 1e-14


def test_integrate_matrix_z3(z3):
    # sum of the cube roots of unity vanishes
    rule = rk.haar_rule(z3, 1)
    omega = np.exp(2j * np.pi / 3)
    out = rk.integrate_matrix(rule, lambda k: np.diag([omega ** k]))
    assert np.abs(out).max() <= 1e-15


def test_integrate_matrix_constant(su2):
    # linearity + normalization: weights sum to 1 within 1e-14
    rule = rk.haar_rule(su2, 4)
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.abs(rk.integrate_matrix(rule, lambda U: C) - C).max() <= 1e-13


def test_integrate_matrix_shape_mismatch(z2):
    rule = rk.haar_rule(z2, 1)
    with pytest.raises(rk.ShapeMismatchError):
        rk.integrate_matrix(rule, lambda k: np.eye(2) if k == 0 else np.eye(3))


def test_integrate_rejects_non_finite(z2):
    rule = rk.haar_rule(z2, 1)
    with pytest.raises(rk.EvaluationFailureError):
        rk.integrate_scalar(rule, lambda k: np.nan)


# --- axiom audit -------------------------------------------------------------

@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_audit_finite_exact(name):
    group = rk.builtin_group(name)
    rule = rk.haar_rule(group, 1)
    report = rk.axiom_audit(rule, standard_probes(group), standard_shifts(group))
    assert report.normalization == 0.0
    assert report.translation == 0.0
    assert report.inversion == 0.0
    assert report.positivity_margin >= 0.0


def test_audit_circle(circle):
    rule = rk.haar_rule(circle, 64)
    report = rk.axiom_audit(rule, standard_probes(circle), standard_shifts(circle))
    assert report.translation <= 1e-12
    assert report.inversion <= 1e-12


def test_audit_su2_resolution_12(su2):
    rule = rk.haar_rule(su2, 12)
    report = rk.axiom_audit(rule, standard_probes(su2), standard_shifts(su2))
    assert report.translation <= 1e-6
    assert report.inversion <= 1e-6
    # convergence cross-check: the same integrals at resolution 48 agree
    fine = rk.haar_rule(su2, 48)
    for probe in standard_probes(su2)[:3]:
        coarse_val = rk.integrate_scalar(rule, probe)
        fine_val = rk.integrate_scalar(fine, probe)
        assert abs(coarse_val - fine_val) <= 1e-9


def test_audit_su2_translation_improves_with_resolution(su2):
    probes = standard_probes(su2)
    shifts = standard_shifts(su2)
    residuals = []
    for res in (4, 8, 16):
        report = rk.axiom_audit(rk.haar_rule(su2, res), probes, shifts)
        residuals.append(max(report.translation, 1e-15))  # floating-point floor
    assert residuals[0] > residuals[1] > residuals[2]


def test_audit_requires_probes_and_shifts(z2):
    rule = rk.haar_rule(z2, 1)
    with pytest.raises(ValueError):
        rk.axiom_audit(rule, [], standard_shifts(z2))
    with pytest.raises(ValueError):
        rk.axiom_audit(rule, standard_probes(z2), [])


def test_audit_inventory_recorded(z3):
    rule = rk.haar_rule(z3, 1)
    probes = standard_probes(z3)
    report = rk.axiom_audit(rule, probes, standard_shifts(z3))
    assert report.inventory["probe_count"] == len(probes)
    assert report.inventory["shift_count"] == 3
    assert len(report.inventory["probe_labels"]) == len(probes)


# --- correctly rounded summation kernel --------------------------------------

def _fsum_reference(values, weights):
    terms = weights * values
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _bits(xs):
    return np.array(xs, dtype=float).view(np.int64)


def _kernel_rows(n, rng):
    """Rows that stress the kernel: wide exponents, cancellation, subnormals
    and signed zeros."""
    rows = [
        rng.normal(size=n),
        rng.normal(size=n) * 2.0 ** rng.integers(-300, 301, size=n),
        rng.normal(size=n) * 2.0 ** rng.integers(-1074, -1000, size=n),
        rng.normal(size=n) * 2.0 ** rng.integers(-1080, 300, size=n),
        np.full(n, -0.0),
        rng.choice([0.0, -0.0], size=n),
        np.resize([1e16, 1.0, -1e16], n),
        np.resize([1.0, 2.0 ** -53, 2.0 ** -106, -2.0 ** -53], n),
    ]
    half = (n + 1) // 2
    paired = rng.normal(size=half) * 2.0 ** rng.integers(-60, 61, size=half)
    rows.append(np.concatenate([paired, -paired[::-1]])[:n])
    big = rng.normal(size=half) * 1e16
    rows.append(rng.permutation(np.concatenate([big, rng.normal(size=half) - big])[:n]))
    return rows


@pytest.mark.parametrize("n", [1, 2, 6, 24, 64, 4096, 13824])
def test_fsum_rows_equals_math_fsum_bitwise(n):
    rng = np.random.default_rng(n)
    rows = _kernel_rows(n, rng)
    for row in rows:
        assert _bits(rk.groups._fsum_rows(row[None])) == _bits([math.fsum(row)])
    batch = np.stack(rows)
    assert np.array_equal(_bits(rk.groups._fsum_rows(batch)), _bits([math.fsum(row) for row in rows]))


@pytest.mark.parametrize("row", [
    [np.inf, 1.0], [-np.inf, 2.0, 3.0], [np.nan, 1.0], [np.inf, -np.inf], [1e308, 1e308, -1e308],
    [1e308, -1e308], [8.9e307, 8.9e307], [1.7e308, 1.0], [1e308, 1e308], [np.inf, 1e308, 1e308]])
def test_fsum_rows_special_values_follow_math_fsum(row):
    row = np.array(row)
    try:
        expected = math.fsum(row)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            rk.groups._fsum_rows(row[None])
    else:
        got = rk.groups._fsum_rows(row[None])[0]
        assert (math.isnan(got) and math.isnan(expected)) or _bits([got]) == _bits([expected])


def test_scalar_integrals_sum_without_per_node_fsum(su2, monkeypatch):
    # the node arrays go through the vectorized kernel: math.fsum only sees
    # a handful of level sums, never a row of 13 824 node terms
    sizes = []
    original = math.fsum

    def counting(xs):
        xs = list(xs)
        sizes.append(len(xs))
        return original(xs)

    monkeypatch.setattr(math, "fsum", counting)
    rule = rk.haar_rule(su2, 24)
    chi = np.trace(rk.spin_irrep(2, su2).evaluate_batch(rule.nodes), axis1=1, axis2=2)
    assert abs(rk.groups.integrate_values(rule, np.abs(chi) ** 2) - 1.0) <= 1e-9
    assert abs(rk.integrate_scalar(rule, standard_probes(su2)[0])) <= 1e-9
    assert sizes and max(sizes) <= 64


@pytest.mark.parametrize("name, resolution", [("su2", 24), ("circle", 64), ("s3", 1)])
def test_axiom_audit_bit_identical_to_fsum_reference(name, resolution, monkeypatch):
    group = rk.builtin_group(name)
    rule = rk.haar_rule(group, resolution)
    probes, shifts = standard_probes(group), standard_shifts(group)
    kernel = rk.axiom_audit(rule, probes, shifts).as_dict()
    # every audit sum, read in chunks, through the reference: the parts of
    # a row in a chunk are its weighted node terms there, kept unmerged, so
    # each integral is one fsum of all its node terms
    def terms(rows, weights):
        return [((weights * row).real.tolist(), (weights * row).imag.tolist()) for row in rows]

    monkeypatch.setattr(rk.groups, "_weighted_fsum_parts", terms)
    monkeypatch.setattr(rk.groups, "_merged_parts",
                        lambda parts, more: [(a + c, b + d) for (a, b), (c, d) in zip(parts, more)])
    assert rk.axiom_audit(rule, probes, shifts).as_dict() == kernel


def _axiom_residuals_per_integral(rule, probes, shifts):
    """The two linearity residual families, which ``axiom_audit`` does not
    report, and its translation and inversion families, one
    ``integrate_values`` call per integral."""
    integral = rk.groups.integrate_values
    out = dict.fromkeys(("homogeneity", "additivity", "translation", "inversion"), 0.0)
    for f in probes:
        v = rk.groups.evaluate_probe(f, rule)
        iv = integral(rule, v)
        for alpha in (2.0, 1j, -1.0):
            out["homogeneity"] = max(out["homogeneity"], abs(integral(rule, alpha * v) - alpha * iv))
        out["additivity"] = max(out["additivity"], abs(integral(rule, v + v) - (iv + iv)))
        for a in shifts:
            for side in ("left", "right"):
                moved = rule.group.shift_nodes(a, rule.nodes, side)
                shifted = integral(rule, rk.groups.evaluate_probe(f, rule, nodes=moved))
                out["translation"] = max(out["translation"], abs(shifted - iv))
        inverses = rule.group.invert_nodes(rule.nodes)
        inverted = integral(rule, rk.groups.evaluate_probe(f, rule, nodes=inverses))
        out["inversion"] = max(out["inversion"], abs(inverted - iv))
    return out


@pytest.mark.parametrize("name, resolution", [("su2", 12), ("circle", 64), ("s3", 1), ("z3", 1)])
def test_axiom_audit_batches_equal_one_integral_per_row(name, resolution, monkeypatch):
    # the residual rows go through the summation kernel in batches, one per
    # evaluation chunk of a node set: the base integrals of every probe,
    # their positivity margins and the constant one at the rule nodes, and
    # every probe at each shifted or inverted node set; every residual is
    # the one the per-integral audit gives, bit for bit
    group = rk.builtin_group(name)
    rule = rk.haar_rule(group, resolution)
    probes, shifts = standard_probes(group), standard_shifts(group)
    reference = _axiom_residuals_per_integral(rule, probes, shifts)
    # linearity is exact for correctly rounded sums, so the report has no
    # field for it
    assert reference.pop("homogeneity") == reference.pop("additivity") == 0.0
    batches = []
    original = rk.groups._weighted_fsum_parts

    def counting(rows, weights):
        rows = list(rows)
        batches.append(len(rows))
        return original(rows, weights)

    monkeypatch.setattr(rk.groups, "_weighted_fsum_parts", counting)
    report = rk.axiom_audit(rule, probes, shifts)
    assert {key: getattr(report, key) for key in reference} == reference
    # per evaluation chunk of each node set: the rule nodes add the
    # positivity margins and the normalization's constant one
    p, chunks = len(probes), -(-rule.node_count // rk.linalg.EVAL_CHUNK)
    assert batches == [2 * p + 1] * chunks + [p] * (chunks * (2 * len(shifts) + 1))


def test_character_integrals_bit_identical_to_fsum_reference(su2, s3, monkeypatch):
    rule = rk.haar_rule(su2, 16)
    spins = [rk.spin_irrep(two_j / 2.0, su2) for two_j in range(4)]
    s3_rule = rk.haar_rule(s3, 1)
    irreps = [rk.s3_trivial(s3), rk.s3_sign(s3), rk.s3_standard(s3)]
    regular = rk.DirectSumRepresentation(irreps + irreps[2:])

    def answers():
        return (rk.orthogonality_audit(spins, rule).tobytes(),
                [rk.multiplicity(regular, irrep, s3_rule) for irrep in irreps],
                [rk.character_inner(rk.character(regular, s3_rule), rk.character(irrep, s3_rule), s3_rule)
                 for irrep in irreps])

    kernel = answers()
    monkeypatch.setattr(rk.groups, "_weighted_fsum_rows",
                        lambda rows, weights: [_fsum_reference(row, weights) for row in rows])
    assert answers() == kernel


# --- paper objects and refusals no other test reaches --------------------------

def test_module_level_group_operations_match_the_group_methods(s3, circle, su2):
    U, V = rk.enumerate_or_sample(su2, 2, seed=4)
    for group, g, h in ((s3, 2, 5), (circle, 1.25, 4.5), (su2, U, V)):
        assert np.array_equal(rk.multiply(group, g, h), group.multiply(g, h))
        assert np.array_equal(rk.inverse(group, g), group.inverse(g))
        assert np.array_equal(rk.identity(group), group.identity_element())


def test_integrate_matrix_batched_integrand_is_one_stacked_sum(su2):
    rule = rk.haar_rule(su2, 6)

    class Batched:
        def batch(self, nodes):
            return nodes @ nodes + np.diag([1.0, 2.0])

    expected = rk.groups.integrate_stacked(rule, rule.nodes @ rule.nodes + np.diag([1.0, 2.0]))
    assert rk.integrate_matrix(rule, Batched()).tobytes() == expected.tobytes()
    with pytest.raises(rk.ShapeMismatchError, match=r"\(n, r, s\)"):
        rk.integrate_matrix(rule, type("Flat", (), {"batch": lambda self, nodes: np.ones(len(nodes))})())


def test_integrate_matrix_of_a_representation_projects_on_its_invariants(s3, su2):
    # the integral of rho is the projection onto its invariant vectors:
    # J/6 for the regular representation of S3, whose invariants are the
    # constant vectors, 0 for a non-trivial irreducible, 1 for the trivial one
    mats = np.zeros((6, 6, 6))
    for g in range(6):
        mats[g, s3.mult_table[g], np.arange(6)] = 1.0
    regular = rk.FiniteTableRepresentation(s3, mats)
    assert np.abs(rk.integrate_matrix(rk.haar_rule(s3, 1), regular) - np.ones((6, 6)) / 6).max() <= 1e-15
    rule = rk.haar_rule(su2, 24)
    for j in (0.5, 1, 3):
        assert np.abs(rk.integrate_matrix(rule, rk.spin_irrep(j, su2))).max() <= 1e-13
    assert np.abs(rk.integrate_matrix(rule, rk.spin_irrep(0, su2)) - np.eye(1)).max() <= 1e-14


def test_integrate_matrix_of_a_representation_sums_its_stack_in_chunks(s3, su2):
    # 13.5 evaluation chunks summed as one contraction over the whole stack
    rule = rk.haar_rule(su2, 24)
    rep = rk.conjugate(rk.spin_irrep(2, su2), np.diag(np.arange(1.0, 6.0)))
    whole = type("Whole", (), {"batch": lambda self, nodes: rep.evaluate_batch(nodes)})()
    assert rk.integrate_matrix(rule, rep).tobytes() == rk.integrate_matrix(rule, whole).tobytes()
    with pytest.raises(rk.GroupMismatchError):
        rk.integrate_matrix(rule, rk.s3_sign(s3))


@pytest.mark.parametrize("call", [
    lambda: ExpIndexProbe(1, 3)(1.5),
    lambda: ExpIndexProbe(1, 3)(True),
    lambda: ExpIndexProbe(1, 3)("1"),
    lambda: ExpIndexProbe(1, 3).batch(np.array([1.5])),
    lambda: ExpIndexProbe(1, 3).batch(np.array([True])),
    lambda: TrigProbe(2)("0.5"),
    lambda: TrigProbe(2)(True),
    lambda: TrigProbe(2).batch(np.array(["0.5"])),
    lambda: TrigProbe(2).batch(np.array([True])),
    lambda: TrigProbe(2).batch(np.array([0.5j])),
], ids=["index 1.5", "index True", "index '1'", "indices [1.5]", "indices [True]", "angle '0.5'",
        "angle True", "angles ['0.5']", "angles [True]", "angles [0.5j]"])
def test_probes_refuse_what_they_would_cast(call):
    # a probe reads its nodes as its group does: indices are integers and
    # angles real numbers, never cast from a float, boolean or string
    with pytest.raises(rk.KindMismatchError):
        call()


def test_probes_take_integer_and_real_nodes():
    assert ExpIndexProbe(1, 3)(np.int64(1)) == ExpIndexProbe(1, 3)(1)
    assert ExpIndexProbe(1, 3).batch(np.array([1], dtype=np.uint8))[0] == ExpIndexProbe(1, 3)(1)
    assert TrigProbe(2)(np.float64(0.5)) == TrigProbe(2)(0.5)
    assert TrigProbe(2).batch(np.array([1], dtype=np.int32))[0] == TrigProbe(2).batch(np.array([1.0]))[0]


@pytest.mark.parametrize("integral, value", [(rk.integrate_scalar, 2.0), (rk.integrate_matrix, np.eye(2))],
                         ids=["integrate_scalar", "integrate_matrix"])
@pytest.mark.parametrize("name, resolution, node_type", [("z3", 1, int), ("circle", 8, float),
                                                         ("su2", 4, np.ndarray)])
def test_per_node_integrands_share_one_contract(integral, value, name, resolution, node_type):
    # both integrals call a per-node integrand the same way: with Python
    # numbers on finite and circle nodes and 2x2 arrays on su2, and refuse
    # a call that raises, a non-finite value and a shape that changes
    rule = rk.haar_rule(rk.builtin_group(name), resolution)
    seen = []

    def constant(x):
        seen.append(type(x))
        return value

    assert np.abs(integral(rule, constant) - value).max() <= 1e-14
    assert len(seen) == rule.node_count and set(seen) == {node_type}

    def raises(x):
        raise ArithmeticError("no value at this node")

    with pytest.raises(rk.EvaluationFailureError, match="no value at this node"):
        integral(rule, raises)
    with pytest.raises(rk.EvaluationFailureError, match="non-finite"):
        integral(rule, lambda x: value * np.nan)
    calls = itertools.count()
    with pytest.raises(rk.ShapeMismatchError, match="shape changed at node 1"):
        integral(rule, lambda x: value if next(calls) == 0 else np.ones((3, 3)))


def test_finite_rules_at_two_resolutions_are_the_same_rule(z3, circle):
    # a finite group ignores the resolution: its rules sum the same terms
    r1, r2 = rk.haar_rule(z3, 1), rk.haar_rule(z3, 2)
    assert r1.same_rule(r2)
    rep = rk.cyclic_phase_rep(z3, [1])
    chi1, chi2 = rk.character(rep, r1), rk.character(rep, r2)
    assert rk.character_inner(chi1, chi2, r1) == rk.character_inner(chi1, chi1, r1)
    # on the circle the resolution sets the nodes
    assert not rk.haar_rule(circle, 4).same_rule(rk.haar_rule(circle, 8))


def test_iter_nodes_yields_the_circle_angles_as_floats(circle):
    rule = rk.haar_rule(circle, 8)
    angles = list(rule.iter_nodes())
    assert all(type(t) is float for t in angles)
    assert angles == rule.nodes.tolist()


def test_enumerate_or_sample_lists_every_finite_element(s3):
    assert rk.enumerate_or_sample(s3, 2, seed=1) == s3.elements() == list(range(6))


@pytest.mark.parametrize("name, element, foreign, message", [
    ("s3", 4, np.array([0.5]), "finite group elements are integer indices"),
    ("z24", 17, np.array([0.5]), "finite group elements are integer indices"),
    ("circle", 2.5, np.array([1j]), "circle elements are angles"),
    # every numeric dtype is an su2 entry, so a finite group's indices are
    # refused by their shape
    ("su2", None, np.arange(3), r"su2 node stacks have shape \(n, 2, 2\)"),
])
def test_a_group_kind_packs_one_element_and_checks_its_node_arrays(name, element, foreign, message):
    # a representation reads its one element through the group's _one and
    # every node batch through the group's node_array, whose message names
    # the group kind when another kind's nodes reach it
    group = rk.cyclic_group(24) if name == "z24" else rk.builtin_group(name)
    reps = {"s3": lambda: rk.s3_standard(group), "z24": lambda: rk.cyclic_phase_rep(group, [1, 5, 7]),
            "circle": lambda: rk.CircleWeightRepresentation(group, [1, -2, 3]),
            "su2": lambda: rk.spin_irrep(1.5, group)}
    rep = reps[name]()
    if element is None:
        element = rk.enumerate_or_sample(group, 1, seed=3)[0]
    assert rep.evaluate(element).tobytes() == rep.evaluate_batch(group._one(element))[0].tobytes()
    for check in (group.node_array, rep.evaluate_batch):
        with pytest.raises(rk.KindMismatchError, match=message):
            check(foreign)


@pytest.mark.parametrize("name, resolution, message", [
    ("circle", 10 ** 20, f"resolution {10 ** 20} asks for a rule of {10 ** 20} nodes"),
    ("su2", 10 ** 20, f"resolution {10 ** 20} asks for a rule of {10 ** 60} nodes"),
    ("circle", 10 ** 5000, "resolution <16610-bit integer> asks for a rule of <16610-bit integer> nodes"),
    ("su2", 10 ** 5000, "resolution <16610-bit integer> asks for a rule of <49829-bit integer> nodes"),
], ids=["circle 10**20", "su2 10**20", "circle 10**5000", "su2 10**5000"])
def test_a_rule_refusal_names_the_node_count_of_its_group_kind(name, resolution, message):
    # su2 takes resolution ** 3 nodes; an integer past Python's 4300 printed
    # digits is named by its size (its repr raised ValueError here)
    with pytest.raises(rk.InvalidResolutionError) as refused:
        rk.haar_rule(rk.builtin_group(name), resolution)
    assert str(refused.value) == message + ", which cannot be allocated"


# a Latin square with a two-sided identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
ONE_SIDED_INVERSE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


@pytest.mark.parametrize("table, kwargs, message", [
    ([[0, 1, 2], [1, 2, 0]], {}, "must be square"),
    (np.zeros((0, 0), dtype=int), {}, "empty multiplication table"),
    ([[0, 1], [0, 1]], {}, "column 0 is not a permutation"),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], {}, "row 1 is not a permutation"),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]], {}, "column 2 is not a permutation"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], {}, "no two-sided identity"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], {"identity": 1}, "declared identity 1 but the table identity is 0"),
    (ONE_SIDED_INVERSE, {}, "element 2 has no two-sided inverse"),
    ([[0, 1], [1, 0]], {"labels": ["e"]}, "label count"),
], ids=["non-square", "empty", "non-latin-column", "row-and-column-1", "later-column",
        "one-sided-identity", "declared-identity", "one-sided-inverse", "label-count"])
def test_finite_group_refuses_a_malformed_table(table, kwargs, message):
    # the first bad index is named, its row before its column
    with pytest.raises(ValueError, match=message):
        rk.FiniteGroup(table, **kwargs)


def _table_checks_per_index(table, identity=None):
    """The Latin-square, identity and inverse checks of ``FiniteGroup``
    as loops over the indices: the reference its array checks must match,
    message for message."""
    n, ref = len(table), np.arange(len(table))
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), ref):
            return f"multiplication table row {i} is not a permutation of 0..{n - 1}"
        if not np.array_equal(np.sort(table[:, i]), ref):
            return f"multiplication table column {i} is not a permutation of 0..{n - 1}"
    idents = [k for k in range(n) if np.array_equal(table[k], ref) and np.array_equal(table[:, k], ref)]
    if not idents:
        return "multiplication table has no two-sided identity"
    if identity is not None and identity != idents[0]:
        return f"declared identity {identity} but the table identity is {idents[0]}"
    for a in range(n):
        b = int(np.nonzero(table[a] == idents[0])[0][0])
        if table[b, a] != idents[0]:
            return f"element {a} has no two-sided inverse"
    return None


def test_finite_group_table_checks_match_the_per_index_loops():
    # every reduced Latin square of order 5 (identity 0: groups, and loops
    # with one-sided inverses), and cyclic tables with a random entry
    # changed, rows, columns or symbols permuted, or a declared identity
    squares = [[tuple(range(5))]]
    for i in range(1, 5):
        squares = [rows + [p] for rows in squares for p in itertools.permutations(range(5))
                   if p[0] == i and all(p[c] != row[c] for row in rows for c in range(5))]
    rng = np.random.default_rng(5)
    cases = [(np.array(t), None) for t in squares]
    for n in (2, 3, 4, 6):
        cyclic = (np.arange(n)[:, None] + np.arange(n)) % n
        for _ in range(60):
            t = cyclic.copy()
            t[rng.integers(n), rng.integers(n)] = rng.integers(-1, n + 1)
            p, q, r = rng.permutation(n), rng.permutation(n), rng.permutation(n)
            cases += [(t, None), (cyclic[p], None), (cyclic[:, q], None), (r[cyclic], None),
                      (cyclic[p][:, q], int(rng.integers(n)))]
    checked = []
    for table, identity in cases:
        try:
            rk.FiniteGroup(table, identity=identity)
            message = None
        except ValueError as exc:
            message = str(exc)
        if message is None or "associative" not in message:
            assert message == _table_checks_per_index(table, identity)
            checked.append(message and message.split()[0])
    assert {"multiplication", "declared", "element", None} <= set(checked)


@pytest.mark.parametrize("weights, message", [
    (np.array([0.5, 0.5, 0.0]), "must be positive"),
    (np.array([0.5, 0.5, -0.25]), "must be positive"),
    (np.array([0.25, 0.25, 0.25]), "must sum to 1"),
    (np.array([0.5, 0.5, np.nan]), "must be positive"),
    ([1 / 3, 1 / 3, 1 / 3], "in a float64 array"),
    (np.full(3, 1 / 3, dtype=complex), "in a float64 array"),
])
def test_haar_rule_refuses_bad_weights(z3, weights, message):
    # a nan weight, which compares False with 0, and weights that are no
    # float array are refused as a non-positive weight is
    with pytest.raises(ValueError, match=message):
        rk.HaarRule(z3, np.arange(3), weights, 1)


def test_su2_refuses_a_unitary_element_of_determinant_minus_one(su2):
    with pytest.raises(rk.KindMismatchError, match="determinant is not 1"):
        su2.inverse(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("name", ["s3", "circle"])
def test_scalar_probes_match_their_batches(name):
    group = rk.builtin_group(name)
    nodes = rk.haar_rule(group, 8 if name == "circle" else 1).nodes
    for probe in standard_probes(group):
        assert np.abs([probe(x) for x in nodes] - probe.batch(nodes)).max() <= 1e-14
