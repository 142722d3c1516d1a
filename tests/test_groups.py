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
    assert report.homogeneity == 0.0
    assert report.additivity == 0.0
    assert report.normalization == 0.0
    assert report.translation == 0.0
    assert report.inversion == 0.0
    assert report.positivity_margin >= 0.0


def test_audit_circle(circle):
    rule = rk.haar_rule(circle, 64)
    report = rk.axiom_audit(rule, standard_probes(circle), standard_shifts(circle))
    assert report.translation <= 1e-12
    assert report.inversion <= 1e-12
    assert report.homogeneity == 0.0 and report.additivity == 0.0


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
    # every audit sum, the batched ones included, through the reference
    monkeypatch.setattr(rk.groups, "_weighted_fsum_rows",
                        lambda rows, weights: [_fsum_reference(row, weights) for row in rows])
    assert rk.axiom_audit(rule, probes, shifts).as_dict() == kernel


def _axiom_residuals_per_integral(rule, probes, shifts):
    """The four residual families of ``axiom_audit``, one
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
    # the residual rows go through the summation kernel in batches: the
    # base integrals of every probe, their positivity margins, and one per
    # shifted or inverted node set (every probe there); every residual is
    # the one the per-integral audit gives, bit for bit
    group = rk.builtin_group(name)
    rule = rk.haar_rule(group, resolution)
    probes, shifts = standard_probes(group), standard_shifts(group)
    reference = _axiom_residuals_per_integral(rule, probes, shifts)
    batches = []
    original = rk.groups._weighted_fsum_rows

    def counting(rows, weights):
        rows = list(rows)
        batches.append(len(rows))
        return original(rows, weights)

    monkeypatch.setattr(rk.groups, "_weighted_fsum_rows", counting)
    report = rk.axiom_audit(rule, probes, shifts)
    assert {key: getattr(report, key) for key in reference} == reference
    # then the normalization
    p = len(probes)
    assert batches == [p, p] + [p] * (2 * len(shifts) + 1) + [1]


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


# a Latin square with a two-sided identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
ONE_SIDED_INVERSE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


@pytest.mark.parametrize("table, kwargs, message", [
    ([[0, 1, 2], [1, 2, 0]], {}, "must be square"),
    (np.zeros((0, 0), dtype=int), {}, "empty multiplication table"),
    ([[0, 1], [0, 1]], {}, "column 0 is not a permutation"),
    (ONE_SIDED_INVERSE, {}, "element 2 has no two-sided inverse"),
    ([[0, 1], [1, 0]], {"labels": ["e"]}, "label count"),
], ids=["non-square", "empty", "non-latin-column", "one-sided-inverse", "label-count"])
def test_finite_group_refuses_a_malformed_table(table, kwargs, message):
    with pytest.raises(ValueError, match=message):
        rk.FiniteGroup(table, **kwargs)


@pytest.mark.parametrize("weights, message", [
    ([0.5, 0.5, 0.0], "must be positive"),
    ([0.5, 0.5, -0.25], "must be positive"),
    ([0.25, 0.25, 0.25], "must sum to 1"),
])
def test_haar_rule_refuses_bad_weights(z3, weights, message):
    with pytest.raises(ValueError, match=message):
        rk.HaarRule(z3, np.arange(3), np.array(weights), 1)


def test_su2_refuses_a_unitary_element_of_determinant_minus_one(su2):
    with pytest.raises(rk.KindMismatchError, match="determinant is not 1"):
        su2.inverse(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("name", ["s3", "circle"])
def test_scalar_probes_match_their_batches(name):
    group = rk.builtin_group(name)
    nodes = rk.haar_rule(group, 8 if name == "circle" else 1).nodes
    for probe in standard_probes(group):
        assert np.abs([probe(x) for x in nodes] - probe.batch(nodes)).max() <= 1e-14
