import json

import numpy as np
import pytest

import repkit as rk
from repkit.serialize import complex_list_to_json, matrix_from_json, matrix_to_json


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# --- groups -------------------------------------------------------------------

def test_load_finite_group(tmp_path):
    path = write(tmp_path, "z2.json", {
        "kind": "finite", "mult_table": [[0, 1], [1, 0]], "inverse": [0, 1],
        "identity": 0, "labels": ["e", "g"]})
    group = rk.load_group(path)
    assert group.order == 2
    assert group.labels == ["e", "g"]


def test_load_circle_and_su2(tmp_path):
    assert rk.load_group(write(tmp_path, "c.json", {"kind": "circle"})).kind == "circle"
    assert rk.load_group(write(tmp_path, "u.json", {"kind": "su2"})).kind == "su2"


def test_load_group_latin_square_diagnostic(tmp_path):
    path = write(tmp_path, "bad.json", {"kind": "finite", "mult_table": [[0, 0], [1, 1]]})
    with pytest.raises(rk.InputParseError, match="row 0"):
        rk.load_group(path)


def test_load_group_unknown_kind(tmp_path):
    with pytest.raises(rk.InputParseError, match="kind"):
        rk.load_group(write(tmp_path, "bad.json", {"kind": "torus"}))


def test_load_group_missing_file(tmp_path):
    with pytest.raises(rk.InputParseError, match="cannot read"):
        rk.load_group(tmp_path / "absent.json")


def test_load_group_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(rk.InputParseError, match="line 1"):
        rk.load_group(path)


# --- algebras -----------------------------------------------------------------

def test_load_algebra_su2(tmp_path):
    s = float(np.sqrt(2.0))
    path = write(tmp_path, "su2.json", {
        "dim": 3,
        "structure_constants": [[0, 1, 2, s], [0, 2, 1, -s], [1, 2, 0, s]],
        "labels": ["H", "E", "F"]})
    alg = rk.load_algebra(path)
    report = rk.trace_form(alg)
    assert np.abs(report.gram - np.diag([4.0, 4.0, 4.0])).max() <= 1e-12


def test_load_algebra_requires_lower_triangle(tmp_path):
    path = write(tmp_path, "bad.json", {
        "dim": 2, "structure_constants": [[1, 0, 0, 1.0]]})
    with pytest.raises(rk.InputParseError, match="alpha < beta"):
        rk.load_algebra(path)


def test_load_algebra_index_range(tmp_path):
    path = write(tmp_path, "bad.json", {
        "dim": 2, "structure_constants": [[0, 5, 0, 1.0]]})
    with pytest.raises(rk.InputParseError, match="outside"):
        rk.load_algebra(path)


def test_load_algebra_jacobi_rejected(tmp_path):
    path = write(tmp_path, "bad.json", {
        "dim": 3,
        "structure_constants": [[0, 1, 2, 1.0], [1, 2, 0, 1.0], [0, 2, 1, 1.0],
                                [0, 1, 0, 0.5]]})
    with pytest.raises(rk.InputParseError, match="Jacobi"):
        rk.load_algebra(path)


# --- representations -----------------------------------------------------------

def test_load_finite_table_rep(tmp_path, z2):
    sign = [matrix_to_json(np.eye(1)), matrix_to_json(-np.eye(1))]
    path = write(tmp_path, "sign.json", {"kind": "finite_table", "matrices": sign})
    rep = rk.load_representation(path, z2)
    assert rep.degree == 1
    assert rep.evaluate(1)[0, 0] == -1.0


def test_load_rep_identity_requirement(tmp_path, z2):
    bad = [matrix_to_json(2 * np.eye(1)), matrix_to_json(np.eye(1))]
    path = write(tmp_path, "bad.json", {"kind": "finite_table", "matrices": bad})
    with pytest.raises(rk.InputParseError, match="identity"):
        rk.load_representation(path, z2)


def test_load_circle_weights(tmp_path, circle):
    path = write(tmp_path, "w.json", {"kind": "circle_weights", "weights": [1, -1]})
    rep = rk.load_representation(path, circle)
    assert rep.degree == 2


def test_load_spin(tmp_path, su2):
    path = write(tmp_path, "s.json", {"kind": "su2_spin", "two_j": 2})
    rep = rk.load_representation(path, su2)
    assert rep.degree == 3


def test_load_direct_sum_and_conjugate(tmp_path, z2):
    payload = {
        "kind": "conjugate",
        "matrix": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "inner": {"kind": "direct_sum", "parts": [
            {"kind": "finite_table", "matrices": [matrix_to_json(np.eye(1))] * 2},
            {"kind": "finite_table",
             "matrices": [matrix_to_json(np.eye(1)), matrix_to_json(-np.eye(1))]},
        ]},
    }
    rep = rk.load_representation(write(tmp_path, "mix.json", payload), z2)
    assert rep.degree == 2
    assert rk.unitarity_audit(rep, rk.haar_rule(z2, 1)) > 0.1


def test_load_rep_group_kind_mismatch(tmp_path, circle):
    path = write(tmp_path, "s.json", {"kind": "su2_spin", "two_j": 1})
    with pytest.raises(rk.InputParseError):
        rk.load_representation(path, circle)


def test_load_rep_wrong_element_count(tmp_path, z3):
    path = write(tmp_path, "short.json",
                 {"kind": "finite_table", "matrices": [matrix_to_json(np.eye(1))] * 2})
    with pytest.raises(rk.InputParseError):
        rk.load_representation(path, z3)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)


def test_matrix_from_json_shape_error():
    with pytest.raises(rk.InputParseError, match="re, im"):
        matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


def test_matrix_to_json_matches_the_per_entry_pairs():
    # one stacked tolist gives the JSON the per-entry complex() pairs gave,
    # byte for byte, on signed zeros, subnormals and the edge of the range
    tiny = 5e-324
    m = np.array([[-0.0 + 0.0j, complex(0.0, -0.0), tiny - 1j * tiny],
                  [1e308 - 1e308j, -2.2250738585072014e-308 + 1j, 0.1 + 1e-17j]])
    per_entry = [[[complex(z).real, complex(z).imag] for z in row] for row in m]
    assert json.dumps(matrix_to_json(m)) == json.dumps(per_entry)
    flat = [[complex(z).real, complex(z).imag] for z in m.ravel()]
    assert json.dumps(complex_list_to_json(m)) == json.dumps(flat)
    assert json.dumps(complex_list_to_json([1, -0.0, 2.5])) == "[[1.0, 0.0], [-0.0, 0.0], [2.5, 0.0]]"


@pytest.mark.parametrize("entry", ["1", True, None, 10 ** 400], ids=["string", "boolean", "null", "huge"])
def test_matrix_from_json_refuses_non_numbers(entry):
    with pytest.raises(rk.InputParseError, match="must be numeric"):
        matrix_from_json([[[1.0, 0.0], [entry, 0]]])


def test_load_rep_refuses_string_and_boolean_matrix_entries(tmp_path, z2):
    # this file used to load as the trivial representation of Z2
    data = {"kind": "finite_table", "matrices": [[[["1", 0]]], [[[True, False]]]]}
    with pytest.raises(rk.InputParseError, match=r"matrices\[0\]: entries must be numeric"):
        rk.load_representation(write(tmp_path, "bad.json", data), z2)


# --- validated, never repaired --------------------------------------------------

@pytest.mark.parametrize("field, value, where", [
    ("mult_table", [[0, 1.7], [1, 0]], r"mult_table\[0\]\[1\]"),
    ("mult_table", [[0, 1], ["1", 0]], r"mult_table\[1\]\[0\]"),
    ("mult_table", [[0, True], [1, 0]], r"mult_table\[0\]\[1\]"),
    ("mult_table", [[0.0, 1.0], [1.0, 0.0]], r"mult_table\[0\]\[0\]"),
    ("identity", 0.5, "identity"),
    ("identity", False, "identity"),
    ("inverse", [0.4, 1.2], r"inverse\[0\]"),
    ("inverse", [0, "1"], r"inverse\[1\]"),
    ("mult_table", [[0, 1], [1, 99999999999999999999]], r"mult_table\[1\]\[1\]"),
    ("identity", -2 ** 63 - 1, "identity"),
])
def test_load_group_refuses_non_integer_entries(tmp_path, field, value, where):
    # each of these used to load as Z2, cast to int by the group constructor
    data = {"kind": "finite", "mult_table": [[0, 1], [1, 0]], field: value}
    with pytest.raises(rk.InputParseError, match=where + " must be an integer"):
        rk.load_group(write(tmp_path, "bad.json", data))


def test_load_group_null_optional_fields_are_absent(tmp_path):
    path = write(tmp_path, "z2.json", {"kind": "finite", "mult_table": [[0, 1], [1, 0]],
                                       "identity": None, "inverse": None})
    assert rk.load_group(path).order == 2


@pytest.mark.parametrize("data, message", [
    ({"dim": True, "structure_constants": []}, "'dim' must be a positive integer"),
    ({"dim": 2.0, "structure_constants": []}, "'dim' must be a positive integer"),
    ({"dim": 2, "structure_constants": [[0, 1, 0, "x"]]}, "value must be a finite number, got 'x'"),
    ({"dim": 2, "structure_constants": [[0, 1, 0, "1.5"]]}, "value must be a finite number"),
    ({"dim": 2, "structure_constants": [[0, 1, 0, True]]}, "value must be a finite number"),
    ({"dim": 2, "structure_constants": [[0, 1, 0, 10 ** 400]]}, "value must be a finite number"),
    ({"dim": 2, "structure_constants": [[0, True, 0, 1.0]]}, "indices must be integers"),
])
def test_load_algebra_refuses_non_numeric_fields(tmp_path, data, message):
    with pytest.raises(rk.InputParseError, match=message):
        rk.load_algebra(write(tmp_path, "bad.json", data))


@pytest.mark.parametrize("data, message", [
    ({"kind": "circle_weights", "weights": [True, 2]}, r"weights\[0\] must be an integer"),
    ({"kind": "su2_spin", "two_j": True}, "two_j must be an integer in 0..12"),
    ({"kind": "circle_weights", "weights": [1, 99999999999999999999]}, r"weights\[1\] must be an integer"),
])
def test_load_rep_refuses_boolean_integers(tmp_path, circle, su2, data, message):
    group = circle if data["kind"] == "circle_weights" else su2
    with pytest.raises(rk.InputParseError, match=message):
        rk.load_representation(write(tmp_path, "bad.json", data), group)


def test_load_group_refuses_a_non_object_top_level(tmp_path):
    with pytest.raises(rk.InputParseError, match="top-level value must be an object"):
        rk.load_group(write(tmp_path, "list.json", [{"kind": "circle"}]))


def test_load_group_names_a_missing_required_field(tmp_path):
    with pytest.raises(rk.InputParseError, match="missing required field 'mult_table'"):
        rk.load_group(write(tmp_path, "finite.json", {"kind": "finite"}))


@pytest.mark.parametrize("data, message", [
    ({"kind": "finite_table", "matrices": {"0": [[[1, 0]]]}}, "'matrices' must be a list of matrices"),
    ({"kind": "direct_sum", "parts": [{"kind": "circle_weights", "weights": [1]}]},
     "'parts' must list at least two representations"),
    ({"kind": "tensor_product", "parts": []}, "unknown representation kind 'tensor_product'"),
], ids=["matrices-not-a-list", "one-part-sum", "unknown-kind"])
def test_load_rep_refuses_malformed_structure(tmp_path, circle, data, message):
    with pytest.raises(rk.InputParseError, match=message):
        rk.load_representation(write(tmp_path, "bad.json", data), circle)
