import json

import numpy as np
import pytest
from click.testing import CliRunner

import repkit as rk
from repkit.cli import main
from repkit.serialize import matrix_to_json


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")

    s = float(np.sqrt(2.0))
    (root / "su2_algebra.json").write_text(json.dumps({
        "dim": 3,
        "structure_constants": [[0, 1, 2, s], [0, 2, 1, -s], [1, 2, 0, s]],
        "labels": ["H", "E", "F"]}))

    (root / "sl2_algebra.json").write_text(json.dumps({
        "dim": 3,
        "structure_constants": [[0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]],
        "labels": ["h", "e", "f"]}))

    (root / "z2.json").write_text(json.dumps({
        "kind": "finite", "mult_table": [[0, 1], [1, 0]], "identity": 0}))

    (root / "z2_mixed.json").write_text(json.dumps({
        "kind": "conjugate",
        "matrix": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "inner": {"kind": "direct_sum", "parts": [
            {"kind": "finite_table", "matrices": [matrix_to_json(np.eye(1))] * 2},
            {"kind": "finite_table",
             "matrices": [matrix_to_json(np.eye(1)), matrix_to_json(-np.eye(1))]},
        ]}}))

    s3 = rk.builtin_group("s3")
    std = rk.s3_standard(s3)
    (root / "s3_std.json").write_text(json.dumps({
        "kind": "finite_table",
        "matrices": [matrix_to_json(std.table[k]) for k in range(6)]}))

    return root


def test_analyze_algebra_su2(runner, inputs):
    result = runner.invoke(main, ["analyze-algebra", str(inputs / "su2_algebra.json"),
                                  "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["payload"]["classification"] == "compact_semisimple"
    gram = np.array(report["payload"]["gram"])
    assert np.abs(gram - np.diag([4.0, 4.0, 4.0])).max() <= 1e-12


def test_analyze_algebra_sl2(runner, inputs):
    result = runner.invoke(main, ["analyze-algebra", str(inputs / "sl2_algebra.json"),
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["payload"]["classification"] == "not_compact_type"


def test_analyze_algebra_missing_file(runner, inputs):
    result = runner.invoke(main, ["analyze-algebra", str(inputs / "nope.json")])
    assert result.exit_code == 1


@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_haar_audit_finite_builtin(runner, name):
    result = runner.invoke(main, ["haar-audit", "--builtin", name, "--format", "json"])
    assert result.exit_code == 0, result.output
    residuals = json.loads(result.output)["residuals"]
    assert all(v == 0.0 for v in residuals.values())


def test_haar_audit_su2(runner):
    result = runner.invoke(main, ["haar-audit", "--builtin", "su2", "--resolution", "16",
                                  "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["residuals"]["translation"] <= 1e-6
    assert report["payload"]["node_count"] == 16 ** 3


def test_haar_audit_requires_group(runner):
    result = runner.invoke(main, ["haar-audit"])
    assert result.exit_code == 1


def test_group_flag_accepts_builtin_name(runner):
    result = runner.invoke(main, ["haar-audit", "--group", "su2", "--resolution", "8",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["payload"]["kind"] == "su2"


def test_unitarize_file_rep(runner, inputs):
    result = runner.invoke(main, ["unitarize", "--group", str(inputs / "z2.json"),
                                  "--rep", str(inputs / "z2_mixed.json"), "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["residuals"]["unitarity"] <= 1e-8
    assert report["residuals"]["character_drift"] <= 1e-9


def test_unitarize_spin_defaults_to_su2(runner):
    result = runner.invoke(main, ["unitarize", "--spin", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["payload"]["degree"] == 3


def test_irreducible_spin(runner):
    result = runner.invoke(main, ["irreducible", "--spin", "2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    assert payload["irreducible"] is True
    assert payload["commutant_dimension"] == 1
    assert payload["invariant_form_dimension"] == 1
    assert payload["special"] is True


def test_irreducible_weights(runner):
    result = runner.invoke(main, ["irreducible", "--weights", "1,-1", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    assert payload["irreducible"] is False
    assert payload["commutant_dimension"] == 2


def test_decompose_mixed_z2(runner, inputs):
    result = runner.invoke(main, ["decompose", "--group", str(inputs / "z2.json"),
                                  "--rep", str(inputs / "z2_mixed.json"), "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    assert payload["block_degrees"] == [1, 1]


def test_decompose_s3_standard(runner, inputs):
    result = runner.invoke(main, ["decompose", "--builtin", "s3",
                                  "--rep", str(inputs / "s3_std.json"), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["payload"]["block_degrees"] == [2]


@pytest.mark.parametrize("seed", range(4))
def test_decompose_ill_conditioned_basis(runner, tmp_path, seed):
    # P rho(e) P^-1 carries roundoff of order cond(P) eps: a condition
    # number of 1e4 must not fail the degree check at the identity
    rng = np.random.default_rng(seed)
    unitaries = [np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
                 for _ in range(2)]
    basis = unitaries[0] @ np.diag(np.geomspace(1.0, 1e4, 5)) @ unitaries[1]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({
        "kind": "conjugate", "matrix": matrix_to_json(basis),
        "inner": {"kind": "direct_sum", "parts": [
            {"kind": "su2_spin", "two_j": 1}, {"kind": "su2_spin", "two_j": 2}]}}))
    result = runner.invoke(main, ["decompose", "--builtin", "su2", "--rep", str(path),
                                  "--format", "json"])
    assert result.exit_code == 0, result.output
    assert sorted(json.loads(result.output)["payload"]["block_degrees"]) == [2, 3]


def test_decompose_positional_rep_path(runner, inputs):
    result = runner.invoke(main, ["decompose", str(inputs / "z2_mixed.json"),
                                  "--group", str(inputs / "z2.json"), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["payload"]["block_degrees"] == [1, 1]


def test_rep_given_twice_is_an_input_error(runner, inputs):
    result = runner.invoke(main, ["decompose", str(inputs / "z2_mixed.json"),
                                  "--rep", str(inputs / "z2_mixed.json"),
                                  "--group", str(inputs / "z2.json")])
    assert result.exit_code == 1


def test_irreducible_payload_carries_commutant_schema(runner):
    result = runner.invoke(main, ["irreducible", "--spin", "1", "--format", "json"])
    assert result.exit_code == 0
    commutant = json.loads(result.output)["payload"]["commutant"]
    assert commutant["dimension"] == 1
    basis = np.array(commutant["basis"][0])  # r x r x [re, im]
    assert basis.shape == (2, 2, 2)


def test_irreducible_reads_one_commutant(runner, tmp_path):
    # verdict, dimension and commutant block come from the same commutant,
    # in a unitary basis, also for an ill-conditioned input
    rng = np.random.default_rng(0)
    unitaries = [np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
                 for _ in range(2)]
    basis = unitaries[0] @ np.diag(np.geomspace(1.0, 100.0, 3)) @ unitaries[1]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"kind": "conjugate", "matrix": matrix_to_json(basis),
                                "inner": {"kind": "su2_spin", "two_j": 2}}))
    result = runner.invoke(main, ["irreducible", "--builtin", "su2", "--rep", str(path),
                                  "--resolution", "12", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["irreducible"] is True
    assert payload["commutant_dimension"] == 1
    assert payload["commutant"]["dimension"] == 1


def test_irreducible_commutant_disagreeing_with_character_norm_exits_2(runner):
    # the 4096-node rule cannot integrate the character of spin 5: the
    # commutant is scalar but the character norm is 0.42, and the gap fails
    # even with the commutant residual forgiven by --tol
    result = runner.invoke(main, ["irreducible", "--spin", "10", "--resolution", "16",
                                  "--tol", "10", "--format", "json"])
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["residuals"]["character_norm_gap"] > 0.5
    assert report["tolerances"]["character_norm_gap"] == rk.schur.MULTIPLICITY_WINDOW
    commutant = report["payload"]["commutant"]
    assert commutant["dimension"] == 1 and abs(commutant["character_norm"] - 0.42) < 0.01
    # spin 1/2 on the 512-node rule, whose rank reading gave dimension 4,
    # now agrees with its character norm
    result = runner.invoke(main, ["irreducible", "--spin", "1", "--resolution", "8",
                                  "--tol", "10", "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["payload"]["commutant_dimension"] == 1
    assert report["residuals"]["character_norm_gap"] <= 1e-5


def test_irreducible_spin_5_at_the_default_resolution(runner):
    result = runner.invoke(main, ["irreducible", "--spin", "5", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["irreducible"] is True
    assert payload["commutant_dimension"] == 1 and payload["invariant_form_dimension"] == 1


def test_irreducible_and_decompose_agree(runner):
    # spin 5 at resolution 24: one block, and a scalar commutant
    args = ["--spin", "10", "--resolution", "24", "--format", "json"]
    irreducible = runner.invoke(main, ["irreducible", *args])
    decomposed = runner.invoke(main, ["decompose", *args])
    assert irreducible.exit_code == 0 and decomposed.exit_code == 0, irreducible.output
    assert json.loads(irreducible.output)["payload"]["irreducible"] is True
    assert json.loads(decomposed.output)["payload"]["block_degrees"] == [11]


def test_characters_command(runner):
    result = runner.invoke(main, ["characters", "--builtin", "circle", "--weights", "1,-1",
                                  "--resolution", "8", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    assert payload["degree"] == 2
    assert len(payload["values"]) == 8


def test_orthogonality_spins(runner):
    result = runner.invoke(main, ["orthogonality", "--spin", "0", "--spin", "1",
                                  "--spin", "2", "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["residuals"]["orthogonality"] <= 1e-6
    assert report["payload"]["degrees"] == [1, 2, 3]


def test_orthogonality_circle_weight_lists(runner):
    result = runner.invoke(main, ["orthogonality", "--weights", "0", "--weights", "1",
                                  "--weights", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["residuals"]["orthogonality"] <= 1e-12


@pytest.mark.parametrize("command", ["irreducible", "characters", "orthogonality"])
@pytest.mark.parametrize("weights", [",", ""])
def test_weights_without_any_weight_is_an_input_error(runner, command, weights):
    result = runner.invoke(main, [command, "--weights", weights])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "input error: --weights expects at least one integer" in result.output


def test_orthogonality_requires_reps(runner):
    result = runner.invoke(main, ["orthogonality", "--builtin", "su2"])
    assert result.exit_code == 1


def test_tolerance_failure_exit_code(runner, inputs):
    # an impossible tolerance turns a healthy run into exit code 2
    result = runner.invoke(main, ["haar-audit", "--builtin", "su2", "--resolution", "4",
                                  "--tol", "1e-18"])
    assert result.exit_code == 2
    assert "tolerance_failure" in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(runner, tol):
    # nan would pass every check and print invalid JSON; -1 would fail every one
    result = runner.invoke(main, ["haar-audit", "--builtin", "su2", "--resolution", "4",
                                  "--tol", tol, "--format", "json"])
    assert result.exit_code == 1
    assert "--tol" in result.stderr and result.stdout == ""


def test_json_reports_byte_identical(runner, inputs, tmp_path):
    args = ["decompose", "--group", str(inputs / "z2.json"),
            "--rep", str(inputs / "z2_mixed.json"), "--format", "json"]
    first = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
    second = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
    assert first.exit_code == 0 and second.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_text_report_shows_residuals(runner):
    result = runner.invoke(main, ["irreducible", "--spin", "1"])
    assert result.exit_code == 0
    assert "residual commutant" in result.output
    assert "elapsed" in result.output


def test_out_file_excludes_timing(runner, tmp_path, inputs):
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["unitarize", "--group", str(inputs / "z2.json"),
                                  "--rep", str(inputs / "z2_mixed.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert "elapsed" not in json.dumps(report)
    assert "timing" not in json.dumps(report)


@pytest.mark.parametrize("args", [
    ["irreducible", "--spin", "x"],
    ["irreducible", "--bogus", "1"],
    ["bogus"],
    ["irreducible", "--spin", "2", "--format", "yaml"],
    ["--bogus"],
])
def test_usage_errors_exit_1(runner, args):
    # click's own code for a usage error is 2, the tolerance-failure code
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Usage:" in result.stderr and "Error:" in result.stderr


def test_unwritable_out_is_an_input_error(runner, tmp_path):
    out = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["irreducible", "--spin", "2", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"input error: {out}: cannot write file (No such file or directory)\n"
    assert result.stdout == ""
    assert not out.parent.exists()


COMMAND_SUMMARIES = {
    "analyze-algebra": "Trace-form Gram matrix, compactness classification and center.",
    "haar-audit": "Audit the invariant-integral axioms on the standard probe inventory.",
    "unitarize": "Average the standard form over the group and change basis to unitary.",
    "irreducible": "Scalar-commutant irreducibility test with the invariant-form count.",
    "decompose": "Split a representation into irreducible blocks.",
    "characters": "Character values of a representation at the rule nodes.",
    "orthogonality": "Character-orthogonality residual matrix over a family of irreducibles.",
}


def test_help_lists_every_command_with_its_summary(runner):
    result = runner.invoke(main, ["--help"], terminal_width=200)
    assert result.exit_code == 0
    assert sorted(main.commands) == sorted(COMMAND_SUMMARIES)
    listed = {line.split()[0]: line for line in result.output.splitlines() if line.startswith("  ")}
    for name, summary in COMMAND_SUMMARIES.items():
        assert listed[name].endswith(summary)


def test_command_help_shows_its_docstring(runner):
    result = runner.invoke(main, ["irreducible", "--help"], terminal_width=200)
    assert result.exit_code == 0
    text = " ".join(result.output.split())
    assert COMMAND_SUMMARIES["irreducible"] in text
    assert "its gap to the character norm is a residual, so a rule that under-resolves " \
           "the input exits 2." in text


@pytest.mark.parametrize("command, field, data, message", [
    ("analyze-algebra", None, {"dim": 2, "structure_constants": [[0, 1, 0, "x"]]},
     "structure_constants[0]: value must be a finite number, got 'x'"),
    ("analyze-algebra", None, {"dim": True, "structure_constants": []},
     "'dim' must be a positive integer, got True"),
    ("haar-audit", "--group", {"kind": "finite", "mult_table": [[0, 1], [1, 0.0]]},
     "mult_table[1][1] must be an integer, got 0.0"),
])
def test_malformed_input_file_is_an_input_error(runner, tmp_path, command, field, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, [command, *([field] if field else []), str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"input error: {path}: {message}\n"


def test_a_resolution_beyond_memory_is_refused_without_a_traceback(runner):
    # numpy's arange of this many angles raised ValueError, a traceback
    huge = 99999999999999999999
    result = runner.invoke(main, ["irreducible", "--weights", "1", "--resolution", str(huge)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (f"error: resolution {huge} asks for a rule of {huge} nodes, "
                             "which cannot be allocated\n")


@pytest.mark.parametrize("kind", ["weights", "finite table"])
def test_integers_beyond_int64_are_input_errors(runner, tmp_path, kind):
    # numpy's int64 cast of this integer raised OverflowError, a traceback
    huge = 99999999999999999999
    if kind == "weights":
        args, where = ["irreducible", "--weights", f"1,{huge}"], "--weights: weights[1]"
    else:
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"kind": "finite", "mult_table": [[0, 1], [1, huge]]}))
        args, where = ["haar-audit", "--group", str(path)], f"{path}: mult_table[1][1]"
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"input error: {where} must be an integer in the int64 range, got {huge}\n"


@pytest.mark.parametrize("args, message", [
    (["irreducible", "--spin", "2", "--group", "z2.json", "--builtin", "z2"],
     "input error: give either --group or --builtin, not both"),
    (["irreducible", "--builtin", "su2"], "input error: exactly one of --rep, --spin, --weights is required"),
    (["irreducible", "--builtin", "circle", "--spin", "2"], "input error: --spin requires the su2 group"),
    (["irreducible", "--builtin", "su2", "--weights", "1,-1"],
     "input error: --weights requires the circle group"),
    (["characters", "--weights", "1,a"], "input error: --weights expects comma-separated integers, got '1,a'"),
    (["irreducible", "--spin", "2", "--resolution", "0"], "error: resolution must be a positive integer"),
], ids=["group-and-builtin", "no-representation", "spin-on-circle", "weights-on-su2", "weights-not-integers",
        "resolution-zero"])
def test_refused_option_combinations_exit_1(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(message)
