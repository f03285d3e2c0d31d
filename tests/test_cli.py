"""End-to-end tests for the command-line interface.

Commands run in-process through main(); one subprocess test pins down
byte-identical output across interpreter runs.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import namelogic
from namelogic import Not, parse_formula
from namelogic.cli import main
from namelogic.kripke import check, disjoint_union, model_from_dict, model_to_dict, random_model

FIGURE = str(Path(__file__).resolve().parent.parent / "figure1.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def run_json(capsys, *argv):
    code, captured = run(capsys, *argv)
    return code, json.loads(captured.out)


# ---------------------------------------------------------------------------
# check


def test_check_true_verdict(capsys):
    code, payload = run_json(
        capsys, "check", "--model", FIGURE, "--state", "w", "--formula", "S[n] p"
    )
    assert code == 0
    assert payload == {"value": True, "witness": "a"}


def test_check_false_verdict_with_path_witness(capsys):
    code, payload = run_json(
        capsys, "check", "--model", FIGURE, "--state", "v", "--formula", "C[m] !q"
    )
    assert code == 1
    assert payload["value"] is False
    path = payload["witness"]
    assert isinstance(path, list) and path[0] == "v" and len(path) >= 2


def test_check_missing_state_is_an_input_error(capsys):
    code, captured = run(capsys, "check", "--model", FIGURE, "--state", "zz", "--formula", "p")
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "command", [["check", "--state", "w", "--formula", "p"], ["validate"]]
)
def test_wrongly_typed_naming_map_is_an_input_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["w"],
        "agents": ["a"],
        "names": ["n"],
        "relations": {},
        "naming": {"w": ["a"]},
        "valuation": {"p": []},
    }))
    code, captured = run(capsys, command[0], "--model", str(bad), *command[1:])
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


_KRIPKE_DOC = {
    "states": ["w", "v"],
    "agents": ["a"],
    "names": ["n"],
    "relations": {"a": [["w", "w"], ["w", "v"]]},
    "naming": {"w": {"n": ["a"]}},
    "valuation": {"p": ["w"]},
}
_NBHD_DOC = {
    "states": ["w", "v"],
    "names": ["n"],
    "nu": {"w": {"n": [["w", "v"]]}},
    "valuation": {"p": ["w"]},
}
_CHECK = ("check", _KRIPKE_DOC, ["--state", "w", "--formula", "true"])
_ALGEBRA = ("algebra", _NBHD_DOC, [])


def _variant_id(case) -> str:
    (command, _, _), path, value = case
    return f"{command}-{'.'.join(path)}={json.dumps(value)}"


def _run_on_variant(capsys, tmp_path, command, base, extra, path, value):
    doc = json.loads(json.dumps(base))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    model = tmp_path / "doc.json"
    model.write_text(json.dumps(doc))
    return run(capsys, command, "--model", str(model), *extra)


_WRONG_LEAVES = [
    (_CHECK, ("naming", "w", "n"), 5),
    (_CHECK, ("valuation", "p"), 5),
    (_ALGEBRA, ("valuation", "p"), 5),
    (_ALGEBRA, ("nu", "w", "n"), 5),
    (_ALGEBRA, ("nu", "w", "n"), [5]),
]


@pytest.mark.parametrize("command, path, value", _WRONG_LEAVES,
                         ids=[_variant_id(c) for c in _WRONG_LEAVES])
def test_wrongly_typed_leaf_is_an_input_error(capsys, tmp_path, command, path, value):
    code, captured = _run_on_variant(capsys, tmp_path, *command, path, value)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


_STRINGS_FOR_LISTS = [
    (_CHECK, ("states",), "wv"),
    (_CHECK, ("agents",), "a"),
    (_CHECK, ("names",), "n"),
    (_CHECK, ("relations", "a"), "wv"),
    (_CHECK, ("relations", "a"), ["ww", "wv"]),
    (_CHECK, ("naming", "w", "n"), "a"),
    (_CHECK, ("valuation", "p"), "w"),
    (_ALGEBRA, ("states",), "wv"),
    (_ALGEBRA, ("names",), "n"),
    (_ALGEBRA, ("valuation", "p"), "w"),
    (_ALGEBRA, ("nu", "w", "n"), "wv"),
    (_ALGEBRA, ("nu", "w", "n"), ["wv"]),
]


@pytest.mark.parametrize("command, path, value", _STRINGS_FOR_LISTS,
                         ids=[_variant_id(c) for c in _STRINGS_FOR_LISTS])
def test_string_where_a_list_is_due_is_an_input_error(capsys, tmp_path, command, path, value):
    # iterated, each of these strings would read as a list of one-letter items
    code, captured = _run_on_variant(capsys, tmp_path, *command, path, value)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "must be a list" in captured.err


@pytest.mark.parametrize("command", [_CHECK, _ALGEBRA], ids=["check", "algebra"])
def test_well_typed_variant_documents_load(capsys, tmp_path, command):
    code, captured = _run_on_variant(capsys, tmp_path, *command, ("valuation", "q"), ["v"])
    assert code == 0, captured.err


def test_check_unreadable_model_is_an_input_error(capsys, tmp_path):
    bogus = tmp_path / "nope.json"
    code, captured = run(capsys, "check", "--model", str(bogus), "--state", "w", "--formula", "p")
    assert code == 2
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# sat / valid


def test_sat_unsat_exit_code(capsys):
    code, payload = run_json(capsys, "sat", "--formula", "S[n] p & !p")
    assert code == 1
    assert payload["verdict"] == "unsat"
    assert payload["model"] is None and payload["state"] is None


def test_sat_model_reverifies_through_the_library(capsys):
    chi = "S[n] p & !E[n] p"
    code, payload = run_json(capsys, "sat", "--formula", chi)
    assert code == 0
    assert payload["verdict"] == "sat"
    m = model_from_dict(payload["model"])
    assert check(m, payload["state"], parse_formula(chi)).value is True


def test_sat_fragment_violation_without_oracle(capsys):
    code, captured = run(capsys, "sat", "--formula", "D[n] p")
    assert code == 2
    assert "error:" in captured.err


def test_sat_oracle_route_handles_pooled_knowledge(capsys):
    code, payload = run_json(
        capsys, "sat", "--formula", "D[n] p", "--oracle", "--bounds", "2,2"
    )
    assert code == 0
    assert payload["verdict"] == "sat"
    m = model_from_dict(payload["model"])
    assert check(m, payload["state"], parse_formula("D[n] p")).value is True


def test_sat_oracle_miss_is_a_negative_verdict(capsys):
    code, payload = run_json(
        capsys, "sat", "--formula", "S[n] p & !p", "--oracle", "--bounds", "2,2"
    )
    assert code == 1
    assert payload["verdict"] == "sat-bounded-unknown"


def test_sat_bounds_require_the_oracle(capsys):
    code, captured = run(capsys, "sat", "--formula", "p", "--bounds", "2,2")
    assert code == 2
    assert "error:" in captured.err


def test_sat_malformed_bounds_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sat", "--formula", "p", "--oracle", "--bounds", "two"])
    assert exc.value.code == 2


def test_valid_affirmative(capsys):
    code, payload = run_json(capsys, "valid", "--formula", "S[n] p -> p")
    assert code == 0
    assert payload["verdict"] == "unsat"


def test_valid_negative_prints_a_countermodel(capsys):
    code, payload = run_json(capsys, "valid", "--formula", "E[n] p -> p")
    assert code == 1
    assert payload["verdict"] == "sat"
    m = model_from_dict(payload["model"])
    assert check(m, payload["state"], Not(parse_formula("E[n] p -> p"))).value is True


def test_formula_dash_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("S[n] p & !p"))
    code, payload = run_json(capsys, "sat", "--formula", "-")
    assert code == 1
    assert payload["verdict"] == "unsat"


def test_unparseable_formula_is_an_input_error(capsys):
    code, captured = run(capsys, "sat", "--formula", "S[n")
    assert code == 2
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# bisim


def test_bisim_same_point_twice(capsys):
    code, payload = run_json(
        capsys, "bisim",
        "--model1", FIGURE, "--state1", "w", "--model2", FIGURE, "--state2", "w",
    )
    assert code == 0
    assert payload == {"bisimilar": True}


def test_bisim_distinguisher_is_reverified(capsys):
    code, payload = run_json(
        capsys, "bisim",
        "--model1", FIGURE, "--state1", "w", "--model2", FIGURE, "--state2", "s",
        "--distinguish",
    )
    assert code == 1
    assert payload["bisimilar"] is False
    f = parse_formula(payload["distinguisher"])
    fig = model_from_dict(json.loads(Path(FIGURE).read_text()))
    assert check(fig, "w", f).value is True
    assert check(fig, "s", f).value is False


def test_bisim_atom_difference_distinguisher(capsys):
    _, payload = run_json(
        capsys, "bisim",
        "--model1", FIGURE, "--state1", "w", "--model2", FIGURE, "--state2", "s",
        "--distinguish",
    )
    assert payload["distinguisher"] == "p"


def _one_state(path, props, names):
    # one agent bearing every name at the only state
    path.write_text(json.dumps({
        "states": ["x"],
        "agents": ["a"],
        "names": names,
        "relations": {"a": [["x", "x"]]},
        "naming": {"x": {n: ["a"] for n in names}},
        "valuation": {p: ["x"] for p in props},
    }))
    return str(path)


@pytest.mark.parametrize("extra", [{"props": ["p", "r"]}, {"names": ["n", "k"]}])
@pytest.mark.parametrize("richer", [1, 2])
def test_bisim_distinguisher_across_vocabularies(capsys, tmp_path, extra, richer):
    # one model declares a proposition or a name the other lacks; the
    # distinguisher uses it, so it is re-verified where both are declared
    base = {"props": ["p"], "names": ["n"]}
    rich = _one_state(tmp_path / "rich.json", **{**base, **extra})
    poor = _one_state(tmp_path / "poor.json", **base)
    left, right = (rich, poor) if richer == 1 else (poor, rich)
    code, payload = run_json(
        capsys, "bisim",
        "--model1", left, "--state1", "x", "--model2", right, "--state2", "x",
        "--distinguish",
    )
    assert code == 1
    assert payload["bisimilar"] is False
    f = parse_formula(payload["distinguisher"])
    union = disjoint_union([model_from_dict(json.loads(Path(p).read_text())) for p in (left, right)])
    assert check(union, "0:x", f).value is True
    assert check(union, "1:x", f).value is False


def test_bisim_unknown_state_is_an_input_error(capsys):
    code, captured = run(
        capsys, "bisim",
        "--model1", FIGURE, "--state1", "zz", "--model2", FIGURE, "--state2", "w",
    )
    assert code == 2
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# translate


def test_translate_figure_to_neighborhood(capsys):
    code, payload = run_json(capsys, "translate", "--model", FIGURE, "--to", "nbhd")
    assert code == 0
    # the two name bearers at w see different blocks
    assert payload["nu"]["w"]["n"] == [["u", "w"], ["v", "w"]]


def test_translate_round_trip_preserves_truth(capsys, tmp_path):
    _, payload = run_json(capsys, "translate", "--model", FIGURE, "--to", "nbhd")
    nbhd_path = tmp_path / "fig_nbhd.json"
    nbhd_path.write_text(json.dumps(payload))
    code, back = run_json(capsys, "translate", "--model", str(nbhd_path), "--to", "kripke")
    assert code == 0
    m = model_from_dict(back)
    for text, state, expected in [("S[n] p", "w", True), ("E[n] p", "w", False)]:
        assert check(m, state, parse_formula(text)).value is expected


def test_translate_rejects_non_reflexive_input(capsys, tmp_path):
    crooked = tmp_path / "crooked.json"
    crooked.write_text(json.dumps({
        "states": ["x", "y"],
        "names": ["n"],
        "nu": {"x": {"n": [["y"]]}},
        "valuation": {"p": ["x"]},
    }))
    code, captured = run(capsys, "translate", "--model", str(crooked), "--to", "kripke")
    assert code == 2
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# validate / random / algebra


def test_validate_modes_and_exit_codes(capsys):
    code, payload = run_json(capsys, "validate", "--model", FIGURE, "--mode", "lenient")
    assert code == 0 and payload["ok"] is True
    warnings = [d for d in payload["diagnostics"] if d["level"] == "warning"]
    assert len(warnings) == 2
    assert {d["code"] for d in warnings} == {"edge-from-unnamed-source"}

    code, payload = run_json(capsys, "validate", "--model", FIGURE, "--mode", "strict")
    assert code == 1 and payload["ok"] is False
    assert any(d["level"] == "error" for d in payload["diagnostics"])

    code, payload = run_json(capsys, "validate", "--model", FIGURE, "--mode", "epistemic")
    assert code == 0 and payload["ok"] is True


def test_random_matches_the_library(capsys):
    code, payload = run_json(capsys, "random", "--states", "5", "--seed", "11")
    assert code == 0
    assert payload == model_to_dict(random_model(states=5, seed=11))


def test_random_is_deterministic(capsys):
    _, first = run(capsys, "random", "--seed", "3")
    _, second = run(capsys, "random", "--seed", "3")
    assert first.out == second.out


def test_algebra_on_translated_figure(capsys, tmp_path):
    _, payload = run_json(capsys, "translate", "--model", FIGURE, "--to", "nbhd")
    nbhd_path = tmp_path / "fig_nbhd.json"
    nbhd_path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "algebra", "--model", str(nbhd_path))
    assert code == 0
    assert report == {"ok": True, "diagnostics": []}


@pytest.mark.parametrize("doc", [
    None,  # figure1.json, a relational model
    {"states": ["x"], "names": ["n"], "valuation": {}},
    {"states": ["x"], "names": ["n"], "nu": {"x": ["a"]}, "valuation": {}},
])
def test_algebra_rejects_documents_without_neighborhood_families(capsys, tmp_path, doc):
    # read as empty neighborhood models, the first two would pass every law
    model = FIGURE
    if doc is not None:
        model = str(tmp_path / "doc.json")
        Path(model).write_text(json.dumps(doc))
    code, captured = run(capsys, "algebra", "--model", model)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_algebra_flags_empty_neighborhoods(capsys, tmp_path):
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "states": ["x"],
        "names": ["n"],
        "nu": {"x": {"n": [[]]}},
        "valuation": {"p": []},
    }))
    code, report = run_json(capsys, "algebra", "--model", str(degenerate))
    assert code == 0
    assert any(d["code"] == "duality-empty-neighborhood" for d in report["diagnostics"])


# ---------------------------------------------------------------------------
# Output discipline


def test_pretty_changes_whitespace_only(capsys):
    _, compact = run(capsys, "sat", "--formula", "S[n] p & !E[n] p")
    _, pretty = run(capsys, "sat", "--formula", "S[n] p & !E[n] p", "--pretty")
    assert pretty.out != compact.out
    redone = json.dumps(json.loads(pretty.out), sort_keys=True, separators=(",", ":"))
    assert redone + "\n" == compact.out


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_stable_across_interpreter_runs():
    # The child gets a minimal environment, plus the directory holding the
    # namelogic package this process imported, so it runs the same code
    # whether that comes from src/ or from an installed package.
    package_root = str(Path(namelogic.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "namelogic.cli", "sat", "--formula", "S[n] p & !E[n] p"]
    runs = [
        subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        for seed in ("1", "2")
    ]
    assert runs[0].returncode == 0 and runs[1].returncode == 0, [child.stderr for child in runs]
    assert runs[0].stdout == runs[1].stdout
