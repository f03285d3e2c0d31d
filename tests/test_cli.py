"""End-to-end tests for the command-line interface.

Commands run in-process through main(); one subprocess test pins down
byte-identical output across interpreter runs.
"""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import namelogic
from namelogic import Not, cli, kripke, parse_formula, print_formula
from namelogic.equivalence import distinguishing_formula
from namelogic.cli import main
from namelogic.kripke import (
    KripkeModel,
    check,
    disjoint_union,
    has_errors,
    model_from_dict,
    model_to_dict,
    random_model,
    validate_model,
)
from namelogic.neighborhood import kripke_to_nbhd, nbhd_to_dict

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
    # a number where an identifier is due
    (_CHECK, ("states",), ["w", "v", 1]),
    (_CHECK, ("agents",), ["a", 1]),
    (_CHECK, ("names",), ["n", 1]),
    (_CHECK, ("relations", "a"), [["w", "w"], ["w", 1]]),
    (_CHECK, ("naming", "w", "n"), ["a", 1]),
    (_CHECK, ("valuation", "p"), ["w", 1]),
    (_ALGEBRA, ("states",), ["w", "v", 1]),
    (_ALGEBRA, ("names",), ["n", 1]),
    (_ALGEBRA, ("nu", "w", "n"), [["w", 1]]),
    (_ALGEBRA, ("valuation", "p"), ["w", 1.5]),
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
    # an object where a list is due
    (_CHECK, ("states",), {"w": 1, "v": 2}),
    (_CHECK, ("agents",), {"a": 1}),
    (_CHECK, ("names",), {"n": 1}),
    (_CHECK, ("closure",), {"reflexive": 1}),
    (_CHECK, ("relations", "a"), [{"w": 0, "v": 0}]),
    (_CHECK, ("naming", "w", "n"), {"a": 1}),
    (_CHECK, ("valuation", "p"), {"w": 1}),
    (_ALGEBRA, ("states",), {"w": 1, "v": 2}),
    (_ALGEBRA, ("names",), {"n": 1}),
    (_ALGEBRA, ("valuation", "p"), {"w": 1}),
]


@pytest.mark.parametrize("command, path, value", _STRINGS_FOR_LISTS,
                         ids=[_variant_id(c) for c in _STRINGS_FOR_LISTS])
def test_string_where_a_list_is_due_is_an_input_error(capsys, tmp_path, command, path, value):
    # iterated, each of these strings would read as a list of its letters,
    # and each object as a list of its keys
    code, captured = _run_on_variant(capsys, tmp_path, *command, path, value)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "must be a list" in captured.err


@pytest.mark.parametrize("command", [_CHECK, _ALGEBRA], ids=["check", "algebra"])
def test_well_typed_variant_documents_load(capsys, tmp_path, command):
    code, captured = _run_on_variant(capsys, tmp_path, *command, ("valuation", "q"), ["v"])
    assert code == 0, captured.err


# numbers among the states: read as they stand, validation would sort 1
# beside "w", and so would the checker, each failing with a TypeError
_NUMBERED_DOC = {
    "states": [1, "w"],
    "agents": ["a"],
    "names": ["n"],
    "relations": {"a": [[1, 1], ["w", "w"]]},
    "naming": {"w": {"n": ["a"]}},
    "valuation": {"p": [1, "w"]},
}


@pytest.mark.parametrize(
    "command", [["check", "--state", "w", "--formula", "p"], ["validate"]], ids=["check", "validate"]
)
def test_numbered_states_are_an_input_error(capsys, tmp_path, command):
    model = tmp_path / "doc.json"
    model.write_text(json.dumps(_NUMBERED_DOC))
    code, captured = run(capsys, command[0], "--model", str(model), *command[1:])
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: states: 1 is not a string\n"


# a misspelled top-level key, renamed from the given one; read as absent, the
# first would leave the model without edges and make E[n] p true at w
_MISSPELLED_KEYS = [
    ("check", _KRIPKE_DOC, ["--state", "w", "--formula", "E[n] p"], "relations", "relation"),
    ("validate", _KRIPKE_DOC, [], "naming", "namings"),
    ("translate", _KRIPKE_DOC, ["--to", "nbhd"], "valuation", "valuations"),
    ("translate", _NBHD_DOC, ["--to", "kripke"], "valuation", "val"),
    ("algebra", _NBHD_DOC, [], "names", "name"),
]


@pytest.mark.parametrize(
    "command, base, extra, key, typo", _MISSPELLED_KEYS,
    ids=[f"{c[0]}-{c[4]}" for c in _MISSPELLED_KEYS],
)
def test_unknown_top_level_key_is_an_input_error(capsys, tmp_path, command, base, extra, key, typo):
    doc = dict(base)
    doc[typo] = doc.pop(key)
    model = tmp_path / "doc.json"
    model.write_text(json.dumps(doc))
    code, captured = run(capsys, command, "--model", str(model), *extra)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert repr(typo) in captured.err


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


def test_sat_oracle_on_a_known_miss_at_wide_bounds(capsys):
    # unsatisfiable, so every tier runs: the ones of 3 and 4 states are sampled
    start = time.perf_counter()
    code, captured = run(
        capsys, "sat", "--oracle", "--bounds", "4,3", "--formula", "E[n] p & !D[n] p & S[n] true"
    )
    assert time.perf_counter() - start < 20.0
    assert code == 1
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {
        "verdict": "sat-bounded-unknown",
        "model": None,
        "state": None,
        "stats": {"closure_size": 8, "initial_atoms": 0, "rounds": 0},
    }


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


@pytest.mark.parametrize("argv", [
    ["sat", "--formula=--"],
    ["valid", "--formula=--"],
    ["check", "--model", FIGURE, "--state=--", "--formula", "p"],
    ["check", "--model=--", "--state", "w", "--formula", "p"],
])
def test_an_option_given_as_two_dashes_is_an_input_error(capsys, argv):
    # --opt=-- gives the option the text "--", which no formula, state or
    # file of these commands is
    code, captured = run(capsys, *argv)
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")


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


def test_bisim_distinguisher_text_that_reads_back_otherwise_is_an_input_error(capsys, monkeypatch):
    # Not(Prop("true")) separates the points but prints as "!true", which
    # parses as the negated constant and holds at neither point.  The loaders
    # refuse a proposition named true, so the two models are made in code and
    # handed to the command in place of its two files.
    models = {
        path: KripkeModel(["w"], [], [], {}, {}, {"true": holds})
        for path, holds in (("m0.json", []), ("m1.json", ["w"]))
    }
    monkeypatch.setattr(cli, "_load_json", lambda path: path)
    monkeypatch.setattr(kripke, "model_from_dict", models.__getitem__)
    code, captured = run(
        capsys, "bisim",
        "--model1", "m0.json", "--state1", "w", "--model2", "m1.json", "--state2", "w",
        "--distinguish",
    )
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'!true'" in captured.err


def _self_looped_chain(n: int) -> dict:
    # x0 -> x1 -> ... -> x{n-1}, every state also seeing itself, one agent
    # named n everywhere, and p true at the last state only
    states = [f"x{i}" for i in range(n)]
    return {
        "states": states, "agents": ["a"], "names": ["n"],
        "relations": {"a": [[x, x] for x in states] + [list(pair) for pair in zip(states, states[1:])]},
        "naming": {x: {"n": ["a"]} for x in states},
        "valuation": {"p": states[-1:]},
    }


@pytest.mark.parametrize("n", [12, 30])
def test_bisim_distinguisher_too_long_to_print_comes_as_its_dag(tmp_path, n):
    # the distinguisher of x0 and x1 has 57 distinct subterms and a text of
    # 5,629 characters at 12 states, 408 and about 1.5e9 at 30 states: that
    # text is never built, and the numbered DAG is printed in its place
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_self_looped_chain(n)))
    start = time.perf_counter()
    child = _child("bisim", "--model1", str(path), "--state1", "x0",
                   "--model2", str(path), "--state2", "x1", "--distinguish")
    assert time.perf_counter() - start < 10
    assert child.returncode == 1, child.stderr
    assert child.stdout.count("\n") == 1
    payload = json.loads(child.stdout)
    assert payload["bisimilar"] is False
    m = model_from_dict(_self_looped_chain(n))
    f = distinguishing_formula(m, "x0", m, "x1")
    if n == 12:
        assert payload["distinguisher"] == print_formula(f)
        return
    dag = payload["distinguisher"]
    assert dag["form"] == "dag" and len(dag["nodes"]) == 408
    nodes = []
    for name, fields, ks in dag["nodes"]:  # read back through the public constructors
        nodes.append(getattr(namelogic, name)(*fields, *[nodes[k] for k in ks]))
    assert nodes[-1] == f


@pytest.mark.parametrize("prop", ["true", "false", "P", "a,b", "", " p"])
def test_model_with_a_proposition_no_formula_names_is_an_input_error(capsys, tmp_path, prop):
    # check --formula true would otherwise read the constant, not the proposition
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "states": ["w"], "agents": [], "names": [], "relations": {}, "naming": {},
        "valuation": {prop: []},
    }))
    code, captured = run(capsys, "check", "--model", str(path), "--state", "w", "--formula", "true")
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and repr(prop) in captured.err


def test_bisim_unknown_state_is_an_input_error(capsys):
    code, captured = run(
        capsys, "bisim",
        "--model1", FIGURE, "--state1", "zz", "--model2", FIGURE, "--state2", "w",
    )
    assert code == 2
    assert "error:" in captured.err


def test_bisim_edge_into_an_undeclared_state_is_an_input_error(capsys, tmp_path):
    dangling = tmp_path / "m.json"
    dangling.write_text(json.dumps({
        "states": ["w"],
        "agents": ["a"],
        "names": ["n"],
        "relations": {"a": [["w", "z"]]},
        "naming": {"w": {"n": ["a"]}},
        "valuation": {"p": ["w"]},
    }))
    for args in (["--model1", str(dangling), "--state1", "w", "--model2", FIGURE, "--state2", "w"],
                 ["--model1", FIGURE, "--state1", "w", "--model2", str(dangling), "--state2", "w",
                  "--distinguish"]):
        code, captured = run(capsys, "bisim", *args)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'z'" in captured.err


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


def test_translate_keeps_comma_named_states_apart(capsys, tmp_path):
    # E[n] p holds only at "a,b"; were {"a,b"} and {"a", "b"} one agent,
    # it would hold at all three states
    source = tmp_path / "comma.json"
    source.write_text(json.dumps({
        "states": ["a,b", "a", "b"],
        "names": ["n"],
        "nu": {"a,b": {"n": [["a,b"]]}, "a": {"n": [["a", "b"]]}, "b": {"n": [["a", "b"]]}},
        "valuation": {"p": ["a,b"]},
    }))
    code, back = run_json(capsys, "translate", "--model", str(source), "--to", "kripke")
    assert code == 0
    m = model_from_dict(back)
    assert sorted(m.agents) == ['{"a,b"}', "{a,b}"]
    for text, holds in [("E[n] p", {"a,b"}), ("S[n] p", {"a,b"}), ("E[n] !p", {"a", "b"})]:
        assert {w for w in m.states if check(m, w, parse_formula(text)).value} == holds


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


def test_translate_never_writes_a_document_its_loader_refuses(capsys, tmp_path):
    # a naming entry at an undeclared state would become a family there
    source = tmp_path / "ghost.json"
    source.write_text(json.dumps({
        "states": ["w"],
        "agents": ["a"],
        "names": ["n"],
        "relations": {"a": [["w", "w"], ["w", "z"]]},
        "naming": {"w": {"n": ["a"]}, "ghost": {"n": ["a"]}},
        "valuation": {"p": ["w"]},
    }))
    code, captured = run(capsys, "translate", "--model", str(source), "--to", "nbhd")
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {source}:")
    assert "undeclared state 'ghost'" in captured.err


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


@pytest.mark.parametrize("op", ["bogus", 5])
def test_validate_refuses_an_unknown_closure_op(capsys, tmp_path, op):
    # the document has no relations for the op to close
    model = tmp_path / "doc.json"
    model.write_text(json.dumps({"states": ["w"], "closure": [op]}))
    code, captured = run(capsys, "validate", "--model", str(model))
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _write(tmp_path, doc) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("broken", [False, True])
def test_validate_epistemic_on_a_large_equivalence_document(capsys, tmp_path, broken):
    # 120 states: a relates every state to every state, b each block of
    # ten; both bear n everywhere.  Broken drops b's edges between s0 and
    # s5 both ways, which leaves b symmetric and reflexive, not transitive.
    states = [f"s{i}" for i in range(120)]
    blocks = [states[i:i + 10] for i in range(0, 120, 10)]
    b = [[x, y] for block in blocks for x in block for y in block]
    if broken:
        b = [e for e in b if set(e) != {"s0", "s5"}]
    doc = {
        "states": states,
        "agents": ["a", "b"],
        "names": ["n"],
        "relations": {"a": [[x, y] for x in states for y in states], "b": b},
        "naming": {w: {"n": ["a", "b"]} for w in states},
        "valuation": {"p": states[::3]},
    }
    code, payload = run_json(
        capsys, "validate", "--model", _write(tmp_path, doc), "--mode", "epistemic"
    )
    diags = validate_model(model_from_dict(doc), "epistemic")
    assert payload == {
        "mode": "epistemic",
        "ok": not has_errors(diags),
        "diagnostics": [{"level": d.level, "code": d.code, "message": d.message} for d in diags],
    }
    assert code == (1 if broken else 0)
    assert [d["code"] for d in payload["diagnostics"]] == (
        ["not-equivalence-on-field"] if broken else []
    )


def test_check_on_a_large_transitively_closed_chain(capsys, tmp_path):
    states = [f"s{i}" for i in range(120)]
    doc = {
        "states": states,
        "agents": ["a"],
        "names": ["n"],
        "relations": {"a": [[states[i], states[i + 1]] for i in range(119)]},
        "naming": {w: {"n": ["a"]} for w in states},
        "valuation": {"p": states[:-1]},
        "closure": ["transitive"],
    }
    code, payload = run_json(
        capsys, "check", "--model", _write(tmp_path, doc), "--state", "s0", "--formula", "C[n] p"
    )
    res = check(model_from_dict(doc), "s0", parse_formula("C[n] p"))
    assert payload == {"value": res.value, "witness": list(res.witness)}
    # the closure gives s0 a step straight to s119, where p fails
    assert code == 1
    assert payload == {"value": False, "witness": ["s0", "s119"]}


def test_random_matches_the_library(capsys):
    code, payload = run_json(capsys, "random", "--states", "5", "--seed", "11")
    assert code == 0
    assert payload == model_to_dict(random_model(states=5, seed=11))


def test_random_is_deterministic(capsys):
    _, first = run(capsys, "random", "--seed", "3")
    _, second = run(capsys, "random", "--seed", "3")
    assert first.out == second.out


def test_random_refuses_impossible_counts(capsys):
    for argv in (["--agents", "-1"], ["--names", "-2"], ["--props", "-1"],
                 ["--states", "0"], ["--states", "-3"], ["--edge-density", "1.5"]):
        code, captured = run(capsys, "random", *argv)
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error:")


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


@pytest.mark.parametrize("states", [12, 40])
def test_algebra_on_a_large_translated_model(capsys, tmp_path, states):
    # 12 states took seconds when laws 2 and 3 ran over every pair of subsets
    nbhd = kripke_to_nbhd(random_model(states=states, seed=3))
    start = time.perf_counter()
    code, captured = run(capsys, "algebra", "--model", _write(tmp_path, nbhd_to_dict(nbhd)))
    assert time.perf_counter() - start < 3.0
    assert code == 0
    assert captured.out == '{"diagnostics":[],"ok":true}\n'


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


def _child(*args, stdin=None):
    """Run the CLI in a fresh interpreter on the package this process imported."""
    package_root = str(Path(namelogic.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-B", "-m", "namelogic.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )


@pytest.mark.parametrize(
    "text",
    [" & ".join(["p"] * 3000), "!" * 3000 + "p", "(" * 300 + "p" + ")" * 300, "E[n] " * 3000 + "p"],
    ids=["conjunction", "not-chain", "parentheses", "E-chain"],
)
def test_long_conjunction_gets_a_verdict(text):
    child = _child("check", "--model", FIGURE, "--state", "w", "--formula", "-", stdin=text)
    assert child.returncode in (0, 1), child.stderr
    assert "Traceback" not in child.stderr
    assert child.stdout.count("\n") == 1
    assert json.loads(child.stdout)["value"] is (child.returncode == 0)


@pytest.mark.parametrize("command", ["validate", "check"])
def test_deeply_nested_json_is_a_document_error(tmp_path, command):
    # the JSON decoder recurses; a document it cannot read is bad input
    # named as such, not a formula error
    nested = "[" * 100_000 + "]" * 100_000
    if command == "validate":
        path, text = tmp_path / "deep.json", nested
    else:
        path = tmp_path / "deep-valuation.json"
        doc = json.loads(Path(FIGURE).read_text())
        doc["valuation"]["p"] = "DEEP"
        text = json.dumps(doc).replace('"DEEP"', nested)
    path.write_text(text)
    args = ["--model", str(path)] + (["--state", "w", "--formula", "p"] if command == "check" else [])
    child = _child(command, *args)
    assert child.returncode == 2, child.stderr
    assert child.stdout == ""
    assert child.stderr == f"error: {path}: the JSON document nests too deeply\n"


def test_output_is_stable_across_interpreter_runs():
    # The child gets a minimal environment, plus the directory holding the
    # namelogic package this process imported, so it runs the same code
    # whether that comes from src/ or from an installed package.
    package_root = str(Path(namelogic.__file__).resolve().parent.parent)
    argv = [sys.executable, "-B", "-m", "namelogic.cli", "sat", "--formula", "S[n] p & !E[n] p"]
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


def test_importing_the_cli_loads_no_subsystem():
    # each command imports the subsystem it runs, so a child running check
    # or validate does not pay for decision, equivalence or neighborhood
    package_root = str(Path(namelogic.__file__).resolve().parent.parent)
    code = "import sys, namelogic.cli; print(*sorted(m for m in sys.modules if m.startswith('namelogic')))"
    child = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert child.returncode == 0, child.stderr
    loaded = child.stdout.split()
    assert "namelogic.cli" in loaded
    assert not {"namelogic.decision", "namelogic.equivalence", "namelogic.neighborhood"} & set(loaded)


def test_importing_the_package_loads_no_dataclasses():
    # the result records are __slots__ classes, so no command pays for
    # dataclasses or the inspect and ast modules it pulls in; pytest has
    # loaded them in this process, so the child compares its own modules
    # before and after the imports
    package_root = str(Path(namelogic.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); "
        "import namelogic.cli, namelogic.decision, namelogic.equivalence, namelogic.neighborhood; "
        "print(*sorted(set(sys.modules) - before))"
    )
    child = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert child.returncode == 0, child.stderr
    added = set(child.stdout.split())
    assert "namelogic.neighborhood" in added
    assert not {"dataclasses", "inspect"} & added


# ---------------------------------------------------------------------------
# The input contract: 0 yes, 1 no, 2 bad input, for any formula text and
# any document

_IDS = st.sampled_from(["w", "v", "a", "n", "p", "true", "a,b", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _IDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_IDS, inner, max_size=3),
    max_leaves=8,
)


def _subsets(values, **kwargs):
    return st.lists(st.sampled_from(values), unique=True, **kwargs)


@st.composite
def _damaged(draw, doc):
    """doc, or doc with one entry replaced by any JSON value."""
    key = draw(st.sampled_from([None, None, None, *doc, "extra"]))
    if key is not None:
        doc[key] = draw(_JSON)
    return doc


_STATES = ["w", "v", "a,b", ""]
# a proposition named true is refused at load, so it is only sometimes there
_PROPS = st.sampled_from([["p", "q"], ["p", "q", "true"]])


@st.composite
def _kripke_doc(draw):
    states = draw(_subsets(_STATES, min_size=1))
    agents, names = ["a", "b"], ["n", "m"]
    pairs = st.lists(st.lists(st.sampled_from(states), min_size=2, max_size=2), max_size=4)
    return draw(_damaged({
        "states": states,
        "agents": agents,
        "names": names,
        "relations": {a: draw(pairs) for a in agents},
        "naming": {w: {n: draw(_subsets(agents)) for n in names} for w in states},
        "valuation": {p: draw(_subsets(states)) for p in draw(_PROPS)},
    }))


@st.composite
def _nbhd_doc(draw):
    states = draw(_subsets(_STATES, min_size=1))
    names = ["n", "m"]
    family = st.lists(_subsets(states), max_size=2)
    return draw(_damaged({
        "states": states,
        "names": names,
        "nu": {w: {n: draw(family) for n in names} for w in states},
        "valuation": {p: draw(_subsets(states)) for p in draw(_PROPS)},
    }))


_FORMULA_TEXT = st.one_of(
    st.recursive(
        st.sampled_from(["p", "q", "true", "false"]),
        lambda inner: st.one_of(
            inner.map(lambda f: f"!({f})"),
            st.tuples(st.sampled_from(["E[n]", "S[n]", "C[m]", "D[n]", "B[a;n]"]), inner)
            .map(lambda t: f"{t[0]} ({t[1]})"),
            st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner)
            .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        ),
        max_leaves=5,
    ),
    st.lists(st.sampled_from(["p", "true", "!", "&", "->", "(", ")", "E[n]", "E[", "]", "X"]),
             max_size=8).map(" ".join),
    st.text(alphabet="pqEnS[];!&|-<>() \n", max_size=12).filter(lambda text: text != "-"),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_input_keeps_the_exit_code_contract(tmp_path, data):
    def doc(strategy, name):
        text = json.dumps(data.draw(strategy))
        cut = data.draw(st.sampled_from([None] * 7 + [len(text) // 2]))  # malformed JSON
        path = tmp_path / name
        path.write_text(text if cut is None else text[:cut])
        return str(path)

    formula = lambda: "--formula=" + data.draw(_FORMULA_TEXT)
    state = lambda: data.draw(st.sampled_from(_STATES) | _IDS)
    command = data.draw(st.sampled_from([
        "check", "validate", "translate", "algebra", "bisim", "sat", "oracle", "valid",
    ]))
    if command == "check":
        argv = ["check", "--model", doc(_kripke_doc(), "m.json"), "--state", state(), formula()]
    elif command == "validate":
        mode = data.draw(st.sampled_from(["lenient", "strict", "epistemic"]))
        argv = ["validate", "--model", doc(_kripke_doc(), "m.json"), "--mode", mode]
    elif command == "translate":
        to = data.draw(st.sampled_from(["nbhd", "kripke"]))
        source = doc(_kripke_doc() if to == "nbhd" else _nbhd_doc(), "m.json")
        argv = ["translate", "--model", source, "--to", to]
    elif command == "algebra":
        argv = ["algebra", "--model", doc(_nbhd_doc(), "m.json")]
    elif command == "bisim":
        argv = ["bisim", "--model1", doc(_kripke_doc(), "m1.json"), "--state1", state(),
                "--model2", doc(_kripke_doc(), "m2.json"), "--state2", state(), "--distinguish"]
    elif command == "oracle":
        argv = ["sat", "--oracle", "--bounds", "2,1", formula()]
    else:  # sat, valid
        argv = [command, formula()]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), argv
    else:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, argv
        json.loads(lines[0])
