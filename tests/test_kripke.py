"""Relational semantics tests.

The running four-state example (figure1.json) anchors the truth and
validation tests; its expected verdicts were worked out by hand from the
definitions and are frozen here.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namelogic import (
    And,
    B,
    BudgetExceededError,
    C,
    D,
    E,
    FALSE,
    ModelFormatError,
    Not,
    Prop,
    S,
    TRUE,
    UndeclaredSymbolError,
    parse_formula,
)
from namelogic.kripke import (
    KripkeModel,
    check,
    disjoint_union,
    distributed_by_subsets,
    extension,
    frame_valid,
    generated_submodel,
    has_errors,
    model_from_dict,
    model_to_dict,
    random_model,
    validate_model,
)

FIGURE = Path(__file__).resolve().parent.parent / "figure1.json"


@pytest.fixture(scope="module")
def fig():
    return model_from_dict(json.loads(FIGURE.read_text()))


def test_figure_model_loads(fig):
    assert fig.states == frozenset("wvsu")
    # closure ops were applied in order: loops everywhere, then symmetry
    assert fig.successors("a", "w") == frozenset({"w", "v"})
    assert fig.successors("b", "w") == frozenset({"w", "u"})
    assert fig.successors("a", "u") == frozenset({"s", "u"})
    assert fig.named("w", "n") == frozenset({"a", "b"})
    assert fig.named("w", "m") == frozenset()


# Verdicts frozen from a hand evaluation of the definitions on the
# four-state example.
JUDGMENTS = [
    ("w", "S[n] p & !E[n] p", True),
    ("w", "!S[m] p & E[m] p & E[m] !p", True),
    ("u", "S[m] q & !S[m] S[m] q", True),
    ("s", "!S[n] p & !S[n] !S[n] p", True),
    ("w", "C[n] (p | q)", True),
    ("v", "C[m] !q", False),
]


@pytest.mark.parametrize("state,text,expected", JUDGMENTS)
def test_judgments(fig, state, text, expected):
    assert check(fig, state, parse_formula(text)).value is expected


def test_distributed_strictly_stronger_than_someone(fig):
    # a considers {w, v} possible, b considers {w, u}: only pooling them
    # pins down w, where both p and q hold.
    conj = parse_formula("p & q")
    assert check(fig, "w", D("n", conj)).value is True
    assert check(fig, "w", S("n", conj)).value is False
    value, subset = distributed_by_subsets(fig, "w", "n", conj)
    assert value is True
    assert subset == ("a", "b")
    assert check(fig, "w", D("n", conj)).witness == ("a", "b")


def test_validation_lenient(fig):
    diags = validate_model(fig, "lenient")
    assert not has_errors(diags)
    warnings = [d for d in diags if d.level == "warning"]
    assert {d.code for d in warnings} == {"edge-from-unnamed-source"}
    # agent a bears no name at u, yet its relation leaves u
    assert all("'a'" in d.message and "'u'" in d.message for d in warnings)
    assert len(warnings) == 2


def test_validation_strict(fig):
    diags = validate_model(fig, "strict")
    assert has_errors(diags)
    assert {d.code for d in diags if d.level == "error"} == {"edge-from-unnamed-source"}


def test_validation_epistemic(fig):
    # equivalence relations plus warnings only: the example is epistemic
    # without being strict
    diags = validate_model(fig, "epistemic")
    assert not has_errors(diags)


def test_validation_unknown_mode(fig):
    with pytest.raises(ValueError):
        validate_model(fig, "pedantic")


def test_missing_loop_is_error_in_every_mode():
    m = KripkeModel.make(
        states=["x", "y"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x", "y"]]},
        naming={("x", "n"): ["a"]},
        valuation={"p": ["y"]},
    )
    for mode in ("lenient", "strict", "epistemic"):
        codes = {d.code for d in validate_model(m, mode) if d.level == "error"}
        assert "missing-reflexive-loop" in codes


def test_validation_referential_integrity():
    m = KripkeModel.make(
        states=["x"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x", "ghost"]]},
        naming={("x", "k"): ["b"]},
        valuation={"p": ["gone"]},
    )
    codes = {d.code for d in validate_model(m) if d.level == "error"}
    assert codes == {"undeclared-state", "undeclared-name", "undeclared-agent"}


def test_extensions_frozen(fig):
    assert extension(fig, Prop("p")) == frozenset({"w", "v"})
    assert extension(fig, parse_formula("E[m] p")) == frozenset({"w"})
    assert extension(fig, parse_formula("S[n] p")) == frozenset({"w", "v"})
    # vacuously common knowledge at s: nothing is reachable by name n from s
    assert extension(fig, parse_formula("C[n] (p | q)")) == fig.states


def test_memo_shares_equal_truth_sets():
    m = KripkeModel.make(
        states=["w", "v"], agents=[], names=[], relations={}, naming={},
        # x lies outside the state set, as validate_model would report
        valuation={"p": ["w", "x"], "q": ["w"], "r": ["w", "v"]},
    )
    q, r = Prop("q"), Prop("r")
    assert extension(m, And(q, r)) is extension(m, q)
    assert extension(m, parse_formula("q | r")) is extension(m, r)
    assert extension(m, parse_formula("!r")) == frozenset()
    assert extension(m, parse_formula("!(q & !q)")) is m.states
    # as large as the state set but not inside it: stored as computed
    assert extension(m, Prop("p")) == frozenset({"w", "x"})
    assert extension(m, parse_formula("p & p")) == frozenset({"w", "x"})


def test_witness_someone(fig):
    res = check(fig, "w", parse_formula("S[n] p"))
    assert res.value and res.witness == "a"
    assert fig.successors("a", "w") <= extension(fig, Prop("p"))


def test_witness_everyone_failure(fig):
    res = check(fig, "w", parse_formula("E[n] p"))
    assert not res.value
    agent, state = res.witness
    assert (agent, state) == ("b", "u")
    assert agent in fig.named("w", "n")
    assert state in fig.successors(agent, "w")
    assert state not in extension(fig, Prop("p"))


def test_witness_common_failure_path(fig):
    res = check(fig, "v", parse_formula("C[m] !q"))
    assert not res.value
    assert res.witness == ("v", "s", "u")
    # every hop follows some agent the name picks out at the source
    for x, y in zip(res.witness, res.witness[1:]):
        assert any(y in fig.successors(a, x) for a in fig.named(x, "m"))
    assert res.witness[-1] not in extension(fig, parse_formula("!q"))


def test_truthresult_behaves_like_bool(fig):
    res = check(fig, "w", Prop("p"))
    assert res
    assert res == True  # noqa: E712
    assert res != check(fig, "s", Prop("p"))


def test_check_rejects_undeclared_symbols(fig):
    with pytest.raises(UndeclaredSymbolError):
        check(fig, "w", Prop("z"))
    with pytest.raises(UndeclaredSymbolError):
        check(fig, "nowhere", Prop("p"))
    with pytest.raises(UndeclaredSymbolError):
        check(fig, "w", S("k", Prop("p")))
    with pytest.raises(UndeclaredSymbolError):
        check(fig, "w", B("c", "n", Prop("p")))


def test_frame_validity(fig):
    # loops at named states force factivity of "someone named n knows"
    assert frame_valid(fig, parse_formula("S[n] p -> p"))
    # but "everyone named n knows" is vacuous where the name is empty
    assert not frame_valid(fig, parse_formula("E[n] p -> p"))


def test_frame_validity_budget(fig):
    wide = parse_formula("p1 & p2 & p3 & p4 & p5")
    with pytest.raises(BudgetExceededError):
        frame_valid(fig, wide, max_bits=16)


def test_generated_submodel():
    m = KripkeModel.make(
        states=["x", "y", "z"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x", "x"], ["x", "y"], ["y", "y"], ["z", "x"]]},
        naming={("x", "n"): ["a"], ("y", "n"): ["a"], ("z", "n"): ["a"]},
        valuation={"p": ["x", "z"]},
    )
    sub = generated_submodel(m, "x")
    assert sub.states == frozenset({"x", "y"})
    for text in ("S[n] p", "E[n] p", "C[n] p", "D[n] p", "B[a;n] p"):
        f = parse_formula(text)
        assert check(sub, "x", f).value == check(m, "x", f).value


def test_disjoint_union_preserves_truth(fig):
    union = disjoint_union([fig, fig])
    assert union.states == frozenset(f"{i}:{s}" for i in (0, 1) for s in fig.states)
    assert not has_errors(validate_model(union))
    for state, text, expected in JUDGMENTS:
        f = parse_formula(text)
        assert check(union, f"0:{state}", f).value is expected
        assert check(union, f"1:{state}", f).value is expected


def test_round_trip_dict(fig):
    assert model_from_dict(model_to_dict(fig)) == fig
    m = random_model(seed=7)
    assert model_from_dict(model_to_dict(m)) == m


def test_model_format_errors():
    with pytest.raises(ModelFormatError):
        model_from_dict({"relations": {}})
    with pytest.raises(ModelFormatError):
        model_from_dict(
            {"states": ["x"], "closure": ["euclidean"], "relations": {"a": []}}
        )


def test_random_model_deterministic():
    assert random_model(seed=3) == random_model(seed=3)
    assert random_model(seed=3) != random_model(seed=4)


@pytest.mark.parametrize("seed", range(8))
def test_random_model_validates(seed):
    assert not has_errors(validate_model(random_model(seed=seed)))


@pytest.mark.parametrize("seed", range(8))
def test_random_model_epistemic_validates(seed):
    m = random_model(states=5, agents=3, mode="epistemic", seed=seed)
    assert not has_errors(validate_model(m, "epistemic"))


def test_empty_name_semantics():
    # y bears no name: universal readings are vacuous, existential ones fail
    m = KripkeModel.make(
        states=["x", "y"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x", "x"], ["x", "y"]]},
        naming={("x", "n"): ["a"]},
        valuation={"p": ["x"]},
    )
    assert check(m, "y", E("n", FALSE)).value is True
    assert check(m, "y", S("n", TRUE)).value is False
    assert check(m, "y", D("n", TRUE)).value is False
    assert check(m, "y", C("n", FALSE)).value is True


# ---------------------------------------------------------------------------
# Properties over seeded random models

def _formulas(max_leaves=5):
    atoms = st.sampled_from([Prop("p"), Prop("q"), TRUE, FALSE])

    def extend(kids):
        unary = kids.map(Not)
        named = st.tuples(st.sampled_from(["n", "m"]), kids)
        return st.one_of(
            unary,
            named.map(lambda t: E(*t)),
            named.map(lambda t: S(*t)),
            named.map(lambda t: C(*t)),
            named.map(lambda t: D(*t)),
            st.tuples(st.sampled_from(["a", "b"]), named).map(
                lambda t: B(t[0], t[1][0], t[1][1])
            ),
            st.tuples(kids, kids).map(lambda t: And(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


_models = st.builds(
    random_model,
    states=st.integers(2, 5),
    edge_density=st.floats(0.1, 0.6),
    naming_density=st.floats(0.2, 0.7),
    seed=st.integers(0, 10**6),
)


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas(), g=_formulas())
def test_everyone_distributes_over_conjunction(m, f, g):
    assert extension(m, E("n", And(f, g))) == extension(m, E("n", f)) & extension(
        m, E("n", g)
    )


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas(), g=_formulas())
def test_someone_monotone(m, f, g):
    stronger = extension(m, S("n", And(f, g)))
    assert stronger <= extension(m, S("n", f))


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas())
def test_common_knowledge_fixpoint(m, f):
    unfolded = E("n", And(f, C("n", f)))
    assert extension(m, C("n", f)) == extension(m, unfolded)


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas())
def test_someone_yields_personal_knowledge_witness(m, f):
    for w in m.states:
        res = check(m, w, S("n", f))
        if res.value:
            a = res.witness
            assert a in m.named(w, "n")
            assert check(m, w, B(a, "n", f)).value is True


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas())
def test_distributed_two_routes_agree(m, f):
    for w in sorted(m.states):
        direct = check(m, w, D("n", f)).value
        subsets = distributed_by_subsets(m, w, "n", f)[0]
        assert direct == subsets


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_formulas())
def test_everyone_false_witness_reverifies(m, f):
    good = extension(m, f)
    for w in sorted(m.states):
        res = check(m, w, E("n", f))
        if not res.value:
            agent, state = res.witness
            assert agent in m.named(w, "n")
            assert state in m.successors(agent, w)
            assert state not in good


@settings(max_examples=40, deadline=None)
@given(m=_models, f=_formulas())
def test_common_false_witness_reverifies(m, f):
    good = extension(m, f)
    for w in sorted(m.states):
        res = check(m, w, C("n", f))
        if not res.value:
            path = res.witness
            assert path[0] == w and len(path) >= 2
            for x, y in zip(path, path[1:]):
                assert any(y in m.successors(a, x) for a in m.named(x, "n"))
            assert path[-1] not in good
