"""Neighborhood semantics, translations, and complex algebra tests."""

import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namelogic import (
    And,
    E,
    ModelFormatError,
    Not,
    NotReflexiveError,
    Or,
    Prop,
    S,
    TRUE,
    FALSE,
    UndeclaredSymbolError,
    UnsupportedFragmentError,
    parse_formula,
)
from namelogic.kripke import check, extension, model_from_dict, random_model
from namelogic.neighborhood import (
    NeighborhoodModel,
    check_core_morphism,
    check_nbhd,
    extension_nbhd,
    kripke_to_nbhd,
    nbhd_from_dict,
    nbhd_to_dict,
    nbhd_to_kripke,
    stateset_id,
    verify_algebra_equations,
)

from helpers import reference_extension_nbhd

FIGURE = Path(__file__).resolve().parent.parent / "figure1.json"


@pytest.fixture(scope="module")
def fig():
    return model_from_dict(json.loads(FIGURE.read_text()))


@pytest.fixture(scope="module")
def fig_nbhd(fig):
    return kripke_to_nbhd(fig)


def test_translation_families(fig_nbhd):
    wv, wu = frozenset({"w", "v"}), frozenset({"w", "u"})
    assert fig_nbhd.family("w", "n") == frozenset({wv, wu})
    assert fig_nbhd.family("w", "m") == frozenset()
    assert fig_nbhd.family("v", "n") == frozenset({wv})
    assert fig_nbhd.family("s", "m") == frozenset(
        {frozenset({"s", "u"}), frozenset({"v", "s"})}
    )
    assert fig_nbhd.is_reflexive()


def test_translated_satisfaction(fig_nbhd):
    assert check_nbhd(fig_nbhd, "w", parse_formula("S[n] p")) is True
    assert check_nbhd(fig_nbhd, "w", parse_formula("E[n] p")) is False
    assert check_nbhd(fig_nbhd, "w", parse_formula("!S[m] p & E[m] p & E[m] !p"))


def test_empty_family_is_vacuous():
    m = NeighborhoodModel.make(
        states=["x"], names=["n"], nu={}, valuation={"p": []}
    )
    assert check_nbhd(m, "x", E("n", Prop("p"))) is True
    assert check_nbhd(m, "x", S("n", Prop("p"))) is False


def test_singleton_family():
    m = NeighborhoodModel.make(
        states=["x"], names=["n"], nu={("x", "n"): [["x"]]}, valuation={"p": ["x"]}
    )
    assert check_nbhd(m, "x", E("n", Prop("p"))) is True
    assert check_nbhd(m, "x", S("n", Prop("p"))) is True


def test_unsupported_modalities(fig_nbhd):
    for text in ("C[n] p", "D[n] p", "B[a;n] p"):
        with pytest.raises(UnsupportedFragmentError):
            check_nbhd(fig_nbhd, "w", parse_formula(text))


def test_unsupported_modality_named_is_the_outermost(fig_nbhd):
    # formulas without C, D or B skip the walk; one with them is walked
    # outermost first, so the C is named, not the D inside it
    with pytest.raises(UnsupportedFragmentError) as err:
        check_nbhd(fig_nbhd, "w", parse_formula("S[n] p & E[m] C[n] (q | D[m] p)"))
    assert str(err.value) == "C has no neighborhood reading; only E and S do"


def test_undeclared_symbols(fig_nbhd):
    with pytest.raises(UndeclaredSymbolError):
        check_nbhd(fig_nbhd, "nowhere", Prop("p"))
    with pytest.raises(UndeclaredSymbolError):
        check_nbhd(fig_nbhd, "w", S("k", Prop("p")))
    with pytest.raises(UndeclaredSymbolError):
        check_nbhd(fig_nbhd, "w", Prop("z"))


def test_back_translation_single_state():
    m = NeighborhoodModel.make(
        states=["x"], names=["n"], nu={("x", "n"): [["x"]]}, valuation={}
    )
    k = nbhd_to_kripke(m)
    assert k.agents == frozenset({"{x}"})
    assert k.named("x", "n") == frozenset({"{x}"})
    assert k.successors("{x}", "x") == frozenset({"x"})


def test_back_translation_partial_naming():
    m = NeighborhoodModel.make(
        states=["w", "v"],
        names=["n"],
        nu={("w", "n"): [["w", "v"]]},
        valuation={},
    )
    k = nbhd_to_kripke(m)
    agent = stateset_id({"w", "v"})
    assert agent == "{v,w}"
    assert k.named("w", "n") == frozenset({agent})
    assert k.named("v", "n") == frozenset()


def test_back_translation_keeps_comma_named_states_apart():
    # unquoted, "{a,b}" would name both {"a,b"} and {"a", "b"}, and the two
    # neighborhoods would become one agent
    assert stateset_id({"a,b"}) == '{"a,b"}'
    assert stateset_id({"a", "b"}) == "{a,b}"
    assert stateset_id({'x"', "y\\"}) == '{"x\\"","y\\\\"}'
    m = NeighborhoodModel.make(
        states=["a,b", "a", "b"],
        names=["n"],
        nu={("a,b", "n"): [["a,b"]], ("a", "n"): [["a", "b"]], ("b", "n"): [["a", "b"]]},
        valuation={"p": ["a,b"]},
    )
    k = nbhd_to_kripke(m)
    assert len(k.agents) == 2
    assert extension_nbhd(m, parse_formula("E[n] p")) == {"a,b"}
    for text in ("E[n] p", "S[n] p", "E[n] !p", "S[n] !p", "!E[n] S[n] p"):
        f = parse_formula(text)
        assert extension(k, f) == extension_nbhd(m, f), text


def test_back_translation_requires_reflexivity():
    m = NeighborhoodModel.make(
        states=["x", "y"], names=["n"], nu={("x", "n"): [["y"]]}, valuation={}
    )
    assert not m.is_reflexive()
    with pytest.raises(NotReflexiveError):
        nbhd_to_kripke(m)


JUDGMENTS = [
    ("w", "S[n] p & !E[n] p"),
    ("w", "!S[m] p & E[m] p & E[m] !p"),
    ("u", "S[m] q & !S[m] S[m] q"),
    ("s", "!S[n] p & !S[n] !S[n] p"),
]


@pytest.mark.parametrize("state,text", JUDGMENTS)
def test_round_trip_agrees_on_examples(fig, fig_nbhd, state, text):
    back = nbhd_to_kripke(fig_nbhd)
    f = parse_formula(text)
    assert check(back, state, f).value is check(fig, state, f).value is True


def test_core_morphism_identity(fig_nbhd):
    ident = {w: w for w in fig_nbhd.states}
    assert check_core_morphism(fig_nbhd, fig_nbhd, ident) is True


def test_core_morphism_between_renamed_singletons():
    src = NeighborhoodModel.make(
        states=["x"], names=["n"], nu={("x", "n"): [["x"]]}, valuation={}
    )
    dst = NeighborhoodModel.make(
        states=["y"], names=["n"], nu={("y", "n"): [["y"]]}, valuation={}
    )
    assert check_core_morphism(src, dst, {"x": "y"}) is True


def test_core_morphism_forth_failure():
    src = NeighborhoodModel.make(
        states=["w", "v"],
        names=["n"],
        nu={("w", "n"): [["w"], ["w", "v"]], ("v", "n"): [["v"]]},
        valuation={},
    )
    dst = NeighborhoodModel.make(
        states=["z", "y"],
        names=["n"],
        nu={("z", "n"): [["z"]], ("y", "n"): [["y"]]},
        valuation={},
    )
    # the two-element neighborhood has no image family member at z
    assert check_core_morphism(src, dst, {"w": "z", "v": "y"}) is False


def test_core_morphism_back_failure():
    src = NeighborhoodModel.make(
        states=["x"], names=["n"], nu={("x", "n"): [["x"]]}, valuation={}
    )
    dst = NeighborhoodModel.make(
        states=["y"],
        names=["n"],
        nu={("y", "n"): [["y"], []]},
        valuation={},
    )
    # the empty target neighborhood is nobody's image
    assert check_core_morphism(src, dst, {"x": "y"}) is False


def test_core_morphism_requires_total_map(fig_nbhd):
    with pytest.raises(UndeclaredSymbolError):
        check_core_morphism(fig_nbhd, fig_nbhd, {"w": "w"})


def test_algebra_operators_at_top_and_bottom(fig_nbhd):
    # the complex algebra's operators are the E/S truth clauses on subsets
    wv = NeighborhoodModel(fig_nbhd.states, fig_nbhd.names, fig_nbhd.nu, {"x": frozenset({"w", "v"})})
    assert extension_nbhd(fig_nbhd, E("n", TRUE)) == fig_nbhd.states
    assert extension_nbhd(fig_nbhd, S("n", FALSE)) == frozenset()
    assert extension_nbhd(wv, S("n", Prop("x"))) == frozenset({"w", "v"})


def test_algebra_equations_hold_on_figure(fig_nbhd):
    assert verify_algebra_equations(fig_nbhd) == []


def test_algebra_equation_duality_flagged():
    m = NeighborhoodModel.make(
        states=["w"], names=["n"], nu={("w", "n"): [[]]}, valuation={}
    )
    diags = verify_algebra_equations(m)
    assert [d.code for d in diags] == ["duality-empty-neighborhood"]
    assert diags[0].level == "warning"


def test_nbhd_dict_round_trip(fig_nbhd):
    assert nbhd_from_dict(nbhd_to_dict(fig_nbhd)) == fig_nbhd


def test_nbhd_from_dict_rejects_bad_documents():
    with pytest.raises(ModelFormatError):
        nbhd_from_dict({"nu": {}})
    with pytest.raises(ModelFormatError):
        nbhd_from_dict(
            {"states": ["x"], "names": ["n"], "nu": {"x": {"n": [["ghost"]]}}}
        )
    with pytest.raises(ModelFormatError):
        nbhd_from_dict({"states": ["x"], "names": [], "nu": {}, "valuation": {"p": ["y"]}})
    # a JSON key is always a string, but a document built in Python need not be
    doc = {"states": ["w"], "names": ["n"], "nu": {"w": {"n": [["w"]]}}, "valuation": {"p": ["w"]}}
    for key, value in [("nu", {1: {"n": [["w"]]}}), ("nu", {"w": {1: [["w"]]}}),
                       ("valuation", {1: ["w"]})]:
        with pytest.raises(ModelFormatError, match="1 is not a string"):
            nbhd_from_dict({**doc, key: value})


@pytest.mark.parametrize("prop", ["true", "false", "P", "a,b", "", " p"])
def test_nbhd_from_dict_refuses_propositions_no_formula_names(prop):
    doc = {"states": ["w"], "names": [], "nu": {}, "valuation": {prop: ["w"]}}
    with pytest.raises(ModelFormatError, match="not a proposition"):
        nbhd_from_dict(doc)


# ---------------------------------------------------------------------------
# Properties

def _es_formulas(max_leaves=5):
    atoms = st.sampled_from([Prop("p"), Prop("q"), TRUE, FALSE])

    def extend(kids):
        named = st.tuples(st.sampled_from(["n", "m"]), kids)
        return st.one_of(
            kids.map(Not),
            named.map(lambda t: E(*t)),
            named.map(lambda t: S(*t)),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
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
@given(m=_models, f=_es_formulas())
def test_translation_preserves_truth(m, f):
    nb = kripke_to_nbhd(m)
    for w in m.states:
        assert check(m, w, f).value == check_nbhd(nb, w, f)


@settings(max_examples=60, deadline=None)
@given(m=_models, f=_es_formulas())
def test_round_trip_preserves_truth(m, f):
    back = nbhd_to_kripke(kripke_to_nbhd(m))
    for w in m.states:
        assert check(m, w, f).value == check(back, w, f).value


@settings(max_examples=40, deadline=None)
@given(m=_models, f=_es_formulas(), g=_es_formulas())
def test_someone_clause_is_monotone(m, f, g):
    nb = kripke_to_nbhd(m)
    weaker = extension_nbhd(nb, Or(f, g))
    assert extension_nbhd(nb, S("n", f)) <= extension_nbhd(nb, S("n", Or(f, g)))
    assert extension_nbhd(nb, f) <= weaker


@settings(max_examples=30, deadline=None)
@given(m=_models)
def test_algebra_equations_hold_on_reflexive_frames(m):
    assert verify_algebra_equations(kripke_to_nbhd(m)) == []


@st.composite
def _nbhd_models(draw):
    """1-4 states and 1-2 names, each family 0-3 arbitrary sets: a member
    may be empty, omit its state or hold the undeclared state z, which
    bears families too."""
    states = ["s0", "s1", "s2", "s3"][: draw(st.integers(1, 4))]
    names = ["n", "m"][: draw(st.integers(1, 2))]
    members = st.frozensets(st.sampled_from([*states, "z"]))
    nu = {(w, n): draw(st.lists(members, max_size=3)) for w in [*states, "z"] for n in names}
    return NeighborhoodModel.make(states, names, nu, {})


@settings(max_examples=40, deadline=None)
@given(m=_nbhd_models())
def test_meet_and_someone_laws_hold_for_every_family(m):
    # laws 2 and 3 of the complex algebra, which verify_algebra_equations
    # does not evaluate, on every pair of sets of mentioned states
    laws = [
        parse_formula(text)
        for n in sorted(m.names)
        for text in (f"E[{n}] (x & y) <-> E[{n}] x & E[{n}] y",
                     f"S[{n}] x & E[{n}] y -> S[{n}] (x & y)")
    ]
    universe = sorted(m.states | {"z"})
    subsets = [frozenset(c) for r in range(len(universe) + 1) for c in combinations(universe, r)]
    for a in subsets:
        for b in subsets:
            ab = NeighborhoodModel(m.states, m.names, m.nu, {"x": a, "y": b})
            for f in laws:
                assert extension_nbhd(ab, f) == m.states, (a, b, f)
                assert reference_extension_nbhd(ab, f) == m.states, (a, b, f)
