"""Relational semantics tests.

The running four-state example (figure1.json) anchors the truth and
validation tests; its expected verdicts were worked out by hand from the
definitions and are frozen here.
"""

import functools
import gc
import hashlib
import json
import random
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_close_relation,
    reference_escapes,
    reference_extension,
    reference_extension_nbhd,
    reference_validate_model,
    sized_corpus,
)
from namelogic import (
    And,
    B,
    BudgetExceededError,
    C,
    D,
    E,
    FALSE,
    Formula,
    Iff,
    Implies,
    ModelFormatError,
    Not,
    Or,
    Prop,
    S,
    TRUE,
    UndeclaredSymbolError,
    parse_formula,
    print_formula,
    walk,
)
from namelogic.kripke import (
    KripkeModel,
    _close_relation,
    _edges,
    _row,
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
from namelogic import formula, kripke
from namelogic.formula import _program
from namelogic.decision import satisfiable, satisfiable_bounded, valid
from namelogic.equivalence import bisimilar, distinguishing_formula
from namelogic.neighborhood import extension_nbhd, kripke_to_nbhd, nbhd_to_kripke

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
    m = KripkeModel(
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
    m = KripkeModel(
        states=["x"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x", "ghost"]]},
        naming={("x", "k"): ["b"]},
        valuation={"p": ["gone"]},
    )
    codes = {d.code for d in validate_model(m) if d.level == "error"}
    assert codes == {"undeclared-state", "undeclared-name", "undeclared-agent"}


# Differential tests against the definitions in tests/helpers.py.  The pools
# mix declared symbols with ones the model leaves undeclared.

_STATE_POOL = ("w0", "w1", "w2", "w3", "w4")


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.frozensets(st.tuples(st.sampled_from(_STATE_POOL + ("x",)),
                                  st.sampled_from(_STATE_POOL + ("x",))), max_size=14),
    ops=st.lists(st.sampled_from(["reflexive", "symmetric", "transitive"]), max_size=4),
    states=st.frozensets(st.sampled_from(_STATE_POOL)),
)
def test_closure_ops_match_the_fixpoint(pairs, ops, states):
    # x is never declared: reflexivity skips it, symmetry and transitivity
    # do not
    order = sorted(states)
    bit = {s: 1 << i for i, s in enumerate(order)}
    row = _row(pairs, bit, order)
    _close_relation(row, ops, len(states))
    assert set(_edges(order, row)) == reference_close_relation(pairs, ops, states)


@st.composite
def _validation_fields(draw):
    """The six fields of models that may leave agents, states and names
    undeclared, carry stray edges, miss reflexive loops, act from unnamed
    sources and hold relations that are, or are one toggled edge away from,
    equivalences."""
    states = draw(st.frozensets(st.sampled_from(_STATE_POOL)))
    agents = draw(st.frozensets(st.sampled_from("abc"), min_size=1))
    names = draw(st.frozensets(st.sampled_from("nm"), min_size=1))
    stray = draw(st.integers(0, 2)) == 0
    state_pool = sorted(states | {"x", "y"} if stray else states)
    agent_pool = sorted(agents | {"z"} if stray else agents)
    name_pool = sorted(names | {"k"} if stray else names)
    if not state_pool:
        return states, agents, names, {}, {}, {}
    state = st.sampled_from(state_pool)
    edges = st.frozensets(st.tuples(state, state), max_size=3)
    relations = {}
    for a in agent_pool:
        if draw(st.booleans()):
            blocks = draw(st.lists(st.frozensets(state, min_size=1), max_size=3))
            pairs = {(x, y) for block in blocks for x in block for y in block}
            pairs ^= draw(edges)
        else:
            pairs = draw(st.frozensets(st.tuples(state, state), max_size=12))
        relations[a] = frozenset(pairs)
    naming = draw(st.dictionaries(
        st.tuples(state, st.sampled_from(name_pool)),
        st.frozensets(st.sampled_from(agent_pool), min_size=1),
        max_size=6,
    ))
    if draw(st.booleans()):  # give every bearer its loop
        for (w, _), group in naming.items():
            for a in group:
                relations[a] = relations.get(a, frozenset()) | {(w, w)}
    valuation = draw(st.dictionaries(st.sampled_from("pq"), st.frozensets(state), max_size=2))
    return states, agents, names, relations, naming, valuation


def _validation_models():
    return _validation_fields().map(lambda fields: KripkeModel(*fields))


@settings(max_examples=150, deadline=None)
@given(m=_validation_models())
def test_validation_matches_the_reference(m):
    for mode in ("lenient", "strict", "epistemic"):
        assert validate_model(m, mode) == reference_validate_model(m, mode)


def test_extensions_frozen(fig):
    assert extension(fig, Prop("p")) == frozenset({"w", "v"})
    assert extension(fig, parse_formula("E[m] p")) == frozenset({"w"})
    assert extension(fig, parse_formula("S[n] p")) == frozenset({"w", "v"})
    # vacuously common knowledge at s: nothing is reachable by name n from s
    assert extension(fig, parse_formula("C[n] (p | q)")) == fig.states


def test_memo_shares_equal_truth_sets():
    m = KripkeModel(
        states=["w", "v"], agents=[], names=[], relations={}, naming={},
        # x lies outside the state set, as validate_model would report
        valuation={"p": ["w", "x"], "q": ["w"], "r": ["w", "v"]},
    )
    q, r = Prop("q"), Prop("r")
    # values only: equal truth sets need not be one object
    assert extension(m, And(q, r)) == extension(m, q)
    assert extension(m, parse_formula("q | r")) == extension(m, r)
    assert extension(m, parse_formula("!r")) == frozenset()
    assert extension(m, parse_formula("!(q & !q)")) == m.states
    # as large as the state set but not inside it
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


def test_common_knowledge_witness_on_a_long_chain_is_prompt():
    # the witness walks x0 -> x1 -> ... one state a step; a step looked up
    # by a state's bit would hash an int as wide as the model
    n = 20_000
    xs = [f"x{i}" for i in range(n)]
    m = KripkeModel(
        states=xs, agents=["a"], names=["n"], relations={"a": list(zip(xs, xs[1:]))},
        naming={(x, "n"): ["a"] for x in xs}, valuation={"p": xs[:-1]},
    )
    start = time.perf_counter()
    res = check(m, "x0", parse_formula("C[n] p"))
    elapsed = time.perf_counter() - start
    assert not res.value
    assert res.witness == tuple(xs)
    # every hop follows the agent the name picks out at the source
    for x, y in zip(res.witness, res.witness[1:]):
        assert m.named(x, "n") == {"a"} and m.rows["a"][m.bit[x]] & m.bit[y]
    assert not m.holds("p", res.witness[-1])
    assert elapsed < 6, f"check took {elapsed:.2f} s"


# a false E, a true S, a false C and a true D on the figure, each with a witness
WITNESSED = [("w", "E[n] p"), ("w", "S[n] p"), ("v", "C[m] !q"), ("w", "D[n] p")]


@pytest.mark.parametrize("state,text", WITNESSED)
def test_a_text_parsed_again_gets_the_same_witness(state, text):
    m = model_from_dict(json.loads(FIGURE.read_text()))  # a memo of its own
    f, g = parse_formula(text), parse_formula(text)
    first, second = check(m, state, f), check(m, state, g)
    assert first.witness is not None
    assert (second.value, second.witness) == (first.value, first.witness)
    # the operand's mask rode beside the root's: g's operand was never numbered
    assert not hasattr(g.arg, "_prog")


class _Built(Exception):
    pass


def _refused(*args):
    raise _Built


def _checked(m, f):
    return [(r.value, r.witness) for r in (check(m, w, f) for w in sorted(m.states))]


def test_answering_a_parsed_query_builds_no_subterm():
    # the truth core, the symbol check and the witnesses read a parsed
    # formula's keys, its class and its name: no operand slot is read and
    # no subterm node is built, whatever the witness; a failure reports no
    # traceback, whose frames would print the formulas
    m = model_from_dict(json.loads(FIGURE.read_text()))
    nb = kripke_to_nbhd(m)
    texts = ["S[n] p", "D[n] p", "E[n] p", "C[n] p", "S[m] q", "E[m] q & C[m] q",
             "C[n] (p | q)", "E[n] (p -> q) & S[m] !q", "!" * 3000 + "p"]
    expected = {}
    for text in texts:
        f = parse_formula(text)
        expected[text] = (extension(m, f), _checked(m, f),
                          extension_nbhd(nb, f) if "C" not in text and "D" not in text else None)
    witnessed = {(text[0], value) for text, (_, rows, _) in expected.items()
                 for value, witness in rows if witness is not None}
    assert witnessed == {("S", True), ("D", True), ("E", False), ("C", False)}
    answers = {}
    try:
        with pytest.MonkeyPatch.context() as mp:
            refused = property(_refused)
            for cls, field in ((Not, "arg"), (formula._Modal, "arg"), (B, "arg"),
                               (formula._Binary, "left"), (formula._Binary, "right")):
                mp.setattr(cls, field, refused)
            mp.setattr(formula, "_unfold", _refused)
            mp.setattr(formula, "_build", _refused)
            for text in texts:
                f = parse_formula(text)
                answers[text] = (extension(m, f), _checked(m, f),
                                 extension_nbhd(nb, f) if expected[text][2] is not None else None)
    except _Built:
        pytest.fail("a subterm was built", pytrace=False)
    assert answers == expected


def test_a_repeated_query_compares_once_per_truth_lookup(monkeypatch):
    m = model_from_dict(json.loads(FIGURE.read_text()))
    deep = "".join(f"E[{'nm'[i % 2]}] " for i in range(3000)) + "p"
    texts = [text for _, text in WITNESSED] + [deep, "!" * 3000 + "p", "p & q | !p"]
    for text in texts:
        check(m, "w", parse_formula(text))
    calls = {"eq": 0, "truth": 0}
    eq, truth = Formula.__eq__, kripke._truth

    def counted_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    def counted_truth(*args):
        calls["truth"] += 1
        return truth(*args)

    monkeypatch.setattr(Formula, "__eq__", counted_eq)
    monkeypatch.setattr(kripke, "_truth", counted_truth)
    for text in texts:  # each an equal formula, not the same object
        f = parse_formula(text)
        check(m, "v", f)
        extension(m, f)
    assert calls["eq"] <= calls["truth"]
    assert calls["truth"] == 2 * len(texts)  # the witness reads no operand's truth


def test_a_run_computes_each_modal_step_once(monkeypatch):
    # a modal step's mask depends on its head, fields and operand mask
    # only; on four states a 500-level chain repeats its masks early
    m = model_from_dict(json.loads(FIGURE.read_text()))
    ix = m._index
    common = parse_formula("C[n] " * 500 + "p")
    everyone = parse_formula("".join(f"E[{'nm'[i % 2]}] " for i in range(500)) + "p")

    def distinct_steps(f):
        prog = _program(f)
        out = kripke._run(prog, ix, ix.val)
        return {(fields[0], out[ks[0]]) for _, fields, ks in prog[0] if ks}

    expected_common, expected_everyone = distinct_steps(common), distinct_steps(everyone)
    assert len(expected_common) < 10 and len(expected_everyone) < 20
    escapes, reads = [], []
    escapes_of = kripke._Index.escapes

    def counted_escapes(self, name, good):
        escapes.append((name, good))
        return escapes_of(self, name, good)

    class CountedFamilies(dict):
        def get(self, name, default=None):
            reads.append(name)
            return super().get(name, default)

    monkeypatch.setattr(kripke._Index, "escapes", counted_escapes)
    monkeypatch.setattr(ix, "fam", CountedFamilies(ix.fam))
    extension(m, common)
    assert sorted(escapes) == sorted(expected_common)  # each distinct mask once
    extension(m, everyone)
    assert len(reads) == len(expected_everyone)


def _entries(succ):
    """succ[i], the successor indices of state i, as _Index family entries:
    one agent per state, whose successors are the union."""
    out = []
    for i, js in enumerate(succ):
        union = sum(1 << j for j in set(js))
        out.append((1 << i, union, (union,)))
    return out


def _dense(rng, k, extra=()):
    return [[i, *rng.sample(range(k), k // 2), *extra] for i in range(k)]


def _chain(start, length):
    return [[i, i + 1] for i in range(start, start + length)] + [[start + length]]


# shape -> (successor lists, whether the first call, which asks for a path
# to the last state, goes backward)
_SHAPES = {
    "chain": lambda rng: (_chain(0, 60), True),
    "dense": lambda rng: (_dense(rng, 40), False),
    # dense entries that all see the head of a chain longer than the mean
    # popcount: the forward rounds run out before the chain's end
    "hung chain": lambda rng: (_dense(rng, 20, extra=[20]) + _chain(20, 40), True),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_escapes_agrees_with_reachability_in_either_direction(shape):
    rng = random.Random(shape)
    succ, backward = _SHAPES[shape](rng)
    entries, size = _entries(succ), len(succ)
    full = (1 << size) - 1
    index = lambda: kripke._Index(full, {}, {"n": entries}, {}, {}, ())
    kept = index()  # keeps its predecessor map, once built, for the calls after
    goods = [full ^ (1 << size - 1)] + [rng.getrandbits(size) | rng.getrandbits(size) for _ in range(20)]
    for k, good in enumerate(goods):
        ix = index()
        want = reference_escapes(entries, good)
        assert ix.escapes("n", good) == want == kept.escapes("n", good)
        cached, _, cost, pred = ix._pred["n"]
        assert cached is entries
        if k == 0:
            assert (pred is not None) is backward
            if shape == "hung chain":
                assert cost < 40


def test_a_model_keeps_no_formula():
    m = model_from_dict(json.loads(FIGURE.read_text()))
    nb = kripke_to_nbhd(m)
    f = parse_formula("E[n] p & S[m] q")
    before = sys.getrefcount(f)
    check(m, "w", f)
    extension(m, f)
    extension_nbhd(nb, f)
    assert sys.getrefcount(f) == before
    # a formula keeps the last index it was asked about, and no other
    del m, nb, f
    g = parse_formula("C[n] p | B[a;m] q")
    gc.collect()
    indices = lambda: sum(isinstance(x, kripke._Index) for x in gc.get_objects())
    held = indices()
    for seed in range(50):
        m = random_model(states=3, agents=["a", "b"], names=["n", "m"], seed=seed)
        check(m, "w0", g)
    assert g._masks[0] is m._index
    del m
    assert indices() == held + 1


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
    m = KripkeModel(
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


def test_generated_submodel_keeps_an_undeclared_state_undeclared():
    # u is reached from w but not declared: E, S and C range over the
    # declared states only, so declaring u in the submodel would make these
    # true at w there while they are false in m
    m = model_from_dict({
        "states": ["w"], "agents": ["a"], "names": ["n"],
        "relations": {"a": [["w", "w"], ["w", "u"]]},
        "naming": {"w": {"n": ["a"]}}, "valuation": {"p": ["w"]},
    })
    sub = generated_submodel(m, "w")
    assert sub.states == frozenset({"w"})
    for text in ("E[n] true", "E[n] (p | !p)", "S[n] (p | !p)", "C[n] (p | !p)"):
        f = parse_formula(text)
        assert check(m, "w", f).value is False
        assert check(sub, "w", f).value is False, text
    codes = lambda x: [d.code for d in validate_model(x, "lenient")]
    assert codes(m) == codes(sub) == ["undeclared-state"]


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


def _rebuilt(m: KripkeModel) -> KripkeModel:
    """m built again through KripkeModel(...) from its pair view."""
    return KripkeModel(m.states, m.agents, m.names, m.relations, m.naming, m.valuation)


@functools.cache
def _models_built_from_rows():
    """Models that the decision procedure, the bounded oracle and the
    neighborhood translation build from masks, with no pair in between."""
    sat = satisfiable(parse_formula("S[n] p & !E[n] p & C[m] (q | S[n] !p)"))
    hit = satisfiable_bounded(parse_formula("!(D[n] p -> E[n] p)"), 2, 2).model
    nbhd = nbhd_to_kripke(kripke_to_nbhd(random_model(states=5, seed=3)))
    return sat.model, hit, nbhd


@settings(max_examples=150, deadline=None)
@given(fields=_validation_fields(),
       ops=st.lists(st.sampled_from(["reflexive", "symmetric", "transitive"]), max_size=3))
def test_every_constructor_agrees_with_its_pairs(fields, ops):
    states, agents, names, relations, naming, valuation = fields
    m = KripkeModel(*fields)
    assert m.relations == {a: frozenset(pairs) for a, pairs in relations.items()}
    assert model_from_dict(model_to_dict(m)) == m
    for a in agents | relations.keys() | {"z"}:
        for w in set(m.order) | {"x", "y"}:
            expected = {y for x, y in m.relations.get(a, ()) if x == w}
            assert m.successors(a, w) == expected
    # the loader closes each relation over masks, the reference over pairs
    doc = model_to_dict(m)
    doc["closure"] = ops
    closed = model_from_dict(doc).relations
    assert closed == {a: reference_close_relation(pairs, ops, states)
                      for a, pairs in relations.items()}
    derived = [disjoint_union([m, m]), *_models_built_from_rows()]
    derived += [generated_submodel(m, w) for w in sorted(states)[:1]]
    for d in derived:
        assert model_to_dict(_rebuilt(d)) == model_to_dict(d)
        assert _rebuilt(d) == d


def test_query_paths_derive_no_pairs(monkeypatch, fig):
    # loaded and extracted models answer every query from their masks: no
    # sat, valid, oracle, check, validate or bisim path asks for the pairs
    def refuse(*_):
        raise AssertionError("a query path derived a pair set")

    monkeypatch.setattr(kripke, "_edges", refuse)
    monkeypatch.setattr(KripkeModel, "relations", property(refuse))
    # the two heavy anchors of the benchmark's decide workload: extraction,
    # re-verification through check and lenient validation
    for text in (
        "C[m] !S[n] (E[m] q & E[n] S[m] q | (S[m] p | !!E[m] p & (p <-> p) & (!p | q)))",
        "C[n] C[m] (C[m] (q | false & q) -> S[m] C[n] true)",
    ):
        assert satisfiable(parse_formula(text)).verdict == "sat"
    assert valid(parse_formula("S[n] q -> q"))
    assert not valid(parse_formula("p -> E[n] p"))
    assert satisfiable_bounded(parse_formula("!(D[n] p -> E[n] p)"), 2, 2).verdict == "sat"
    m = model_from_dict(json.loads(FIGURE.read_text()))
    for text in ("S[n] p", "E[n] p", "C[m] !q", "D[n] p", "B[a;n] p"):
        f = parse_formula(text)
        assert check(m, "w", f).value is ("w" in extension(m, f))
    for mode in ("lenient", "strict", "epistemic"):
        validate_model(m, mode)
    m1, m2 = random_model(states=6, seed=1), random_model(states=6, seed=2)
    for w1, w2 in product(sorted(m1.states)[:2], sorted(m2.states)[:2]):
        if not bisimilar(m1, w1, m2, w2):
            distinguishing_formula(m1, w1, m2, w2)


def test_model_format_errors():
    with pytest.raises(ModelFormatError):
        model_from_dict({"relations": {}})
    with pytest.raises(ModelFormatError):
        model_from_dict(
            {"states": ["x"], "closure": ["euclidean"], "relations": {"a": []}}
        )
    # an unknown closure op is refused with no relation to close
    for op in ("bogus", 5):
        with pytest.raises(ModelFormatError, match="unknown closure op"):
            model_from_dict({"states": ["w"], "closure": [op]})
    # a JSON key is always a string, but a document built in Python need not be
    doc = {"states": ["w"], "agents": ["a"], "names": ["n"], "relations": {"a": [["w", "w"]]},
           "naming": {"w": {"n": ["a"]}}, "valuation": {"p": ["w"]}}
    for key, value in [("relations", {1: [["w", "w"]]}), ("naming", {1: {"n": ["a"]}}),
                       ("naming", {"w": {1: ["a"]}}), ("valuation", {1: ["w"]})]:
        with pytest.raises(ModelFormatError, match="1 is not a string"):
            model_from_dict({**doc, key: value})


# a proposition is named by a formula text only if the text parses back to it
_UNNAMEABLE = ["true", "false", "P", "a,b", "", " p", "p ", "!p", "p & q", "(" * 3000 + "p"]


@pytest.mark.parametrize("prop", _UNNAMEABLE)
def test_model_from_dict_refuses_propositions_no_formula_names(prop):
    doc = {"states": ["w"], "valuation": {"p": ["w"], prop: ["w"]}}
    with pytest.raises(ModelFormatError, match="not a proposition"):
        model_from_dict(doc)


def test_model_from_dict_accepts_every_proposition_a_formula_names():
    props = ["p", "q_1", "x2", "true_", "falsey", "é"]
    m = model_from_dict({"states": ["w"], "valuation": {x: ["w"] for x in props}})
    for x in props:
        assert check(m, "w", parse_formula(x)).value


def test_random_model_deterministic():
    assert random_model(seed=3) == random_model(seed=3)
    assert random_model(seed=3) != random_model(seed=4)


@pytest.mark.parametrize("kwargs", [
    {"states": 0},
    {"states": -3},
    {"agents": -1},
    {"names": -2},
    {"props": -1},
    {"edge_density": -0.1},
    {"naming_density": 1.5},
])
def test_random_model_refuses_impossible_counts(kwargs):
    # sliced defaults would give 7 agents for -1, and no state fails validation
    with pytest.raises(ValueError):
        random_model(**kwargs)


def test_random_model_accepts_the_edge_counts():
    m = random_model(states=1, agents=0, names=0, props=0, edge_density=1, naming_density=0)
    assert len(m.states) == 1 and not m.agents and not m.names and not m.valuation
    assert not has_errors(validate_model(m))


@pytest.mark.parametrize("seed", range(8))
def test_random_model_validates(seed):
    assert not has_errors(validate_model(random_model(seed=seed)))


@pytest.mark.parametrize("seed", range(8))
def test_random_model_epistemic_validates(seed):
    m = random_model(states=5, agents=3, mode="epistemic", seed=seed)
    assert not has_errors(validate_model(m, "epistemic"))


def test_empty_name_semantics():
    # y bears no name: universal readings are vacuous, existential ones fail
    m = KripkeModel(
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
            st.tuples(kids, kids).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda t: Implies(*t)),
            st.tuples(kids, kids).map(lambda t: Iff(*t)),
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


# ---------------------------------------------------------------------------
# Against the literal definitions, malformed-but-loadable models included

_DECLARED = ("w", "v", "u")
_MENTIONED = _DECLARED + ("x", "z")  # x and z are never declared


@st.composite
def _loose_models(draw):
    """Models that may list undeclared states on edges, in the valuation and
    at naming entries, and undeclared agents in naming groups."""
    states = draw(st.lists(st.sampled_from(_DECLARED), min_size=1, unique=True))
    edge_ends = st.sampled_from(_MENTIONED if draw(st.booleans()) else tuple(states))
    relations = {
        a: draw(st.lists(st.tuples(edge_ends, edge_ends), max_size=8))
        for a in ("a", "b", "c")
    }
    naming = {
        (w, n): draw(st.lists(st.sampled_from(("a", "b", "c")), unique=True))
        for w in draw(st.lists(edge_ends, max_size=5, unique=True))
        for n in ("n", "m")
    }
    valuation = {p: draw(st.lists(edge_ends, unique=True)) for p in ("p", "q")}
    return KripkeModel(
        states=states, agents=["a", "b"], names=["n", "m"],
        relations=relations, naming=naming, valuation=valuation,
    )


_FIGURE_MODEL = model_from_dict(json.loads(FIGURE.read_text()))


@settings(max_examples=300, deadline=None)
@given(m=_loose_models(), f=_formulas(max_leaves=8))
# distinct modal subterms whose operands have equal masks, which one run
# computes once
@example(m=_FIGURE_MODEL, f=parse_formula("E[n] p & E[n] (p & p)"))
@example(m=_FIGURE_MODEL, f=parse_formula("S[m] !!q <-> S[m] q"))
@example(m=_FIGURE_MODEL, f=parse_formula("D[n] p | D[n] (p & true)"))
@example(m=_FIGURE_MODEL, f=parse_formula("C[n] p -> C[n] (p | false)"))
@example(m=_FIGURE_MODEL, f=parse_formula("B[a;n] p & B[a;n] !!p"))
def test_truth_matches_the_literal_definitions(m, f):
    expected = reference_extension(m, f)
    assert extension(m, f) == expected
    for w in sorted(m.states):
        assert check(m, w, f).value is (w in expected)
    if not any(isinstance(g, (C, D, B)) for g in walk(f)):
        nb = kripke_to_nbhd(m)
        assert reference_extension_nbhd(nb, f) == expected
        assert extension_nbhd(nb, f) == expected


def test_dangling_states_keep_their_truth():
    # an edge, a valuation entry and a naming entry at the undeclared z
    m = KripkeModel(
        states=["w"], agents=["a"], names=["n"],
        relations={"a": [["w", "w"], ["w", "z"], ["z", "w"]]},
        naming={("w", "n"): ["a"], ("z", "n"): ["a"]},
        valuation={"p": ["w"], "q": ["w", "z"]},
    )
    assert extension(m, parse_formula("E[n] p")) == frozenset()
    assert extension(m, parse_formula("E[n] q")) == frozenset({"w"})
    assert extension(m, parse_formula("q <-> q")) == frozenset({"w", "z"})
    assert extension(m, parse_formula("p <-> p")) == frozenset({"w"})
    assert extension(m, parse_formula("B[a;n] p")) == frozenset()
    assert extension(m, parse_formula("D[n] p")) == frozenset({"w"})
    assert check(m, "w", parse_formula("E[n] p")).witness == ("a", "z")
    assert check(m, "w", parse_formula("C[n] p")).witness == ("w", "z")
    for text in ("E[n] p", "C[n] q", "D[n] !q", "B[a;n] q", "q <-> q", "!p | q"):
        f = parse_formula(text)
        assert extension(m, f) == reference_extension(m, f)


def test_truth_texts_are_pinned():
    # 12 models x 180 formulas; the digest was taken when each of the
    # Kripke, neighborhood and oracle routes had its own evaluator, and
    # changes with any change to a truth set or a witness check returns
    rng = random.Random(2024)
    corpus = sized_corpus(seed=91, count=30, depth=3, modal_ops="ESCDB")
    wrapped = []
    for f in corpus:
        n, a = rng.choice("nm"), rng.choice("ab")
        wrapped += [f, E(n, f), S(n, f), C(n, f), D(n, f), B(a, n, f)]
    rows = []
    for i in range(12):
        mode = "general" if i % 2 == 0 else "epistemic"
        m = random_model(states=3 + i % 4, mode=mode, seed=700 + i)
        for f in wrapped:
            states = sorted(m.states)
            rows.append(
                f"{print_formula(f)}|{sorted(extension(m, f))}|"
                f"{[check(m, w, f).witness for w in states]}"
            )
    assert len(rows) == 2160
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "a45023b3cdd6c6d05185a147f2b08736bb15641f6a9580c2f210470becf39ea5"
