"""Morphism, bisimulation, and distinguishing-formula tests."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    formula_corpus,
    modal_equiv_corpus,
    reference_bisim_signature,
    reference_greatest_bisimulation,
    reference_modal_signature,
    reference_refine,
    reference_refine_with_formulas,
)
from namelogic import (
    Not,
    Prop,
    S,
    TRUE,
    UndeclaredSymbolError,
    modal_depth,
    parse_formula,
    print_formula,
)
from namelogic import equivalence
from namelogic.equivalence import (
    BisimRelation,
    _layout,
    _refine,
    bisimilar,
    check_bisimulation,
    check_frame_morphism,
    distinguishing_formula,
    greatest_bisimulation,
)
from namelogic.kripke import (
    KripkeModel,
    _bit_indices,
    check,
    disjoint_union,
    frame_valid,
    generated_submodel,
    model_from_dict,
    random_model,
)
from namelogic.neighborhood import check_core_morphism, kripke_to_nbhd

FIGURE = Path(__file__).resolve().parent.parent / "figure1.json"


@pytest.fixture(scope="module")
def fig():
    return model_from_dict(json.loads(FIGURE.read_text()))


def _single_state(state: str, agent: str) -> KripkeModel:
    return KripkeModel(
        states=[state],
        agents=[agent],
        names=["n"],
        relations={agent: [[state, state]]},
        naming={(state, "n"): [agent]},
        valuation={"p": []},
    )


def test_single_state_morphism_ok():
    src = _single_state("x", "a")
    dst = _single_state("y", "b")
    report = check_frame_morphism(src, dst, {"x": "y"}, compare_valuations=True)
    assert report.ok and bool(report)


def test_identity_morphism_ok(fig):
    ident = {w: w for w in fig.states}
    assert check_frame_morphism(fig, fig, ident, compare_valuations=True).ok


def test_morphism_there_violation():
    src = _single_state("x", "a")
    dst = KripkeModel(
        states=["z"], agents=["a"], names=["n"], relations={"a": [["z", "z"]]},
        naming={}, valuation={"p": []},
    )
    report = check_frame_morphism(src, dst, {"x": "z"})
    assert not report.ok
    assert [v.condition for v in report.violations] == ["there"]
    assert report.violations[0].name == "n"


def test_morphism_back_violation():
    src = KripkeModel(
        states=["x"], agents=["a"], names=["n"], relations={"a": [["x", "x"]]},
        naming={}, valuation={},
    )
    dst = _single_state("y", "b")
    report = check_frame_morphism(src, dst, {"x": "y"})
    assert not report.ok
    assert [v.condition for v in report.violations] == ["back"]


def test_morphism_valuation_mismatch(fig):
    flipped = KripkeModel(
        states=fig.states,
        agents=fig.agents,
        names=fig.names,
        relations=fig.relations,
        naming=fig.naming,
        valuation={"p": fig.valuation["p"], "q": fig.states - fig.valuation["q"]},
    )
    ident = {w: w for w in fig.states}
    assert check_frame_morphism(fig, flipped, ident).ok
    report = check_frame_morphism(fig, flipped, ident, compare_valuations=True)
    assert not report.ok
    assert all(v.condition == "valuation" for v in report.violations)


def test_morphism_requires_total_map(fig):
    with pytest.raises(UndeclaredSymbolError):
        check_frame_morphism(fig, fig, {"w": "w"})


def _fold(union_of_two: KripkeModel, m: KripkeModel) -> dict:
    return {f"{i}:{s}": s for i in (0, 1) for s in m.states}


def test_fold_is_surjective_morphism(fig):
    union = disjoint_union([fig, fig])
    fold = _fold(union, fig)
    assert check_frame_morphism(union, fig, fold, compare_valuations=True).ok


def test_inclusion_is_morphism(fig):
    union = disjoint_union([fig, fig])
    incl = {s: f"1:{s}" for s in fig.states}
    assert check_frame_morphism(fig, union, incl, compare_valuations=True).ok


def test_generated_submodel_inclusion_is_morphism():
    m = random_model(states=6, seed=21)
    w = sorted(m.states)[0]
    sub = generated_submodel(m, w)
    incl = {s: s for s in sub.states}
    assert check_frame_morphism(sub, m, incl, compare_valuations=True).ok


# ---------------------------------------------------------------------------
# Bisimulations

def test_identity_relation_certifies(fig):
    ident = BisimRelation(frozenset([(w, w) for w in fig.states]))
    assert check_bisimulation(fig, fig, ident).ok


def test_graph_of_morphism_certifies(fig):
    union = disjoint_union([fig, fig])
    graph = BisimRelation(frozenset([(s, f"0:{s}") for s in fig.states]))
    assert check_bisimulation(fig, union, graph).ok
    fold_graph = BisimRelation(frozenset(_fold(union, fig).items()))
    assert check_bisimulation(union, fig, fold_graph).ok


def test_functional_bisimulation_is_morphism(fig):
    # the underlying map of a certified functional bisimulation verifies
    union = disjoint_union([fig, fig])
    fold = _fold(union, fig)
    assert check_bisimulation(union, fig, BisimRelation(frozenset(fold.items()))).ok
    assert check_frame_morphism(union, fig, fold, compare_valuations=True).ok


def test_empty_name_pairing_violates_back():
    named = _single_state("x", "a")
    bare = KripkeModel(
        states=["y"], agents=["a"], names=["n"], relations={"a": [["y", "y"]]},
        naming={}, valuation={"p": []},
    )
    report = check_bisimulation(bare, named, BisimRelation(frozenset([("y", "x")])))
    assert not report.ok
    assert [v.condition for v in report.violations] == ["back"]


def test_bisimulation_atom_violation(fig):
    report = check_bisimulation(fig, fig, BisimRelation(frozenset([("w", "v")])))
    assert not report.ok
    assert report.violations[0].condition == "atoms"


def test_bisimulation_rejects_undeclared_pairs(fig):
    with pytest.raises(UndeclaredSymbolError):
        check_bisimulation(fig, fig, BisimRelation(frozenset([("w", "ghost")])))


def test_greatest_bisimulation_contains_identity(fig):
    big = greatest_bisimulation(fig, fig)
    assert all((w, w) in big for w in fig.states)
    assert check_bisimulation(fig, fig, big).ok


def test_greatest_bisimulation_relates_both_copies(fig):
    union = disjoint_union([fig, fig])
    big = greatest_bisimulation(fig, union)
    for s in fig.states:
        assert (s, f"0:{s}") in big and (s, f"1:{s}") in big


def test_figure_states_unrelated(fig):
    big = greatest_bisimulation(fig, fig)
    assert ("w", "v") not in big  # q separates them
    assert not bisimilar(fig, "w", fig, "s")
    assert bisimilar(fig, "w", fig, "w")


def test_single_state_frames_bisimilar():
    assert bisimilar(_single_state("x", "a"), "x", _single_state("y", "b"), "y")


def test_greatest_is_maximal(fig):
    union = disjoint_union([fig, fig])
    big = greatest_bisimulation(fig, union)
    outside = [
        ("w", "0:v"),  # atoms differ
        ("v", "0:u"),  # atoms differ
    ]
    for pair in outside:
        assert pair not in big
        assert not check_bisimulation(fig, union, BisimRelation(frozenset([pair]))).ok


# ---------------------------------------------------------------------------
# Distinguishing formulas

def test_distinguisher_atoms(fig):
    f = distinguishing_formula(fig, "w", fig, "v")
    assert f == Prop("q")
    assert check(fig, "w", f).value and not check(fig, "v", f).value


def test_distinguisher_empty_name():
    named = _single_state("x", "a")
    bare = KripkeModel(
        states=["y"], agents=["a"], names=["n"], relations={"a": [["y", "y"]]},
        naming={}, valuation={"p": []},
    )
    f = distinguishing_formula(named, "x", bare, "y")
    assert f == S("n", TRUE)
    assert check(named, "x", f).value and not check(bare, "y", f).value


def _depth_two_pair():
    deep = KripkeModel(
        states=["x0", "x1"],
        agents=["a"],
        names=["n"],
        relations={"a": [["x0", "x0"], ["x0", "x1"], ["x1", "x1"]]},
        naming={("x0", "n"): ["a"], ("x1", "n"): ["a"]},
        valuation={"p": []},
    )
    shallow = KripkeModel(
        states=["y0", "y1"],
        agents=["a"],
        names=["n"],
        relations={"a": [["y0", "y0"], ["y0", "y1"], ["y1", "y1"]]},
        naming={("y0", "n"): ["a"]},
        valuation={"p": []},
    )
    return deep, shallow


def test_distinguisher_needs_depth_two():
    deep, shallow = _depth_two_pair()
    for depth_one in (
        Prop("p"), S("n", TRUE), S("n", Prop("p")), parse_formula("E[n] p"),
        parse_formula("E[n] false"), parse_formula("S[n] !p"),
    ):
        assert check(deep, "x0", depth_one).value == check(shallow, "y0", depth_one).value
    f = distinguishing_formula(deep, "x0", shallow, "y0")
    assert f is not None and modal_depth(f) >= 2
    assert check(deep, "x0", f).value and not check(shallow, "y0", f).value
    assert f == S("n", S("n", TRUE))


def test_distinguisher_none_on_bisimilar(fig):
    union = disjoint_union([fig, fig])
    for s in fig.states:
        assert distinguishing_formula(fig, s, union, f"0:{s}") is None


def _extra_agent_pair():
    # three named observers on the left, two on the right; the third's view
    # is the union of the others', which no E/S formula can see, yet the
    # back-and-forth matching of successor sets fails
    base = dict(
        states=["w", "u1", "u2"],
        names=["n"],
        valuation={"p": ["w", "u1"], "q": ["w", "u2"]},
    )
    left = KripkeModel(
        agents=["a", "b", "c"],
        relations={
            "a": [["w", "w"], ["w", "u1"]],
            "b": [["w", "w"], ["w", "u2"]],
            "c": [["w", "w"], ["w", "u1"], ["w", "u2"]],
        },
        naming={("w", "n"): ["a", "b", "c"]},
        **base,
    )
    right = KripkeModel(
        agents=["a", "b"],
        relations={
            "a": [["w", "w"], ["w", "u1"]],
            "b": [["w", "w"], ["w", "u2"]],
        },
        naming={("w", "n"): ["a", "b"]},
        **base,
    )
    return left, right


def test_modal_equivalence_is_coarser_than_bisimilarity():
    # the matching game distinguishes the extra union-view agent, the
    # language does not: the converse direction of the invariance lemma
    # fails on such pairs, so the distinguisher engine answers None
    left, right = _extra_agent_pair()
    assert not bisimilar(left, "w", right, "w")
    assert distinguishing_formula(left, "w", right, "w") is None
    corpus = formula_corpus(seed=424, count=150, depth=3, modal_ops="ES", names=("n",))
    assert modal_equiv_corpus(left, "w", right, "w", corpus)


def test_modal_equiv_corpus_examples(fig):
    assert not modal_equiv_corpus(fig, "w", fig, "u", [Prop("p")])
    assert modal_equiv_corpus(fig, "w", fig, "w", [])


# ---------------------------------------------------------------------------
# Truth preservation along morphisms and properties

def test_morphism_preserves_truth(fig):
    union = disjoint_union([fig, fig])
    fold = _fold(union, fig)
    corpus = formula_corpus(seed=77, count=40, depth=3, modal_ops="ESC")
    for s in union.states:
        for f in corpus:
            assert check(union, s, f).value == check(fig, fold[s], f).value


def test_frame_validity_agrees_with_folded_frame(fig):
    union = disjoint_union([fig, fig])
    for text in ("S[n] p -> p", "E[n] p -> p", "S[n] p -> S[n] (p | q)"):
        f = parse_formula(text)
        assert frame_valid(union, f, max_bits=20) == frame_valid(fig, f)


_seeds = st.integers(0, 10**6)


def _model_pair(rng, kind):
    """A random model and a union with it, a generated submodel of it, or
    an independent model, drawn from rng."""
    def model():
        return random_model(
            states=rng.randint(1, 7),
            names=rng.randint(1, 2),
            props=rng.randint(1, 3),
            mode=rng.choice(["general", "epistemic"]),
            seed=rng.randrange(10**6),
        )

    m1 = model()
    if kind == "union":
        return m1, disjoint_union([m1, model()])
    if kind == "submodel":
        return m1, generated_submodel(m1, rng.choice(sorted(m1.states)))
    return m1, model()


@settings(max_examples=25, deadline=None)
@given(seed=_seeds)
def test_greatest_bisimulation_certifies(seed):
    rng = random.Random(seed)
    m1 = random_model(states=rng.randint(2, 5), seed=rng.randrange(10**6))
    m2 = random_model(states=rng.randint(2, 5), seed=rng.randrange(10**6))
    big = greatest_bisimulation(m1, m2)
    assert check_bisimulation(m1, m2, big).ok


@settings(max_examples=100, deadline=None)
@given(seed=_seeds, kind=st.sampled_from(["union", "submodel", "independent"]))
def test_greatest_bisimulation_is_the_pairwise_deletion_fixpoint(seed, kind):
    # maximality: an empty or too small relation would still certify above
    m1, m2 = _model_pair(random.Random(seed), kind)
    big = greatest_bisimulation(m1, m2)
    assert big.pairs == reference_greatest_bisimulation(m1, m2)
    for w1 in m1.states:
        for w2 in m2.states:
            assert bisimilar(m1, w1, m2, w2) == ((w1, w2) in big.pairs)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, kind=st.sampled_from(["union", "submodel", "independent"]))
def test_bisimilar_is_membership_in_the_reference_relation(seed, kind):
    # bisimilar answers from the rounds up to the split, with no relation
    m1, m2 = _model_pair(random.Random(seed), kind)
    relation = reference_greatest_bisimulation(m1, m2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivalence, "BisimRelation", None)
        mp.setattr(equivalence, "greatest_bisimulation", None)
        for w1 in m1.states:
            for w2 in m2.states:
                assert bisimilar(m1, w1, m2, w2) == ((w1, w2) in relation)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, kind=st.sampled_from(["union", "submodel", "independent"]),
       modal=st.booleans())
def test_refinement_for_a_pair_is_a_prefix_of_the_full_one(seed, kind, modal):
    # the rounds up to the first one that separates the pair, or all of them
    m1, m2 = _model_pair(random.Random(seed), kind)
    layout = _layout(m1, m2)
    full = _refine(layout, modal)
    for w1 in m1.states:
        for w2 in m2.states:
            pair = m1.bit[w1] | m2.bit[w2] << len(m1.states)
            k = next((r + 1 for r, blocks in enumerate(full)
                      if not any(b.members & pair == pair for b in blocks)), len(full))
            assert _refine(layout, modal, pair) == full[:k]


@settings(max_examples=15, deadline=None)
@given(seed=_seeds)
def test_distinguisher_contract(seed):
    rng = random.Random(seed)
    m1 = random_model(states=rng.randint(2, 5), seed=rng.randrange(10**6))
    m2 = random_model(states=rng.randint(2, 5), seed=rng.randrange(10**6))
    corpus = formula_corpus(seed=seed, count=20, depth=2, modal_ops="ES")
    for w1 in sorted(m1.states):
        for w2 in sorted(m2.states):
            f = distinguishing_formula(m1, w1, m2, w2)
            if f is None:
                assert modal_equiv_corpus(m1, w1, m2, w2, corpus)
            else:
                assert check(m1, w1, f).value and not check(m2, w2, f).value


@settings(max_examples=15, deadline=None)
@given(seed=_seeds)
def test_bisimilar_points_agree(seed):
    m = random_model(states=4, seed=seed)
    union = disjoint_union([m, m])
    big = greatest_bisimulation(m, union)
    corpus = formula_corpus(seed=seed, count=25, depth=3, modal_ops="ES")
    for s in m.states:
        assert (s, f"1:{s}") in big
        assert modal_equiv_corpus(m, s, union, f"1:{s}", corpus)


def _digest_pairs():
    for seed in range(24):
        m1 = random_model(
            states=4 + seed % 3,
            names=1 + seed % 2,
            props=1,
            naming_density=0.6,
            mode=("general", "epistemic")[seed % 2],
            seed=seed,
        )
        other = random_model(states=3 + seed % 4, props=1, seed=1000 + seed)
        yield m1, (disjoint_union([m1, other]), generated_submodel(m1, "w1"), other)[seed % 3]


def test_distinguisher_texts_are_pinned():
    # 683 points, 286 of them separated by a modal formula; the digest was
    # taken when modal equivalence had its own refinement loop, and changes
    # with any change to how distinguishers are built or printed, which is
    # what `namelogic bisim --distinguish` prints
    texts = []
    for m1, m2 in _digest_pairs():
        for w1 in sorted(m1.states):
            for w2 in sorted(m2.states):
                f = distinguishing_formula(m1, w1, m2, w2)
                texts.append("-" if f is None else print_formula(f))
    assert len(texts) == 683
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "b8e99c71a574a90a8f838f131869233d73649744d648de93311acff4c5b7c120"


# ---------------------------------------------------------------------------
# The mask engine against the frozenset reference

def _tagged_rounds(m1, m2, modal):
    """_refine's rounds as (members, parent) per block, with the members
    named as the states of the tagged disjoint union."""
    tagged = [f"0:{w}" for w in m1.order[: len(m1.states)]]
    tagged += [f"1:{w}" for w in m2.order[: len(m2.states)]]
    return [
        [(sorted(map(tagged.__getitem__, _bit_indices(block.members))), block.parent)
         for block in blocks]
        for blocks in _refine(_layout(m1, m2), modal)
    ]


def _reference_rounds(m1, m2, signature):
    return [
        [(members, parent) for members, parent, _ in blocks]
        for blocks in reference_refine(disjoint_union([m1, m2]), signature)
    ]


def _reference_texts(m1, m2):
    classes, delta = reference_refine_with_formulas(disjoint_union([m1, m2]))
    out = {}
    for w1 in m1.states:
        for w2 in m2.states:
            ci, cj = classes[f"0:{w1}"], classes[f"1:{w2}"]
            out[(w1, w2)] = None if ci == cj else print_formula(delta[(ci, cj)])
    return out


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, kind=st.sampled_from(["union", "submodel", "independent"]))
def test_mask_engine_matches_the_frozenset_reference(seed, kind):
    # every round of both partitions, and at every point the very text the
    # reference's all-pairs table holds
    m1, m2 = _model_pair(random.Random(seed), kind)
    assert _tagged_rounds(m1, m2, False) == _reference_rounds(m1, m2, reference_bisim_signature)
    assert _tagged_rounds(m1, m2, True) == _reference_rounds(m1, m2, reference_modal_signature)
    for (w1, w2), text in _reference_texts(m1, m2).items():
        f = distinguishing_formula(m1, w1, m2, w2)
        assert (None if f is None else print_formula(f)) == text


def _watched_chain(k: int) -> KripkeModel:
    # x0 -> x1 -> ... -> x{k-1}, where only the last satisfies p, and
    # y_i (satisfying q) sees x_i for i < k - 1; every state sees itself.
    # Each round splits one more x off the chain.  The y block does not
    # split in the first round, but in the second, once an x it sees has
    # split, so blocks split that did not split the round before
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k - 1)]
    return KripkeModel(
        states=xs + ys,
        agents=["a"],
        names=["n"],
        relations={
            "a": [[w, w] for w in xs + ys]
            + [[x, x2] for x, x2 in zip(xs, xs[1:])]
            + [[y, x] for x, y in zip(xs, ys)]
        },
        naming={(w, "n"): ["a"] for w in xs + ys},
        valuation={"p": [xs[-1]], "q": ys},
    )


def test_splits_that_cross_several_rounds():
    m = _watched_chain(5)
    for modal, signature in ((False, reference_bisim_signature), (True, reference_modal_signature)):
        rounds = _tagged_rounds(m, m, modal)
        assert rounds == _reference_rounds(m, m, signature)
        assert [len(blocks) for blocks in rounds] == [3, 4, 6, 8, 9]
    for w1 in sorted(m.states):
        for w2 in sorted(m.states):
            f = distinguishing_formula(m, w1, m, w2)
            if w1 == w2:
                assert f is None
            else:
                assert check(m, w1, f).value and not check(m, w2, f).value


def _round_zero_pairs():
    # round 0 splits all states by each proposition's mask: a proposition
    # true everywhere or nowhere splits nothing, and one true only at an
    # undeclared state is false at every declared one
    chain = {"a": [["w0", "w1"], ["w1", "w2"], ["w2", "w2"]]}
    props = KripkeModel(
        states=["w0", "w1", "w2"], agents=["a"], names=["n"], relations=chain,
        naming={("w0", "n"): ["a"], ("w1", "n"): ["a"]},
        valuation={"all": ["w0", "w1", "w2"], "none": [], "ghost": ["z"], "p": ["w1", "w2"]},
    )
    other = KripkeModel(
        states=["v0", "v1"], agents=["b"], names=["n"], relations={"b": [["v0", "v1"]]},
        naming={("v0", "n"): ["b"]}, valuation={"all": ["v0", "v1"], "p": ["v1"]},
    )
    nameless = KripkeModel(
        states=["u0", "u1", "u2"], agents=[], names=[], relations={}, naming={},
        valuation={"p": ["u0", "u2"]},
    )
    one_sided = KripkeModel(  # names only m, which props never uses
        states=["x0", "x1"], agents=["c"], names=["m"], relations={"c": [["x0", "x0"]]},
        naming={("x0", "m"): ["c"]}, valuation={"all": ["x0", "x1"], "p": ["x1"]},
    )
    return [(props, other), (props, props), (nameless, nameless), (nameless, props),
            (one_sided, props)]


def test_round_zero_splits_by_proposition_masks():
    for m1, m2 in _round_zero_pairs():
        u = disjoint_union([m1, m2])
        for modal, signature in ((False, reference_bisim_signature),
                                 (True, reference_modal_signature)):
            reference = reference_refine(u, signature)
            assert [b.signature for b in _refine(_layout(m1, m2), modal)[0]] == [
                atoms for _, _, atoms in reference[0]]
            assert _tagged_rounds(m1, m2, modal) == _reference_rounds(m1, m2, signature)
        big = greatest_bisimulation(m1, m2)
        assert big.pairs == reference_greatest_bisimulation(m1, m2)
        for w1 in sorted(m1.states):
            for w2 in sorted(m2.states):
                assert bisimilar(m1, w1, m2, w2) == ((w1, w2) in big)
                f = distinguishing_formula(m1, w1, m2, w2)
                if (w1, w2) in big:
                    assert f is None
                elif f is not None:
                    assert check(u, f"0:{w1}", f).value and not check(u, f"1:{w2}", f).value


# ---------------------------------------------------------------------------
# States that are not declared

def _one_state(**changes) -> KripkeModel:
    doc = {
        "states": ["w"],
        "agents": ["a"],
        "names": ["n"],
        "relations": {"a": [["w", "w"]]},
        "naming": {"w": {"n": ["a"]}},
        "valuation": {"p": ["w"]},
    }
    return model_from_dict({**doc, **changes})


def test_edge_into_an_undeclared_state_is_an_input_error(fig):
    m = _one_state(relations={"a": [["w", "w"], ["w", "z"]]})
    calls = (
        lambda: greatest_bisimulation(m, fig),
        lambda: greatest_bisimulation(fig, m),
        lambda: bisimilar(m, "w", fig, "w"),
        lambda: distinguishing_formula(fig, "w", m, "w"),
    )
    for call in calls:
        with pytest.raises(UndeclaredSymbolError, match="'z'"):
            call()


def test_what_undeclared_states_carry_is_ignored(fig):
    clean = _one_state()
    noisy = _one_state(
        relations={"a": [["w", "w"], ["z", "w"], ["z", "z"]]},
        naming={"w": {"n": ["a"]}, "z": {"n": ["a"]}},
        valuation={"p": ["w", "z"]},
    )
    assert greatest_bisimulation(noisy, fig) == greatest_bisimulation(clean, fig)
    for w2 in sorted(fig.states):
        assert distinguishing_formula(noisy, "w", fig, w2) == distinguishing_formula(
            clean, "w", fig, w2
        )
