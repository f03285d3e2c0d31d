"""Acceptance suite: one test per shipped criterion, one printed verdict line each.

The verdict lines bypass pytest's capture so they always reach the terminal,
and each states the measured runtime against the criterion's budget where one
applies.  Every expected value here is either taken from the anchor model's
documented judgments or cross-derived by an independent route inside the test.
"""

import json
import time
from pathlib import Path

import pytest

from helpers import capped_corpus, modal_equiv_corpus, reference_extension, sized_corpus
from namelogic import (
    And,
    B,
    C,
    D,
    E,
    FALSE,
    Implies,
    Not,
    S,
    TRUE,
    parse_formula,
    print_formula,
    walk,
)
from namelogic.decision import satisfiable, satisfiable_bounded
from namelogic.equivalence import (
    BisimRelation,
    bisimilar,
    check_bisimulation,
    check_frame_morphism,
    distinguishing_formula,
)
from namelogic.kripke import (
    KripkeModel,
    check,
    disjoint_union,
    distributed_by_subsets,
    extension,
    frame_valid,
    generated_submodel,
    model_from_dict,
    random_model,
)
from namelogic.neighborhood import (
    extension_nbhd,
    check_nbhd,
    kripke_to_nbhd,
    nbhd_from_dict,
    nbhd_to_kripke,
    verify_algebra_equations,
)

FIGURE = Path(__file__).resolve().parent.parent / "figure1.json"


def report(capfd, criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"criterion {criterion}: {status} ({detail})", flush=True)


@pytest.fixture(scope="module")
def fig():
    return model_from_dict(json.loads(FIGURE.read_text()))


# ---------------------------------------------------------------------------
# 1. Anchor-model reproduction


def test_criterion_1_figure_reproduction(fig, capfd):
    t0 = time.perf_counter()
    judgments = [
        ("w", "S[n] p & !E[n] p", True),
        ("w", "!S[m] p & E[m] p & E[m] !p", True),
        ("u", "S[m] q & !S[m] S[m] q", True),
        ("s", "!S[n] p & !S[n] !S[n] p", True),
        ("w", "C[n](p | q)", True),
        ("v", "C[m] !q", False),
    ]
    wrong = [
        (state, text)
        for state, text, expected in judgments
        if check(fig, state, parse_formula(text)).value is not expected
    ]
    dt = time.perf_counter() - t0
    ok = not wrong and dt < 1.0
    report(capfd, 1, ok, f"{6 - len(wrong)}/6 anchor judgments exact, {dt:.3f}s (budget 1s)")
    assert not wrong, wrong
    assert dt < 1.0


# ---------------------------------------------------------------------------
# 2. Pooled vs lone knowledge at the anchor point


def test_criterion_2_distributed_separation(fig, capfd):
    conj = parse_formula("p & q")
    direct = check(fig, "w", D("n", conj)).value
    by_subsets, group = distributed_by_subsets(fig, "w", "n", conj)
    lone = check(fig, "w", S("n", conj)).value
    ok = direct is True and by_subsets is True and lone is False
    report(capfd, 2, ok, f"pooled={direct} via subgroup {sorted(group or ())}, lone knower={lone}")
    assert ok


# ---------------------------------------------------------------------------
# 3 + 4. Schema soundness sweep over seeded model populations


SCHEMAS = (
    ("AX_N", "T(S)", 1, lambda n, f: Implies(S(n, f), f)),
    ("AX_N", "K(E)", 2, lambda n, f, g: Implies(And(E(n, f), E(n, Implies(f, g))), E(n, g))),
    ("AX_N", "Int_1", 2, lambda n, f, g: Implies(And(S(n, f), E(n, Implies(f, g))), S(n, g))),
    ("AX_N", "Int_2", 0, lambda n: Implies(Not(E(n, FALSE)), S(n, TRUE))),
    ("AX_NC", "K(C)", 2, lambda n, f, g: Implies(C(n, Implies(f, g)), Implies(C(n, f), C(n, g)))),
    ("AX_NC", "FP", 1, lambda n, f: Implies(C(n, f), E(n, And(f, C(n, f))))),
    ("AX_ND", "K(D)", 2, lambda n, f, g: Implies(And(D(n, f), D(n, Implies(f, g))), D(n, g))),
    ("AX_ND", "Incl(S,D)", 1, lambda n, f: Implies(S(n, f), D(n, f))),
    ("AX_ND", "T(D)", 1, lambda n, f: Implies(D(n, f), f)),
    ("AX_ND", "Int(D,E)", 2, lambda n, f, g: Implies(And(D(n, f), E(n, Implies(f, g))), D(n, g))),
)

CORPUS20 = tuple(
    parse_formula(t)
    for t in (
        "p", "q", "!p", "p & q", "p | q", "p -> q", "p <-> q", "true", "!(p | q)", "!(p & q)",
        "E[n] p", "S[n] q", "C[n] p", "E[n](p -> q)", "S[n](p & q)", "C[m](p | q)", "E[m] q",
        "S[m] p", "!E[n] p", "E[n] E[n] p",
    )
)

NEGATIVE_CONTROLS = (
    "S[n] p -> S[n] S[n] p",
    "!S[n] p -> S[n] !S[n] p",
    "E[n] p -> p",
)


def _axiom_instances():
    out = []
    for system, label, arity, build in SCHEMAS:
        if arity == 0:
            out.append((system, label, build("n")))
        elif arity == 1:
            out.extend((system, label, build("n", f)) for f in CORPUS20)
        else:
            out.extend(
                (system, label, build("n", f, CORPUS20[(i + 7) % len(CORPUS20)]))
                for i, f in enumerate(CORPUS20)
            )
    return out


@pytest.fixture(scope="module")
def axiom_sweep():
    instances = _axiom_instances()
    assert len(CORPUS20) == 20 and len(instances) == 181
    tallies = {
        mode: {sys_: [0, 0] for sys_ in ("AX_N", "AX_NC", "AX_ND")}
        for mode in ("general", "epistemic")
    }
    failures = []
    t0 = time.perf_counter()
    for i in range(1000):
        mode = "general" if i < 500 else "epistemic"
        m = random_model(states=3 + (i % 4), mode=mode, seed=i)
        size = len(m.states)
        for system, label, inst in instances:
            hits = len(extension(m, inst))
            bucket = tallies[mode][system]
            bucket[0] += hits
            bucket[1] += size
            if hits != size:
                failures.append((mode, i, label, print_formula(inst)))
    return {
        "tallies": tallies,
        "failures": failures,
        "instances": len(instances),
        "runtime": time.perf_counter() - t0,
    }


def test_criterion_3_axiom_soundness(axiom_sweep, capfd):
    t0 = time.perf_counter()
    refuted = 0
    for text in NEGATIVE_CONTROLS:
        hit = satisfiable_bounded(Not(parse_formula(text)), max_states=2, max_agents=2)
        if hit and check(hit.model, hit.state, Not(parse_formula(text))).value:
            refuted += 1
    dt = axiom_sweep["runtime"] + (time.perf_counter() - t0)
    counterexamples = axiom_sweep["failures"]
    ok = not counterexamples and refuted == len(NEGATIVE_CONTROLS) and dt < 120.0
    report(capfd, 3,
        ok,
        f"{len(counterexamples)} counterexamples over {axiom_sweep['instances']} instances "
        f"x 1000 models, controls refuted {refuted}/{len(NEGATIVE_CONTROLS)}, "
        f"{dt:.1f}s (budget 120s)",
    )
    assert not counterexamples, counterexamples[:5]
    assert refuted == len(NEGATIVE_CONTROLS)
    assert dt < 120.0


def test_criterion_4_semantics_class_independence(axiom_sweep, capfd):
    t = axiom_sweep["tallies"]

    def counts(mode):
        hits = t[mode]["AX_N"][0] + t[mode]["AX_NC"][0]
        total = t[mode]["AX_N"][1] + t[mode]["AX_NC"][1]
        return hits, total

    gh, gt = counts("general")
    eh, et = counts("epistemic")
    # identical rates, compared as exact fractions
    ok = gh * et == eh * gt
    report(capfd, 4, ok, f"AX_N/AX_NC pass rate general {gh}/{gt} vs epistemic {eh}/{et}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Neighborhood translation equivalence


def test_criterion_5_translation_equivalence(capfd):
    corpus = sized_corpus(seed=55, count=50, depth=2, modal_ops="ES")
    t0 = time.perf_counter()
    mismatches = []
    for i in range(200):
        mode = "general" if i % 2 == 0 else "epistemic"
        m = random_model(states=3 + (i % 3), mode=mode, seed=5000 + i)
        nb = kripke_to_nbhd(m)
        back = nbhd_to_kripke(nb)
        if not check_frame_morphism(m, back, {w: w for w in m.states}, compare_valuations=True).ok:
            mismatches.append((i, "identity morphism"))
        w0 = sorted(m.states)[0]
        for f in corpus:
            here = extension(m, f)
            if here != reference_extension(m, f):
                mismatches.append((i, "reference " + print_formula(f)))
            if here != extension_nbhd(nb, f):
                mismatches.append((i, print_formula(f)))
            if here != extension(back, f):
                mismatches.append((i, "round trip " + print_formula(f)))
        if check(m, w0, corpus[0]).value is not check_nbhd(nb, w0, corpus[0]):
            mismatches.append((i, "check_nbhd"))
    dt = time.perf_counter() - t0
    ok = not mismatches
    report(capfd, 5, ok, f"{len(mismatches)} mismatches over 200 models x 50 formulas, {dt:.1f}s")
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# 6. Morphism and bisimulation lemmas


def _single_state(state: str, agent: str, holds_p: bool) -> KripkeModel:
    return KripkeModel(
        states=[state],
        agents=[agent],
        names=["n"],
        relations={agent: [[state, state]]},
        naming={(state, "n"): [agent]},
        valuation={"p": [state] if holds_p else []},
    )


def test_criterion_6_morphisms_and_bisimulations(capfd):
    t0 = time.perf_counter()
    failures = []

    # (a) the single-state morphism between one-point frames
    src = _single_state("x", "a", True)
    dst = _single_state("y", "b", True)
    if not check_frame_morphism(src, dst, {"x": "y"}, compare_valuations=True).ok:
        failures.append("single-state morphism")

    # (b) 100 valuation-matching morphism graphs pass check_bisimulation
    for i in range(50):
        m = random_model(states=3 + (i % 3), seed=6000 + i)
        other = random_model(states=3, seed=6500 + i)
        u = disjoint_union([m, other])
        graph = BisimRelation(frozenset([(w, f"0:{w}") for w in m.states]))
        if not check_bisimulation(m, u, graph).ok:
            failures.append(f"union inclusion {i}")
        sub = generated_submodel(m, sorted(m.states)[0])
        graph = BisimRelation(frozenset([(w, w) for w in sub.states]))
        if not check_bisimulation(sub, m, graph).ok:
            failures.append(f"submodel inclusion {i}")

    # (c) 100 non-bisimilar pairs get verified distinguishing formulas
    found = 0
    seed = 7000
    while found < 100 and seed < 7600:
        m1 = random_model(states=3 + (seed % 3), seed=seed)
        m2 = random_model(states=3 + ((seed + 1) % 3), seed=seed + 1)
        seed += 2
        w1, w2 = sorted(m1.states)[0], sorted(m2.states)[0]
        if bisimilar(m1, w1, m2, w2):
            continue
        found += 1
        f = distinguishing_formula(m1, w1, m2, w2)
        if f is None or not check(m1, w1, f).value or check(m2, w2, f).value:
            failures.append(f"distinguisher for pair seed {seed - 2}")
    if found < 100:
        failures.append(f"only {found} non-bisimilar pairs generated")

    # (d) 100 bisimilar pairs agree on a depth-3 corpus
    corpus = sized_corpus(seed=66, count=12, depth=3, modal_ops="ESC")
    for i in range(50):
        m = random_model(states=3 + (i % 3), seed=8000 + i)
        other = random_model(states=3, seed=8500 + i)
        u = disjoint_union([m, other])
        w0 = sorted(m.states)[0]
        if not bisimilar(m, w0, u, f"0:{w0}"):
            failures.append(f"union point not bisimilar {i}")
        elif not modal_equiv_corpus(m, w0, u, f"0:{w0}", corpus):
            failures.append(f"union corpus disagreement {i}")
        sub = generated_submodel(m, w0)
        if not bisimilar(sub, w0, m, w0):
            failures.append(f"submodel point not bisimilar {i}")
        elif not modal_equiv_corpus(sub, w0, m, w0, corpus):
            failures.append(f"submodel corpus disagreement {i}")

    dt = time.perf_counter() - t0
    ok = not failures
    report(capfd, 6, ok, f"{len(failures)} failures across (a)-(d), {dt:.1f}s")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 7. Decision procedure vs bounded search


def _example_formulas():
    texts = (
        "S[n] p & !E[n] p", "S[n] p & !p", "!(C[n] p -> E[n](p & C[n] p))", "C[n] p & !p",
        "!C[n] true & S[n] true", "D[n](p & q) & !S[n](p & q)", "D[n] p",
        "S[n] p -> S[n] S[n] p", "!S[n] p -> S[n] !S[n] p", "E[n] p -> p",
        "D[n](p & q)", "C[n] p -> E[n] E[n] p", "C[n] true",
        "!S[m] p & E[m] p & E[m] !p", "S[m] q & !S[m] S[m] q", "!S[n] p & !S[n] !S[n] p",
        "C[n](p | q)", "C[m] !q", "E[m] p & E[m] !p", "B[a;n] p & !p",
    )
    return [parse_formula(t) for t in texts]


def test_criterion_7_decision_cross_validation(capfd):
    instances = [inst for _, _, inst in _axiom_instances_once()]
    suite = (
        instances
        + [Not(inst) for inst in instances]
        + _example_formulas()
        + capped_corpus(seed=7, count=20, depth=3)
    )
    assert len(suite) == 60

    def in_filtration_fragment(f):
        return not any(isinstance(g, (D, B)) for g in walk(f))

    t0 = time.perf_counter()
    inconsistencies = []
    for chi in suite:
        if in_filtration_fragment(chi):
            res = satisfiable(chi)
        else:
            res = satisfiable_bounded(chi, max_states=3, max_agents=2)
        hit = satisfiable_bounded(chi, max_states=3, max_agents=2)
        if res.verdict == "unsat" and hit:
            inconsistencies.append(("unsat yet oracle model", print_formula(chi)))
        if res.verdict == "sat" and not check(res.model, res.state, chi).value:
            inconsistencies.append(("sat model fails re-check", print_formula(chi)))
        if res.verdict == "sat" and res.state not in reference_extension(res.model, chi):
            inconsistencies.append(("sat model fails the reference", print_formula(chi)))
        if hit and not check(hit.model, hit.state, chi).value:
            inconsistencies.append(("oracle model fails re-check", print_formula(chi)))
        if hit and hit.state not in reference_extension(hit.model, chi):
            inconsistencies.append(("oracle model fails the reference", print_formula(chi)))
    dt = time.perf_counter() - t0
    ok = not inconsistencies and dt < 300.0
    report(capfd, 7, ok, f"{len(inconsistencies)} inconsistencies over 60 formulas, {dt:.1f}s (budget 300s)")
    assert not inconsistencies, inconsistencies[:5]
    assert dt < 300.0


def _axiom_instances_once():
    out = []
    for system, label, arity, build in SCHEMAS:
        if arity == 0:
            out.append((system, label, build("n")))
        elif arity == 1:
            out.append((system, label, build("n", parse_formula("p"))))
        else:
            out.append((system, label, build("n", parse_formula("p"), parse_formula("q"))))
    return out


# ---------------------------------------------------------------------------
# 8. Complex-algebra equations


def test_criterion_8_algebra_equations(capfd):
    t0 = time.perf_counter()
    unexpected = []
    for i in range(100):
        m = random_model(states=2 + (i % 5), seed=9000 + i)
        nb = kripke_to_nbhd(m)
        assert len(nb.states) <= 6
        diags = verify_algebra_equations(nb)
        if diags:
            unexpected.append((i, [d.code for d in diags]))

    degenerate = nbhd_from_dict({
        "states": ["x"],
        "names": ["n"],
        "nu": {"x": {"n": [[]]}},
        "valuation": {"p": []},
    })
    flagged = any(
        d.code == "duality-empty-neighborhood" for d in verify_algebra_equations(degenerate)
    )
    dt = time.perf_counter() - t0
    ok = not unexpected and flagged
    report(capfd, 8,
        ok,
        f"{len(unexpected)} unexpected failures over 100 models, "
        f"empty-neighborhood duality flagged={flagged}, {dt:.1f}s",
    )
    assert not unexpected, unexpected[:5]
    assert flagged


# ---------------------------------------------------------------------------
# 9. Frame definability of factivity


def _frame_with_broken_loop(seed: int) -> KripkeModel:
    m = random_model(states=4, seed=seed)
    w0 = sorted(m.states)[0]
    a0 = sorted(m.agents)[0]
    naming = {key: set(group) for key, group in m.naming.items()}
    naming[(w0, "n")] = {a0}
    relations = {a: set(pairs) for a, pairs in m.relations.items()}
    relations.setdefault(a0, set()).discard((w0, w0))
    return KripkeModel(
        states=m.states,
        agents=m.agents,
        names=m.names,
        relations=relations,
        naming=naming,
        valuation=m.valuation,
    )


def test_criterion_9_frame_definability(capfd):
    t0 = time.perf_counter()
    factivity = parse_formula("S[n] p -> p")
    false_positives = [
        seed for seed in range(50) if not frame_valid(random_model(states=4, seed=seed), factivity)
    ]
    false_negatives = [
        seed for seed in range(20) if frame_valid(_frame_with_broken_loop(10_000 + seed), factivity)
    ]
    dt = time.perf_counter() - t0
    ok = not false_positives and not false_negatives
    report(capfd, 9,
        ok,
        f"{50 - len(false_positives)}/50 conforming frames validate, "
        f"{20 - len(false_negatives)}/20 violating frames refute, {dt:.1f}s",
    )
    assert not false_positives, false_positives
    assert not false_negatives, false_negatives
