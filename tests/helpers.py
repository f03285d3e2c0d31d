"""Shared generators for the test suites.

Everything is driven by an explicit random.Random so expected values can be
frozen against a seed.
"""

import random
from itertools import islice

from namelogic import And, B, C, D, E, FALSE, Iff, Implies, Not, Or, Prop, S, TRUE, closure, walk

_BOOLEAN = ("not", "and", "or", "implies", "iff")


def random_formula(
    rng: random.Random,
    depth: int,
    props=("p", "q"),
    names=("n", "m"),
    agents=("a", "b"),
    modal_ops="ESC",
    leaf_bias: float = 0.25,
):
    """A random formula of modal depth at most `depth`.

    modal_ops selects which modalities may appear (letters of "ESCDB").
    """
    if depth == 0 or rng.random() < leaf_bias:
        roll = rng.random()
        if roll < 0.8:
            return Prop(rng.choice(props))
        return TRUE if roll < 0.9 else FALSE
    ops = list(_BOOLEAN) + [op for op in modal_ops if op in "ESCDB"]
    match rng.choice(ops):
        case "not":
            return Not(random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias))
        case "and":
            return And(
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
            )
        case "or":
            return Or(
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
            )
        case "implies":
            return Implies(
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
            )
        case "iff":
            return Iff(
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
                random_formula(rng, depth, props, names, agents, modal_ops, leaf_bias),
            )
        case "E":
            return E(rng.choice(names), random_formula(rng, depth - 1, props, names, agents, modal_ops, leaf_bias))
        case "S":
            return S(rng.choice(names), random_formula(rng, depth - 1, props, names, agents, modal_ops, leaf_bias))
        case "C":
            return C(rng.choice(names), random_formula(rng, depth - 1, props, names, agents, modal_ops, leaf_bias))
        case "D":
            return D(rng.choice(names), random_formula(rng, depth - 1, props, names, agents, modal_ops, leaf_bias))
        case "B":
            return B(
                rng.choice(agents),
                rng.choice(names),
                random_formula(rng, depth - 1, props, names, agents, modal_ops, leaf_bias),
            )


def formula_corpus(seed: int, count: int, depth: int, modal_ops="ESC", **kw):
    rng = random.Random(seed)
    return [random_formula(rng, depth, modal_ops=modal_ops, **kw) for _ in range(count)]


# The raw generator is heavy-tailed: boolean connectives keep the depth
# budget, so occasional draws are enormous.  The capped variants reject
# oversized draws and keep downstream consumers predictable.

def sized_corpus(seed: int, count: int, depth: int, max_nodes: int = 48, modal_ops="ESC", **kw):
    """Random formulas with at most max_nodes subterms each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng, depth, modal_ops=modal_ops, **kw)
        if sum(1 for _ in islice(walk(f), max_nodes + 1)) <= max_nodes:
            out.append(f)
    return out


def capped_corpus(seed: int, count: int, depth: int, cap: int = 64, modal_ops="ESC", **kw):
    """Random formulas whose closure fits the decision procedure's budget."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng, depth, modal_ops=modal_ops, **kw)
        if sum(1 for _ in islice(walk(f), 257)) <= 256 and len(closure(f)) <= cap:
            out.append(f)
    return out


def reference_greatest_bisimulation(m1, m2) -> frozenset:
    """Greatest bisimulation by pairwise deletion, the library's definition
    read literally: start from every pair of states agreeing on all
    propositions, then drop each pair at which some named agent's successor
    set has no back-and-forth match through the current relation on the
    other side, until nothing is dropped.  It reads the models only through
    holds, named and successors, so it shares no code with the library's
    partition refinement."""
    props = set(m1.valuation) | set(m2.valuation)
    names = m1.names | m2.names

    def atoms(m, w):
        return {p for p in props if m.holds(p, w)}

    def matched(rel, left, right):
        return all(any((v, v2) in rel for v2 in right) for v in left) and all(
            any((v, v2) in rel for v in left) for v2 in right
        )

    def ok(rel, w, w2):
        for n in names:
            left = [m1.successors(a, w) for a in m1.named(w, n)]
            right = [m2.successors(a, w2) for a in m2.named(w2, n)]
            if not all(any(matched(rel, s, s2) for s2 in right) for s in left):
                return False
            if not all(any(matched(rel, s, s2) for s in left) for s2 in right):
                return False
        return True

    rel = frozenset(
        (w, w2) for w in m1.states for w2 in m2.states if atoms(m1, w) == atoms(m2, w2)
    )
    while True:
        kept = frozenset(pair for pair in rel if ok(rel, *pair))
        if kept == rel:
            return rel
        rel = kept


def reference_symbols(f) -> tuple[frozenset, frozenset, frozenset]:
    """(names, props, agents) of f, collected by walking every subterm: the
    definition that the library's cached per-node symbol sets must match."""
    nodes = list(walk(f))
    return (
        frozenset(g.name for g in nodes if isinstance(g, (E, S, C, D, B))),
        frozenset(g.name for g in nodes if isinstance(g, Prop)),
        frozenset(g.agent for g in nodes if isinstance(g, B)),
    )
