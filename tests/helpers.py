"""Shared generators for the test suites.

Everything is driven by an explicit random.Random so expected values can be
frozen against a seed.
"""

import random
from functools import reduce
from itertools import islice
from operator import or_

from namelogic import And, B, Bot, BudgetExceededError, C, D, E, FALSE, Iff, Implies, ModelFormatError, Not, Or, Prop, S, TRUE, Top, closure, walk
from namelogic import UnsupportedFragmentError, print_formula
from namelogic import formula, kripke

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


def modal_equiv_corpus(m1, w1, m2, w2, corpus) -> bool:
    """Do the two points agree on every formula of the corpus?  Criterion 6's
    check, one kripke.check per formula and side, apart from the
    library's partition refinement."""
    return all(kripke.check(m1, w1, f).value == kripke.check(m2, w2, f).value for f in corpus)


def _profile(u, w, props) -> frozenset:
    return frozenset(p for p in props if u.holds(p, w))


def reference_refine(u, signature) -> list:
    """Partition refinement on the tagged disjoint union u, the engine the
    library had before it ran on int masks: from the atom-profile partition
    of u's states, every block of every round is split by signature(u, w,
    classes) over the previous round's classes until a round splits
    nothing.  Returns the rounds, each a list of (members, parent,
    signature) with members sorted, numbered by parent block, then by first
    member."""
    props = sorted(u.valuation)
    profiles: dict = {}
    for w in sorted(u.states):
        profiles.setdefault(_profile(u, w, props), []).append(w)
    first = sorted(profiles.items(), key=lambda kv: kv[1])
    rounds = [[(ws, None, atoms) for atoms, ws in first]]
    while True:
        blocks = rounds[-1]
        classes = {w: cid for cid, block in enumerate(blocks) for w in block[0]}
        split = []
        for cid, (members, _, _) in enumerate(blocks):
            groups: dict = {}
            for w in members:
                groups.setdefault(signature(u, w, classes), []).append(w)
            split.extend((ws, cid, sig) for sig, ws in sorted(groups.items(), key=lambda kv: kv[1]))
        if len(split) == len(blocks):
            return rounds
        rounds.append(split)


def reference_family(u, w, n, classes) -> frozenset:
    """The sets of classes reached by the agents named n at w."""
    return frozenset(frozenset(classes[v] for v in u.successors(a, w)) for a in u.named(w, n))


def reference_bisim_signature(u, w, classes):
    return tuple(reference_family(u, w, n, classes) for n in sorted(u.names))


def reference_modal_signature(u, w, classes):
    # E and S observe only the minimal sets of a family and its union
    out = []
    for n in sorted(u.names):
        fam = reference_family(u, w, n, classes)
        minima = frozenset(P for P in fam if not any(Q < P for Q in fam))
        out.append((minima, frozenset().union(*fam)))
    return tuple(out)


def _fold(parts, op, unit):
    if not parts:
        return unit
    out = parts[0]
    for g in parts[1:]:
        out = op(out, g)
    return out


def _reference_separator(names, sig_x, sig_y, chi):
    for n, (min_x, union_x), (min_y, union_y) in zip(names, sig_x, sig_y):
        if min_x != min_y:
            for P in sorted(min_x, key=sorted):
                if not any(Q <= P for Q in min_y):
                    return S(n, _fold([chi(c) for c in sorted(P)], Or, FALSE))
            for P in sorted(min_y, key=sorted):
                if not any(Q <= P for Q in min_x):
                    return Not(S(n, _fold([chi(c) for c in sorted(P)], Or, FALSE)))
        if union_x != union_y:
            extra = union_x - union_y
            if extra:
                return Not(E(n, Not(chi(min(extra)))))
            return E(n, Not(chi(min(union_y - union_x))))
    raise AssertionError("states were split without a signature difference")


def reference_refine_with_formulas(u):
    """The stable modal partition of u with the all-pairs table of
    separating formulas: (classes, delta), where delta[(ci, cj)] is true in
    block ci of the last round and false in block cj.  Each round's table
    is built for every ordered pair of blocks from the previous round's."""
    rounds = reference_refine(u, reference_modal_signature)
    delta = {}
    for ci, (_, _, x) in enumerate(rounds[0]):
        for cj, (_, _, y) in enumerate(rounds[0]):
            if ci != cj:
                p = min(x ^ y)
                delta[(ci, cj)] = Prop(p) if p in x else Not(Prop(p))
    names = sorted(u.names)
    for previous, blocks in zip(rounds, rounds[1:]):
        chi_memo = {}

        def chi(c):
            if c not in chi_memo:
                chi_memo[c] = _fold([delta[(c, d)] for d in range(len(previous)) if d != c], And, TRUE)
            return chi_memo[c]

        new_delta = {}
        for ci, (_, pi, x) in enumerate(blocks):
            for cj, (_, pj, y) in enumerate(blocks):
                if ci == cj:
                    continue
                if pi != pj:
                    new_delta[(ci, cj)] = delta[(pi, pj)]
                elif (cj, ci) in new_delta:
                    new_delta[(ci, cj)] = Not(new_delta[(cj, ci)])
                else:
                    new_delta[(ci, cj)] = _reference_separator(names, x, y, chi)
        delta = new_delta
    classes = {w: cid for cid, (members, _, _) in enumerate(rounds[-1]) for w in members}
    return classes, delta


# The recursive printer, equality, desugaring and modal depth that the
# library's folds over formula._numbering replaced: each follows its
# definition clause by clause, and visits a shared subterm once per
# occurrence.

_LVL_IFF, _LVL_IMPLIES, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = range(6)


def _reference_fmt(f, required: int) -> str:
    match f:
        case Prop(name):
            text, level = name, _LVL_ATOM
        case Top():
            text, level = "true", _LVL_ATOM
        case Bot():
            text, level = "false", _LVL_ATOM
        case Not(arg):
            text, level = "!" + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case E(name, arg):
            text, level = f"E[{name}] " + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case S(name, arg):
            text, level = f"S[{name}] " + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case C(name, arg):
            text, level = f"C[{name}] " + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case D(name, arg):
            text, level = f"D[{name}] " + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case B(agent, name, arg):
            text, level = f"B[{agent};{name}] " + _reference_fmt(arg, _LVL_UNARY), _LVL_UNARY
        case And(left, right):
            text = _reference_fmt(left, _LVL_AND) + " & " + _reference_fmt(right, _LVL_AND + 1)
            level = _LVL_AND
        case Or(left, right):
            text = _reference_fmt(left, _LVL_OR) + " | " + _reference_fmt(right, _LVL_OR + 1)
            level = _LVL_OR
        case Implies(left, right):
            text = _reference_fmt(left, _LVL_IMPLIES + 1) + " -> " + _reference_fmt(right, _LVL_IMPLIES)
            level = _LVL_IMPLIES
        case Iff(left, right):
            text = _reference_fmt(left, _LVL_IFF + 1) + " <-> " + _reference_fmt(right, _LVL_IFF)
            level = _LVL_IFF
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if level < required:
        return "(" + text + ")"
    return text


def reference_print(f) -> str:
    return _reference_fmt(f, 0)


def reference_equal(f, g) -> bool:
    """Structural equality by its definition: the same class, equal string
    fields and equal operands, compared recursively, with no numbering."""
    if f.__class__ is not g.__class__:
        return False
    for field in f.__match_args__:
        x, y = getattr(f, field), getattr(g, field)
        if not (x == y if isinstance(x, str) else reference_equal(x, y)):
            return False
    return True


def reference_modal_depth(f) -> int:
    match f:
        case E(_, arg) | S(_, arg) | C(_, arg) | D(_, arg) | B(_, _, arg):
            return 1 + reference_modal_depth(arg)
        case _:
            return max((reference_modal_depth(g) for g in f._kids()), default=0)


def reference_desugar(f):
    match f:
        case Or(l, r):
            return Not(And(Not(reference_desugar(l)), Not(reference_desugar(r))))
        case Implies(l, r):
            return Not(And(reference_desugar(l), Not(reference_desugar(r))))
        case Iff(l, r):
            return And(reference_desugar(Implies(l, r)), reference_desugar(Implies(r, l)))
        case Not(arg):
            return Not(reference_desugar(arg))
        case And(l, r):
            return And(reference_desugar(l), reference_desugar(r))
        case E(name, arg):
            return E(name, reference_desugar(arg))
        case S(name, arg):
            return S(name, reference_desugar(arg))
        case C(name, arg):
            return C(name, reference_desugar(arg))
        case D(name, arg):
            return D(name, reference_desugar(arg))
        case B(agent, name, arg):
            return B(agent, name, reference_desugar(arg))
        case _:
            return f


def reference_symbols(f) -> tuple[frozenset, frozenset, frozenset]:
    """(names, props, agents) of f, collected by walking every subterm: the
    definition that the library's cached per-node symbol sets must match."""
    nodes = list(walk(f))
    return (
        frozenset(g.name for g in nodes if isinstance(g, (E, S, C, D, B))),
        frozenset(g.name for g in nodes if isinstance(g, Prop)),
        frozenset(g.agent for g in nodes if isinstance(g, B)),
    )


def subformulas(f) -> frozenset:
    """The distinct subterms of the desugared f, f included, by the
    recursive definitions: exponential on a DAG, so for small formulas."""
    return frozenset(walk(reference_desugar(f)))


def desugar(f):
    """f with ->, | and <-> rewritten into the !/& core by the library's
    key-level formula._desugar, built node by node from the table it
    numbers, so equal subterms of the result are one node.  The table lists
    the input's subterms first, not in a numbering's order, so it is no
    program for the result."""
    return formula._build(formula._desugar(formula._keys(f)).keys)[-1]


def closure_members(cl) -> list:
    """The members of a formula.Closure as nodes, members[k] the formula
    cl.keys[k] numbers, each built by its class's constructor over the
    members its key names as operands."""
    members: list = []
    for cls, fields, ks in cl.keys:
        members.append(cls(*fields, *[members[k] for k in ks]))
    return members


def refuse_node_builds(mp) -> None:
    """Through the pytest MonkeyPatch mp, make formula._build and
    formula._unfold, the routes by which keys become nodes, raise."""
    def refused(*args):
        raise AssertionError("a formula node was built")

    mp.setattr(formula, "_build", refused)
    mp.setattr(formula, "_unfold", refused)


def reference_closure(chi) -> tuple[frozenset, frozenset, frozenset]:
    """(members, names, props) of the closure of chi, by a worklist over a
    set: the subterms of the desugared chi and the seeds, then every
    negation, S-weakening and C-unfolding until nothing is new.  Raises
    UnsupportedFragmentError naming the outermost desugared D/B member."""
    chi = reference_desugar(chi)
    names, props, _ = reference_symbols(chi)
    seeds = [S(n, TRUE) for n in sorted(names)] + [E(n, FALSE) for n in sorted(names)]
    # the distinct subterms children first, as a numbering lists them: each
    # root's walk reversed, every subterm at its first place
    nodes = list(dict.fromkeys([g for root in (chi, *seeds) for g in reversed(list(walk(root)))]))
    for g in reversed(nodes):
        if isinstance(g, (D, B)):
            raise UnsupportedFragmentError(
                f"closure is defined for the E/S/C fragment, got {print_formula(g)}"
            )
    formulas: set = set()
    queue = nodes
    while queue:
        g = queue.pop()
        if g in formulas:
            continue
        formulas.add(g)
        if not isinstance(g, Not):
            queue.append(Not(g))
        match g:
            case E(n, arg):
                queue.append(S(n, arg))
            case C(n, arg):
                queue.append(E(n, arg))
                queue.append(E(n, g))
    return frozenset(formulas), names, props


def _mentioned_states(m) -> frozenset:
    """Every state name the Kripke model mentions: declared, on an edge, in
    the valuation or at a naming entry."""
    out = set(m.states)
    for pairs in m.relations.values():
        for x, y in pairs:
            out |= {x, y}
    out |= {w for w, _ in m.naming}
    for ws in m.valuation.values():
        out |= ws
    return frozenset(out)


def reference_extension(m, f) -> frozenset:
    """Truth set of f in the Kripke model m, the definitions read literally
    as frozenset clauses over holds, named and successors.

    A model may mention states it does not declare (validate_model reports
    them; the checker evaluates anyway).  A proposition is true at every
    mentioned state the valuation lists, so p & p can hold outside the state
    set; negation, the constants and every modality range over the declared
    states only, and a common-knowledge path does not continue from an
    undeclared state."""
    states = m.states
    universe = _mentioned_states(m)

    def name_step(w, n):
        if w not in states:
            return frozenset()
        return frozenset().union(*(m.successors(a, w) for a in m.named(w, n)))

    def ext(g):
        match g:
            case Prop(p):
                return frozenset(u for u in universe if m.holds(p, u))
            case Top():
                return states
            case Bot():
                return frozenset()
            case Not(a):
                return states - ext(a)
            case And(l, r):
                return ext(l) & ext(r)
            case Or(l, r):
                return ext(l) | ext(r)
            case Implies(l, r):
                return (states - ext(l)) | ext(r)
            case Iff(l, r):
                le, re_ = ext(l), ext(r)
                return (le & re_) | ((states - le) & (states - re_))
            case E(n, a):
                good = ext(a)
                return frozenset(
                    w for w in states if all(m.successors(b, w) <= good for b in m.named(w, n))
                )
            case S(n, a):
                good = ext(a)
                return frozenset(
                    w for w in states if any(m.successors(b, w) <= good for b in m.named(w, n))
                )
            case C(n, a):
                good = ext(a)
                out = set()
                for w in states:
                    seen, frontier = set(), set(name_step(w, n))
                    while frontier:
                        seen |= frontier
                        frontier = {y for x in frontier for y in name_step(x, n)} - seen
                    if seen <= good:
                        out.add(w)
                return frozenset(out)
            case D(n, a):
                good = ext(a)
                out = set()
                for w in states:
                    group = m.named(w, n)
                    if group and states.intersection(*(m.successors(b, w) for b in group)) <= good:
                        out.add(w)
                return frozenset(out)
            case B(agent, n, a):
                good = ext(a)
                return frozenset(
                    w
                    for w in states
                    if all(v in good for v in m.successors(agent, w) if agent in m.named(v, n))
                )
        raise TypeError(f"not a formula: {g!r}")

    return ext(f)


def reference_extension_nbhd(m, f) -> frozenset:
    """Truth set of an E/S formula in the neighborhood model m, read
    literally over holds and family: E[n] asks every member of the family at
    a state to lie inside the truth set, S[n] some member."""
    states = m.states
    universe = set(states)
    for fam in m.nu.values():
        for X in fam:
            universe |= X
    for ws in m.valuation.values():
        universe |= ws

    def ext(g):
        match g:
            case Prop(p):
                return frozenset(u for u in universe if m.holds(p, u))
            case Top():
                return states
            case Bot():
                return frozenset()
            case Not(a):
                return states - ext(a)
            case And(l, r):
                return ext(l) & ext(r)
            case Or(l, r):
                return ext(l) | ext(r)
            case Implies(l, r):
                return (states - ext(l)) | ext(r)
            case Iff(l, r):
                le, re_ = ext(l), ext(r)
                return (le & re_) | ((states - le) & (states - re_))
            case E(n, a):
                good = ext(a)
                return frozenset(w for w in states if all(X <= good for X in m.family(w, n)))
            case S(n, a):
                good = ext(a)
                return frozenset(w for w in states if any(X <= good for X in m.family(w, n)))
        raise TypeError(f"no neighborhood reading for {g!r}")

    return ext(f)


def reference_candidate_index(size, agents, rows, mu):
    """One bounded-oracle candidate as an index of kripke's truth core, read
    straight from its arrays: rows[a][w] is agent a's successor mask at
    state w, mu[(w, n)] the agent indices n picks out at w.  The valuation
    is passed to each _run.  The oracle evaluated its candidates one at a
    time through this before it ran them as bit lanes."""
    fam: dict = {}
    bearers: dict = {}
    for (w, n), group in mu.items():
        if group:
            bit = 1 << w
            members = tuple(rows[a][w] for a in group)
            fam.setdefault(n, []).append((bit, reduce(or_, members), members))
            for a in group:
                key = (agents[a], n)
                bearers[key] = bearers.get(key, 0) | bit
    by_agent = {
        agents[a]: {1 << w: succ for w, succ in enumerate(per) if succ}
        for a, per in enumerate(rows)
    }
    return kripke._Index((1 << size) - 1, {}, fam, by_agent, bearers, tuple(range(size)))


def reference_candidate_model(states, agents, names, rows, mu, val):
    """One bounded-oracle candidate as a KripkeModel, built from the same
    arrays as reference_candidate_index (val[p] is p's state mask), with no
    bit lanes involved."""
    on = lambda mask: [w for i, w in enumerate(states) if (mask >> i) & 1]
    return kripke.KripkeModel(
        states=states,
        agents=agents,
        names=names,
        relations={
            agents[a]: [(x, y) for x, row in zip(states, per) for y in on(row)]
            for a, per in enumerate(rows)
        },
        naming={(states[w], n): [agents[a] for a in group] for (w, n), group in mu.items()},
        valuation={p: on(m) for p, m in val.items()},
    )


def reference_draw(rng, size, n_agents, names, props):
    """One sampled oracle candidate (mu, rows, val), drawn one at a time as
    the oracle did before it drew whole blocks of them as bit lanes."""
    densities = (0.15, 0.3, 0.5, 0.75)
    nd = rng.choice(densities)
    ed = rng.choice(densities)
    mu = {
        (w, n): tuple(a for a in range(n_agents) if rng.random() < nd)
        for w in range(size)
        for n in names
    }
    bearers = [0] * n_agents
    for (w, _), group in mu.items():
        for a in group:
            bearers[a] |= 1 << w
    # an agent bearing a name at w keeps its loop there
    rows = [
        [sum(1 << v for v in range(size) if rng.random() < ed) | (bearers[a] & 1 << w)
         for w in range(size)]
        for a in range(n_agents)
    ]
    val = {p: rng.randrange(2 ** size) for p in props}
    return mu, rows, val


def reference_enumerate_atoms(lay, max_atoms):
    """The coherent atoms of a decision._Layout, one bit at a time: after
    each assignment, every literal rule of lay.rules filed under that level
    (its highest index) is tested with all(), in the order and with the
    budget of the enumeration before it compiled the rules to masks."""
    buckets = [[] for _ in lay.texts]
    for ants, (j, want) in lay.rules:
        buckets[max(j, *(i for i, _ in ants))].append((ants, (j, want)))
    bits = [False] * len(lay.texts)
    atoms = []

    def consistent(d):
        for ants, (j, want) in buckets[d]:
            if all(bits[i] is need for i, need in ants) and bits[j] is not want:
                return False
        return True

    def assign(d):
        if d == len(bits):
            if len(atoms) >= max_atoms:
                raise BudgetExceededError(f"more than {max_atoms} coherent atoms")
            atoms.append(sum(1 << i for i, b in enumerate(bits) if b))
            return
        match lay.kinds[d]:
            case ("const", v):
                bits[d] = v
                if consistent(d):
                    assign(d + 1)
            case ("and", (jl, wl), (jr, wr)):
                bits[d] = (bits[jl] is wl) and (bits[jr] is wr)
                if consistent(d):
                    assign(d + 1)
            case _:
                for v in (True, False):
                    bits[d] = v
                    if consistent(d):
                        assign(d + 1)

    assign(0)
    return atoms


def reference_eliminate(lay, atoms):
    """The atom elimination over a decision._Layout, one atom at a time and
    over sets of atom indices, as (surviving atoms, rounds, eliminated).

    Atom j has one witness agent per name n and per S[n] member it holds;
    the agent sees every atom holding that member's operand and every
    operand the atom puts under E[n].  Each round reads the agents' live
    successors.  E[n] f holds where every agent of n sees only f, S[n] f
    where some agent does, and C[n] f where no path of one or more n steps
    leads to a live atom without f.  An atom whose membership of some E, S
    or C member disagrees with that truth is removed.  Its reason is the
    first disagreeing member: every C member, then per name its E and then
    its S members.  The rounds end when one removes nothing."""
    holds = lambda j, lit: bool((atoms[j] >> lit[0]) & 1) is lit[1]
    member = lambda j, i: bool((atoms[j] >> i) & 1)
    texts = lay.texts
    everyone = range(len(atoms))
    agents = {}
    for j in everyone:
        for n in lay.names:
            known = [arg for i, arg in lay.e_of[n] if member(j, i)]
            agents[j, n] = [
                frozenset(k for k in everyone if holds(k, arg) and all(holds(k, a) for a in known))
                for i, arg, _ in lay.s_of[n] if member(j, i)
            ]
    alive = set(everyone)
    rounds, eliminated = 0, []
    while True:
        rounds += 1
        step = lambda j, n: set().union(*(seen & alive for seen in agents[j, n]))

        def escapes(j, n, arg):
            reached, frontier = set(), step(j, n)
            while frontier:
                if any(not holds(k, arg) for k in frontier):
                    return True
                reached |= frontier
                frontier = set().union(*(step(k, n) for k in frontier)) - reached
            return False

        def flaw(j):
            for n in lay.names:
                for i, arg in lay.c_of[n]:
                    if escapes(j, n, arg) is member(j, i):
                        return (f"{texts[i]} claimed, escape path exists" if member(j, i)
                                else f"{texts[i]} denied, no escape path")
            for n in lay.names:
                for i, arg in lay.e_of[n]:
                    if all(holds(k, arg) for k in step(j, n)) is not member(j, i):
                        return (f"{texts[i]} claimed, a dissenting successor exists" if member(j, i)
                                else f"{texts[i]} denied, no dissenting successor")
                for i, arg, _ in lay.s_of[n]:
                    known = any(all(holds(k, arg) for k in seen & alive) for seen in agents[j, n])
                    if known is not member(j, i):
                        return (f"{texts[i]} claimed, no witness knows it" if member(j, i)
                                else f"{texts[i]} denied, a witness knows it")
            return None

        doomed = [(j, flaw(j)) for j in sorted(alive)]
        doomed = [(j, reason) for j, reason in doomed if reason is not None]
        if not doomed:
            return [atoms[j] for j in sorted(alive)], rounds, eliminated
        for j, reason in doomed:
            eliminated.append((atoms[j], reason))
            alive.discard(j)


def reference_escapes(entries, good):
    """The bits of the sources among entries, (source bit, union, members)
    as in kripke._Index.fam, with a path of one or more steps to a bit
    outside good: plain reachability over sets of bit indices."""
    index = lambda mask: {i for i in range(mask.bit_length()) if (mask >> i) & 1}
    succ = {index(w).pop(): index(union) for w, union, _ in entries}
    out = 0
    for w in succ:
        reached, frontier = set(), set(succ[w])
        while frontier:
            reached |= frontier
            frontier = set().union(*(succ.get(x, ()) for x in frontier)) - reached
        if any(not (good >> x) & 1 for x in reached):
            out |= 1 << w
    return out


def reference_close_relation(pairs, ops, states):
    """The closure ops applied in order to the pair set, the transitive one
    as a fixpoint that joins every pair with every pair until nothing new
    appears: the definition that kripke._close_relation's passes over
    successor masks must match."""
    pairs = set(pairs)
    for op in ops:
        if op == "reflexive":
            pairs |= {(s, s) for s in states}
        elif op == "symmetric":
            pairs |= {(y, x) for x, y in pairs}
        elif op == "transitive":
            changed = True
            while changed:
                extra = {
                    (x, z)
                    for x, y in pairs
                    for y2, z in pairs
                    if y == y2 and (x, z) not in pairs
                }
                changed = bool(extra)
                pairs |= extra
        else:
            raise ModelFormatError(f"unknown closure op {op!r}")
    return pairs


def reference_validate_model(m, mode="lenient"):
    """kripke.validate_model as the definitions read: every agent's pairs
    sorted and walked one at a time, twice, and the epistemic check joining
    every pair with every pair.  The library must give the same
    diagnostics in the same order."""
    Diagnostic, has_errors = kripke.Diagnostic, kripke.has_errors
    if mode not in ("lenient", "strict", "epistemic"):
        raise ValueError(f"unknown validation mode {mode!r}")
    out = []
    err = lambda code, msg: out.append(Diagnostic("error", code, msg))
    warn = lambda code, msg: out.append(Diagnostic("warning", code, msg))

    if not m.states:
        err("empty-states", "model has no states")
    for a in sorted(m.relations):
        if a not in m.agents:
            err("undeclared-agent", f"relation for undeclared agent {a!r}")
        for x, y in sorted(m.relations[a]):
            if x not in m.states or y not in m.states:
                err("undeclared-state", f"edge ({x!r}, {y!r}) of agent {a!r} leaves the state set")
    for (state, name), group in sorted(m.naming.items()):
        if state not in m.states:
            err("undeclared-state", f"naming entry at undeclared state {state!r}")
        if name not in m.names:
            err("undeclared-name", f"naming entry for undeclared name {name!r}")
        for a in sorted(group):
            if a not in m.agents:
                err("undeclared-agent", f"name {name!r} at {state!r} lists undeclared agent {a!r}")
    for prop, ws in sorted(m.valuation.items()):
        for w in sorted(ws):
            if w not in m.states:
                err("undeclared-state", f"valuation of {prop!r} lists undeclared state {w!r}")
    if has_errors(out):
        return out

    bearers = {
        (state, a) for (state, _), group in m.naming.items() for a in group
    }
    for state, a in sorted(bearers):
        if (state, state) not in m.relations.get(a, frozenset()):
            err(
                "missing-reflexive-loop",
                f"agent {a!r} bears a name at {state!r} but ({state!r}, {state!r}) is not in its relation",
            )
    for a in sorted(m.relations):
        for x, y in sorted(m.relations[a]):
            if (x, a) not in bearers:
                report = err if mode == "strict" else warn
                report(
                    "edge-from-unnamed-source",
                    f"agent {a!r} has an edge at {x!r} where it bears no name",
                )
    if mode == "epistemic":
        for a in sorted(m.relations):
            rel = m.relations[a]
            fld = {x for pair in rel for x in pair}
            ok = all((x, x) in rel for x in fld)
            ok = ok and all((y, x) in rel for x, y in rel)
            ok = ok and all(
                (x, z) in rel for x, y in rel for y2, z in rel if y == y2
            )
            if not ok:
                err(
                    "not-equivalence-on-field",
                    f"relation of agent {a!r} is not an equivalence on its field",
                )
    return out
