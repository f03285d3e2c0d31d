"""Satisfiability and validity for the everyone/someone/common-knowledge fragment.

The solver works inside the finite closure of the query.  It enumerates the
locally coherent truth assignments over the closure (atoms), then repeatedly
rebuilds the witness-agent model over the surviving atoms and removes every
atom whose modal claims disagree with their semantic evaluation in that
model.  Each round's model is a kripke._Index whose states are the live
atoms, and the truth core's step evaluates every E, S and C member on it:
an atom goes where a step disagrees with its membership.  The solver holds
no modal clause of its own.  At the fixpoint membership and truth
coincide, so the query is satisfiable exactly when some survivor contains
it.  Every sat verdict is re-verified through the kripke module before it
is returned; a re-check failure raises instead of producing a verdict.

From the layout on the procedure works on ints.  formula.closure numbers
the desugared query and grows that numbering by the members its rules
add.  _Layout reads it as it is and resolves every member, each E/S/C
operand among them, to an integer literal: a positive's index and a
polarity.  An atom is an int with one bit per positive.  Each coherence
rule becomes a (mask, pattern) pair, broken by an atom exactly when
atom & mask == pattern.  A rule whose conclusion is among its own
antecedents is dropped, and one whose antecedent denies its conclusion is
broken whenever its antecedents hold.  The enumeration sets the bits of
constants and conjunctions without branching and branches only at the
other levels.  The elimination rounds read columns, one int mask over the
atoms per positive: each member's own column, and its operand's column as
the good mask of its step.

Extracted models record each witness agent's relation from the state that
minted it.  That keeps models linear in the survivor count and changes no
truth value: the everyone/someone/common operators only ever read an agent's
relation from states where the agent bears the name, and each minted agent
bears its name at its minting state only.  A witness agent's relation is
one successor mask, its live extension, which is the form a KripkeModel
holds: each distinct live mask is moved once from atom order into the
model's state order, and no pair is built.

Distributed knowledge has no effective route here.  Those queries go through
the bounded oracle, satisfiable_bounded.  It is one loop over tiers and lane
blocks: each tier yields its candidates as a kripke._Lanes block (every
rows-and-valuation choice under one naming, or a block of random draws),
and kripke._run evaluates the query's numbering on all of a block's lanes
at once.  The lowest hit lane is decoded into a KripkeModel that is checked
again through kripke.check and lenient validation.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import or_
from typing import Optional, Sequence

from . import kripke
from .errors import BudgetExceededError, LogicError
from .formula import (
    FALSE,
    TRUE,
    And,
    Bot,
    C,
    D,
    E,
    Formula,
    Implies,
    Not,
    Or,
    Prop,
    S,
    Top,
    _desugar,
    _program,
    _texts,
    agents_in,
    closure,
    names_in,
    print_formula,
    props_in,
)
from .kripke import KripkeModel, _bit_indices
from .record import Record

__all__ = [
    "AxiomCheck",
    "AxiomSuiteReport",
    "EliminationState",
    "SatResult",
    "axiom_suite",
    "satisfiable",
    "satisfiable_bounded",
    "valid",
]


# ---------------------------------------------------------------------------
# Results

class SatResult(Record):
    """Outcome of a satisfiability query.

    verdict is "sat", "unsat", or "sat-bounded-unknown" (bounded oracle route
    only: nothing found within the bounds, which proves nothing).  model and
    state are present exactly on "sat" and already re-verified.
    """

    __slots__ = ("verdict", "model", "state", "stats")

    def __bool__(self) -> bool:
        return self.verdict == "sat"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "model": kripke.model_to_dict(self.model) if self.model is not None else None,
            "state": self.state,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }


class EliminationState(Record):
    """Progress record of the atom-elimination fixpoint.

    Atoms are bitmasks over the layout's positive formulas.  surviving only
    ever shrinks; round counts full passes including the final stable one.
    """

    __slots__ = ("surviving", "round", "eliminated")


# ---------------------------------------------------------------------------
# Closure layout: positives in children-first order, literals and rules as ints

class _Layout:
    """The closure of a query, resolved to integers once.

    It reads the closure's keys as they are: a member's operands are
    numbers already, and the query is the closure's root, so nothing is
    numbered, desugared or built here.

    The positives are the members that are not negations, ordered by
    subterm count and then text; texts[i] is the i-th one's print_formula
    text, and an atom sets bit i when it holds.  A
    literal (i, want) stands for a member: the positive its negations strip
    down to, and the member's truth when that positive holds.  e_of, s_of
    and c_of list per name each E, S and C member as (index, literal of the
    operand); s_of adds the operand's text.  kinds and rules are the local
    coherence conditions over literals, and steps the same conditions as
    masks, one entry per level of the atom enumeration.
    """

    def __init__(self, chi: Formula, max_closure: int):
        cl = closure(chi)
        if len(cl) > max_closure:
            raise BudgetExceededError(
                f"closure holds {len(cl)} formulas, over the cap of {max_closure}"
            )
        self.closure_size = len(cl)
        self.names = tuple(sorted(cl.names))

        # Members as the closure numbers them, children first: keys[k] is
        # member k's key, whose last item holds its operand numbers, sub[k]
        # its subterm numbers as a mask, text[k] its print_formula text.
        keys = cl.keys
        text = _texts(keys)
        sub: list[int] = []
        for k, (_, _, ks) in enumerate(keys):
            mask = 1 << k
            for c in ks:
                mask |= sub[c]
            sub.append(mask)

        order = sorted(
            (k for k, key in enumerate(keys) if key[0] is not Not),
            key=lambda k: (sub[k].bit_count(), text[k]),
        )
        rank = {k: i for i, k in enumerate(order)}
        lit: list[tuple[int, bool]] = []
        for k, (cls, _, ks) in enumerate(keys):
            if cls is Not:
                i, want = lit[ks[0]]
                lit.append((i, not want))
            else:
                lit.append((rank[k], True))
        self.texts = tuple(text[k] for k in order)
        self.prop_bits = {keys[k][1][0]: i for i, k in enumerate(order) if keys[k][0] is Prop}
        self.chi_lit = lit[cl.root]

        # the positive index of the member cls(name, operand number), and
        # the numbers of true and false, members whenever a name occurs
        heads = {(cls, fields[0], ks[0]): rank[k]
                 for k, (cls, fields, ks) in enumerate(keys) if cls is E or cls is S or cls is C}
        const = {cls: k for k, (cls, _, _) in enumerate(keys) if cls is Top or cls is Bot}

        self.s_of: dict[str, list[tuple[int, tuple[int, bool], str]]] = {n: [] for n in self.names}
        self.e_of: dict[str, list[tuple[int, tuple[int, bool]]]] = {n: [] for n in self.names}
        self.c_of: dict[str, list[tuple[int, tuple[int, bool]]]] = {n: [] for n in self.names}
        e_to_s: dict[int, int] = {}
        c_to_e: dict[int, tuple[int, int]] = {}
        kinds: list[tuple] = []
        for i, k in enumerate(order):
            cls, fields, ks = keys[k]
            if cls is Top or cls is Bot:
                kinds.append(("const", cls is Top))
            elif cls is And:
                kinds.append(("and", lit[ks[0]], lit[ks[1]]))
            else:
                if cls is E:
                    n, a = fields[0], ks[0]
                    self.e_of[n].append((i, lit[a]))
                    e_to_s[i] = heads[(S, n, a)]
                elif cls is S:
                    n, a = fields[0], ks[0]
                    self.s_of[n].append((i, lit[a], text[a]))
                elif cls is C:
                    n, a = fields[0], ks[0]
                    self.c_of[n].append((i, lit[a]))
                    c_to_e[i] = (heads[(E, n, a)], heads[(E, n, k)])
                kinds.append(("free",))
        self.kinds = tuple(kinds)

        # Coherence rules, compiled to implications over positive indices:
        # antecedent conjuncts (index, needed value) force (index, value).
        rules: list[tuple[tuple[tuple[int, bool], ...], tuple[int, bool]]] = []
        for n in self.names:
            i_bot = heads[(E, n, const[Bot])]
            i_top = heads[(S, n, const[Top])]
            # no named agent may know falsity unless nobody bears the name
            rules.append((((i_bot, False),), (i_top, True)))
            for i_s, arg, _ in self.s_of[n]:
                rules.append((((i_s, True),), arg))               # knowledge is factive
                rules.append((((i_bot, True),), (i_s, False)))    # empty name: nobody knows
            for i_e, _ in self.e_of[n]:
                if i_e != i_bot:
                    rules.append((((i_bot, True),), (i_e, True)))  # empty name: all E hold
                    # a bearer of the name turns E into S
                    rules.append((((i_e, True), (i_bot, False)), (e_to_s[i_e], True)))
            for i_s, _, _ in self.s_of[n]:
                for i_e, arg in self.e_of[n]:
                    # the witness behind S also knows everything under E
                    rules.append((((i_s, True), (i_e, True)), arg))
            for i_c, _ in self.c_of[n]:
                for i_e in c_to_e[i_c]:
                    rules.append((((i_c, True),), (i_e, True)))
        self.rules = tuple(rules)

        # The rules as masks: rule (mask, pattern) is broken by an atom
        # exactly when atom & mask == pattern.  It sits at the level of its
        # highest bit, where the enumeration has just set that bit, in on
        # when it breaks with the bit set and in off when it breaks with the
        # bit clear.  A level's forced value (mask, pattern) holds when
        # atom & mask == pattern; None marks a free level.
        on: list[list[tuple[int, int]]] = [[] for _ in order]
        off: list[list[tuple[int, int]]] = [[] for _ in order]
        for ants, concl in rules:
            rule = _mask_rule(ants, concl)
            if rule is not None:
                top = rule[0].bit_length() - 1
                (on if (rule[1] >> top) & 1 else off)[top].append(rule)
        steps = []
        for d, kind in enumerate(self.kinds):
            match kind:
                case ("const", v):
                    forced = (0, 0) if v else (0, 1)
                case ("and", (jl, wl), (jr, wr)):
                    if jl == jr and wl != wr:
                        forced = (0, 1)  # a literal and its negation
                    else:
                        forced = ((1 << jl) | (1 << jr), (wl << jl) | (wr << jr))
                case _:
                    forced = None
            steps.append((forced, tuple(on[d]), tuple(off[d])))
        self.steps = tuple(steps)


def _mask_rule(ants, concl) -> Optional[tuple[int, int]]:
    """The rule ants -> concl as (mask, pattern), broken by an atom exactly
    when atom & mask == pattern: the antecedents hold and the conclusion
    fails.  The antecedents name distinct positives; None when one of them
    grants the conclusion, so that nothing can break the rule."""
    mask = pattern = 0
    for i, need in ants:
        mask |= 1 << i
        pattern |= need << i
    j, want = concl
    bit = 1 << j
    if mask & bit:
        # the conclusion is an antecedent: granted, or denied by the others
        return None if bool(pattern & bit) is want else (mask, pattern)
    return mask | bit, pattern | (not want) << j


def _broken(rules, atom: int) -> bool:
    for mask, pattern in rules:
        if atom & mask == pattern:
            return True
    return False


def _enumerate_atoms(lay: _Layout, max_atoms: int) -> list[int]:
    """The coherent atoms, depth first with bit d true before false: forced
    levels set their bit without branching, and a branch dies at the first
    broken rule of its level."""
    steps = lay.steps
    width = len(steps)
    atoms: list[int] = []
    stack = [(0, 0)]
    while stack:
        d, atom = stack.pop()
        while d < width:
            forced, on, off = steps[d]
            if forced is None:
                if not _broken(off, atom):
                    stack.append((d + 1, atom))  # the false branch, for later
                holds = True
            else:
                holds = atom & forced[0] == forced[1]
            if holds:
                atom |= 1 << d
                if _broken(on, atom):
                    break
            elif _broken(off, atom):
                break
            d += 1
        else:
            if len(atoms) >= max_atoms:
                raise BudgetExceededError(f"more than {max_atoms} coherent atoms")
            atoms.append(atom)
    return atoms


# ---------------------------------------------------------------------------
# Elimination to fixpoint

class _Solver:
    """The elimination over a layout's coherent atoms, atom j at bit j of
    every mask.  Each round is a kripke._Index whose states are the live
    atoms, and each E, S and C member one step of it.  Per name, an atom's
    family entry is (its bit, the union of its witness extensions, those
    extensions); a dead atom has none, so no C path passes through it."""

    def __init__(self, lay: _Layout, atoms: Sequence[int]):
        self.lay = lay
        self.atoms = list(atoms)
        full = (1 << len(self.atoms)) - 1
        self.full = full
        # col[i]: the atoms holding positive i
        col = [0] * len(lay.texts)
        for j, atom in enumerate(self.atoms):
            for i in _bit_indices(atom):
                col[i] |= 1 << j

        def vcol(lit: tuple[int, bool]) -> int:
            i, want = lit
            return col[i] if want else full ^ col[i]

        # The members in the order their reasons are read: every C member,
        # then per name its E members and its S members.  Each is (class,
        # name, its column, its operand's column, the reasons where the atom
        # holds it and where the atom denies it).  Every witness extension
        # lies inside the E operands and inside its S operand, so a held E
        # or S member never disagrees with its step.
        texts = lay.texts
        self.members = [
            (C, n, col[i], vcol(arg), f"{texts[i]} claimed, escape path exists",
             f"{texts[i]} denied, no escape path")
            for n in lay.names for i, arg in lay.c_of[n]
        ]
        for n in lay.names:
            self.members += [(E, n, col[i], vcol(arg), None,
                              f"{texts[i]} denied, no dissenting successor") for i, arg in lay.e_of[n]]
            self.members += [(S, n, col[i], vcol(arg), None,
                              f"{texts[i]} denied, a witness knows it") for i, arg, _ in lay.s_of[n]]

        # Witness agents, one per (atom, name, known formula): the agent's
        # extension is every atom containing that formula plus everything the
        # atom puts under E for the name.  Cached by the atom's E/S pattern.
        cache: dict[tuple[str, int], tuple[list, int, tuple]] = {}
        self.wit: list[dict[str, list[tuple[str, int]]]] = []
        self.fam: dict[str, list[tuple[int, int, tuple]]] = {n: [] for n in lay.names}
        per_name = []
        for n in lay.names:
            e_args = [(1 << i, vcol(arg)) for i, arg in lay.e_of[n]]
            s_args = [(1 << i, vcol(arg), label) for i, arg, label in lay.s_of[n]]
            claims = sum(1 << entry[0] for entry in lay.e_of[n] + lay.s_of[n])
            per_name.append((n, e_args, s_args, claims, self.fam[n]))
        for j, atom in enumerate(self.atoms):
            per_wit: dict[str, list[tuple[str, int]]] = {}
            for n, e_args, s_args, claims, entries in per_name:
                key = (n, atom & claims)
                got = cache.get(key)
                if got is None:
                    base = full
                    for bit, good in e_args:
                        if atom & bit:
                            base &= good
                    wits = [(label, good & base) for bit, good, label in s_args if atom & bit]
                    exts = tuple(ext for _, ext in wits)
                    got = cache[key] = (wits, reduce(or_, exts, 0), exts)
                per_wit[n] = got[0]
                if got[2]:
                    entries.append((1 << j, got[1], got[2]))
            self.wit.append(per_wit)

    def run(self) -> EliminationState:
        alive = self.full
        rounds = 0
        eliminated: list[tuple[int, str]] = []
        while True:
            rounds += 1
            # a dead atom counts as good, so its bits in the extensions
            # decide no step
            dead = self.full ^ alive
            fam = {n: [e for e in entries if e[0] & alive] for n, entries in self.fam.items()}
            ix = kripke._Index(alive, {}, fam, {}, {}, ())
            doomed: dict[int, str] = {}
            for cls, n, members, operand, claimed, denied in self.members:
                wrong = (ix.step(cls, (n,), operand | dead) ^ members) & alive
                for j in _bit_indices(wrong & members):
                    doomed.setdefault(j, claimed)
                for j in _bit_indices(wrong & ~members):
                    doomed.setdefault(j, denied)
            if not doomed:
                surviving = [self.atoms[j] for j in _bit_indices(alive)]
                return EliminationState(surviving, rounds, eliminated)
            for j in sorted(doomed):
                eliminated.append((self.atoms[j], doomed[j]))
                alive &= ~(1 << j)

    def extract(self, alive_atoms: Sequence[int], point: int) -> tuple[KripkeModel, str]:
        lay = self.lay
        where = {atom: j for j, atom in enumerate(self.atoms)}
        alive = 0
        state_of = {}
        for rank, atom in enumerate(sorted(alive_atoms)):
            j = where[atom]
            alive |= 1 << j
            state_of[j] = f"t{rank}"

        # rows use bit j for atom j; moves[j] is atom j's state bit, 0 if dead
        order = sorted(state_of.values())
        bit = {s: 1 << i for i, s in enumerate(order)}
        moves = [bit[state_of[k]] if k in state_of else 0 for k in range(len(self.atoms))]
        rows: dict[str, dict[int, int]] = {}
        naming: dict[tuple[str, str], frozenset[str]] = {}
        for j, w in state_of.items():
            for n in lay.names:
                group = []
                for label, ext in self.wit[j][n]:
                    agent = f"a({w},{n},{label})"
                    members = ext & alive
                    assert (members >> j) & 1, "witness agent must include its own state"
                    rows[agent] = {1 << j: members}
                    group.append(agent)
                if group:
                    naming[(w, n)] = frozenset(group)
        valuation = {
            p: frozenset(state_of[j] for j in state_of if (self.atoms[j] >> i) & 1)
            for p, i in lay.prop_bits.items()
        }
        model = KripkeModel._of_rows(
            frozenset(order), frozenset(rows), frozenset(lay.names), order,
            kripke._renumber(rows, moves), naming, valuation,
        )
        return model, state_of[where[point]]


# ---------------------------------------------------------------------------
# The decision procedure

def satisfiable(chi: Formula, *, max_closure: int = 64, max_atoms: int = 200_000) -> SatResult:
    """Decide chi over the class of models that are reflexive at named states.

    Supports the !/&/|/->/<->/E/S/C language; D and B raise
    UnsupportedFragmentError (use the bounded oracle for those).  Sat verdicts
    carry a model that has already been re-verified by kripke.check.
    """
    lay = _Layout(chi, max_closure)
    atoms = _enumerate_atoms(lay, max_atoms)
    solver = _Solver(lay, atoms)
    state = solver.run()
    stats = {
        "closure_size": lay.closure_size,
        "initial_atoms": len(atoms),
        "rounds": state.round,
    }
    i, want = lay.chi_lit
    winners = [a for a in state.surviving if bool((a >> i) & 1) is want]
    if not winners:
        return SatResult("unsat", None, None, stats)
    model, point = solver.extract(state.surviving, min(winners))
    if not kripke.check(model, point, chi):
        raise LogicError("sat verdict failed re-verification; solver bug")
    if kripke.has_errors(kripke.validate_model(model, "lenient")):
        raise LogicError("extracted model failed validation; solver bug")
    return SatResult("sat", model, point, stats)


def valid(chi: Formula, *, max_closure: int = 64, max_atoms: int = 200_000) -> bool:
    """True iff chi holds at every state of every model of the class."""
    result = satisfiable(Not(chi), max_closure=max_closure, max_atoms=max_atoms)
    return result.verdict == "unsat"


# ---------------------------------------------------------------------------
# Bounded brute-force oracle

def _agent_pool(fixed: list[str], count: int) -> list[str]:
    pool = list(fixed)
    i = 0
    while len(pool) < count:
        cand = f"g{i}"
        if cand not in pool:
            pool.append(cand)
        i += 1
    return pool


# A tier is enumerated while its raw configuration count stays within
# _EXHAUSTIVE_BUDGET; a larger one draws _SAMPLES candidates from an rng
# seeded by _SEED, the tier and the formula, in blocks of _BLOCK.
_EXHAUSTIVE_BUDGET = 200_000
_SAMPLES = 10_000
_SEED = 0
_BLOCK = 128


def satisfiable_bounded(chi: Formula, max_states: int = 3, max_agents: int = 2) -> SatResult:
    """Oracle-backed satisfiability for the full language, D and B included:
    a search for a pointed model of chi with at most max_states states and
    max_agents agents.

    Each tier of states and agents yields its candidates as kripke._Lanes
    blocks, and kripke._run evaluates chi on a whole block at once.  Small
    tiers are enumerated, larger ones sampled, so a miss proves nothing.  A
    hit yields a "sat" whose model is checked again through kripke.check
    and lenient validation; a miss yields "sat-bounded-unknown", never
    "unsat".  The stats' closure_size counts desugared subterms, not a
    closure."""
    prog = _program(chi)
    stats = {"closure_size": len(_desugar(prog[0])[0].keys), "initial_atoms": 0, "rounds": 0}
    props, names, fixed = sorted(props_in(chi)), sorted(names_in(chi)), sorted(agents_in(chi))
    for size in range(1, max_states + 1):
        for n_agents in range(len(fixed), max_agents + 1):
            agents = _agent_pool(fixed, n_agents)
            for block in _tier_blocks(chi, size, agents, names, props):
                truth = kripke._run(prog, block, block.val)[-1]
                if truth:
                    model, state = _decode_hit(chi, names, block, truth)
                    return SatResult("sat", model, state, stats)
    return SatResult("sat-bounded-unknown", None, None, stats)


def _periodic(digits, stride, radix, lanes) -> int:
    """The lanes below lanes whose mixed-radix digit of the given stride and
    radix lies in digits: one block of radix * stride lanes, repeated."""
    block = 0
    for d in digits:
        block |= ((1 << stride) - 1) << (d * stride)
    period = stride * radix
    while period < lanes:
        block |= block << period
        period *= 2
    return block & ((1 << lanes) - 1)


def _naming_lanes(size, props, bearers):
    """Every (rows, valuation) candidate under one naming as one lane,
    numbered in the order product visits them: the rows a-major, then the
    propositions, the last factor fastest.  bearers[a] holds the states
    where agent a bears some name.  Returns (lanes, R, V) in the layout of
    kripke._Lanes."""
    domains = []
    for bears in bearers:
        for w in range(size):
            # an agent bearing a name at w keeps its loop there
            forced = bears & 1 << w
            domains.append([m for m in range(2 ** size) if m & forced == forced])
    domains += [range(2 ** size)] * len(props)
    lanes = 1
    for dom in domains:
        lanes *= len(dom)
    masks = []
    stride = lanes
    for dom in domains:
        stride //= len(dom)
        masks.append(sum(
            _periodic([d for d, m in enumerate(dom) if (m >> v) & 1], stride, len(dom), lanes)
            << v * lanes
            for v in range(size)
        ))
    R = [masks[a * size:(a + 1) * size] for a in range(len(bearers))]
    V = dict(zip(props, masks[len(bearers) * size:]))
    return lanes, R, V


def _draw_block(rng, size, n_agents, names, props, count):
    """count sampled candidates as (N, R, V) in the layout of kripke._Lanes,
    drawn with the same rng calls, in the same order, as one candidate at a
    time."""
    densities = (0.15, 0.3, 0.5, 0.75)
    choice, draw, randrange = rng.choice, rng.random, rng.randrange
    N = {(w, n): [0] * n_agents for w in range(size) for n in names}
    # the draws fill a lane mask per state, packed at the end
    R = [[[0] * size for _ in range(size)] for _ in range(n_agents)]
    V = {p: [0] * size for p in props}
    # one candidate's draws in order: who bears each name where, each edge
    # of each agent's rows, each proposition's state set
    naming = [(N[(w, n)], a) for w in range(size) for n in names for a in range(n_agents)]
    edges = [(row, v) for per in R for row in per for v in range(size)]
    for k in range(count):
        lane = 1 << k
        nd = choice(densities)
        ed = choice(densities)
        for group, a in naming:
            if draw() < nd:
                group[a] |= lane
        for row, v in edges:
            if draw() < ed:
                row[v] |= lane
        for p in props:
            m = randrange(2 ** size)
            for v in range(size):
                if (m >> v) & 1:
                    V[p][v] |= lane
    # an agent bearing a name at w keeps its loop there
    for a, per in enumerate(R):
        for w, row in enumerate(per):
            for n in names:
                row[w] |= N[(w, n)][a]
    pack = lambda masks: sum(x << v * count for v, x in enumerate(masks))
    return N, [list(map(pack, per)) for per in R], {p: pack(masks) for p, masks in V.items()}


def _tier_blocks(chi, size, agents, names, props):
    """A tier's candidates as kripke._Lanes blocks, in search order.

    While the tier's raw configuration count is within _EXHAUSTIVE_BUDGET,
    each naming yields one block of every rows-and-valuation choice under
    it; otherwise blocks of _BLOCK draws come from the tier's own rng, so
    draws past a hit change nothing."""
    n_agents = len(agents)
    cells = [(w, n) for w in range(size) for n in names]
    # every naming, then every row of every agent and every valuation
    raw = (2 ** n_agents) ** len(cells) * (2 ** size) ** (size * n_agents + len(props))
    if raw <= _EXHAUSTIVE_BUDGET:
        for groups in product(range(2 ** n_agents), repeat=len(cells)):
            bearers = [0] * n_agents
            for (w, _), g in zip(cells, groups):
                for a in _bit_indices(g):
                    bearers[a] |= 1 << w
            lanes, R, V = _naming_lanes(size, props, bearers)
            ones = (1 << lanes) - 1
            N = {cell: [ones * ((g >> a) & 1) for a in range(n_agents)]
                 for cell, g in zip(cells, groups)}
            yield kripke._Lanes(size, lanes, agents, N, R, V)
        return
    rng = random.Random(f"{_SEED}/{size}/{n_agents}/{print_formula(chi)}")
    for start in range(0, _SAMPLES, _BLOCK):
        count = min(_BLOCK, _SAMPLES - start)
        yield kripke._Lanes(size, count, agents, *_draw_block(rng, size, n_agents, names, props, count))


def _decode_hit(chi, names, block, truth) -> tuple[KripkeModel, str]:
    """The lowest candidate of block where truth, chi's mask, holds at some
    state, as a KripkeModel pointed at the first such state, checked again
    through kripke.check and lenient validation."""
    lanes = block.some(truth)
    k, width, agents = (lanes & -lanes).bit_length() - 1, block.width, block.agents
    states = [f"x{i}" for i in range(block.size)]
    mask = lambda x: sum(((x >> v * width + k) & 1) << v for v in range(block.size))
    on = lambda x: [states[v] for v in _bit_indices(mask(x))]
    rows = {a: {1 << w: succ for w, row in enumerate(block.R[i]) if (succ := mask(row))}
            for i, a in enumerate(agents)}
    naming = {(states[w], n): frozenset(a for a, bears in zip(agents, group) if bears >> k & 1)
              for (w, n), group in block.N.items()}
    valuation = {p: frozenset(on(x)) for p, x in block.val.items()}
    model = KripkeModel._of_rows(
        frozenset(states), frozenset(agents), frozenset(names), states, rows, naming, valuation
    )
    state = on(truth)[0]
    if not kripke.check(model, state, chi):
        raise LogicError("oracle hit failed re-verification; evaluator bug")
    if kripke.has_errors(kripke.validate_model(model, "lenient")):
        raise LogicError("oracle produced an invalid model; generator bug")
    return model, state


# ---------------------------------------------------------------------------
# Axiom suites

class AxiomCheck(Record):
    # method: "valid" | "models" | "rule"
    __slots__ = ("system", "schema", "instance", "method", "ok", "detail")
    _defaults = {"detail": ""}


class AxiomSuiteReport(Record):
    __slots__ = ("mode", "checks", "models_checked")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.ok]


_N_SCHEMAS = (
    ("T(S)", 1, lambda n, f: Implies(S(n, f), f)),
    ("K(E)", 2, lambda n, f, g: Implies(And(E(n, f), E(n, Implies(f, g))), E(n, g))),
    ("Int_1", 2, lambda n, f, g: Implies(And(S(n, f), E(n, Implies(f, g))), S(n, g))),
    ("Int_2", 0, lambda n: Implies(Not(E(n, FALSE)), S(n, TRUE))),
)
_C_SCHEMAS = (
    ("K(C)", 2, lambda n, f, g: Implies(C(n, Implies(f, g)), Implies(C(n, f), C(n, g)))),
    ("FP", 1, lambda n, f: Implies(C(n, f), E(n, And(f, C(n, f))))),
)
_D_SCHEMAS = (
    ("K(D)", 2, lambda n, f, g: Implies(And(D(n, f), D(n, Implies(f, g))), D(n, g))),
    ("Incl(S,D)", 1, lambda n, f: Implies(S(n, f), D(n, f))),
    ("T(D)", 1, lambda n, f: Implies(D(n, f), f)),
    ("Int(D,E)", 2, lambda n, f, g: Implies(And(D(n, f), E(n, Implies(f, g))), D(n, g))),
)


def _instances(schemas, corpus, name):
    for label, arity, build in schemas:
        match arity:
            case 0:
                yield label, build(name)
            case 1:
                for f in corpus:
                    yield label, build(name, f)
            case 2:
                for f in corpus:
                    for g in corpus:
                        yield label, build(name, f, g)


def _holds_on_models(inst: Formula, n_models: int, states: int, seed: int):
    for i in range(n_models):
        gen_mode = "general" if i % 2 == 0 else "epistemic"
        m = kripke.random_model(states=states, mode=gen_mode, seed=seed * 100_003 + i)
        if kripke.extension(m, inst) != m.states:
            bad = sorted(m.states - kripke.extension(m, inst))[0]
            return False, f"fails at state {bad} of the model with seed {seed * 100_003 + i}"
    return True, ""


def axiom_suite(
    mode: str,
    corpus: Sequence[Formula],
    *,
    n_models: int = 1000,
    states: int = 4,
    seed: int = 0,
    max_closure: int = 64,
) -> AxiomSuiteReport:
    """Instantiate every schema of the chosen system over the corpus.

    AX_N and AX_NC instances run through valid(); AX_ND's distributed-
    knowledge schemas are checked semantically on n_models seeded random
    models (half general, half epistemic), so corpus formulas must stay on
    the generator's symbol pools (props p/q, name n).  The inference rules
    are spot-checked for validity preservation on the corpus plus its
    derived tautologies and contradictions.
    """
    if mode not in ("AX_N", "AX_NC", "AX_ND"):
        raise ValueError(f"unknown axiom system {mode!r}")
    corpus = list(corpus)
    name = "n"
    checks: list[AxiomCheck] = []
    cache: dict[Formula, bool] = {}

    def is_valid(f: Formula) -> bool:
        got = cache.get(f)
        if got is None:
            got = cache[f] = valid(f, max_closure=max_closure)
        return got

    schemas = _N_SCHEMAS + _C_SCHEMAS if mode == "AX_NC" else _N_SCHEMAS
    for label, inst in _instances(schemas, corpus, name):
        checks.append(AxiomCheck(mode, label, inst, "valid", is_valid(inst)))

    models_checked = 0
    if mode == "AX_ND":
        models_checked = n_models
        for label, inst in _instances(_D_SCHEMAS, corpus, name):
            ok, detail = _holds_on_models(inst, n_models, states, seed)
            checks.append(AxiomCheck(mode, label, inst, "models", ok, detail))

    # validity-preservation spot tests for the rules
    pool = list(corpus[:2])
    pool += [Or(f, Not(f)) for f in corpus[:2]]
    pool += [And(f, Not(f)) for f in corpus[:1]]
    fired = 0
    for f in pool:
        if not is_valid(f):
            continue
        fired += 1
        checks.append(AxiomCheck(mode, "rule:Nec(E)", E(name, f), "rule", is_valid(E(name, f))))
        if mode == "AX_NC":
            checks.append(AxiomCheck(mode, "rule:Nec(C)", C(name, f), "rule", is_valid(C(name, f))))
        for g in pool:
            if is_valid(Implies(f, g)):
                fired += 1
                checks.append(
                    AxiomCheck(mode, "rule:MP", g, "rule", is_valid(g), f"from {print_formula(f)}")
                )
    if mode == "AX_NC":
        for f in pool:
            for g in pool:
                premise = Implies(f, E(name, And(f, g)))
                if is_valid(premise):
                    fired += 1
                    conclusion = Implies(f, C(name, g))
                    checks.append(
                        AxiomCheck(
                            mode, "rule:Ind", conclusion, "rule",
                            is_valid(conclusion), f"from {print_formula(premise)}",
                        )
                    )
    if not fired:
        checks.append(AxiomCheck(mode, "rule:void", TRUE, "rule", True, "no applicable premises"))
    return AxiomSuiteReport(mode, tuple(checks), models_checked)
