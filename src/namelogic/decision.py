"""Satisfiability and validity for the everyone/someone/common-knowledge fragment.

The solver works inside the finite closure of the query.  It enumerates the
locally coherent truth assignments over the closure (atoms), then repeatedly
rebuilds the witness-agent model over the surviving atoms and removes every
atom whose modal claims disagree with their semantic evaluation in that
model.  At the fixpoint membership and truth coincide, so the query is
satisfiable exactly when some survivor contains it.  Every sat verdict is
re-verified through the kripke module before it is returned; a re-check
failure raises instead of producing a verdict.

Extracted models record each witness agent's relation from the state that
minted it.  That keeps models linear in the survivor count and changes no
truth value: the everyone/someone/common operators only ever read an agent's
relation from states where the agent bears the name, and each minted agent
bears its name at its minting state only.

Distributed knowledge has no effective route here.  Those queries go through
the bounded oracle, which is also used to cross-validate unsat verdicts.  It
evaluates its candidates as bit lanes: each block of candidates (every
rows-and-valuation choice under one naming, or a block of random draws)
becomes lane masks, and _run_lanes runs kripke's compiled program on all
of them at once.  That is a second copy of kripke's truth clauses, kept
equal to the truth core's one-model _run by a differential test; every hit
is checked again through kripke.check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import and_, or_, xor
from typing import Mapping, NamedTuple, Optional, Sequence

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
    agents_in,
    closure,
    desugar,
    names_in,
    print_formula,
    props_in,
    subformulas,
)
from .kripke import KripkeModel, _bit_indices

__all__ = [
    "AxiomCheck",
    "AxiomSuiteReport",
    "EliminationState",
    "SatResult",
    "axiom_suite",
    "brute_force_sat",
    "extract_model",
    "satisfiable",
    "satisfiable_bounded",
    "valid",
]


# ---------------------------------------------------------------------------
# Results

@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability query.

    verdict is "sat", "unsat", or "sat-bounded-unknown" (bounded oracle route
    only: nothing found within the bounds, which proves nothing).  model and
    state are present exactly on "sat" and already re-verified.
    """

    verdict: str
    model: Optional[KripkeModel]
    state: Optional[str]
    stats: Mapping[str, int]

    def __bool__(self) -> bool:
        return self.verdict == "sat"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "model": kripke.model_to_dict(self.model) if self.model is not None else None,
            "state": self.state,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }


def extract_model(result: SatResult) -> KripkeModel:
    """The verified model of a sat result; raises on any other verdict."""
    if result.verdict != "sat" or result.model is None:
        raise LogicError(f"no model to extract from a {result.verdict!r} result")
    return result.model


@dataclass
class EliminationState:
    """Progress record of the atom-elimination fixpoint.

    Atoms are bitmasks over the layout's positive formulas.  surviving only
    ever shrinks; round counts full passes including the final stable one.
    """

    surviving: list[int]
    round: int
    eliminated: list[tuple[int, str]]


# ---------------------------------------------------------------------------
# Closure layout: positives in children-first order plus coherence rules

def _strip(f: Formula) -> tuple[Formula, bool]:
    neg = False
    while isinstance(f, Not):
        f = f.arg
        neg = not neg
    return f, neg


def _weight(f: Formula) -> int:
    return len(subformulas(f))


class _Layout:
    def __init__(self, chi: Formula, max_closure: int):
        cl = closure(chi)
        if len(cl) > max_closure:
            raise BudgetExceededError(
                f"closure holds {len(cl)} formulas, over the cap of {max_closure}"
            )
        self.chi = desugar(chi)
        self.closure_size = len(cl)
        self.names = tuple(sorted(cl.names))
        self.props = tuple(sorted(cl.props))
        self.positives = tuple(
            sorted(
                (f for f in cl if not isinstance(f, Not)),
                key=lambda f: (_weight(f), print_formula(f)),
            )
        )
        self.index = {f: i for i, f in enumerate(self.positives)}
        self.prop_bits = {f.name: i for i, f in enumerate(self.positives) if isinstance(f, Prop)}

        # literal of a closure member: (positive index, truth when the member holds)
        def lit(f: Formula) -> tuple[int, bool]:
            core, neg = _strip(f)
            return self.index[core], not neg

        self.lit = lit

        self.s_of: dict[str, list[tuple[int, Formula]]] = {n: [] for n in self.names}
        self.e_of: dict[str, list[tuple[int, Formula]]] = {n: [] for n in self.names}
        self.c_of: dict[str, list[tuple[int, Formula]]] = {n: [] for n in self.names}
        kinds: list[tuple] = []
        for i, f in enumerate(self.positives):
            match f:
                case Top():
                    kinds.append(("const", True))
                case Bot():
                    kinds.append(("const", False))
                case And(l, r):
                    kinds.append(("and", lit(l), lit(r)))
                case E(n, arg):
                    self.e_of[n].append((i, arg))
                    kinds.append(("free",))
                case S(n, arg):
                    self.s_of[n].append((i, arg))
                    kinds.append(("free",))
                case C(n, arg):
                    self.c_of[n].append((i, arg))
                    kinds.append(("free",))
                case _:
                    kinds.append(("free",))
        self.kinds = tuple(kinds)

        # Coherence rules, compiled to implications over positive indices:
        # antecedent conjuncts (index, needed value) force (index, value).
        rules: list[tuple[tuple[tuple[int, bool], ...], tuple[int, bool]]] = []
        for n in self.names:
            i_bot = self.index[E(n, FALSE)]
            i_top = self.index[S(n, TRUE)]
            # no named agent may know falsity unless nobody bears the name
            rules.append((((i_bot, False),), (i_top, True)))
            for i_s, arg in self.s_of[n]:
                rules.append((((i_s, True),), lit(arg)))          # knowledge is factive
                rules.append((((i_bot, True),), (i_s, False)))    # empty name: nobody knows
            for i_e, arg in self.e_of[n]:
                if i_e != i_bot:
                    rules.append((((i_bot, True),), (i_e, True)))  # empty name: all E hold
                    # a bearer of the name turns E into S
                    rules.append((((i_e, True), (i_bot, False)), (self.index[S(n, arg)], True)))
            for i_s, _ in self.s_of[n]:
                for i_e, arg in self.e_of[n]:
                    # the witness behind S also knows everything under E
                    rules.append((((i_s, True), (i_e, True)), lit(arg)))
            for i_c, arg in self.c_of[n]:
                rules.append((((i_c, True),), (self.index[E(n, arg)], True)))
                rules.append((((i_c, True),), (self.index[E(n, C(n, arg))], True)))

        buckets: list[list] = [[] for _ in self.positives]
        for ants, (j, want) in rules:
            top = max(j, *(i for i, _ in ants))
            buckets[top].append((ants, (j, want)))
        self.buckets = tuple(tuple(b) for b in buckets)

    def value(self, f: Formula, atom: int) -> bool:
        i, want = self.lit(f)
        return bool((atom >> i) & 1) is want


def _enumerate_atoms(lay: _Layout, max_atoms: int) -> list[int]:
    bits = [False] * len(lay.positives)
    atoms: list[int] = []

    def consistent(d: int) -> bool:
        for ants, (j, want) in lay.buckets[d]:
            if all(bits[i] is need for i, need in ants) and bits[j] is not want:
                return False
        return True

    def assign(d: int) -> None:
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


# ---------------------------------------------------------------------------
# Elimination to fixpoint

class _Solver:
    def __init__(self, lay: _Layout, atoms: Sequence[int]):
        self.lay = lay
        self.atoms = list(atoms)
        full = (1 << len(self.atoms)) - 1
        self.full = full
        col = []
        for i in range(len(lay.positives)):
            mask = 0
            for j, atom in enumerate(self.atoms):
                if (atom >> i) & 1:
                    mask |= 1 << j
            col.append(mask)
        self._col = col

        def vcol(f: Formula) -> int:
            i, want = lay.lit(f)
            return col[i] if want else (full & ~col[i])

        self.vcol = vcol

        # Witness agents, one per (atom, name, known formula): the agent's
        # extension is every atom containing that formula plus everything the
        # atom puts under E for the name.  Cached by the atom's E-pattern.
        base_cache: dict[tuple, int] = {}
        ext_cache: dict[tuple, int] = {}
        self.wit: list[dict[str, list[tuple[Formula, int]]]] = []
        self.succ0: list[dict[str, int]] = []
        for atom in self.atoms:
            per_wit: dict[str, list[tuple[Formula, int]]] = {}
            per_succ: dict[str, int] = {}
            for n in lay.names:
                e_true = tuple(i for i, _ in lay.e_of[n] if (atom >> i) & 1)
                base = base_cache.get((n, e_true))
                if base is None:
                    base = full
                    for i in e_true:
                        base &= vcol(lay.positives[i].arg)
                    base_cache[(n, e_true)] = base
                entries = []
                succ = 0
                for i_s, arg in lay.s_of[n]:
                    if not ((atom >> i_s) & 1):
                        continue
                    ext = ext_cache.get((n, e_true, i_s))
                    if ext is None:
                        ext = vcol(arg) & base
                        ext_cache[(n, e_true, i_s)] = ext
                    entries.append((arg, ext))
                    succ |= ext
                per_wit[n] = entries
                per_succ[n] = succ
            self.wit.append(per_wit)
            self.succ0.append(per_succ)

    def _reaches(self, targets: int, name: str, alive: int) -> int:
        # atoms with a >=1 step path into targets, over the live graph
        hit = 0
        while True:
            goal = targets | hit
            grown = hit
            for j in _bit_indices(alive & ~hit):
                if self.succ0[j][name] & alive & goal:
                    grown |= 1 << j
            if grown == hit:
                return hit
            hit = grown

    def _modal_flaw(self, j: int, alive: int) -> Optional[str]:
        """Reason atom j's denied E/S claims clash with its live witnesses."""
        lay = self.lay
        atom = self.atoms[j]
        for n in lay.names:
            live_exts = [ext & alive for _, ext in self.wit[j][n]]
            for i_e, arg in lay.e_of[n]:
                if (atom >> i_e) & 1:
                    continue
                outside = self.full & ~self.vcol(arg)
                if not any(ext & outside for ext in live_exts):
                    return f"{print_formula(lay.positives[i_e])} denied, no dissenting successor"
            for i_s, arg in lay.s_of[n]:
                if (atom >> i_s) & 1:
                    continue
                good = self.vcol(arg)
                if any(ext and not (ext & ~good) for ext in live_exts):
                    return f"{print_formula(lay.positives[i_s])} denied, a witness knows it"
        return None

    def run(self) -> EliminationState:
        lay = self.lay
        alive = self.full
        rounds = 0
        eliminated: list[tuple[int, str]] = []
        while True:
            rounds += 1
            doomed: dict[int, str] = {}
            for n in lay.names:
                for i_c, arg in lay.c_of[n]:
                    escapes = self._reaches(alive & ~self.vcol(arg), n, alive)
                    for j in _bit_indices(alive):
                        member = (self.atoms[j] >> i_c) & 1
                        if member and (escapes >> j) & 1:
                            doomed.setdefault(
                                j, f"{print_formula(lay.positives[i_c])} claimed, escape path exists"
                            )
                        elif not member and not (escapes >> j) & 1:
                            doomed.setdefault(
                                j, f"{print_formula(lay.positives[i_c])} denied, no escape path"
                            )
            for j in _bit_indices(alive):
                if j not in doomed:
                    flaw = self._modal_flaw(j, alive)
                    if flaw is not None:
                        doomed[j] = flaw
            if not doomed:
                return EliminationState(
                    surviving=[self.atoms[j] for j in _bit_indices(alive)],
                    round=rounds,
                    eliminated=eliminated,
                )
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

        relations: dict[str, frozenset] = {}
        naming: dict[tuple[str, str], set[str]] = {}
        for j in state_of:
            w = state_of[j]
            for n in lay.names:
                for arg, ext in self.wit[j][n]:
                    agent = f"a({w},{n},{print_formula(arg)})"
                    members = ext & alive
                    assert (members >> j) & 1, "witness agent must include its own state"
                    relations[agent] = frozenset((w, state_of[k]) for k in _bit_indices(members))
                    naming.setdefault((w, n), set()).add(agent)
        valuation = {
            p: frozenset(state_of[j] for j in state_of if (self.atoms[j] >> i) & 1)
            for p, i in lay.prop_bits.items()
        }
        model = KripkeModel.make(
            states=state_of.values(),
            agents=relations.keys(),
            names=lay.names,
            relations=relations,
            naming=naming,
            valuation=valuation,
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
    winners = [a for a in state.surviving if lay.value(lay.chi, a)]
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

class _MaskModel(NamedTuple):
    """A candidate model over at most a handful of states, as arrays:
    rows[agent][state bit] -> successor mask, mu[(state bit, name)] -> tuple
    of agent indices, val[prop] -> state mask.  The search evaluates
    candidates as bit lanes (see _run_lanes, a second copy of kripke's
    truth clauses kept honest by a differential test); the hit lane is
    decoded into this form, becomes a KripkeModel and is checked again
    through kripke.check."""

    states: list[str]
    agents: list[str]
    names: list[str]
    rows: list[list[int]]
    mu: dict[tuple[int, str], tuple[int, ...]]
    val: dict[str, int]

    def to_kripke(self) -> KripkeModel:
        pairs = lambda a: frozenset(
            (self.states[w], self.states[v])
            for w, row in enumerate(self.rows[a])
            for v in _bit_indices(row)
        )
        return KripkeModel.make(
            states=self.states,
            agents=self.agents,
            names=self.names,
            relations={self.agents[a]: pairs(a) for a in range(len(self.agents))},
            naming={
                (self.states[w], n): frozenset(self.agents[a] for a in group)
                for (w, n), group in self.mu.items()
                if group
            },
            valuation={p: frozenset(self.states[w] for w in _bit_indices(m)) for p, m in self.val.items()},
        )


def _oracle_signature(chi: Formula):
    return sorted(props_in(chi)), sorted(names_in(chi)), sorted(agents_in(chi))


def _agent_pool(fixed: list[str], count: int) -> list[str]:
    pool = list(fixed)
    i = 0
    while len(pool) < count:
        cand = f"g{i}"
        if cand not in pool:
            pool.append(cand)
        i += 1
    return pool


def brute_force_sat(
    chi: Formula,
    max_states: int = 2,
    max_agents: int = 2,
    *,
    exhaustive_budget: int = 200_000,
    samples: int = 10_000,
    seed: int = 0,
) -> Optional[tuple[KripkeModel, str]]:
    """Search for a verified lenient-valid pointed model of chi within bounds.

    Handles the full language including D and B.  Small state/agent tiers are
    enumerated exhaustively while the raw configuration count stays within
    exhaustive_budget; larger tiers fall back to seeded random sampling, so a
    miss within bounds is never an unsatisfiability proof.  Every hit is
    re-verified through kripke.check before being returned.
    """
    props, names, fixed_agents = _oracle_signature(chi)
    if len(fixed_agents) > max_agents:
        return None
    prog = kripke._compile(chi)
    for size in range(1, max_states + 1):
        for n_agents in range(len(fixed_agents), max_agents + 1):
            hit = _search_tier(
                chi, prog, size, n_agents, props, names, fixed_agents,
                exhaustive_budget, samples, seed,
            )
            if hit is not None:
                return hit
    return None


def _verify_hit(chi: Formula, found: int, mm: _MaskModel) -> tuple[KripkeModel, str]:
    """The candidate mm as a KripkeModel, pointed at the first state of found."""
    model = mm.to_kripke()
    state = mm.states[next(_bit_indices(found))]
    if not kripke.check(model, state, chi):
        raise LogicError("oracle hit failed re-verification; evaluator bug")
    if kripke.has_errors(kripke.validate_model(model, "lenient")):
        raise LogicError("oracle produced an invalid model; generator bug")
    return model, state


def _search_tier(chi, prog, size, n_agents, props, names, fixed_agents,
                 exhaustive_budget, samples, seed):
    states = [f"x{i}" for i in range(size)]
    agents = _agent_pool(fixed_agents, n_agents)
    naming_cells = size * len(names)
    raw = (
        (2 ** n_agents) ** naming_cells
        * (2 ** size) ** (size * n_agents)
        * (2 ** size) ** len(props)
    )
    if raw <= exhaustive_budget:
        return _tier_exhaustive(chi, prog, states, agents, names, props)
    return _tier_sampled(chi, prog, states, agents, names, props, samples, seed)


# Candidates as bit lanes: lane k of every mask below is candidate k of a
# block.  N[(w, n)][a] holds the lanes where agent a bears n at w,
# R[a][w][v] those where v is an a-successor of w, V[p][v] those where p
# holds at v; a slot is a list of per-state lane masks.  Every mask lies
# within ones, the block's lanes.

# sampled candidates drawn and evaluated together
_BLOCK = 128


def _sees(row, bad) -> int:
    """The lanes where the successor row meets a bad state."""
    return reduce(or_, map(and_, row, bad), 0)


def _members_seeing(N, R, w, n, bad) -> list[int]:
    """Per agent, the lanes where it bears n at w and sees a bad state."""
    return [bears & _sees(R[a][w], bad) for a, bears in enumerate(N[(w, n)])]


def _run_lanes(prog, size, agents, ones, N, R, V) -> list[int]:
    """Per state, the lanes where prog's formula holds there: the truth
    core's _run clause for clause, for every candidate of a block at once."""
    states = range(size)
    out: list[list[int]] = []
    push = out.append
    for ins in prog:
        op = ins[0]
        if op == kripke._PROP:
            push(V[ins[1]])
        elif op == kripke._AND:
            push(list(map(and_, out[ins[1]], out[ins[2]])))
        elif op == kripke._NOT:
            push([ones ^ x for x in out[ins[1]]])
        elif op == kripke._OR:
            push(list(map(or_, out[ins[1]], out[ins[2]])))
        elif op == kripke._IMPLIES:
            push([(ones ^ x) | y for x, y in zip(out[ins[1]], out[ins[2]])])
        elif op == kripke._IFF:
            push([ones ^ x ^ y for x, y in zip(out[ins[1]], out[ins[2]])])
        elif op == kripke._TOP:
            push([ones] * size)
        elif op == kripke._BOT:
            push([0] * size)
        elif op == kripke._E:  # no member of the group sees a bad state
            n, bad = ins[1], [ones ^ x for x in out[ins[2]]]
            push([ones ^ reduce(or_, _members_seeing(N, R, w, n, bad), 0) for w in states])
        elif op == kripke._S:  # some member of the group sees none
            n, bad = ins[1], [ones ^ x for x in out[ins[2]]]
            push([
                reduce(or_, map(xor, N[(w, n)], _members_seeing(N, R, w, n, bad)), 0)
                for w in states
            ])
        elif op == kripke._D:  # a nonempty group, and what all members see is good
            n, bad = ins[1], [ones ^ x for x in out[ins[2]]]
            v = []
            for w in states:
                pooled = [ones] * size
                for a, bears in enumerate(N[(w, n)]):
                    pooled = [x & ((ones ^ bears) | e) for x, e in zip(pooled, R[a][w])]
                v.append(reduce(or_, N[(w, n)], 0) & ~_sees(pooled, bad))
            push(v)
        elif op == kripke._C:
            # a path of one or more name steps out of good, by backward
            # closure: a shortest one has at most size steps
            n, bad = ins[1], [ones ^ x for x in out[ins[2]]]
            step = []  # step[w][v]: the lanes with a name step from w to v
            for w in states:
                row = [0] * size
                for a, bears in enumerate(N[(w, n)]):
                    row = [x | (bears & e) for x, e in zip(row, R[a][w])]
                step.append(row)
            reach = [0] * size
            for _ in states:
                targets = list(map(or_, bad, reach))
                grown = [_sees(row, targets) for row in step]
                if grown == reach:
                    break
                reach = grown
            push([ones ^ x for x in reach])
        else:  # B: the agent's successors where it bears the name are good
            a, n, good = agents.index(ins[1]), ins[2], out[ins[3]]
            bad = [N[(v, n)][a] & (ones ^ good[v]) for v in states]
            push([ones ^ _sees(R[a][w], bad) for w in states])
    return out[-1]


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
    where agent a bears some name.  Returns (lanes, R, V)."""
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
        masks.append([
            _periodic([d for d, m in enumerate(dom) if (m >> v) & 1], stride, len(dom), lanes)
            for v in range(size)
        ])
    R = [masks[a * size:(a + 1) * size] for a in range(len(bearers))]
    V = dict(zip(props, masks[len(bearers) * size:]))
    return lanes, R, V


def _draw_block(rng, size, n_agents, names, props, count):
    """count sampled candidates as lanes (N, R, V), drawn with the same rng
    calls, in the same order, as one candidate at a time."""
    densities = (0.15, 0.3, 0.5, 0.75)
    choice, draw, randrange = rng.choice, rng.random, rng.randrange
    N = {(w, n): [0] * n_agents for w in range(size) for n in names}
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
    return N, R, V


def _first_hit(chi, prog, states, agents, names, props, ones, N, R, V):
    """The verified model of the lowest lane where chi holds somewhere."""
    truth = _run_lanes(prog, len(states), agents, ones, N, R, V)
    hits = reduce(or_, truth, 0)
    if not hits:
        return None
    k = (hits & -hits).bit_length() - 1
    at = lambda masks: sum(((m >> k) & 1) << i for i, m in enumerate(masks))
    mu = {cell: tuple(_bit_indices(at(group))) for cell, group in N.items()}
    rows = [[at(row) for row in per] for per in R]
    val = {p: at(V[p]) for p in props}
    return _verify_hit(chi, at(truth), _MaskModel(states, agents, names, rows, mu, val))


def _tier_exhaustive(chi, prog, states, agents, names, props):
    size = len(states)
    n_agents = len(agents)
    cells = [(w, n) for w in range(size) for n in names]
    for groups in product(range(2 ** n_agents), repeat=len(cells)):
        bearers = [0] * n_agents
        for (w, _), g in zip(cells, groups):
            for a in _bit_indices(g):
                bearers[a] |= 1 << w
        lanes, R, V = _naming_lanes(size, props, bearers)
        ones = (1 << lanes) - 1
        N = {cell: [ones * ((g >> a) & 1) for a in range(n_agents)]
             for cell, g in zip(cells, groups)}
        hit = _first_hit(chi, prog, states, agents, names, props, ones, N, R, V)
        if hit is not None:
            return hit
    return None


def _tier_sampled(chi, prog, states, agents, names, props, samples, seed):
    # the rng is the tier's own, so draws past a hit change nothing
    rng = random.Random(f"{seed}/{len(states)}/{len(agents)}/{print_formula(chi)}")
    for start in range(0, samples, _BLOCK):
        count = min(_BLOCK, samples - start)
        N, R, V = _draw_block(rng, len(states), len(agents), names, props, count)
        hit = _first_hit(chi, prog, states, agents, names, props, (1 << count) - 1, N, R, V)
        if hit is not None:
            return hit
    return None


def satisfiable_bounded(
    chi: Formula,
    max_states: int = 3,
    max_agents: int = 2,
    *,
    exhaustive_budget: int = 200_000,
    samples: int = 10_000,
    seed: int = 0,
) -> SatResult:
    """Oracle-backed satisfiability for the full language, D and B included.

    A hit yields a verified "sat"; a miss yields "sat-bounded-unknown", never
    "unsat".  The stats count subformulas in place of a closure.
    """
    hit = brute_force_sat(
        chi, max_states, max_agents,
        exhaustive_budget=exhaustive_budget, samples=samples, seed=seed,
    )
    stats = {"closure_size": len(subformulas(chi)), "initial_atoms": 0, "rounds": 0}
    if hit is None:
        return SatResult("sat-bounded-unknown", None, None, stats)
    model, state = hit
    return SatResult("sat", model, state, stats)


# ---------------------------------------------------------------------------
# Axiom suites

@dataclass(frozen=True)
class AxiomCheck:
    system: str
    schema: str
    instance: Formula
    method: str  # "valid" | "models" | "rule"
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomSuiteReport:
    mode: str
    checks: tuple[AxiomCheck, ...]
    models_checked: int

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
    return AxiomSuiteReport(mode=mode, checks=tuple(checks), models_checked=models_checked)
