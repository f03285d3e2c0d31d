"""Relational models in which group names pick out sets of agents per state.

A model carries finite state/agent/name sets, one accessibility relation per
agent, a naming map mu(state, name) -> set of agents, and a valuation.  The
modalities quantify over the agents a name currently picks out, so who counts
as "everyone named n" changes from state to state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations, product
from typing import Any, Iterable, Mapping

from .errors import BudgetExceededError, ModelFormatError, UndeclaredSymbolError
from .formula import (
    And,
    B,
    Bot,
    C,
    D,
    E,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Prop,
    S,
    Top,
    agents_in,
    names_in,
    props_in,
    walk,
)

_EMPTY: frozenset = frozenset()

States = frozenset[str]
Pair = tuple[str, str]


@dataclass(frozen=True)
class KripkeModel:
    states: frozenset[str]
    agents: frozenset[str]
    names: frozenset[str]
    relations: Mapping[str, frozenset[Pair]]
    naming: Mapping[Pair, frozenset[str]]  # (state, name) -> agents
    valuation: Mapping[str, frozenset[str]]
    _cache: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @classmethod
    def make(
        cls,
        states: Iterable[str],
        agents: Iterable[str],
        names: Iterable[str],
        relations: Mapping[str, Iterable[Iterable[str]]],
        naming: Mapping[Any, Iterable[str]],
        valuation: Mapping[str, Iterable[str]],
    ) -> "KripkeModel":
        """Normalize loose containers into a frozen model.

        naming keys may be (state, name) pairs or nested {state: {name: [...]}}.
        """
        flat_naming: dict[Pair, frozenset[str]] = {}
        for key, val in naming.items():
            if isinstance(key, tuple):
                flat_naming[(key[0], key[1])] = frozenset(val)
            else:
                for name, group in val.items():
                    flat_naming[(key, name)] = frozenset(group)
        return cls(
            states=frozenset(states),
            agents=frozenset(agents),
            names=frozenset(names),
            relations={a: frozenset(map(tuple, pairs)) for a, pairs in relations.items()},
            naming={k: v for k, v in flat_naming.items() if v},
            valuation={p: frozenset(ws) for p, ws in valuation.items()},
        )

    def successors(self, agent: str, state: str) -> frozenset[str]:
        succ = self._cache.get("succ")
        if succ is None:
            succ = {}
            for a, pairs in self.relations.items():
                per_agent = succ.setdefault(a, {})
                for x, y in pairs:
                    per_agent.setdefault(x, set()).add(y)
            succ = {
                a: {x: frozenset(ys) for x, ys in per.items()} for a, per in succ.items()
            }
            self._cache["succ"] = succ
        return succ.get(agent, {}).get(state, _EMPTY)

    def named(self, state: str, name: str) -> frozenset[str]:
        return self.naming.get((state, name), _EMPTY)

    def holds(self, prop: str, state: str) -> bool:
        return state in self.valuation.get(prop, _EMPTY)


# ---------------------------------------------------------------------------
# JSON wire format

_CLOSURE_OPS = ("reflexive", "symmetric", "transitive")


def _close_relation(pairs: set[Pair], ops: Iterable[str], states: frozenset[str]) -> set[Pair]:
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


def _listed(value: Any, what: str) -> Any:
    """value, unless it is a string where the document owes a list: iterating
    "wv" would silently read the states w and v."""
    if isinstance(value, str):
        raise ModelFormatError(f"{what} must be a list, got the string {value!r}")
    return value


def model_from_dict(d: Mapping[str, Any]) -> KripkeModel:
    """Build a model from its JSON dictionary form.

    The optional "closure" list applies the given closure operations, in
    order, to every agent relation before anything else looks at the model.
    """
    try:
        states = frozenset(_listed(d["states"], "states"))
        agents = frozenset(_listed(d.get("agents", []), "agents"))
        names = frozenset(_listed(d.get("names", []), "names"))
        ops = list(_listed(d.get("closure", []), "closure"))
        relations = {}
        for a, pairs in d.get("relations", {}).items():
            rel = set()
            for pair in _listed(pairs, f"relation of {a!r}"):
                x, y = _listed(pair, f"an edge of {a!r}")
                rel.add((x, y))
            relations[a] = _close_relation(rel, ops, states)
        naming = {}
        for state, per_name in d.get("naming", {}).items():
            for name, group in per_name.items():
                naming[(state, name)] = _listed(group, f"naming of {name!r} at {state!r}")
        valuation = {
            p: _listed(ws, f"valuation of {p!r}") for p, ws in d.get("valuation", {}).items()
        }
        return KripkeModel.make(states, agents, names, relations, naming, valuation)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a list or string where a mapping is due
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def model_to_dict(m: KripkeModel) -> dict:
    """Serialize a model deterministically (everything sorted)."""
    naming: dict[str, dict[str, list[str]]] = {}
    for (state, name), group in sorted(m.naming.items()):
        naming.setdefault(state, {})[name] = sorted(group)
    return {
        "states": sorted(m.states),
        "agents": sorted(m.agents),
        "names": sorted(m.names),
        "relations": {a: sorted(map(list, pairs)) for a, pairs in sorted(m.relations.items())},
        "naming": naming,
        "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())},
    }


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    code: str
    message: str


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.level == "error" for d in diagnostics)


def validate_model(m: KripkeModel, mode: str = "lenient") -> list[Diagnostic]:
    """Check model well-formedness for the given mode.

    lenient: referential integrity plus reflexivity wherever an agent bears a
    name; edges whose source does not name the acting agent are warnings.
    strict: those edges are errors.
    epistemic: lenient plus each relation must be an equivalence on its field.
    """
    if mode not in ("lenient", "strict", "epistemic"):
        raise ValueError(f"unknown validation mode {mode!r}")
    out: list[Diagnostic] = []
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
        if (state, state) not in m.relations.get(a, _EMPTY):
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


# ---------------------------------------------------------------------------
# Truth

@dataclass(frozen=True, eq=False)
class TruthResult:
    value: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.value

    def __eq__(self, other) -> bool:
        # witnesses are best-effort and never part of equality
        if isinstance(other, TruthResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value is other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


def _validate_formula_symbols(m: KripkeModel, f: Formula) -> None:
    missing_names = names_in(f) - m.names
    if missing_names:
        raise UndeclaredSymbolError(f"undeclared names: {sorted(missing_names)}")
    missing_props = props_in(f) - set(m.valuation)
    if missing_props:
        raise UndeclaredSymbolError(f"undeclared propositions: {sorted(missing_props)}")
    missing_agents = agents_in(f) - m.agents
    if missing_agents:
        raise UndeclaredSymbolError(f"undeclared agents: {sorted(missing_agents)}")


def _name_successors(m: KripkeModel, name: str) -> dict[str, frozenset[str]]:
    key = ("name-succ", name)
    out = m._cache.get(key)
    if out is None:
        out = {
            w: frozenset().union(*(m.successors(a, w) for a in m.named(w, name)))
            if m.named(w, name)
            else _EMPTY
            for w in m.states
        }
        m._cache[key] = out
    return out


def _reachable(succ: Mapping[str, frozenset[str]], start: str) -> frozenset[str]:
    """States reachable in one or more steps (start excluded unless on a cycle)."""
    seen: set[str] = set()
    frontier = set(succ.get(start, _EMPTY))
    while frontier:
        seen |= frontier
        frontier = {y for x in frontier for y in succ.get(x, _EMPTY)} - seen
    return frozenset(seen)


# Memo set sharing: a truth set equal to one already held is stored as that
# object, so the memo of a long chain does not keep one copy per level.

def _share(out: frozenset[str], a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """out is a & b or a | b: the same size as an operand means the same set."""
    if len(out) == len(a):
        return a
    if len(out) == len(b):
        return b
    return out


def _shared(out: frozenset[str], states: frozenset[str]) -> frozenset[str]:
    """An empty truth set as _EMPTY, one holding every state as states."""
    if not out:
        return _EMPTY
    if len(out) == len(states) and out <= states:
        return states
    return out


def _ext(m: KripkeModel, f: Formula) -> frozenset[str]:
    memo = m._cache.setdefault("ext", {})
    hit = memo.get(f)
    if hit is not None:
        return hit
    match f:
        case Prop(name):
            out = m.valuation.get(name, _EMPTY)
        case Top():
            out = m.states
        case Bot():
            out = _EMPTY
        case Not(arg):
            out = m.states - _ext(m, arg)
        case And(l, r):
            le, re_ = _ext(m, l), _ext(m, r)
            out = _share(le & re_, le, re_)
        case Or(l, r):
            le, re_ = _ext(m, l), _ext(m, r)
            out = _share(le | re_, le, re_)
        case Implies(l, r):
            out = (m.states - _ext(m, l)) | _ext(m, r)
        case Iff(l, r):
            le, re_ = _ext(m, l), _ext(m, r)
            out = (le & re_) | ((m.states - le) & (m.states - re_))
        case E(name, arg):
            good = _ext(m, arg)
            out = frozenset(
                w
                for w in m.states
                if all(m.successors(a, w) <= good for a in m.named(w, name))
            )
        case S(name, arg):
            good = _ext(m, arg)
            out = frozenset(
                w
                for w in m.states
                if any(m.successors(a, w) <= good for a in m.named(w, name))
            )
        case C(name, arg):
            good = _ext(m, arg)
            succ = _name_successors(m, name)
            out = frozenset(w for w in m.states if _reachable(succ, w) <= good)
        case D(name, arg):
            good = _ext(m, arg)
            out = set()
            for w in m.states:
                group = m.named(w, name)
                if not group:
                    continue
                pool = frozenset(m.states)
                for a in group:
                    pool &= m.successors(a, w)
                if pool <= good:
                    out.add(w)
            out = frozenset(out)
        case B(agent, name, arg):
            good = _ext(m, arg)
            out = frozenset(
                w
                for w in m.states
                if all(
                    v in good
                    for v in m.successors(agent, w)
                    if agent in m.named(v, name)
                )
            )
        case _:
            raise TypeError(f"not a formula: {f!r}")
    out = memo[f] = _shared(out, m.states)
    return out


def extension(m: KripkeModel, f: Formula) -> frozenset[str]:
    """All states of m at which f holds."""
    _validate_formula_symbols(m, f)
    return _ext(m, f)


def _witness(m: KripkeModel, w: str, f: Formula, value: bool) -> Any:
    match f:
        case S(name, arg) if value:
            good = _ext(m, arg)
            for a in sorted(m.named(w, name)):
                if m.successors(a, w) <= good:
                    return a
        case D(name, _) if value:
            return tuple(sorted(m.named(w, name)))
        case E(name, arg) if not value:
            good = _ext(m, arg)
            for a in sorted(m.named(w, name)):
                bad = m.successors(a, w) - good
                if bad:
                    return (a, min(bad))
        case C(name, arg) if not value:
            good = _ext(m, arg)
            succ = _name_successors(m, name)
            parent: dict[str, str] = {}
            order = [w]
            seen = {w}
            while order:
                x = order.pop(0)
                for y in sorted(succ.get(x, _EMPTY)):
                    if y not in good:
                        path = [x]
                        while path[-1] != w:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path)) + (y,)
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        order.append(y)
    return None


def check(m: KripkeModel, w: str, f: Formula) -> TruthResult:
    """Evaluate f at state w. The witness, when present, re-verifies."""
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    _validate_formula_symbols(m, f)
    value = w in _ext(m, f)
    return TruthResult(value, _witness(m, w, f, value))


def distributed_by_subsets(m: KripkeModel, w: str, name: str, f: Formula):
    """Independent route for distributed knowledge: search nonempty subgroups.

    Returns (value, witnessing subgroup or None).  Must agree with the
    full-group intersection used by check.
    """
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    _validate_formula_symbols(m, f)
    good = _ext(m, f)
    group = sorted(m.named(w, name))
    for size in range(1, len(group) + 1):
        for subset in combinations(group, size):
            pool = frozenset(m.states)
            for a in subset:
                pool &= m.successors(a, w)
            if pool <= good:
                return True, subset
    return False, None


# ---------------------------------------------------------------------------
# Frames

def frame_valid(m: KripkeModel, f: Formula, max_bits: int = 16) -> bool:
    """Is f true at every state under every valuation of its propositions?

    Ignores the valuation m carries.  The enumeration has
    2^(propositions * states) candidates; beyond max_bits bits it refuses.
    """
    props = sorted(props_in(f))
    states = sorted(m.states)
    bits = len(props) * len(states)
    if bits > max_bits:
        raise BudgetExceededError(
            f"{len(props)} propositions over {len(states)} states needs "
            f"2^{bits} valuations (cap 2^{max_bits})"
        )
    missing_names = names_in(f) - m.names
    if missing_names:
        raise UndeclaredSymbolError(f"undeclared names: {sorted(missing_names)}")
    missing_agents = agents_in(f) - m.agents
    if missing_agents:
        raise UndeclaredSymbolError(f"undeclared agents: {sorted(missing_agents)}")
    subsets = [
        frozenset(c) for r in range(len(states) + 1) for c in combinations(states, r)
    ]
    for choice in product(subsets, repeat=len(props)):
        variant = replace(m, valuation=dict(zip(props, choice)))
        if _ext(variant, f) != m.states:
            return False
    return True


def generated_submodel(m: KripkeModel, w: str) -> KripkeModel:
    """Restrict m to the states reachable from w via any agent, w included."""
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    reach = {w}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        for a in m.agents:
            for y in m.successors(a, x):
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
    keep = frozenset(reach)
    return KripkeModel(
        states=keep,
        agents=m.agents,
        names=m.names,
        relations={
            a: frozenset((x, y) for x, y in pairs if x in keep and y in keep)
            for a, pairs in m.relations.items()
        },
        naming={k: v for k, v in m.naming.items() if k[0] in keep},
        valuation={p: ws & keep for p, ws in m.valuation.items()},
    )


def disjoint_union(models: Iterable[KripkeModel]) -> KripkeModel:
    """Tagged union: state s of the i-th model becomes "i:s", agents likewise.

    Names and propositions are shared vocabulary and stay untagged.
    """
    models = list(models)
    states: set[str] = set()
    agents: set[str] = set()
    names: set[str] = set()
    relations: dict[str, frozenset[Pair]] = {}
    naming: dict[Pair, frozenset[str]] = {}
    valuation: dict[str, set[str]] = {}
    for i, m in enumerate(models):
        tag = lambda x: f"{i}:{x}"
        states |= {tag(s) for s in m.states}
        agents |= {tag(a) for a in m.agents}
        names |= m.names
        for a, pairs in m.relations.items():
            relations[tag(a)] = frozenset((tag(x), tag(y)) for x, y in pairs)
        for (s, n), group in m.naming.items():
            naming[(tag(s), n)] = frozenset(tag(a) for a in group)
        for p, ws in m.valuation.items():
            valuation.setdefault(p, set()).update(tag(s) for s in ws)
    return KripkeModel(
        states=frozenset(states),
        agents=frozenset(agents),
        names=frozenset(names),
        relations=relations,
        naming=naming,
        valuation={p: frozenset(ws) for p, ws in valuation.items()},
    )


# ---------------------------------------------------------------------------
# Random models

_AGENT_IDS = "abcdefgh"
_NAME_IDS = ("n", "m", "k", "l")
_PROP_IDS = ("p", "q", "r", "t")


def _ids(spec, defaults, prefix) -> list[str]:
    if isinstance(spec, int):
        if spec <= len(defaults):
            return list(defaults[:spec])
        return list(defaults) + [f"{prefix}{i}" for i in range(len(defaults), spec)]
    return list(spec)


def random_model(
    states: int = 4,
    agents=2,
    names=2,
    props=2,
    edge_density: float = 0.3,
    naming_density: float = 0.4,
    mode: str = "general",
    seed: int = 0,
) -> KripkeModel:
    """Generate a seeded random model that validates in lenient mode.

    mode "general" samples arbitrary edges and then adds the reflexive loops
    the naming demands.  mode "epistemic" partitions, per agent, the states
    where the agent bears a name, yielding equivalence relations on fields.
    """
    if mode not in ("general", "epistemic"):
        raise ValueError(f"unknown generation mode {mode!r}")
    rng = random.Random(seed)
    state_ids = [f"w{i}" for i in range(states)]
    agent_ids = _ids(agents, _AGENT_IDS, "a")
    name_ids = _ids(names, _NAME_IDS, "n")
    prop_ids = _ids(props, _PROP_IDS, "p")

    naming: dict[Pair, frozenset[str]] = {}
    for w in state_ids:
        for n in name_ids:
            group = frozenset(a for a in agent_ids if rng.random() < naming_density)
            if group:
                naming[(w, n)] = group
    bearers = {a: sorted({w for (w, _), g in naming.items() if a in g}) for a in agent_ids}

    relations: dict[str, frozenset[Pair]] = {}
    if mode == "general":
        for a in agent_ids:
            pairs = {
                (x, y)
                for x in state_ids
                for y in state_ids
                if rng.random() < edge_density
            }
            pairs |= {(w, w) for w in bearers[a]}
            relations[a] = frozenset(pairs)
    else:
        for a in agent_ids:
            blocks: list[list[str]] = []
            for w in bearers[a]:
                if blocks and rng.random() > 1.0 / (len(blocks) + 1):
                    rng.choice(blocks).append(w)
                else:
                    blocks.append([w])
            relations[a] = frozenset(
                (x, y) for block in blocks for x in block for y in block
            )

    valuation = {
        p: frozenset(w for w in state_ids if rng.random() < 0.5) for p in prop_ids
    }
    return KripkeModel(
        states=frozenset(state_ids),
        agents=frozenset(agent_ids),
        names=frozenset(name_ids),
        relations=relations,
        naming=naming,
        valuation=valuation,
    )
