"""Relational models in which group names pick out sets of agents per state.

A model carries finite state/agent/name sets, one accessibility relation per
agent, a naming map mu(state, name) -> set of agents, and a valuation.  The
modalities quantify over the agents a name currently picks out, so who counts
as "everyone named n" changes from state to state.

A model holds each relation as the truth clauses read it, per agent a map
from each source's state bit to its successor mask; the pair view,
relations, is derived from those rows on demand.

Truth has one core, used by relational and neighborhood truth, frame
validity, the elimination rounds of the decision procedure and the bounded
oracle: _run folds a formula's numbering, formula._program, over an index
of truth sets as masks.  An _Index adds to a model's rows its masks (per
proposition, and per name and state the successor masks of the agents the
name picks out), and its step method holds the modal clauses.  Each
modality is an operator on sets of states, so _run computes a modal step
once per run for each distinct (class, fields, operand mask), however many
subterms share it.  _truth keeps a formula's masks on the formula, for
the last index it was asked about; a model keeps no formula.  Besides the
program, extension and check read a formula's class and name only, so a
parsed formula they answer builds no subterm node.  The elimination in
decision calls step on an _Index whose states are its live atoms.  The
oracle in decision evaluates a block of candidate models as one _Lanes
index, one candidate per bit lane of every mask: its step computes the
modal clauses for every lane, and the rest of _run is unchanged.

C searches in the cheaper direction on each call (direction-optimizing
search, Beamer, Asanovic & Patterson, SC 2012).  A forward round costs one
pass over the name's family entries; the backward closure costs building a
predecessor map, the mean popcount of the entries' unions in passes.  So
escapes runs forward rounds while their count stays under that cost, and
past it builds the map, keeps it, and closes backward.
"""

from __future__ import annotations

import random
from functools import cached_property, reduce
from itertools import chain, combinations, product, repeat
from operator import and_, attrgetter, or_
from typing import Any, Iterable, Iterator, Mapping

from .errors import BudgetExceededError, ModelFormatError, ParseError, UndeclaredSymbolError
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
    _program,
    _set_masks,
    parse_formula,
    props_in,
)
from .record import Record

_EMPTY: frozenset = frozenset()
_NO_ROW: dict = {}
_COMPARED = attrgetter("states", "agents", "names", "order", "rows", "naming", "valuation")

Pair = tuple[str, str]


class KripkeModel:
    """A model with its relations as successor masks.

    order: the declared states sorted, then the undeclared ones the model
    mentions sorted; state order[i] has bit 1 << i, as bit records.  rows:
    agent -> {source bit: successor mask}, for every source, declared or
    not.  Equality compares the relations through order and rows.
    """

    def __init__(self, states, agents, names, relations, naming, valuation):
        """Freeze loose containers; naming maps (state, name) to agents."""
        states = frozenset(states)
        order = sorted(states)
        bit = {s: 1 << i for i, s in enumerate(order)}
        rows = {a: _row(pairs, bit, order) for a, pairs in relations.items()}
        naming = {(w, n): frozenset(group) for (w, n), group in naming.items()}
        valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        self._hold(states, frozenset(agents), frozenset(names), order, rows, naming, valuation)

    @classmethod
    def _of_rows(cls, states, agents, names, order, rows, naming, valuation) -> "KripkeModel":
        m = cls.__new__(cls)  # straight from rows over the state list order
        m._hold(states, agents, names, order, rows, naming, valuation)
        return m

    def _hold(self, states, agents, names, order, rows, naming, valuation) -> None:
        naming = {k: group for k, group in naming.items() if group}
        extra = set(order).union((w for w, _ in naming), *valuation.values()).difference(states)
        canonical = sorted(states) + sorted(extra)
        if canonical != order:
            bit = {s: 1 << i for i, s in enumerate(canonical)}
            rows = _renumber(rows, [bit[s] for s in order])
        self.__dict__.update(  # past __setattr__, which keeps the model frozen
            states=states, agents=agents, names=names, naming=naming, valuation=valuation,
            rows=rows, order=tuple(canonical), bit={s: 1 << i for i, s in enumerate(canonical)},
        )

    __setattr__ = Record.__setattr__

    @cached_property
    def relations(self) -> Mapping[str, frozenset[Pair]]:
        """agent -> its edges as (source, target) pairs."""
        return {a: frozenset(_edges(self.order, row)) for a, row in self.rows.items()}

    @cached_property
    def _index(self) -> _Index:
        """The model's truth sets as masks for the truth core."""
        bit, rows = self.bit, self.rows
        fam: dict[str, list] = {}
        bearers: dict[Pair, int] = {}
        for (w, n), group in self.naming.items():
            bw = bit[w]
            for a in group:
                bearers[(a, n)] = bearers.get((a, n), 0) | bw
            if group and w in self.states:
                members = tuple(rows.get(a, _NO_ROW).get(bw, 0) for a in group)
                fam.setdefault(n, []).append((bw, reduce(or_, members), members))
        val = {p: reduce(or_, map(bit.__getitem__, ws), 0) for p, ws in self.valuation.items()}
        return _Index((1 << len(self.states)) - 1, val, fam, rows, bearers, self.order)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _COMPARED(self) == _COMPARED(other)

    def successors(self, agent: str, state: str) -> frozenset[str]:
        succ = self.rows.get(agent, _NO_ROW).get(self.bit.get(state), 0)
        return frozenset(map(self.order.__getitem__, _bit_indices(succ)))

    def named(self, state: str, name: str) -> frozenset[str]:
        return self.naming.get((state, name), _EMPTY)

    def holds(self, prop: str, state: str) -> bool:
        return state in self.valuation.get(prop, _EMPTY)


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minted(s: str, bit: dict, order: list) -> int:
    """The bit of s, which has none yet: the next free one."""
    b = bit[s] = 1 << len(order)
    order.append(s)
    return b


def _row(pairs: Iterable[Pair], bit: dict, order: list, what: str = "an edge") -> dict[int, int]:
    """The successor masks of pairs (lists or tuples, as what names them);
    a state without a bit is _minted one."""
    row: dict[int, int] = {}
    get = bit.get
    for pair in pairs:
        if isinstance(pair, (str, dict)):
            _listed(pair, what)
        x, y = pair
        bx = get(x) or _minted(x, bit, order)
        row[bx] = row.get(bx, 0) | (get(y) or _minted(y, bit, order))
    return row


def _edges(order, row: Mapping[int, int]) -> Iterator[Pair]:
    """The (source, target) pairs of row over the state order order."""
    for x, succ in row.items():
        yield from zip(repeat(order[x.bit_length() - 1]), map(order.__getitem__, _bit_indices(succ)))


def _renumber(rows: Mapping[str, Mapping[int, int]], moves: list[int]) -> dict:
    """rows with the state of bit 1 << i moved to the bit moves[i], or
    dropped with its edges where that is 0.  Each distinct mask moves once."""
    masks = {mask for row in rows.values() for mask in chain(row, row.values())}
    moved = {mask: reduce(or_, map(moves.__getitem__, _bit_indices(mask)), 0) for mask in masks}
    return {a: {moved[x]: moved[succ] for x, succ in row.items() if moved[x] and moved[succ]}
            for a, row in rows.items()}


# ---------------------------------------------------------------------------
# JSON wire format

_CLOSURE_OPS = ("reflexive", "symmetric", "transitive")


def _close_relation(row: dict[int, int], ops: Iterable[str], declared: int) -> None:
    """Apply the ops to row in place; reflexive loops the bits below declared."""
    for op in ops:
        if op == "reflexive":
            for b in (1 << i for i in range(declared)):
                row[b] = row.get(b, 0) | b
        elif op == "symmetric":
            for x, succ in list(row.items()):
                for y in _bit_indices(succ):
                    row[1 << y] = row.get(1 << y, 0) | x
        else:  # transitive: Warshall's algorithm, one pass per intermediate state
            for k in list(row):
                via = row[k]
                for x, succ in row.items():
                    if succ & k:
                        row[x] = succ | via


def _listed(value: Any, what: str) -> Any:
    """value, unless it is a string or an object where the document owes a
    list: iterating "wv" would silently read the states w and v, and
    iterating {"w": 1} its keys."""
    if isinstance(value, (str, dict)):
        got = f"the string {value!r}" if isinstance(value, str) else "an object"
        raise ModelFormatError(f"{what} must be a list, got {got}")
    return value


def _named(values: Any, what: str) -> list:
    """The identifiers listed in values.  A state, agent, name or
    proposition is a string: a number among them would be read, and fail
    only later, where sorting meets 1 beside "w"."""
    values = list(_listed(values, what))
    for x in values:
        if not isinstance(x, str):
            raise ModelFormatError(f"{what}: {x!r} is not a string")
    return values


def _known_keys(d: Any, keys: frozenset[str], what: str) -> None:
    """Refuse a top-level key of the document d outside keys: a misspelled
    key would otherwise read as an absent, empty entry."""
    if isinstance(d, Mapping):
        unknown = set(d) - keys
        if unknown:
            raise ModelFormatError(
                f"unknown keys in a {what} document: {sorted(map(str, unknown))};"
                f" expected some of {sorted(keys)}"
            )


def _propositions(keys: Iterable[str]) -> None:
    """Refuse a valuation key that no formula text names.  Only a text that
    parses to Prop(p) names p: true and false read as the constants, and
    P, a,b, "" or " p" do not read as p."""
    for p in keys:
        try:
            named = parse_formula(p) == Prop(p)
        except ParseError:
            named = False
        if not named:
            raise ModelFormatError(f"valuation: {p!r} is not a proposition a formula can name")


_MODEL_KEYS = frozenset(
    {"states", "agents", "names", "relations", "naming", "valuation", "closure"}
)


def model_from_dict(d: Mapping[str, Any]) -> KripkeModel:
    """Build a model from its JSON dictionary form.

    The optional "closure" list applies the given closure operations, in
    order, to every agent relation before anything else looks at the model.
    """
    _known_keys(d, _MODEL_KEYS, "model")
    try:
        states = frozenset(_named(d["states"], "states"))
        agents = frozenset(_named(d.get("agents", []), "agents"))
        names = frozenset(_named(d.get("names", []), "names"))
        ops = list(_listed(d.get("closure", []), "closure"))
        for op in ops:
            if op not in _CLOSURE_OPS:
                raise ModelFormatError(f"unknown closure op {op!r}")
        order = sorted(states)
        bit = {s: 1 << i for i, s in enumerate(order)}
        rows = {}
        for a, pairs in d.get("relations", {}).items():
            known, what = len(order), f"an edge of {a!r}"
            rows[a] = _row(_listed(pairs, f"relation of {a!r}"), bit, order, what)
            # a state first met on an edge must be a string, as declared ones are
            _named(order[known:], what)
            _close_relation(rows[a], ops, len(states))
        naming = {}
        for state, per_name in d.get("naming", {}).items():
            for name, group in per_name.items():
                naming[(state, name)] = _named(group, f"naming of {name!r} at {state!r}")
        valuation = {
            p: _named(ws, f"valuation of {p!r}") for p, ws in d.get("valuation", {}).items()
        }
        _named(rows.keys(), "relations")
        _named(chain.from_iterable(naming), "naming")
        _propositions(_named(valuation.keys(), "valuation"))
        valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        naming = {k: frozenset(group) for k, group in naming.items()}
        return KripkeModel._of_rows(states, agents, names, order, rows, naming, valuation)
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
        "relations": {a: sorted(map(list, _edges(m.order, m.rows[a]))) for a in sorted(m.rows)},
        "naming": naming,
        "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())},
    }


# ---------------------------------------------------------------------------
# Validation

class Diagnostic(Record):
    __slots__ = ("level", "code", "message")  # level: "error" | "warning"

    def __init__(self, level: str, code: str, message: str) -> None:
        _set_level(self, level)
        _set_code(self, code)
        _set_message(self, message)


# Diagnostic, built per finding, and TruthResult, per check, call their slot
# setters directly rather than through Record's loop over them
_set_level, _set_code, _set_message = Diagnostic._setters


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

    # Every agent's row is tested as masks; only the offending edges are
    # expanded, and sorted to report them in order.
    full, order, rows = (1 << len(m.states)) - 1, m.order, m.rows
    if not m.states:
        err("empty-states", "model has no states")
    for a in sorted(rows):
        if a not in m.agents:
            err("undeclared-agent", f"relation for undeclared agent {a!r}")
        row = rows[a]
        if (reduce(or_, row, 0) | reduce(or_, row.values(), 0)) & ~full:
            # every edge of a stray source leaves, and the stray targets of the others
            stray = {x: succ if x & ~full else succ & ~full for x, succ in row.items()}
            for x, y in sorted(_edges(order, stray)):
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
    bears_at: dict[str, int] = {}  # agent -> the states where it bears a name
    for state, a in sorted(bearers):
        w = m.bit[state]
        bears_at[a] = bears_at.get(a, 0) | w
        if not rows.get(a, _NO_ROW).get(w, 0) & w:
            err(
                "missing-reflexive-loop",
                f"agent {a!r} bears a name at {state!r} but ({state!r}, {state!r}) is not in its relation",
            )
    report = err if mode == "strict" else warn
    for a in sorted(rows):
        bears = bears_at.get(a, 0)
        # one diagnostic per edge, as the edges sort
        for x, succ in sorted((order[x.bit_length() - 1], succ)
                              for x, succ in rows[a].items() if not x & bears):
            for _ in range(succ.bit_count()):
                report(
                    "edge-from-unnamed-source",
                    f"agent {a!r} has an edge at {x!r} where it bears no name",
                )
    if mode == "epistemic":
        for a in sorted(rows):
            # An equivalence on its field exactly when the sources that share
            # a successor mask make up that mask: then each source lies in
            # its own mask, and each edge joins two sources with one mask.
            sources: dict[int, int] = {}  # successor mask -> its sources
            for x, succ in rows[a].items():
                sources[succ] = sources.get(succ, 0) | x
            if any(succ != xs for succ, xs in sources.items()):
                err(
                    "not-equivalence-on-field",
                    f"relation of agent {a!r} is not an equivalence on its field",
                )
    return out


# ---------------------------------------------------------------------------
# Truth

class TruthResult(Record):
    __slots__ = ("value", "witness")

    def __init__(self, value: bool, witness: Any = None) -> None:
        _set_value(self, value)
        _set_witness(self, witness)

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


_set_value, _set_witness = TruthResult._setters


def _require_symbols(f: Formula, names=None, props=None, agents=None) -> None:
    """Raise on a symbol of f outside the given declared sets (None: unchecked)."""
    _, used_names, used_props, used_agents, _ = _program(f)
    for kind, declared, used in (
        ("names", names, used_names), ("propositions", props, used_props),
        ("agents", agents, used_agents),
    ):
        if declared is not None and not declared >= used:
            raise UndeclaredSymbolError(f"undeclared {kind}: {sorted(used.difference(declared))}")


class _Index:
    """A model's truth sets as int masks, one bit per state.

    full holds the declared states.  A model may mention states it does not
    declare (on an edge, in the valuation, at a naming entry): they get bits
    above full, so a proposition can hold there, and p & p with it, while
    negation and the modalities range over full only.
    rows: the model's own, for B; the index adds to them
    val: proposition -> mask.
    fam: name -> [(state bit, union, successor masks of the agents the name
    picks out there)], for the declared states where it picks out someone.
    bearers: (agent, name) -> the states where the agent bears the name.
    order: states by bit.
    """

    __slots__ = ("full", "val", "fam", "rows", "bearers", "order", "_pred")

    def __init__(self, full, val, fam, rows, bearers, order):
        self.full, self.val, self.fam, self.rows, self.bearers = full, val, fam, rows, bearers
        self.order = order
        # name -> [its entries, the OR of their unions, the cost of the
        # predecessor map, that map once escapes has built it]
        self._pred: dict = {}

    def states_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.order[i] for i in _bit_indices(mask))

    def escapes(self, name: str, good: int) -> int:
        """The declared states with a path of one or more name steps out of
        good.  Forward rounds run while their count stays under the cost of
        the predecessor map; past it the map is built, kept for the calls
        after, and closed backward.  A chain, at about two bits per entry,
        goes backward; a dense family ends forward.  The predecessors are
        keyed by a state's index, not by its bit: hashing a bit costs as
        much as the model is wide."""
        got = self._pred.get(name)
        if got is None:
            entries = self.fam.get(name, ())
            targets = reduce(or_, (union for _, union, _ in entries), 0)
            cost = sum(union.bit_count() for _, union, _ in entries) / len(entries) if entries else 0
            got = self._pred[name] = [entries, targets, cost, None]
        entries, targets, cost, pred = got
        reach, frontier = 0, targets & ~good
        if pred is None:
            rounds = 0
            while rounds < cost:
                goal, grown = frontier | reach, reach
                for w, union, _ in entries:
                    if union & goal:
                        grown |= w
                if grown == reach:
                    return reach
                reach, rounds = grown, rounds + 1
            reach, pred = 0, {}  # state index -> its predecessors
            for w, union, _ in entries:
                for i in _bit_indices(union):
                    pred[i] = pred.get(i, 0) | w
            got[3] = pred
        while frontier:
            new = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new |= pred.get(low.bit_length() - 1, 0)
            frontier = new & ~reach
            reach |= new
        return reach

    def step(self, cls, fields, good: int) -> int:
        """The mask of the modal step cls(*fields) over an operand of mask good."""
        full, bad = self.full, ~good
        if cls is E:  # every member of the family is good: so is their union
            v = full
            for w, union, _ in self.fam.get(fields[0], ()):
                if union & bad:
                    v ^= w
        elif cls is S:  # some member of the family is good
            v = 0
            for w, _, members in self.fam.get(fields[0], ()):
                for succ in members:
                    if not succ & bad:
                        v |= w
                        break
        elif cls is D:  # the declared states in every member are good
            v = 0
            for w, _, members in self.fam.get(fields[0], ()):
                if not reduce(and_, members, full) & bad:
                    v |= w
        elif cls is C:
            v = full & ~self.escapes(fields[0], good)
        else:  # B: the agent's successors where it bears the name are good
            bad, v = bad & self.bearers.get(fields, 0), full  # fields: (agent, name)
            for w, succ in self.rows.get(fields[0], _NO_ROW).items():
                if succ & bad:
                    v ^= w
            v &= full  # a source outside full toggled a bit there
        return v


class _Lanes:
    """A block of candidate models over the states 0..size-1 as one index:
    bit v * width + k of a mask is state v of candidate k, its lane.  So
    full, val and every mask _run derives hold all candidates at once, and
    step computes a modal step for each lane.

    N[(w, n)]: per agent, the lanes where it bears n at w.
    R[a][w]: the successors of w for agent a, a mask.
    val: proposition -> mask.
    """

    __slots__ = ("size", "width", "agents", "N", "R", "val", "ones", "full", "_each")

    def __init__(self, size, width, agents, N, R, val):
        self.size, self.width, self.agents, self.N, self.R, self.val = size, width, agents, N, R, val
        self.ones = (1 << width) - 1
        self.full = (1 << size * width) - 1
        # bit v * width for each state v: times a lane mask, those lanes at every state
        self._each = sum(1 << v * width for v in range(size))

    def some(self, x: int) -> int:
        """The lanes where x holds at some state."""
        lanes = 0
        while x:
            lanes |= x
            x >>= self.width
        return lanes & self.ones

    def step(self, cls, fields, good: int) -> int:
        """_Index.step for every lane: the same clauses, a state at a time."""
        full, ones, some, W = self.full, self.ones, self.some, self.width
        bad, states = full ^ good, range(self.size)
        if cls is B:  # the agent's successors where it bears the name are good
            a, n = self.agents.index(fields[0]), fields[1]
            bad &= sum(self.N[(v, n)][a] << v * W for v in states)
            return full ^ sum(some(self.R[a][w] & bad) << w * W for w in states)
        # per state, the lanes where each agent bears the name, and its successors
        groups = [[(bears, self.R[a][w]) for a, bears in enumerate(self.N[(w, fields[0])]) if bears]
                  for w in states]
        if cls is C:
            # a path of one or more name steps out of good, by backward
            # closure: a shortest one has at most size steps
            succ = [reduce(or_, (bears * self._each & row for bears, row in group), 0)
                    for group in groups]
            reach = 0
            for _ in states:
                grown = sum(some(row & (bad | reach)) << w * W for w, row in enumerate(succ))
                if grown == reach:
                    break
                reach = grown
            return full ^ reach
        v = 0
        for w, group in enumerate(groups):
            if cls is D:  # a nonempty group, and what all members see is good
                pooled = full
                for bears, row in group:
                    pooled &= (ones ^ bears) * self._each | row
                lanes = reduce(or_, (bears for bears, _ in group), 0) & ~some(pooled & bad)
            else:
                seeing = [(bears, bears & some(row & bad)) for bears, row in group]
                if cls is E:  # no member sees a bad state
                    lanes = ones ^ reduce(or_, (seen for _, seen in seeing), 0)
                else:  # S: some member sees none
                    lanes = reduce(or_, (bears ^ seen for bears, seen in seeing), 0)
            v |= lanes << w * W
        return v


def _run(prog: tuple, ix, val: Mapping[str, int]) -> list[int]:
    """The mask of every node of a formula._program on ix, an _Index or a
    _Lanes block, under the valuation val: one step per key, (class,
    fields, operand numbers).

    A modality is an operator on sets of states, so a modal step's mask
    depends only on its class, its fields and its operand's mask, and ix.step
    computes it.  Each distinct (class, fields, operand mask) is computed
    once per run and looked up after: E[n] p beside E[n] (p & p) costs one
    step, and a chain C[n] C[n] ... p costs one per distinct mask, which on
    a finite model soon repeat.  The memo lives for the run only."""
    full, step = ix.full, ix.step
    out: list[int] = []
    push = out.append
    memo: dict[tuple, int] = {}
    for cls, fields, ks in prog[0]:
        if cls is Prop:
            push(val.get(fields[0], 0))
        elif cls is And:
            push(out[ks[0]] & out[ks[1]])
        elif cls is Not:
            push(full & ~out[ks[0]])
        elif cls is Or:
            push(out[ks[0]] | out[ks[1]])
        elif cls is Implies:
            push((full & ~out[ks[0]]) | out[ks[1]])
        elif cls is Iff:
            a, b = out[ks[0]], out[ks[1]]
            push((a & b) | (full & ~(a | b)))
        elif cls is Top:
            push(full)
        elif cls is Bot:
            push(0)
        else:  # a modal step
            good = out[ks[0]]
            key = (cls, fields, good)
            v = memo.get(key)
            if v is None:
                v = memo[key] = step(cls, fields, good)
            push(v)
    return out


def _truth(ix: _Index, f: Formula) -> tuple[int, int]:
    """The masks of f and of its operand on ix, a Kripke or neighborhood
    model's index; the operand's is 0 unless f is modal.

    f keeps this pair for the last index it was asked about, beside that
    index, so extension then check, or check at several states, runs f
    once.  The model keeps nothing of f: a formula lives as long as its
    caller holds it, and holds at most one index.  An equal formula, the
    same text parsed again, has a memo of its own and runs once more."""
    try:
        at, masks = f._masks
        if at is ix:
            return masks
    except AttributeError:
        pass
    prog = _program(f)
    out = _run(prog, ix, ix.val)
    masks = (out[-1], out[prog[0][-1][2][0]] if isinstance(f, (E, S, C, D, B)) else 0)
    _set_masks(f, (ix, masks))
    return masks


def extension(m: KripkeModel, f: Formula) -> frozenset[str]:
    """All states of m at which f holds."""
    _require_symbols(f, m.names, m.valuation.keys(), m.agents)
    ix = m._index
    return ix.states_of(_truth(ix, f)[0])


def _witness(m: KripkeModel, ix: _Index, w: str, f: Formula, value: bool, good: int) -> Any:
    """The witness of f's value at w, where good is the mask of f's
    operand: the agent of a true S, the group of a true D, an agent and a
    bad successor of a false E, and a path to a bad state of a false C."""
    succ = lambda a, x: ix.rows.get(a, _NO_ROW).get(m.bit[x], 0)
    # the class and the name only: a class pattern would read the operand,
    # and so build a parsed formula's subterms
    cls = f.__class__
    if cls is S and value:
        for a in sorted(m.named(w, f.name)):
            if not succ(a, w) & ~good:
                return a
    elif cls is D and value:
        return tuple(sorted(m.named(w, f.name)))
    elif cls is E and not value:
        for a in sorted(m.named(w, f.name)):
            bad = succ(a, w) & ~good
            if bad:
                return (a, min(ix.states_of(bad)))
    elif cls is C and not value:
        # breadth first from w; each state's name step is keyed by the
        # state, not by its bit, which is as wide as the model
        order = ix.order
        step = {order[x.bit_length() - 1]: union for x, union, _ in ix.fam.get(f.name, ())}
        parent: dict[str, str] = {}
        queue = [w]
        seen = {w}
        for x in queue:  # the states appended meanwhile are read in turn
            for y in sorted(ix.states_of(step.get(x, 0))):
                if not good & m.bit[y]:
                    path = [x]
                    while path[-1] != w:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path)) + (y,)
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    queue.append(y)
    return None


def check(m: KripkeModel, w: str, f: Formula) -> TruthResult:
    """Evaluate f at state w. The witness, when present, re-verifies."""
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    _require_symbols(f, m.names, m.valuation.keys(), m.agents)
    ix = m._index
    mask, operand = _truth(ix, f)
    value = bool(mask & m.bit[w])
    return TruthResult(value, _witness(m, ix, w, f, value, operand))


def distributed_by_subsets(m: KripkeModel, w: str, name: str, f: Formula):
    """Independent route for distributed knowledge: search nonempty subgroups.

    Returns (value, witnessing subgroup or None).  Must agree with the
    full-group intersection used by check.
    """
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    good = extension(m, f)
    group = sorted(m.named(w, name))
    for size in range(1, len(group) + 1):
        for subset in combinations(group, size):
            if m.states.intersection(*(m.successors(a, w) for a in subset)) <= good:
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
    bits = len(props) * len(m.states)
    if bits > max_bits:
        raise BudgetExceededError(
            f"{len(props)} propositions over {len(m.states)} states needs "
            f"2^{bits} valuations (cap 2^{max_bits})"
        )
    _require_symbols(f, names=m.names, agents=m.agents)
    prog = _program(f)
    ix = m._index
    # the declared states hold the low bits, so their subsets are 0..full
    for choice in product(range(ix.full + 1), repeat=len(props)):
        if _run(prog, ix, dict(zip(props, choice)))[-1] != ix.full:
            return False
    return True


def generated_submodel(m: KripkeModel, w: str) -> KripkeModel:
    """Restrict m to the states reachable from w via any agent, w included;
    a reached state that m does not declare stays undeclared."""
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    reach, frontier, rows = 0, m.bit[w], [m.rows.get(a, _NO_ROW) for a in m.agents]
    while frontier:
        reach |= frontier
        frontier = reduce(or_, (row.get(1 << i, 0) for i in _bit_indices(frontier) for row in rows), 0)
        frontier &= ~reach
    keep = frozenset(map(m.order.__getitem__, _bit_indices(reach)))
    states = keep & m.states
    order = sorted(states) + sorted(keep - states)
    bit = {s: 1 << i for i, s in enumerate(order)}
    return KripkeModel._of_rows(
        states, m.agents, m.names, order,
        _renumber(m.rows, [bit.get(s, 0) for s in m.order]),
        {k: v for k, v in m.naming.items() if k[0] in keep},
        {p: ws & keep for p, ws in m.valuation.items()},
    )


def disjoint_union(models: Iterable[KripkeModel]) -> KripkeModel:
    """Tagged union: state s of the i-th model becomes "i:s", agents likewise.

    Names and propositions are shared vocabulary and stay untagged.
    """
    models = list(models)
    states: set[str] = set()
    agents: set[str] = set()
    names: set[str] = set()
    order: list[str] = []  # each model's states above the previous ones'
    rows: dict[str, dict[int, int]] = {}
    naming: dict[Pair, frozenset[str]] = {}
    valuation: dict[str, set[str]] = {}
    for i, m in enumerate(models):
        tag = lambda x: f"{i}:{x}"
        states |= {tag(s) for s in m.states}
        agents |= {tag(a) for a in m.agents}
        names |= m.names
        shift = len(order)
        order += map(tag, m.order)
        for a, row in m.rows.items():
            rows[tag(a)] = {x << shift: succ << shift for x, succ in row.items()}
        for (s, n), group in m.naming.items():
            naming[(tag(s), n)] = frozenset(tag(a) for a in group)
        for p, ws in m.valuation.items():
            valuation.setdefault(p, set()).update(tag(s) for s in ws)
    return KripkeModel._of_rows(
        frozenset(states), frozenset(agents), frozenset(names), order, rows, naming,
        {p: frozenset(ws) for p, ws in valuation.items()},
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
    A count or density that no model meets raises ValueError.
    """
    if mode not in ("general", "epistemic"):
        raise ValueError(f"unknown generation mode {mode!r}")
    if states < 1:
        raise ValueError(f"a model needs at least one state, got {states}")
    for what, count in (("agents", agents), ("names", names), ("props", props)):
        if isinstance(count, int) and count < 0:
            raise ValueError(f"the number of {what} must not be negative, got {count}")
    for what, density in (("edge", edge_density), ("naming", naming_density)):
        if not 0 <= density <= 1:
            raise ValueError(f"the {what} density must lie in [0, 1], got {density}")
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
