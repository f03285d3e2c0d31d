"""Neighborhood semantics for the E/S fragment.

A neighborhood model assigns each (state, name) pair a family nu_n(w) of
state sets.  "Someone named n knows f" asks for some member of the family
inside the truth set of f; "everyone named n knows f" asks this of every
member.  Relational models translate into neighborhood models and, when
every neighborhood contains its own state, back again, preserving E/S truth
both ways.

Truth is kripke's truth core: a neighborhood model's index holds, per name
and state, the family's members as masks, and E/S read it exactly as they
read the successor sets of the agents a name picks out in a relational
model.  The complex-algebra laws that can fail, E_n of the full set and
the duality of E and S, run the same E/S clauses; the other two hold by
the clauses themselves.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import Any, Iterable, Mapping

from .errors import (
    ModelFormatError,
    NotReflexiveError,
    UndeclaredSymbolError,
    UnsupportedFragmentError,
)
from .formula import B, C, D, E, Formula, S, _program
from .kripke import (
    Diagnostic,
    KripkeModel,
    Pair,
    _Index,
    _known_keys,
    _listed,
    _named,
    _propositions,
    _require_symbols,
    _truth,
)
from .record import Record

_EMPTY: frozenset = frozenset()
_UNSUPPORTED = (C, D, B)
Family = frozenset[frozenset[str]]


class NeighborhoodModel(Record):
    # nu: (state, name) -> family of state sets; valuation: proposition ->
    # state set; __dict__ holds the cached _index
    __slots__ = ("states", "names", "nu", "valuation", "__dict__")

    @classmethod
    def make(
        cls,
        states: Iterable[str],
        names: Iterable[str],
        nu: Mapping[Any, Iterable[Iterable[str]]],
        valuation: Mapping[str, Iterable[str]],
    ) -> "NeighborhoodModel":
        flat: dict[Pair, Family] = {}
        for key, fam in nu.items():
            if isinstance(key, tuple):
                flat[(key[0], key[1])] = frozenset(frozenset(x) for x in fam)
            else:
                for name, per_name in fam.items():
                    flat[(key, name)] = frozenset(frozenset(x) for x in per_name)
        return cls(frozenset(states), frozenset(names), {k: v for k, v in flat.items() if v},
                   {p: frozenset(ws) for p, ws in valuation.items()})

    def family(self, state: str, name: str) -> Family:
        return self.nu.get((state, name), _EMPTY)

    def is_reflexive(self) -> bool:
        """Does every neighborhood contain the state it is attached to?"""
        return all(w in X for (w, _), fam in self.nu.items() for X in fam)

    def holds(self, prop: str, state: str) -> bool:
        return state in self.valuation.get(prop, _EMPTY)

    @cached_property
    def _index(self) -> _Index:
        """The model's truth sets as masks for kripke's truth core: the family
        at (w, n) in place of the successor sets of the agents n picks out."""
        mentioned = set().union(*(X for fam in self.nu.values() for X in fam), *self.valuation.values())
        order = sorted(self.states) + sorted(mentioned - self.states)
        bit = {s: 1 << i for i, s in enumerate(order)}
        mask = lambda X: reduce(or_, map(bit.__getitem__, X), 0)
        fam: dict[str, list] = {}
        for (w, n), family in self.nu.items():
            if family and w in self.states:
                members = tuple(map(mask, family))
                fam.setdefault(n, []).append((bit[w], reduce(or_, members), members))
        val = {p: mask(ws) for p, ws in self.valuation.items()}
        return _Index((1 << len(self.states)) - 1, val, fam, {}, {}, order)


_NBHD_KEYS = frozenset({"states", "names", "nu", "valuation"})


def nbhd_from_dict(d: Mapping[str, Any]) -> NeighborhoodModel:
    _known_keys(d, _NBHD_KEYS, "neighborhood model")
    try:
        states = frozenset(_named(d["states"], "states"))
        names = frozenset(_named(d.get("names", []), "names"))
        nu: dict[Pair, Family] = {}
        for state, per_name in d["nu"].items():
            for name, fam in per_name.items():
                what = f"neighborhoods of {name!r} at {state!r}"
                nu[(state, name)] = frozenset(
                    frozenset(_named(x, what)) for x in _listed(fam, what)
                )
        valuation = {
            p: _named(ws, f"valuation of {p!r}") for p, ws in d.get("valuation", {}).items()
        }
        _named(chain.from_iterable(nu), "nu")
        _propositions(_named(valuation.keys(), "valuation"))
        m = NeighborhoodModel.make(states, names, nu, valuation)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a list or string where a mapping is due
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    for (state, name), fam in m.nu.items():
        if state not in m.states:
            raise ModelFormatError(f"neighborhood family at undeclared state {state!r}")
        if name not in m.names:
            raise ModelFormatError(f"neighborhood family for undeclared name {name!r}")
        for X in fam:
            if not X <= m.states:
                raise ModelFormatError(
                    f"neighborhood {sorted(X)} of {name!r} at {state!r} leaves the state set"
                )
    for prop, ws in m.valuation.items():
        if not ws <= m.states:
            raise ModelFormatError(f"valuation of {prop!r} leaves the state set")
    return m


def nbhd_to_dict(m: NeighborhoodModel) -> dict:
    nu: dict[str, dict[str, list[list[str]]]] = {}
    for (state, name), fam in sorted(m.nu.items()):
        nu.setdefault(state, {})[name] = sorted(sorted(X) for X in fam)
    return {
        "states": sorted(m.states),
        "names": sorted(m.names),
        "nu": nu,
        "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())},
    }


# ---------------------------------------------------------------------------
# Truth (E/S fragment only)

def _assert_supported(f: Formula) -> None:
    keys, _, _, _, heads = _program(f)
    if heads.isdisjoint(_UNSUPPORTED):
        return
    # outermost first, as a walk of a tree meets them
    for cls, _, _ in reversed(keys):
        if cls in _UNSUPPORTED:
            raise UnsupportedFragmentError(
                f"{cls.__name__} has no neighborhood reading; only E and S do"
            )


def extension_nbhd(m: NeighborhoodModel, f: Formula) -> frozenset[str]:
    _assert_supported(f)
    _require_symbols(f, names=m.names, props=m.valuation.keys())
    ix = m._index
    return ix.states_of(_truth(ix, f)[0])


def check_nbhd(m: NeighborhoodModel, w: str, f: Formula) -> bool:
    if w not in m.states:
        raise UndeclaredSymbolError(f"undeclared state {w!r}")
    return w in extension_nbhd(m, f)


# ---------------------------------------------------------------------------
# Translations

def kripke_to_nbhd(m: KripkeModel) -> NeighborhoodModel:
    """Family at (w, n) collects the successor sets of the agents n names."""
    nu: dict[Pair, Family] = {}
    for (w, n), group in m.naming.items():
        nu[(w, n)] = frozenset(m.successors(a, w) for a in group)
    return NeighborhoodModel(m.states, m.names, nu, dict(m.valuation))


# the characters that make a member of a state set print as a JSON string
_QUOTED = frozenset(',{}"\\')


def stateset_id(X: Iterable[str]) -> str:
    """Canonical agent identifier for a successor set: "{v,w}".

    A member holding a comma, a brace, a quote or a backslash is written as
    its JSON string, so that distinct nonempty sets get distinct
    identifiers: {"a,b"} is '{"a,b"}', {"a", "b"} is '{a,b}'."""
    return "{" + ",".join(x if _QUOTED.isdisjoint(x) else json.dumps(x) for x in sorted(X)) + "}"


def nbhd_to_kripke(m: NeighborhoodModel) -> KripkeModel:
    """Each neighborhood becomes an agent whose relation is its full clique.

    Requires every neighborhood to contain its own state: only then does the
    clique construction give back the family as successor sets.
    """
    if not m.is_reflexive():
        raise NotReflexiveError(
            "some neighborhood omits its own state; the relational reading needs w in every member of nu_n(w)"
        )
    pools = {X for fam in m.nu.values() for X in fam}
    relations = {
        stateset_id(X): frozenset((x, y) for x in X for y in X) for X in pools
    }
    naming = {
        key: frozenset(stateset_id(X) for X in fam) for key, fam in m.nu.items()
    }
    return KripkeModel(
        states=m.states,
        agents=frozenset(relations),
        names=m.names,
        relations=relations,
        naming=naming,
        valuation=dict(m.valuation),
    )


def check_core_morphism(
    src: NeighborhoodModel, dst: NeighborhoodModel, f: Mapping[str, str]
) -> bool:
    """Forth and back conditions on neighborhood families, per state and name.

    forth: the image of every source neighborhood is a target neighborhood.
    back: every target neighborhood at f(w) is the image of a source one.
    """
    if set(f) != set(src.states) or not set(f.values()) <= set(dst.states):
        raise UndeclaredSymbolError("map is not a total function from source states to target states")
    for (w, n), fam in src.nu.items():
        target = dst.family(f[w], n)
        for X in fam:
            if frozenset(f[x] for x in X) not in target:
                return False
    for w in src.states:
        for n in src.names | dst.names:
            images = {frozenset(f[x] for x in X) for X in src.family(w, n)}
            for Y in dst.family(f[w], n):
                if Y not in images:
                    return False
    return True


# ---------------------------------------------------------------------------
# Complex algebras

def verify_algebra_equations(m: NeighborhoodModel) -> list[Diagnostic]:
    """Check the four laws of the complex algebra, per name.

    1. E_n applied to the full set is the full set.
    2. E_n distributes over intersection.
    3. someone(a) meet everyone(b) entails someone(a meet b).
    4. complement(E_n bot) = S_n top; a state whose only neighborhood is the
       empty set breaks this one, so such states are reported as warnings
       rather than equation failures.

    Only laws 1 and 4 are evaluated, read off the truth core's E and S
    steps over the full and the empty set: 2 and 3 hold in every model.  A
    state w is in E_n(a) when every member of nu_n(w) lies inside a, in
    S_n(a) when some member does.  Law 2: every member lies inside a and b
    exactly when every member lies inside a and every member inside b.
    Law 3: a member inside a lies inside b too, when every member does.
    Neither step asks a member to be nonempty, to hold w or to lie in the
    state set, and neither clause reads a family at an undeclared state.
    The tests check both laws on every pair of subsets.
    """
    out: list[Diagnostic] = []
    ix = m._index
    for n in sorted(m.names):
        if ix.step(E, (n,), ix.full) != ix.full:
            out.append(
                Diagnostic("error", "eq-top", f"E[{n}] of the full set is not the full set")
            )
        duality_gap = (ix.full & ~ix.step(E, (n,), 0)) ^ ix.step(S, (n,), ix.full)
        for w in sorted(ix.states_of(duality_gap)):
            if m.family(w, n) == frozenset({_EMPTY}):
                out.append(
                    Diagnostic(
                        "warning",
                        "duality-empty-neighborhood",
                        f"!E[{n}] false != S[{n}] true at {w!r}: its only neighborhood is empty,"
                        " so the duality law is not asserted there",
                    )
                )
            else:
                out.append(
                    Diagnostic(
                        "error",
                        "eq-duality",
                        f"!E[{n}] false != S[{n}] true at {w!r}",
                    )
                )
    return out
