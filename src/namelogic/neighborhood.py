"""Neighborhood semantics for the E/S fragment.

A neighborhood model assigns each (state, name) pair a family nu_n(w) of
state sets.  "Someone named n knows f" asks for some member of the family
inside the truth set of f; "everyone named n knows f" asks this of every
member.  Relational models translate into neighborhood models and, when
every neighborhood contains its own state, back again, preserving E/S truth
both ways.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import (
    ModelFormatError,
    NotReflexiveError,
    UndeclaredSymbolError,
    UnsupportedFragmentError,
)
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
    names_in,
    props_in,
    walk,
)
from .kripke import Diagnostic, KripkeModel, Pair, _listed, _share, _shared

_EMPTY: frozenset = frozenset()
Family = frozenset[frozenset[str]]


@dataclass(frozen=True)
class NeighborhoodModel:
    states: frozenset[str]
    names: frozenset[str]
    nu: Mapping[Pair, Family]  # (state, name) -> family of state sets
    valuation: Mapping[str, frozenset[str]]
    _cache: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

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
        return cls(
            states=frozenset(states),
            names=frozenset(names),
            nu={k: v for k, v in flat.items() if v},
            valuation={p: frozenset(ws) for p, ws in valuation.items()},
        )

    def family(self, state: str, name: str) -> Family:
        return self.nu.get((state, name), _EMPTY)

    def is_reflexive(self) -> bool:
        """Does every neighborhood contain the state it is attached to?"""
        return all(w in X for (w, _), fam in self.nu.items() for X in fam)

    def holds(self, prop: str, state: str) -> bool:
        return state in self.valuation.get(prop, _EMPTY)


def nbhd_from_dict(d: Mapping[str, Any]) -> NeighborhoodModel:
    try:
        states = frozenset(_listed(d["states"], "states"))
        names = frozenset(_listed(d.get("names", []), "names"))
        nu: dict[Pair, Family] = {}
        for state, per_name in d["nu"].items():
            for name, fam in per_name.items():
                what = f"neighborhoods of {name!r} at {state!r}"
                nu[(state, name)] = frozenset(
                    frozenset(_listed(x, what)) for x in _listed(fam, what)
                )
        valuation = {
            p: _listed(ws, f"valuation of {p!r}") for p, ws in d.get("valuation", {}).items()
        }
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
    for g in walk(f):
        if isinstance(g, (C, D, B)):
            raise UnsupportedFragmentError(
                f"{type(g).__name__} has no neighborhood reading; only E and S do"
            )


def _ext(m: NeighborhoodModel, f: Formula) -> frozenset[str]:
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
                w for w in m.states if all(X <= good for X in m.family(w, name))
            )
        case S(name, arg):
            good = _ext(m, arg)
            out = frozenset(
                w for w in m.states if any(X <= good for X in m.family(w, name))
            )
        case _:
            raise TypeError(f"not a formula: {f!r}")
    out = memo[f] = _shared(out, m.states)
    return out


def extension_nbhd(m: NeighborhoodModel, f: Formula) -> frozenset[str]:
    _assert_supported(f)
    missing_names = names_in(f) - m.names
    if missing_names:
        raise UndeclaredSymbolError(f"undeclared names: {sorted(missing_names)}")
    missing_props = props_in(f) - set(m.valuation)
    if missing_props:
        raise UndeclaredSymbolError(f"undeclared propositions: {sorted(missing_props)}")
    return _ext(m, f)


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
    return NeighborhoodModel(
        states=m.states,
        names=m.names,
        nu=nu,
        valuation=dict(m.valuation),
    )


def stateset_id(X: Iterable[str]) -> str:
    """Canonical agent identifier for a successor set: "{v,w}"."""
    return "{" + ",".join(sorted(X)) + "}"


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

@dataclass(frozen=True)
class ComplexAlgebra:
    """Powerset algebra of a finite neighborhood model with one box/diamond
    pair per name; elements are frozensets of states."""

    model: NeighborhoodModel

    @property
    def top(self) -> frozenset[str]:
        return self.model.states

    @property
    def bot(self) -> frozenset[str]:
        return _EMPTY

    def complement(self, X: frozenset[str]) -> frozenset[str]:
        return self.model.states - X

    def everyone(self, name: str, X: frozenset[str]) -> frozenset[str]:
        return frozenset(
            w
            for w in self.model.states
            if all(Y <= X for Y in self.model.family(w, name))
        )

    def someone(self, name: str, X: frozenset[str]) -> frozenset[str]:
        return frozenset(
            w
            for w in self.model.states
            if any(Y <= X for Y in self.model.family(w, name))
        )


def complex_algebra(m: NeighborhoodModel) -> ComplexAlgebra:
    return ComplexAlgebra(m)


def verify_algebra_equations(
    m: NeighborhoodModel,
    exhaustive_cap: int = 12,
    samples: int = 1000,
    seed: int = 0,
) -> list[Diagnostic]:
    """Check the four laws of the complex algebra, per name.

    1. E_n applied to the full set is the full set.
    2. E_n distributes over intersection.
    3. someone(a) meet everyone(b) entails someone(a meet b).
    4. complement(E_n bot) = S_n top; a state whose only neighborhood is the
       empty set breaks this one, so such states are reported as warnings
       rather than equation failures.

    Laws 2 and 3 range over pairs of subsets: exhaustively up to
    exhaustive_cap states, on a seeded sample of at least `samples` pairs
    beyond that.
    """
    out: list[Diagnostic] = []
    states = sorted(m.states)
    k = len(states)
    index = {s: i for i, s in enumerate(states)}
    full = (1 << k) - 1

    def to_mask(X: Iterable[str]) -> int:
        mask = 0
        for x in X:
            mask |= 1 << index[x]
        return mask

    def to_set(mask: int) -> frozenset[str]:
        return frozenset(s for s in states if mask >> index[s] & 1)

    for n in sorted(m.names):
        fams = [[to_mask(X) for X in m.family(w, n)] for w in states]

        def e_op(x: int) -> int:
            mask = 0
            for i in range(k):
                if all(y & ~x == 0 for y in fams[i]):
                    mask |= 1 << i
            return mask

        def s_op(x: int) -> int:
            mask = 0
            for i in range(k):
                if any(y & ~x == 0 for y in fams[i]):
                    mask |= 1 << i
            return mask

        if e_op(full) != full:
            out.append(
                Diagnostic("error", "eq-top", f"E[{n}] of the full set is not the full set")
            )
        duality_gap = (full & ~e_op(0)) ^ s_op(full)
        for w in sorted(to_set(duality_gap)):
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

        if k <= exhaustive_cap:
            pairs = ((a, b) for a in range(1 << k) for b in range(1 << k))
        else:
            rng = random.Random(seed)
            pairs = (
                (rng.getrandbits(k), rng.getrandbits(k)) for _ in range(samples)
            )
        e_memo: dict[int, int] = {}
        s_memo: dict[int, int] = {}

        def e_at(x: int) -> int:
            v = e_memo.get(x)
            if v is None:
                v = e_memo[x] = e_op(x)
            return v

        def s_at(x: int) -> int:
            v = s_memo.get(x)
            if v is None:
                v = s_memo[x] = s_op(x)
            return v

        for a, b in pairs:
            meet = a & b
            if e_at(meet) != e_at(a) & e_at(b):
                out.append(
                    Diagnostic(
                        "error",
                        "eq-meet",
                        f"E[{n}] fails to distribute over the intersection of"
                        f" {sorted(to_set(a))} and {sorted(to_set(b))}",
                    )
                )
                break
            if s_at(a) & e_at(b) & ~s_at(meet):
                out.append(
                    Diagnostic(
                        "error",
                        "eq-monotone",
                        f"S[{n}] {sorted(to_set(a))} meet E[{n}] {sorted(to_set(b))}"
                        " is not below the combined someone-clause",
                    )
                )
                break
    return out
