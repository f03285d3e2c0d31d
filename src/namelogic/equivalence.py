"""Structural comparisons: frame morphisms, bisimulations, distinguishers.

A frame morphism matches, per name, the image of each named agent's
successor set with some named agent on the other side (forth and back).  A
bisimulation relaxes the equation to a full back-and-forth matching of
successor sets through the relation.  Both notions preserve truth of the
E/S fragment.

Bisimilarity and E/S modal equivalence come from one partition refinement
engine, _refine, run on the disjoint union of the two models: from the atom
profiles it splits blocks by a one-step signature over the current classes
until nothing splits.  Both signatures are built per name from the family
of class sets that the named agents reach.  Bisimilarity keeps the whole
family, since through an equivalence two successor sets match back and
forth exactly when they reach the same classes; greatest_bisimulation is
the cross-side part of the stable partition.  Modal equivalence keeps the
family's minimal sets and its union, all that E and S observe;
distinguishing_formula walks the recorded rounds to build a separating
formula for every pair of blocks, so it returns one exactly when one exists.

Bisimilarity is strictly finer than modal equivalence even on finite
models: one side may carry an extra named agent whose successor set is a
union of others', observable by no formula.  So bisimilar points always
get None, while rare non-bisimilar but equivalent pairs do too.
check_bisimulation, the independent certifier, reads the matching clauses
themselves, not the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .errors import UndeclaredSymbolError
from .formula import And, E, FALSE, Formula, Not, Or, Prop, S, TRUE
from .kripke import KripkeModel, check, disjoint_union

Pair = tuple[str, str]


@dataclass(frozen=True)
class Violation:
    state: Any  # a state, or a state pair for bisimulation checks
    name: Optional[str]
    condition: str  # "there" | "back" | "atoms" | "valuation"
    detail: str


@dataclass(frozen=True)
class MorphismCheckReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BisimRelation:
    pairs: frozenset[Pair]

    @classmethod
    def make(cls, pairs: Iterable[Iterable[str]]) -> "BisimRelation":
        return cls(frozenset((x, y) for x, y in pairs))

    def to_list(self) -> list[list[str]]:
        return [list(p) for p in sorted(self.pairs)]

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


def _report(violations: list[Violation]) -> MorphismCheckReport:
    return MorphismCheckReport(not violations, tuple(violations))


def _atom_profile(m: KripkeModel, w: str, props: Iterable[str]) -> frozenset[str]:
    return frozenset(p for p in props if m.holds(p, w))


# ---------------------------------------------------------------------------
# Frame morphisms

def check_frame_morphism(
    src: KripkeModel,
    dst: KripkeModel,
    f: Mapping[str, str],
    compare_valuations: bool = False,
) -> MorphismCheckReport:
    """Verify the forth and back successor-set equations at every state/name.

    forth: each agent named n at w has a counterpart named n at f(w) whose
    successor set is exactly the image of its own.  back: each counterpart
    arises this way.  With compare_valuations, w and f(w) must also agree on
    the propositions both models interpret.
    """
    if set(f) != set(src.states) or not set(f.values()) <= set(dst.states):
        raise UndeclaredSymbolError(
            "map is not a total function from source states to target states"
        )
    out: list[Violation] = []
    for w in sorted(src.states):
        for n in sorted(src.names | dst.names):
            image_sets = {
                a: frozenset(f[v] for v in src.successors(a, w))
                for a in src.named(w, n)
            }
            targets = {
                a2: dst.successors(a2, f[w]) for a2 in dst.named(f[w], n)
            }
            for a, img in sorted(image_sets.items()):
                if img not in targets.values():
                    out.append(
                        Violation(
                            w,
                            n,
                            "there",
                            f"no agent named {n!r} at {f[w]!r} has successor set"
                            f" {sorted(img)} (image of {a!r})",
                        )
                    )
            for a2, succ in sorted(targets.items()):
                if succ not in image_sets.values():
                    out.append(
                        Violation(
                            w,
                            n,
                            "back",
                            f"successor set {sorted(succ)} of {a2!r} at {f[w]!r} is"
                            f" no image of an agent named {n!r} at {w!r}",
                        )
                    )
    if compare_valuations:
        shared = sorted(set(src.valuation) & set(dst.valuation))
        for w in sorted(src.states):
            if _atom_profile(src, w, shared) != _atom_profile(dst, f[w], shared):
                out.append(
                    Violation(
                        w,
                        None,
                        "valuation",
                        f"{w!r} and {f[w]!r} disagree on shared propositions",
                    )
                )
    return _report(out)


# ---------------------------------------------------------------------------
# Bisimulations

def _matched(b: frozenset[Pair], left: frozenset[str], right: frozenset[str]) -> bool:
    # full back-and-forth matching of two successor sets through b
    return all(any((v, v2) in b for v2 in right) for v in left) and all(
        any((v, v2) in b for v in left) for v2 in right
    )


def _pair_ok(
    m1: KripkeModel, m2: KripkeModel, b: frozenset[Pair], w: str, w2: str
) -> Optional[Violation]:
    for n in sorted(m1.names | m2.names):
        left = {a: m1.successors(a, w) for a in m1.named(w, n)}
        right = {a2: m2.successors(a2, w2) for a2 in m2.named(w2, n)}
        for a, succ in sorted(left.items()):
            if not any(_matched(b, succ, succ2) for succ2 in right.values()):
                return Violation(
                    (w, w2),
                    n,
                    "there",
                    f"agent {a!r} named {n!r} at {w!r} has no matching agent at {w2!r}",
                )
        for a2, succ2 in sorted(right.items()):
            if not any(_matched(b, succ, succ2) for succ in left.values()):
                return Violation(
                    (w, w2),
                    n,
                    "back",
                    f"agent {a2!r} named {n!r} at {w2!r} has no matching agent at {w!r}",
                )
    return None


def check_bisimulation(
    m1: KripkeModel, m2: KripkeModel, b: BisimRelation
) -> MorphismCheckReport:
    """Certify that every pair of b satisfies atom agreement and the per-name
    back-and-forth matching clauses, read against b itself."""
    for w, w2 in b.pairs:
        if w not in m1.states or w2 not in m2.states:
            raise UndeclaredSymbolError(f"pair ({w!r}, {w2!r}) references undeclared states")
    out: list[Violation] = []
    props = sorted(set(m1.valuation) | set(m2.valuation))
    for w, w2 in sorted(b.pairs):
        if _atom_profile(m1, w, props) != _atom_profile(m2, w2, props):
            out.append(
                Violation((w, w2), None, "atoms", f"{w!r} and {w2!r} differ on atoms")
            )
            continue
        bad = _pair_ok(m1, m2, b.pairs, w, w2)
        if bad is not None:
            out.append(bad)
    return _report(out)


def greatest_bisimulation(m1: KripkeModel, m2: KripkeModel) -> BisimRelation:
    """Largest relation passing check_bisimulation: the pairs across the two
    sides of a block of the coarsest stable partition of their union."""
    pairs: set[Pair] = set()
    for block in _refine(disjoint_union([m1, m2]), _bisim_signature)[-1]:
        left = [x[2:] for x in block.members if x.startswith("0:")]
        right = [x[2:] for x in block.members if x.startswith("1:")]
        pairs.update((w, w2) for w in left for w2 in right)
    return BisimRelation(frozenset(pairs))


def bisimilar(m1: KripkeModel, w1: str, m2: KripkeModel, w2: str) -> bool:
    if w1 not in m1.states or w2 not in m2.states:
        raise UndeclaredSymbolError(f"undeclared state in ({w1!r}, {w2!r})")
    return (w1, w2) in greatest_bisimulation(m1, m2).pairs


# ---------------------------------------------------------------------------
# Partition refinement (Kanellakis & Smolka 1990)

class _Block(NamedTuple):
    members: list[str]  # sorted
    parent: Optional[int]  # its block in the previous round; None in the first
    signature: Any  # shared by all members; the atom profile in the first round


def _refine(u: KripkeModel, signature) -> list[list[_Block]]:
    """Start from the atom-profile partition of u's states and split every
    block by signature(u, w, classes) over the previous round's classes until
    a round splits nothing.  Returns the rounds up to the stable partition,
    each block numbered by parent block, then by first member."""
    props = sorted(u.valuation)
    profiles: dict[frozenset[str], list[str]] = {}
    for w in sorted(u.states):
        profiles.setdefault(_atom_profile(u, w, props), []).append(w)
    first = sorted(profiles.items(), key=lambda kv: kv[1])
    rounds = [[_Block(ws, None, atoms) for atoms, ws in first]]
    while True:
        blocks = rounds[-1]
        classes = {w: cid for cid, block in enumerate(blocks) for w in block.members}
        split: list[_Block] = []
        for cid, block in enumerate(blocks):
            groups: dict[Any, list[str]] = {}
            for w in block.members:
                groups.setdefault(signature(u, w, classes), []).append(w)
            split.extend(
                _Block(ws, cid, sig) for sig, ws in sorted(groups.items(), key=lambda kv: kv[1])
            )
        if len(split) == len(blocks):
            return rounds
        rounds.append(split)


def _family(u: KripkeModel, w: str, n: str, classes: Mapping[str, int]):
    """The sets of classes reached by the agents named n at w."""
    return frozenset(frozenset(classes[v] for v in u.successors(a, w)) for a in u.named(w, n))


def _minima(family: frozenset[frozenset[int]]) -> frozenset[frozenset[int]]:
    return frozenset(
        P for P in family if not any(Q < P for Q in family)
    )


def _bisim_signature(u: KripkeModel, w: str, classes: Mapping[str, int]):
    return tuple(_family(u, w, n, classes) for n in sorted(u.names))


def _modal_signature(u: KripkeModel, w: str, classes: Mapping[str, int]):
    # E and S observe only the minimal sets of a family and its union
    fams = (_family(u, w, n, classes) for n in sorted(u.names))
    return tuple((_minima(fam), frozenset().union(*fam)) for fam in fams)


# ---------------------------------------------------------------------------
# Distinguishing formulas

def _conj(parts: list[Formula]) -> Formula:
    if not parts:
        return TRUE
    out = parts[0]
    for g in parts[1:]:
        out = And(out, g)
    return out


def _disj(parts: list[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[0]
    for g in parts[1:]:
        out = Or(out, g)
    return out


def _separator(names: list[str], sig_x, sig_y, chi) -> Formula:
    """Formula true in the block with modal signature sig_x and false in the
    one with sig_y; chi(c) characterizes class c of the previous round."""
    for n, (min_x, union_x), (min_y, union_y) in zip(names, sig_x, sig_y):
        if min_x != min_y:
            for P in sorted(min_x, key=sorted):
                if not any(Q <= P for Q in min_y):
                    return S(n, _disj([chi(c) for c in sorted(P)]))
            for P in sorted(min_y, key=sorted):
                if not any(Q <= P for Q in min_x):
                    return Not(S(n, _disj([chi(c) for c in sorted(P)])))
        if union_x != union_y:
            extra = union_x - union_y
            if extra:
                return Not(E(n, Not(chi(min(extra)))))
            return E(n, Not(chi(min(union_y - union_x))))
    raise AssertionError("states were split without a signature difference")


def _refine_with_formulas(u: KripkeModel):
    """Coarsest partition of u's states invariant under the one-step E/S
    signature, with a separating formula for every pair of distinct blocks."""
    rounds = _refine(u, _modal_signature)
    delta: dict[tuple[int, int], Formula] = {}
    for ci, x in enumerate(rounds[0]):
        for cj, y in enumerate(rounds[0]):
            if ci != cj:
                p = min(x.signature ^ y.signature)
                delta[(ci, cj)] = Prop(p) if p in x.signature else Not(Prop(p))
    names = sorted(u.names)
    for previous, blocks in zip(rounds, rounds[1:]):
        chi_memo: dict[int, Formula] = {}

        def chi(c: int) -> Formula:
            f = chi_memo.get(c)
            if f is None:
                f = chi_memo[c] = _conj(
                    [delta[(c, d)] for d in range(len(previous)) if d != c]
                )
            return f

        new_delta: dict[tuple[int, int], Formula] = {}
        for ci, x in enumerate(blocks):
            for cj, y in enumerate(blocks):
                if ci == cj:
                    continue
                if x.parent != y.parent:
                    new_delta[(ci, cj)] = delta[(x.parent, y.parent)]
                elif (cj, ci) in new_delta:
                    new_delta[(ci, cj)] = Not(new_delta[(cj, ci)])
                else:
                    new_delta[(ci, cj)] = _separator(names, x.signature, y.signature, chi)
        delta = new_delta
    classes = {w: cid for cid, block in enumerate(rounds[-1]) for w in block.members}
    return classes, delta


def distinguishing_formula(
    m1: KripkeModel, w1: str, m2: KripkeModel, w2: str
) -> Optional[Formula]:
    """A formula of the E/S fragment true at (m1, w1) and false at (m2, w2),
    or None when the two points satisfy exactly the same such formulas."""
    if w1 not in m1.states or w2 not in m2.states:
        raise UndeclaredSymbolError(f"undeclared state in ({w1!r}, {w2!r})")
    u = disjoint_union([m1, m2])
    classes, delta = _refine_with_formulas(u)
    x, y = f"0:{w1}", f"1:{w2}"
    if classes[x] == classes[y]:
        return None
    return delta[(classes[x], classes[y])]


def modal_equiv_corpus(
    m1: KripkeModel, w1: str, m2: KripkeModel, w2: str, corpus: Iterable[Formula]
) -> bool:
    """Do the two points agree on every formula of the corpus?"""
    return all(
        check(m1, w1, f).value == check(m2, w2, f).value for f in corpus
    )
